/**
 * @file
 * Heap allocations on the crossing path. This binary replaces the global
 * operator new to count its calls. Once warmed up, a crossing allocates
 * nothing: events, DMA completions and engine continuations hold their
 * closures inline (sim/inline_callback.hh), register contexts are fixed
 * arrays and call arguments are passed as spans. What a call still
 * allocates is its own bookkeeping, once per call, not per crossing.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>

#include "flick/system.hh"
#include "workloads/microbench.hh"

namespace
{

std::uint64_t allocations = 0;

} // namespace

void *
operator new(std::size_t bytes)
{
    ++allocations;
    if (void *p = std::malloc(bytes ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace flick
{
namespace
{

TEST(AllocationCounter, CountsOperatorNew)
{
    std::uint64_t before = allocations;
    auto p = std::make_unique<int>(7);
    EXPECT_EQ(allocations - before, 1u);
    EXPECT_EQ(*p, 7);
}

class CrossingAllocations : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        sys = std::make_unique<FlickSystem>(SystemConfig{});
        Program prog;
        workloads::addMicrobench(prog);
        proc = &sys->load(prog);
    }

    std::unique_ptr<FlickSystem> sys;
    Process *proc = nullptr;
};

/**
 * nxp_calls_host(n) makes n nested NxP->host->NxP trips inside one
 * host->NxP call, whose bookkeeping is all that may allocate (the
 * engine once made 23 allocations per trip).
 */
TEST_F(CrossingAllocations, NestedTripIsAllocationFree)
{
    constexpr std::uint64_t trips = 4096;
    const std::vector<std::uint64_t> args{trips};
    ASSERT_EQ(sys->call(*proc, "nxp_calls_host", args), 0u); // warm-up
    std::vector<std::uint64_t> call_args = args;
    const std::uint64_t before = allocations;
    const std::uint64_t rv =
        sys->call(*proc, "nxp_calls_host", std::move(call_args));
    const std::uint64_t made = allocations - before;
    EXPECT_EQ(rv, 0u);
    EXPECT_LT(double(made) / trips, 0.05) << made << " allocations";
}

/**
 * A host->NxP->host call allocates its future's state, its _exec node
 * and its frame stack, and nothing per crossing (the engine once made 26
 * allocations per call).
 */
TEST_F(CrossingAllocations, HostToNxpCallMakesAtMostThree)
{
    for (int i = 0; i < 10; ++i)
        sys->call(*proc, "nxp_noop"); // warm-up
    constexpr std::uint64_t calls = 1000;
    const std::uint64_t before = allocations;
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < calls; ++i)
        sum += sys->call(*proc, "nxp_noop");
    const std::uint64_t made = allocations - before;
    EXPECT_EQ(sum, 0u);
    EXPECT_LE(made, 3 * calls) << made << " allocations";
}

} // namespace
} // namespace flick
