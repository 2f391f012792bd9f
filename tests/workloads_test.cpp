/**
 * @file
 * Tests for the workloads: pointer-chase integrity, graph generation,
 * BFS correctness against the reference implementation.
 */

#include <gtest/gtest.h>

#include "workloads/bfs.hh"
#include "workloads/graph.hh"
#include "workloads/microbench.hh"
#include "workloads/pointer_chase.hh"

namespace flick
{
namespace
{

using namespace workloads;

class WorkloadTest : public ::testing::Test
{
  protected:
    void
    boot()
    {
        sys = std::make_unique<FlickSystem>(config);
        Program prog;
        addMicrobench(prog);
        addPointerChaseKernels(prog);
        addBfsKernels(prog);
        proc = &sys->load(prog);
    }

    SystemConfig config;
    std::unique_ptr<FlickSystem> sys;
    Process *proc = nullptr;
};

TEST_F(WorkloadTest, PointerChaseListIsASingleCycle)
{
    boot();
    PointerChaseList list(*sys, *proc, 256, 1 << 20, 42);
    // Following size() pointers returns to the head.
    EXPECT_EQ(list.expectedAfter(*sys, *proc, list.size()), list.head());
    // And never earlier (it is one cycle, not several).
    VAddr node = list.head();
    for (std::uint64_t i = 1; i < list.size(); ++i) {
        node = sys->readVa(*proc, node);
        EXPECT_NE(node, list.head()) << "short cycle at " << i;
    }
}

TEST_F(WorkloadTest, ChaseKernelsAgreeWithReference)
{
    boot();
    PointerChaseList list(*sys, *proc, 512, 1 << 20, 7);
    VAddr expect = list.expectedAfter(*sys, *proc, 100);
    EXPECT_EQ(sys->call(*proc, "chase_nxp", {list.head(), 100}), expect);
    EXPECT_EQ(sys->call(*proc, "chase_host", {list.head(), 100}), expect);
}

TEST_F(WorkloadTest, ChaseZeroHopsReturnsHead)
{
    boot();
    PointerChaseList list(*sys, *proc, 16, 1 << 16, 3);
    EXPECT_EQ(sys->call(*proc, "chase_nxp", {list.head(), 0}),
              list.head());
}

TEST_F(WorkloadTest, NxpChaseIsFasterPerNodeThanHost)
{
    boot();
    PointerChaseList list(*sys, *proc, 1024, 1 << 22, 9);
    // Long traversals amortize the migration: NxP must win (Figure 5a).
    Tick t0 = sys->now();
    sys->call(*proc, "chase_nxp", {list.head(), 1024});
    Tick nxp_time = sys->now() - t0;
    t0 = sys->now();
    sys->call(*proc, "chase_host", {list.head(), 1024});
    Tick host_time = sys->now() - t0;
    EXPECT_LT(nxp_time, host_time);
}

TEST(GraphSpec, DatasetsMatchTableIv)
{
    auto specs = snapDatasets(1);
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_EQ(specs[0].name, "Epinions1");
    EXPECT_EQ(specs[0].vertices, 76'000u);
    EXPECT_EQ(specs[0].edges, 509'000u);
    EXPECT_EQ(specs[1].name, "Pokec");
    EXPECT_EQ(specs[1].vertices, 1'633'000u);
    EXPECT_EQ(specs[2].name, "LiveJournal1");
    EXPECT_EQ(specs[2].edges, 68'994'000u);

    auto scaled = snapDatasets(10);
    EXPECT_EQ(scaled[0].vertices, 7'600u);
    EXPECT_EQ(scaled[0].edges, 50'900u);
}

TEST(CsrGraph, GenerationInvariants)
{
    GraphSpec spec{"test", 1000, 8000, 5, 0};
    CsrGraph g = CsrGraph::generate(spec);
    EXPECT_EQ(g.vertices(), 1000u);
    // Edge count within 5% of the target (rounding of per-vertex share).
    EXPECT_NEAR(static_cast<double>(g.edges()), 8000.0, 400.0);

    // CSR is well formed.
    EXPECT_EQ(g.rowOff().front(), 0u);
    EXPECT_EQ(g.rowOff().back(), g.edges());
    for (std::size_t v = 0; v < g.vertices(); ++v)
        EXPECT_LE(g.rowOff()[v], g.rowOff()[v + 1]);
    for (std::uint64_t e : g.col())
        EXPECT_LT(e, g.vertices());
}

TEST(CsrGraph, FullyConnectedFromVertexZero)
{
    GraphSpec spec{"test", 500, 3000, 6, 0};
    CsrGraph g = CsrGraph::generate(spec);
    // Preferential attachment with symmetric edges keeps everything in
    // vertex 0's component.
    EXPECT_EQ(g.reachableFrom(0), g.vertices());
}

TEST(CsrGraph, PowerLawSkew)
{
    GraphSpec spec{"test", 2000, 20000, 8, 0};
    CsrGraph g = CsrGraph::generate(spec);
    // The max degree should be far above the average (hub vertices).
    std::uint64_t max_degree = 0;
    for (std::size_t v = 0; v < g.vertices(); ++v)
        max_degree = std::max(max_degree,
                              g.rowOff()[v + 1] - g.rowOff()[v]);
    double avg = static_cast<double>(g.edges()) /
                 static_cast<double>(g.vertices());
    EXPECT_GT(static_cast<double>(max_degree), 8 * avg);
}

TEST(CsrGraph, Deterministic)
{
    GraphSpec spec{"test", 300, 2000, 9, 0};
    CsrGraph a = CsrGraph::generate(spec);
    CsrGraph b = CsrGraph::generate(spec);
    EXPECT_EQ(a.rowOff(), b.rowOff());
    EXPECT_EQ(a.col(), b.col());
}

TEST_F(WorkloadTest, BfsNxpMatchesReference)
{
    boot();
    GraphSpec spec{"test", 400, 2500, 10, 0};
    CsrGraph g = CsrGraph::generate(spec);
    DeviceGraph d = uploadGraph(*sys, *proc, g);

    std::uint64_t count = sys->call(
        *proc, "bfs_nxp", {d.rowOff, d.col, d.visited, d.queue, 0, 0});
    EXPECT_EQ(count, g.reachableFrom(0));
    EXPECT_EQ(count, g.vertices());
}

TEST_F(WorkloadTest, BfsHostMatchesReference)
{
    boot();
    GraphSpec spec{"test", 400, 2500, 10, 0};
    CsrGraph g = CsrGraph::generate(spec);
    DeviceGraph d = uploadGraph(*sys, *proc, g);

    std::uint64_t count = sys->call(
        *proc, "bfs_host", {d.rowOff, d.col, d.visited, d.queue, 0, 0});
    EXPECT_EQ(count, g.reachableFrom(0));
}

TEST_F(WorkloadTest, BfsWithCallbackMigratesPerVertex)
{
    boot();
    GraphSpec spec{"test", 64, 400, 11, 0};
    CsrGraph g = CsrGraph::generate(spec);
    DeviceGraph d = uploadGraph(*sys, *proc, g);
    VAddr cb = proc->image.symbol("bfs_dummy");

    std::uint64_t count = sys->call(
        *proc, "bfs_nxp", {d.rowOff, d.col, d.visited, d.queue, 0, cb});
    EXPECT_EQ(count, g.vertices());
    // One NxP->host round trip per discovered vertex (the paper's BFS).
    EXPECT_EQ(sys->debug().engine().stats().get("nxp_to_host_calls"),
              g.vertices());
}

TEST_F(WorkloadTest, BfsRepeatedIterationsWithReset)
{
    boot();
    GraphSpec spec{"test", 128, 800, 12, 0};
    CsrGraph g = CsrGraph::generate(spec);
    DeviceGraph d = uploadGraph(*sys, *proc, g);

    for (int it = 0; it < 3; ++it) {
        resetVisited(*sys, *proc, d);
        std::uint64_t count = sys->call(
            *proc, "bfs_nxp",
            {d.rowOff, d.col, d.visited, d.queue, 0, 0});
        ASSERT_EQ(count, g.vertices()) << "iteration " << it;
    }
}

TEST_F(WorkloadTest, BfsFromNonZeroSource)
{
    boot();
    GraphSpec spec{"test", 200, 1200, 13, 0};
    CsrGraph g = CsrGraph::generate(spec);
    DeviceGraph d = uploadGraph(*sys, *proc, g);
    std::uint64_t count = sys->call(
        *proc, "bfs_nxp", {d.rowOff, d.col, d.visited, d.queue, 17, 0});
    EXPECT_EQ(count, g.reachableFrom(17));
}

TEST_F(WorkloadTest, UploadedGraphBytesMatch)
{
    boot();
    GraphSpec spec{"test", 50, 300, 14, 0};
    CsrGraph g = CsrGraph::generate(spec);
    DeviceGraph d = uploadGraph(*sys, *proc, g);
    for (std::size_t v = 0; v <= g.vertices(); ++v)
        ASSERT_EQ(sys->readVa(*proc, d.rowOff + 8 * v), g.rowOff()[v]);
    for (std::size_t e = 0; e < g.edges(); ++e)
        ASSERT_EQ(sys->readVa(*proc, d.col + 8 * e), g.col()[e]);
}

} // namespace
} // namespace flick
