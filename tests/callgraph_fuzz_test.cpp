/**
 * @file
 * Randomized cross-ISA call-graph fuzzing.
 *
 * For each seed, generates a random DAG of small functions, each randomly
 * assigned to the host or NxP ISA (or, in the multi-device variant, to
 * either NxP). Every function combines its own argument with its callees'
 * results using random arithmetic. The whole graph is emitted as
 * assembly for both ISAs, linked into one executable, and executed; the
 * result must match an independent C++ evaluation, regardless of how many
 * ISA boundaries the call tree happens to cross.
 */

#include <gtest/gtest.h>

#include "flick/system.hh"
#include "sim/random.hh"

namespace flick
{
namespace
{

struct FnSpec
{
    unsigned id;
    unsigned where;           //!< 0 = host, 1 = NxP0, 2 = NxP1.
    std::uint64_t mixConst;   //!< Combined into the result.
    std::vector<unsigned> callees; //!< Strictly higher ids (a DAG).
};

/** C++ golden model: f(x) = ((x + sum f_c(x + c_idx)) ^ mix) */
std::uint64_t
evaluate(const std::vector<FnSpec> &fns, unsigned id, std::uint64_t x)
{
    const FnSpec &f = fns[id];
    std::uint64_t acc = x;
    for (std::size_t i = 0; i < f.callees.size(); ++i)
        acc += evaluate(fns, f.callees[i], x + i);
    return acc ^ f.mixConst;
}

/** Emit one function in RV64 assembly. */
std::string
emitRv64(const FnSpec &f)
{
    std::string s = strfmt("fn%u:\n", f.id);
    s += "    addi sp, sp, -32\n"
         "    sd ra, 24(sp)\n"
         "    sd s0, 16(sp)\n"
         "    sd s1, 8(sp)\n"
         "    mv s0, a0\n"  // x
         "    mv s1, a0\n"; // acc
    for (std::size_t i = 0; i < f.callees.size(); ++i) {
        s += strfmt("    addi a0, s0, %zu\n", i);
        s += strfmt("    call fn%u\n", f.callees[i]);
        s += "    add s1, s1, a0\n";
    }
    s += strfmt("    li t0, %llu\n",
                (unsigned long long)f.mixConst);
    s += "    xor a0, s1, t0\n"
         "    ld s1, 8(sp)\n"
         "    ld s0, 16(sp)\n"
         "    ld ra, 24(sp)\n"
         "    addi sp, sp, 32\n"
         "    ret\n";
    return s;
}

/** Emit one function in HX64 assembly (optionally as a "__host" twin). */
std::string
emitHx64(const FnSpec &f, const char *suffix = "")
{
    std::string s = strfmt("fn%u%s:\n", f.id, suffix);
    s += "    push rbx\n"
         "    push rbp\n"
         "    mov rbx, rdi\n"  // x
         "    mov rbp, rdi\n"; // acc
    for (std::size_t i = 0; i < f.callees.size(); ++i) {
        s += "    mov rdi, rbx\n";
        s += strfmt("    add rdi, %zu\n", i);
        s += strfmt("    call fn%u\n", f.callees[i]);
        s += "    add rbp, rax\n";
    }
    s += strfmt("    mov rax, %llu\n",
                (unsigned long long)f.mixConst);
    s += "    xor rax, rbp\n"
         "    pop rbp\n"
         "    pop rbx\n"
         "    ret\n";
    return s;
}

std::vector<FnSpec>
makeGraph(Rng &rng, unsigned count, unsigned isa_choices)
{
    std::vector<FnSpec> fns(count);
    for (unsigned i = 0; i < count; ++i) {
        fns[i].id = i;
        fns[i].where = static_cast<unsigned>(rng.below(isa_choices));
        fns[i].mixConst = rng.below(1 << 30);
        // Up to three callees with strictly larger ids.
        unsigned max_callees =
            i + 1 < count ? static_cast<unsigned>(rng.below(4)) : 0;
        for (unsigned c = 0; c < max_callees; ++c) {
            unsigned callee =
                i + 1 + static_cast<unsigned>(rng.below(count - i - 1));
            fns[i].callees.push_back(callee);
        }
    }
    return fns;
}

class CallGraphFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(CallGraphFuzz, MatchesGoldenModel)
{
    Rng rng(5000 + GetParam());
    const unsigned count = 8 + static_cast<unsigned>(rng.below(8));
    std::vector<FnSpec> fns = makeGraph(rng, count, 2);

    std::string host_src, nxp_src;
    for (const FnSpec &f : fns)
        (f.where == 0 ? host_src : nxp_src) +=
            (f.where == 0 ? emitHx64(f) : emitRv64(f));

    FlickSystem sys;
    Program prog;
    if (!host_src.empty())
        prog.addHostAsm(host_src);
    if (!nxp_src.empty())
        prog.addNxpAsm(nxp_src);
    Process &proc = sys.load(prog);

    for (std::uint64_t x : {0ull, 1ull, 12345ull}) {
        std::uint64_t expect = evaluate(fns, 0, x);
        std::uint64_t got = sys.call(proc, "fn0", {x});
        ASSERT_EQ(got, expect)
            << "seed " << GetParam() << " x=" << x << " functions="
            << count;
    }
}

TEST_P(CallGraphFuzz, MatchesGoldenModelAcrossTwoDevices)
{
    Rng rng(6000 + GetParam());
    const unsigned count = 6 + static_cast<unsigned>(rng.below(6));
    std::vector<FnSpec> fns = makeGraph(rng, count, 3);

    std::string host_src, nxp0_src, nxp1_src;
    for (const FnSpec &f : fns) {
        if (f.where == 0)
            host_src += emitHx64(f);
        else if (f.where == 1)
            nxp0_src += emitRv64(f);
        else
            nxp1_src += emitRv64(f);
    }

    SystemConfig cfg;
    cfg.withDevices(2);
    FlickSystem sys(cfg);
    Program prog;
    if (!host_src.empty())
        prog.addHostAsm(host_src);
    if (!nxp0_src.empty())
        prog.addNxpAsm(nxp0_src, 0);
    if (!nxp1_src.empty())
        prog.addNxpAsm(nxp1_src, 1);
    Process &proc = sys.load(prog);

    std::uint64_t x = rng.below(1 << 20);
    ASSERT_EQ(sys.call(proc, "fn0", {x}), evaluate(fns, 0, x))
        << "seed " << GetParam();
}

TEST_P(CallGraphFuzz, MatchesGoldenModelUnderChaos)
{
    // Same random DAGs, but with the fabric injecting descriptor
    // corruption, lost/duplicated interrupts and jitter: the hardened
    // protocol must make every cross-ISA edge exact anyway.
    Rng rng(7000 + GetParam());
    const unsigned count = 8 + static_cast<unsigned>(rng.below(8));
    std::vector<FnSpec> fns = makeGraph(rng, count, 2);

    std::string host_src, nxp_src;
    for (const FnSpec &f : fns)
        (f.where == 0 ? host_src : nxp_src) +=
            (f.where == 0 ? emitHx64(f) : emitRv64(f));

    ChaosConfig chaos;
    chaos.enabled = true;
    chaos.seed = 9000 + GetParam();
    chaos.corruptRate = 0.15;
    chaos.dropIrqRate = 0.10;
    chaos.duplicateIrqRate = 0.10;
    chaos.delayRate = 0.30;

    FlickSystem sys(SystemConfig{}.withChaos(chaos));
    Program prog;
    if (!host_src.empty())
        prog.addHostAsm(host_src);
    if (!nxp_src.empty())
        prog.addNxpAsm(nxp_src);
    Process &proc = sys.load(prog);

    for (std::uint64_t x : {0ull, 1ull, 12345ull}) {
        std::uint64_t expect = evaluate(fns, 0, x);
        std::uint64_t got = sys.call(proc, "fn0", {x});
        ASSERT_EQ(got, expect)
            << "seed " << GetParam() << " chaos seed " << chaos.seed
            << " x=" << x << " functions=" << count;
    }
}

TEST_P(CallGraphFuzz, MatchesGoldenModelUnderEndpointFaultsWithFallback)
{
    // Endpoint faults (wedged NxP cores, device death, stuck DMA) with
    // host-native failover enabled. Failover re-runs the interrupted
    // call from its recorded arguments, so it is only exact for calls
    // without externally visible side effects mid-call: force every
    // NxP-assigned function to be a leaf and give each one an hx64
    // "__host" twin. However many devices die or wedge, fn0 must still
    // produce the golden-model value.
    Rng rng(8000 + GetParam());
    const unsigned count = 8 + static_cast<unsigned>(rng.below(8));
    std::vector<FnSpec> fns = makeGraph(rng, count, 2);
    for (FnSpec &f : fns)
        if (f.where != 0)
            f.callees.clear();

    std::string host_src, nxp_src;
    for (const FnSpec &f : fns) {
        if (f.where == 0) {
            host_src += emitHx64(f);
        } else {
            nxp_src += emitRv64(f);
            host_src += emitHx64(f, "__host");
        }
    }

    ChaosConfig chaos;
    chaos.enabled = true;
    chaos.seed = 9500 + GetParam();
    chaos.wedgeNxpRate = 0.20;
    chaos.wedgeProgressInstructions = 4;
    chaos.deviceDeathRate = 0.10;
    chaos.stuckDmaRate = 0.05;

    FlickSystem sys(SystemConfig{}
                        .withChaos(chaos)
                        .withHostFallback()
                        .withHealthStrikeLimit(1));
    Program prog;
    if (!host_src.empty())
        prog.addHostAsm(host_src);
    if (!nxp_src.empty())
        prog.addNxpAsm(nxp_src);
    Process &proc = sys.load(prog);

    for (std::uint64_t x : {0ull, 1ull, 12345ull}) {
        std::uint64_t expect = evaluate(fns, 0, x);
        std::uint64_t got = sys.call(proc, "fn0", {x});
        ASSERT_EQ(got, expect)
            << "seed " << GetParam() << " chaos seed " << chaos.seed
            << " x=" << x << " functions=" << count;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CallGraphFuzz, ::testing::Range(0, 12));

} // namespace
} // namespace flick
