/**
 * @file
 * Tests for the tracing and latency-attribution layer (DESIGN.md §10):
 * zero footprint and tick-for-tick identity with tracing off, exact
 * per-call phase decomposition with it on, well-formed Perfetto JSON
 * with paired flow arrows, and deterministic dumpStats() output.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "flick/system.hh"
#include "sim/trace.hh"
#include "workloads/microbench.hh"

namespace flick
{
namespace
{

/** Outcome of one scripted run: every return value plus the final tick. */
struct RunResult
{
    std::vector<std::uint64_t> values;
    Tick finalTick = 0;
};

/**
 * A fixed call mix covering the host->NxP, NxP->host-callback and
 * concurrent paths, so every phase of the attribution model is hit.
 */
RunResult
runWorkload(const SystemConfig &config)
{
    FlickSystem sys(config);
    Program prog;
    workloads::addMicrobench(prog);
    Process &proc = sys.load(prog);

    Task &t1 = sys.spawnThread(proc);
    RunResult r;
    r.values.push_back(sys.call(proc, "nxp_noop"));
    r.values.push_back(sys.call(proc, "nxp_add", {40, 2}));
    r.values.push_back(sys.call(proc, "nxp_calls_host", {2}));
    auto f1 = sys.submit(proc, CallSpec("nxp_add").withArgs({1, 2}));
    auto f2 = sys.submit(
        proc, CallSpec("nxp_add").withArgs({3, 4}).onThread(t1));
    r.values.push_back(f1.wait());
    r.values.push_back(f2.wait());
    r.finalTick = sys.now();
    return r;
}

// ---------------------------------------------------------------------
// A minimal recursive-descent JSON parser — just enough to load the
// Perfetto document back and inspect it, with no external dependency.
// ---------------------------------------------------------------------

struct JsonValue
{
    enum Kind { null, boolean, number, string, array, object } kind = null;
    bool b = false;
    double num = 0;
    std::string str;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> fields;

    bool has(const std::string &key) const { return fields.count(key) != 0; }
    const JsonValue &operator[](const std::string &key) const
    {
        static const JsonValue missing;
        auto it = fields.find(key);
        return it == fields.end() ? missing : it->second;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : _s(text) {}

    bool
    parse(JsonValue &out)
    {
        bool ok = value(out);
        skipWs();
        return ok && _pos == _s.size();
    }

  private:
    void
    skipWs()
    {
        while (_pos < _s.size() && (_s[_pos] == ' ' || _s[_pos] == '\t' ||
                                    _s[_pos] == '\n' || _s[_pos] == '\r'))
            ++_pos;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = std::string(word).size();
        if (_s.compare(_pos, n, word) != 0)
            return false;
        _pos += n;
        return true;
    }

    bool
    value(JsonValue &out)
    {
        skipWs();
        if (_pos >= _s.size())
            return false;
        char c = _s[_pos];
        if (c == '{')
            return objectValue(out);
        if (c == '[')
            return arrayValue(out);
        if (c == '"') {
            out.kind = JsonValue::string;
            return stringValue(out.str);
        }
        if (c == 't') {
            out.kind = JsonValue::boolean;
            out.b = true;
            return literal("true");
        }
        if (c == 'f') {
            out.kind = JsonValue::boolean;
            return literal("false");
        }
        if (c == 'n') {
            out.kind = JsonValue::null;
            return literal("null");
        }
        return numberValue(out);
    }

    bool
    stringValue(std::string &out)
    {
        if (_s[_pos] != '"')
            return false;
        ++_pos;
        out.clear();
        while (_pos < _s.size() && _s[_pos] != '"') {
            if (_s[_pos] == '\\') {
                if (++_pos >= _s.size())
                    return false;
                // The exporter only ever escapes these.
                char e = _s[_pos];
                out += e == 'n' ? '\n' : e == 't' ? '\t' : e;
            } else {
                out += _s[_pos];
            }
            ++_pos;
        }
        if (_pos >= _s.size())
            return false;
        ++_pos;
        return true;
    }

    bool
    numberValue(JsonValue &out)
    {
        std::size_t start = _pos;
        if (_pos < _s.size() && (_s[_pos] == '-' || _s[_pos] == '+'))
            ++_pos;
        while (_pos < _s.size() &&
               ((_s[_pos] >= '0' && _s[_pos] <= '9') || _s[_pos] == '.' ||
                _s[_pos] == 'e' || _s[_pos] == 'E' || _s[_pos] == '-' ||
                _s[_pos] == '+'))
            ++_pos;
        if (_pos == start)
            return false;
        out.kind = JsonValue::number;
        out.num = std::stod(_s.substr(start, _pos - start));
        return true;
    }

    bool
    arrayValue(JsonValue &out)
    {
        out.kind = JsonValue::array;
        ++_pos; // '['
        skipWs();
        if (_pos < _s.size() && _s[_pos] == ']') {
            ++_pos;
            return true;
        }
        while (true) {
            JsonValue v;
            if (!value(v))
                return false;
            out.items.push_back(std::move(v));
            skipWs();
            if (_pos >= _s.size())
                return false;
            if (_s[_pos] == ',') {
                ++_pos;
                continue;
            }
            if (_s[_pos] == ']') {
                ++_pos;
                return true;
            }
            return false;
        }
    }

    bool
    objectValue(JsonValue &out)
    {
        out.kind = JsonValue::object;
        ++_pos; // '{'
        skipWs();
        if (_pos < _s.size() && _s[_pos] == '}') {
            ++_pos;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (_pos >= _s.size() || !stringValue(key))
                return false;
            skipWs();
            if (_pos >= _s.size() || _s[_pos] != ':')
                return false;
            ++_pos;
            JsonValue v;
            if (!value(v))
                return false;
            out.fields[key] = std::move(v);
            skipWs();
            if (_pos >= _s.size())
                return false;
            if (_s[_pos] == ',') {
                ++_pos;
                continue;
            }
            if (_s[_pos] == '}') {
                ++_pos;
                return true;
            }
            return false;
        }
    }

    const std::string &_s;
    std::size_t _pos = 0;
};

// ---------------------------------------------------------------------
// Trace-off guarantees.
// ---------------------------------------------------------------------

TEST(TraceOff, ZeroFootprintByDefault)
{
    SystemConfig cfg;
    FlickSystem sys(cfg);
    Program prog;
    workloads::addMicrobench(prog);
    Process &proc = sys.load(prog);
    EXPECT_EQ(sys.call(proc, "nxp_add", {40, 2}), 42u);
    EXPECT_EQ(sys.call(proc, "nxp_calls_host", {2}), 0u);

    Tracer &trace = sys.debug().trace();
    EXPECT_FALSE(trace.on());
    EXPECT_TRUE(trace.events().empty());
    EXPECT_TRUE(trace.gauges().empty());
    EXPECT_TRUE(trace.calls().empty());
    // Not just empty: never touched. The off path must allocate nothing.
    EXPECT_EQ(trace.events().capacity(), 0u);
    EXPECT_EQ(trace.gauges().capacity(), 0u);

    // The QoS front door's admit/queue/shed/dequeue decisions stay off
    // the trace too.
    QosConfig q;
    q.tenantInFlight = 1;
    q.tenantQueueCap = 1;
    FlickSystem qsys(SystemConfig{}.withQos(q));
    Process &qproc = qsys.load(prog);
    std::vector<CallFuture> futs;
    futs.push_back(qsys.submit(qproc, CallSpec("nxp_add").withArgs({1, 2})));
    for (int i = 0; i < 2; ++i) {
        Task &t = qsys.spawnThread(qproc);
        futs.push_back(qsys.submit(
            qproc, CallSpec("nxp_add").withArgs({1, 2}).onThread(t)));
    }
    for (CallFuture &f : futs)
        f.wait();
    EXPECT_EQ(futs[2].status(), CallStatus::shedLoad);
    EXPECT_EQ(qsys.debug().engine().stats().get("qos.shed"), 1u);
    EXPECT_EQ(qsys.debug().engine().stats().get("qos.dequeued"), 1u);
    EXPECT_EQ(qsys.debug().trace().events().capacity(), 0u);
}

TEST(TraceOff, TickForTickIdenticalToTracedRun)
{
    RunResult off = runWorkload(SystemConfig{});
    RunResult on = runWorkload(SystemConfig{}.withTrace());
    EXPECT_EQ(off.finalTick, on.finalTick);
    EXPECT_EQ(off.values, on.values);
}

TEST(TraceOff, TickForTickIdenticalUnderChaos)
{
    ChaosConfig chaos;
    chaos.enabled = true;
    chaos.seed = 1234;
    chaos.corruptRate = 0.05;
    chaos.dropIrqRate = 0.05;
    chaos.delayRate = 0.1;
    RunResult off = runWorkload(SystemConfig{}.withChaos(chaos));
    RunResult on = runWorkload(SystemConfig{}.withChaos(chaos).withTrace());
    EXPECT_EQ(off.finalTick, on.finalTick);
    EXPECT_EQ(off.values, on.values);
}

TEST(TracePointNames, EveryEnumeratorHasADistinctName)
{
    // qosCancel is the last enumerator: the value past it has no name,
    // so a point appended later must extend this loop.
    constexpr int last = static_cast<int>(TracePoint::qosCancel);
    std::set<std::string> names;
    for (int i = 0; i <= last; ++i) {
        const char *name = tracePointName(static_cast<TracePoint>(i));
        EXPECT_STRNE(name, "?") << "point " << i;
        EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
    }
    EXPECT_STREQ(tracePointName(static_cast<TracePoint>(last + 1)), "?");
}

// ---------------------------------------------------------------------
// Attribution exactness.
// ---------------------------------------------------------------------

class TracedSystem : public ::testing::Test
{
  protected:
    void
    boot()
    {
        config.withTrace();
        sys = std::make_unique<FlickSystem>(config);
        Program prog;
        workloads::addMicrobench(prog);
        proc = &sys->load(prog);
    }

    SystemConfig config;
    std::unique_ptr<FlickSystem> sys;
    Process *proc = nullptr;
};

TEST_F(TracedSystem, PhaseDurationsSumToEndToEnd)
{
    boot();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(sys->call(*proc, "nxp_add",
                            {static_cast<std::uint64_t>(i), 1}),
                  static_cast<std::uint64_t>(i) + 1);

    Tracer &trace = sys->debug().trace();
    ASSERT_EQ(trace.calls().size(), 8u);
    Tick end_to_end = 0;
    for (const auto &[id, c] : trace.calls()) {
        ASSERT_NE(c.end, 0u) << "call " << id << " not finished";
        EXPECT_FALSE(c.failed);
        EXPECT_EQ(c.phaseSum(), c.end - c.start)
            << "call " << id << " decomposition is not exact";
        end_to_end += c.end - c.start;
    }

    // The aggregate histograms account for every closed interval too.
    Tick phase_total = 0;
    for (unsigned i = 0; i < numTracePhases; ++i)
        phase_total += trace.phaseStats(static_cast<TracePhase>(i)).total;
    EXPECT_EQ(phase_total, end_to_end);

    // The migration path itself showed up where expected.
    EXPECT_GT(trace.phaseStats(TracePhase::nxFault).count, 0u);
    EXPECT_GT(trace.phaseStats(TracePhase::dmaToNxp).count, 0u);
    EXPECT_GT(trace.phaseStats(TracePhase::dmaToHost).count, 0u);
    EXPECT_GT(trace.phaseStats(TracePhase::msiDelivery).count, 0u);
}

TEST_F(TracedSystem, NestedCallbackAttributionStaysExact)
{
    boot();
    EXPECT_EQ(sys->call(*proc, "nxp_calls_host", {3}), 0u);

    Tracer &trace = sys->debug().trace();
    ASSERT_EQ(trace.calls().size(), 1u);
    const TraceCallSummary &c = trace.calls().begin()->second;
    ASSERT_NE(c.end, 0u);
    EXPECT_EQ(c.phaseSum(), c.end - c.start);
    // The NxP ran the loop, and each of the three host callbacks
    // crossed back: host-side execution inside an NxP-initiated call.
    auto ticksOf = [&](TracePhase ph) {
        return c.phaseTicks[static_cast<unsigned>(ph)];
    };
    EXPECT_GT(ticksOf(TracePhase::nxpExec), 0u);
    EXPECT_GT(ticksOf(TracePhase::hostExec), 0u);
    EXPECT_GT(ticksOf(TracePhase::dmaToHost), 0u);
    EXPECT_GT(ticksOf(TracePhase::dmaToNxp), 0u);
}

TEST_F(TracedSystem, ResetDropsDataButKeepsRecording)
{
    boot();
    sys->call(*proc, "nxp_noop");
    Tracer &trace = sys->debug().trace();
    EXPECT_FALSE(trace.events().empty());
    trace.reset();
    EXPECT_TRUE(trace.on());
    EXPECT_TRUE(trace.events().empty());
    EXPECT_TRUE(trace.calls().empty());
    EXPECT_EQ(trace.phaseStats(TracePhase::nxFault).count, 0u);
    sys->call(*proc, "nxp_noop");
    EXPECT_EQ(trace.calls().size(), 1u);
}

TEST_F(TracedSystem, GaugesTrackRingsAndInFlightCalls)
{
    boot();
    Task &t1 = sys->spawnThread(*proc);
    auto f1 = sys->submit(*proc, CallSpec("nxp_add").withArgs({1, 2}));
    auto f2 = sys->submit(*proc, CallSpec("nxp_add")
                                     .withArgs({3, 4})
                                     .onThread(t1));
    f1.wait();
    f2.wait();

    Tracer &trace = sys->debug().trace();
    std::uint64_t max_in_flight = 0;
    bool saw_h2d = false, saw_d2h = false, saw_dma = false;
    for (const TraceGaugeSample &g : trace.gauges()) {
        if (g.gauge == TraceGauge::inFlightCalls)
            max_in_flight = std::max(max_in_flight, g.value);
        saw_h2d |= g.gauge == TraceGauge::h2dRing;
        saw_d2h |= g.gauge == TraceGauge::d2hRing;
        saw_dma |= g.gauge == TraceGauge::dmaQueue;
    }
    EXPECT_EQ(max_in_flight, 2u);
    EXPECT_TRUE(saw_h2d);
    EXPECT_TRUE(saw_d2h);
    EXPECT_TRUE(saw_dma);
}

// ---------------------------------------------------------------------
// Perfetto JSON export.
// ---------------------------------------------------------------------

TEST_F(TracedSystem, JsonDocumentParsesBack)
{
    boot();
    sys->call(*proc, "nxp_add", {40, 2});
    sys->call(*proc, "nxp_calls_host", {2});

    std::ostringstream os;
    sys->debug().trace().dumpJson(os);
    std::string text = os.str();

    JsonValue doc;
    ASSERT_TRUE(JsonParser(text).parse(doc)) << "invalid JSON:\n" << text;
    ASSERT_EQ(doc.kind, JsonValue::object);
    EXPECT_EQ(doc["displayTimeUnit"].str, "ns");
    ASSERT_EQ(doc["traceEvents"].kind, JsonValue::array);
    EXPECT_FALSE(doc["traceEvents"].items.empty());

    bool named_host = false, named_nxp = false;
    int instants = 0;
    for (const JsonValue &e : doc["traceEvents"].items) {
        ASSERT_EQ(e.kind, JsonValue::object);
        ASSERT_TRUE(e.has("ph"));
        const std::string &ph = e["ph"].str;
        if (ph == "i") {
            // Instants name their task and carry their arg.
            EXPECT_TRUE(e["args"].has("task"));
            EXPECT_TRUE(e["args"].has("arg"));
            ++instants;
        } else if (ph == "X") {
            // Complete slices carry a track and a duration.
            EXPECT_TRUE(e.has("ts"));
            EXPECT_TRUE(e.has("dur"));
            EXPECT_TRUE(e.has("pid"));
            EXPECT_TRUE(e.has("tid"));
            EXPECT_GE(e["dur"].num, 0.0);
        } else if (ph == "M") {
            if (e["args"]["name"].str == "host")
                named_host = true;
            if (e["args"]["name"].str == "nxp0")
                named_nxp = true;
        } else if (ph == "C") {
            EXPECT_TRUE(e["args"].has("value"));
        }
    }
    EXPECT_TRUE(named_host);
    EXPECT_TRUE(named_nxp);
    EXPECT_GT(instants, 0);
}

TEST_F(TracedSystem, FlowArrowsPairAcrossTracks)
{
    boot();
    for (int i = 0; i < 4; ++i)
        sys->call(*proc, "nxp_add", {static_cast<std::uint64_t>(i), 1});

    std::ostringstream os;
    sys->debug().trace().dumpJson(os);
    JsonValue doc;
    ASSERT_TRUE(JsonParser(os.str()).parse(doc));

    // Per flow id: exactly one start and one finish, and the flow must
    // actually cross tracks (host -> device -> host), so the pids seen
    // along one flow cannot all be equal.
    struct Flow
    {
        int starts = 0, finishes = 0;
        std::vector<double> pids;
    };
    std::map<double, Flow> flows;
    for (const JsonValue &e : doc["traceEvents"].items) {
        const std::string &ph = e["ph"].str;
        if (ph != "s" && ph != "t" && ph != "f")
            continue;
        Flow &fl = flows[e["id"].num];
        if (ph == "s")
            ++fl.starts;
        if (ph == "f")
            ++fl.finishes;
        fl.pids.push_back(e["pid"].num);
    }
    ASSERT_EQ(flows.size(), 4u);
    for (const auto &[id, fl] : flows) {
        EXPECT_EQ(fl.starts, 1) << "flow " << id;
        EXPECT_EQ(fl.finishes, 1) << "flow " << id;
        bool crossed = false;
        for (double pid : fl.pids)
            crossed |= pid != fl.pids.front();
        EXPECT_TRUE(crossed) << "flow " << id << " never left its track";
    }
}

// ---------------------------------------------------------------------
// Deterministic reporting.
// ---------------------------------------------------------------------

TEST(StatDump, SortedRegardlessOfInsertionOrder)
{
    StatGroup g("grp");
    g.inc("zebra");
    g.inc("alpha", 3);
    g.inc("middle", 2);
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "grp.alpha 3\ngrp.middle 2\ngrp.zebra 1\n");
}

TEST_F(TracedSystem, DumpStatsIsDeterministic)
{
    boot();
    sys->call(*proc, "nxp_add", {40, 2});

    std::ostringstream a, b;
    sys->dumpStats(a);
    sys->dumpStats(b);
    EXPECT_EQ(a.str(), b.str());
    // The traced run appends the per-phase breakdown.
    EXPECT_NE(a.str().find("trace: per-phase breakdown"), std::string::npos);
    EXPECT_NE(a.str().find("phase sum"), std::string::npos);
}

} // namespace
} // namespace flick
