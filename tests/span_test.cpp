/** @file Tests for the host span profiler (obs/span.h) and its perf
 *  counter / Chrome-trace / progress-stream companions. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <latch>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exp/experiment.h"
#include "obs/host_counters.h"
#include "obs/json.h"
#include "obs/span.h"
#include "env_util.h"

using namespace btbsim;
using btbsim::test::ScopedEnv;

namespace {

// The collector singleton reads its knobs once, at first use — pin them
// before any test touches it: a tiny ring so overflow is cheap to
// trigger, and the no-perf fallback so counter expectations are the
// same on locked-down CI runners and on dev machines with perf access.
const bool g_env_init = [] {
    ::setenv("BTBSIM_SPAN_CAP", "64", 1);
    ::setenv("BTBSIM_HOST_COUNTERS", "0", 1);
    ::setenv("BTBSIM_SPANS", "1", 1);
    return true;
}();

obs::SpanCollector &
collector()
{
    (void)g_env_init;
    obs::SpanCollector &c = obs::SpanCollector::instance();
    c.reset();
    c.setEnabled(true);
    return c;
}

} // namespace

TEST(Span, NestingBuildsSlashJoinedPaths)
{
    obs::SpanCollector &c = collector();
    {
        obs::ObsSpan a("alpha");
        EXPECT_EQ(c.currentPath(), "alpha");
        {
            obs::ObsSpan b("beta");
            EXPECT_EQ(c.currentPath(), "alpha/beta");
        }
        {
            obs::ObsSpan g("gamma");
            EXPECT_EQ(c.currentPath(), "alpha/gamma");
        }
    }
    EXPECT_EQ(c.currentPath(), "");

    const obs::ProfileBlock p = c.profile();
    ASSERT_EQ(p.spans.count("alpha"), 1u);
    ASSERT_EQ(p.spans.count("alpha/beta"), 1u);
    ASSERT_EQ(p.spans.count("alpha/gamma"), 1u);
    EXPECT_EQ(p.spans.at("alpha").count, 1u);
    EXPECT_EQ(p.total_spans, 3u);
    EXPECT_EQ(p.dropped, 0u);
}

TEST(Span, UnwindsOnException)
{
    obs::SpanCollector &c = collector();
    try {
        obs::ObsSpan outer("throwing_region");
        obs::ObsSpan inner("inner");
        throw std::runtime_error("boom");
    } catch (const std::runtime_error &) {
    }
    // Unwinding ran both destructors: the stack is balanced and both
    // spans were recorded with the time spent until the throw.
    EXPECT_EQ(c.currentPath(), "");
    const obs::ProfileBlock p = c.profile();
    EXPECT_EQ(p.spans.at("throwing_region").count, 1u);
    EXPECT_EQ(p.spans.at("throwing_region/inner").count, 1u);
}

TEST(Span, RingOverflowCountsDroppedButAggregatesEverything)
{
    obs::SpanCollector &c = collector();
    constexpr std::uint64_t kSpans = 100; // Ring capacity pinned to 64.
    for (std::uint64_t i = 0; i < kSpans; ++i)
        obs::ObsSpan span("overflow_probe");

    EXPECT_EQ(c.dropped(), kSpans - 64);
    const obs::ProfileBlock p = c.profile();
    EXPECT_EQ(p.dropped, kSpans - 64);
    // The aggregate table never loses spans to ring eviction.
    EXPECT_EQ(p.spans.at("overflow_probe").count, kSpans);
    EXPECT_EQ(p.total_spans, kSpans);
}

TEST(Span, DisabledRecordsNothing)
{
    obs::SpanCollector &c = collector();
    c.setEnabled(false);
    {
        obs::ObsSpan span("invisible");
    }
    c.setEnabled(true);
    EXPECT_EQ(c.profile().total_spans, 0u);
}

TEST(Span, MarkAggregateSinceYieldsOnlyTheDelta)
{
    obs::SpanCollector &c = collector();
    {
        obs::ObsSpan span("before_mark");
    }
    const obs::SpanCollector::ThreadMark m = c.mark();
    for (int i = 0; i < 3; ++i)
        obs::ObsSpan span("after_mark");

    const obs::SpanProfile d = c.aggregateSince(m);
    ASSERT_EQ(d.count("after_mark"), 1u);
    EXPECT_EQ(d.at("after_mark").count, 3u);
    EXPECT_EQ(d.count("before_mark"), 0u);
}

TEST(Span, WorkerThreadsRecordIndependently)
{
    obs::SpanCollector &c = collector();
    // The experiment engine's worker pool is the real multi-thread
    // client: a stub simulate keeps it hermetic while the engine's own
    // point/execute spans record on each worker thread.
    std::vector<CpuConfig> configs(2);
    configs[0].btb = BtbConfig::ibtb(16);
    configs[1].btb = BtbConfig::ibtb(14);
    std::vector<WorkloadSpec> workloads(2);
    workloads[0].name = "wl0";
    workloads[1].name = "wl1";

    exp::ExperimentOptions opt;
    opt.run.threads = 4;
    opt.retries = 0;
    opt.simulate = [](const CpuConfig &cfg, const WorkloadSpec &w,
                      const RunOptions &) {
        obs::ObsSpan span("stub_sim");
        SimStats s;
        s.config = cfg.btb.name();
        s.workload = w.name;
        s.ipc = 1.0;
        return s;
    };

    const exp::ExperimentResult res = exp::runExperiment(
        "span_test_sweep", configs, workloads, std::move(opt));
    ASSERT_TRUE(res.allOk());

    const obs::ProfileBlock p = c.profile();
    EXPECT_EQ(p.spans.at("sweep").count, 1u);
    EXPECT_EQ(p.spans.at("point").count, 4u);
    EXPECT_EQ(p.spans.at("point/execute").count, 4u);
    EXPECT_EQ(p.spans.at("point/execute/stub_sim").count, 4u);
    EXPECT_GE(p.threads, 2u); // Main (sweep) plus at least one worker.

    // The per-run SimStats slice is attached by runner::runOne(), which
    // the injected stub bypasses — stub stats carry no span_profile.
    for (const SimStats &s : res.stats())
        EXPECT_TRUE(s.span_profile.empty())
            << s.config << "/" << s.workload;
}

TEST(Span, ExitedThreadBuffersAreReused)
{
    obs::SpanCollector &c = collector();
    // Several multi-worker sweeps, each on fresh threads: span memory
    // must stay bounded by the peak number of live recording threads
    // (the main thread plus one sweep's workers), and every path keeps
    // its full count across the handovers.
    constexpr int kRounds = 5, kWorkers = 4, kSpans = 100; // > ring cap
    {
        obs::ObsSpan main_span("main_phase");
    }
    std::size_t bytes_after_first = 0;
    for (int round = 0; round < kRounds; ++round) {
        // All workers of a round are live at once, as in a sweep.
        std::latch all_live(kWorkers);
        std::vector<std::thread> workers;
        for (int w = 0; w < kWorkers; ++w)
            workers.emplace_back([&all_live] {
                for (int i = 0; i < kSpans; ++i) {
                    if (i == 1)
                        all_live.arrive_and_wait();
                    obs::ObsSpan outer("worker_point");
                    obs::ObsSpan inner("worker_step");
                }
            });
        for (std::thread &t : workers)
            t.join();
        if (round == 0)
            bytes_after_first = c.ringBytes();
        EXPECT_EQ(c.threadCount(), 1u + kWorkers) << "round " << round;
        EXPECT_EQ(c.ringBytes(), bytes_after_first) << "round " << round;
    }
    EXPECT_LE(c.ringBytes(),
              (1 + kWorkers) * 64 * sizeof(obs::SpanRecord));

    const obs::ProfileBlock p = c.profile();
    EXPECT_EQ(p.threads, 1u + kWorkers);
    EXPECT_EQ(p.spans.at("main_phase").count, 1u);
    EXPECT_EQ(p.spans.at("worker_point").count,
              std::uint64_t{kRounds} * kWorkers * kSpans);
    EXPECT_EQ(p.spans.at("worker_point/worker_step").count,
              std::uint64_t{kRounds} * kWorkers * kSpans);
    EXPECT_EQ(p.total_spans,
              1 + std::uint64_t{kRounds} * kWorkers * kSpans * 2);

    // The Chrome trace still exports the retained window of each buffer.
    std::ostringstream os;
    c.writeChromeTrace(os);
    const obs::JsonValue doc = obs::parseJson(os.str());
    std::size_t complete = 0;
    for (const obs::JsonValue &e : doc.at("traceEvents").array)
        complete += e.at("ph").asString() == "X";
    EXPECT_EQ(complete, 1u + kWorkers * 64);
}

TEST(Span, RunOneAttachesPerRunSlice)
{
    obs::SpanCollector &c = collector();
    CpuConfig cfg;
    WorkloadSpec spec;
    spec.name = "span_slice_wl";

    RunOptions opt;
    opt.warmup = 1000;
    opt.measure = 2000;

    const SimStats s = runOne(cfg, spec, opt);

    // runOne() diffs the thread's aggregate table around the run, so
    // the stats carry exactly this run's phases (the enclosing "run"
    // span closes after the diff and is deliberately absent).
    ASSERT_EQ(s.span_profile.count("run/init"), 1u);
    ASSERT_EQ(s.span_profile.count("run/warmup"), 1u);
    ASSERT_EQ(s.span_profile.count("run/measure"), 1u);
    EXPECT_EQ(s.span_profile.at("run/measure").count, 1u);
    EXPECT_GT(s.span_profile.at("run/measure").wall_ns, 0u);
    EXPECT_FALSE(s.host_counters_available); // Forced fallback (env).

    // The collector's global table additionally holds the run span.
    EXPECT_EQ(c.profile().spans.count("run"), 1u);
}

TEST(Span, ChromeTraceIsStructurallyValidJson)
{
    obs::SpanCollector &c = collector();
    {
        obs::ObsSpan outer("trace_outer");
        obs::ObsSpan inner("trace_inner");
    }
    std::ostringstream os;
    c.writeChromeTrace(os);

    // The dump must parse as JSON and carry the Chrome trace-event
    // structure Perfetto expects: complete ("X") events with
    // microsecond ts/dur plus thread-name metadata ("M").
    const obs::JsonValue root = obs::parseJson(os.str());
    EXPECT_EQ(root.at("displayTimeUnit").asString(), "ns");
    EXPECT_EQ(root.at("otherData").at("generator").asString(), "btbsim");

    const auto &events = root.at("traceEvents").array;
    ASSERT_GE(events.size(), 3u); // 1 metadata + 2 spans.
    std::size_t complete = 0, meta = 0;
    bool saw_inner = false;
    for (const obs::JsonValue &e : events) {
        const std::string ph = e.at("ph").asString();
        ASSERT_TRUE(e.at("pid").isNumber());
        ASSERT_TRUE(e.at("tid").isNumber());
        if (ph == "M") {
            ++meta;
            EXPECT_EQ(e.at("name").asString(), "thread_name");
        } else {
            ASSERT_EQ(ph, "X");
            ++complete;
            EXPECT_TRUE(e.at("ts").isNumber());
            EXPECT_GE(e.at("dur").asNumber(), 0.0);
            if (e.at("name").asString() == "trace_outer/trace_inner")
                saw_inner = true;
        }
    }
    EXPECT_GE(meta, 1u);
    EXPECT_EQ(complete, 2u);
    EXPECT_TRUE(saw_inner);
}

TEST(HostCounters, FallbackCarriesTaskClockOnly)
{
    // want=false is exactly the BTBSIM_HOST_COUNTERS=0 / EPERM path.
    obs::HostCounters hc(false);
    EXPECT_FALSE(hc.available());

    const obs::HostCounters::Values v1 = hc.read();
    EXPECT_EQ(v1.cycles, 0u);
    EXPECT_EQ(v1.instructions, 0u);
    EXPECT_EQ(v1.branch_misses, 0u);
    EXPECT_EQ(v1.cache_misses, 0u);

    // Thread CPU time needs no privileges and keeps advancing.
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 2'000'000; ++i)
        sink = sink + static_cast<std::uint64_t>(i);
    const obs::HostCounters::Values v2 = hc.read();
    EXPECT_GE(v2.task_clock_ns, v1.task_clock_ns);
    EXPECT_GT(v2.task_clock_ns, 0u);
}

TEST(HostCounters, EnvKnobGatesTheAttempt)
{
    {
        ScopedEnv e("BTBSIM_HOST_COUNTERS", "0");
        EXPECT_FALSE(obs::HostCounters::wantedFromEnv());
    }
    {
        ScopedEnv e("BTBSIM_HOST_COUNTERS", "1");
        EXPECT_TRUE(obs::HostCounters::wantedFromEnv());
    }
    {
        ScopedEnv e("BTBSIM_HOST_COUNTERS", nullptr);
        EXPECT_TRUE(obs::HostCounters::wantedFromEnv());
    }
}

TEST(Span, CollectorReportsNoCountersInForcedFallback)
{
    // g_env_init pinned BTBSIM_HOST_COUNTERS=0 before the collector was
    // born, so the whole-process profile must record the degradation.
    obs::SpanCollector &c = collector();
    {
        obs::ObsSpan span("fallback_probe");
    }
    EXPECT_FALSE(c.countersAvailable());
    const obs::ProfileBlock p = c.profile();
    EXPECT_FALSE(p.counters_available);
    const obs::SpanAgg &a = p.spans.at("fallback_probe");
    EXPECT_EQ(a.cycles, 0u);
    EXPECT_EQ(a.instructions, 0u);
    EXPECT_GT(a.wall_ns, 0u); // Timestamps still work.
}
