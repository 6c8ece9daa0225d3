/** @file Tests for the experiment engine (exp/experiment.h). */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>

#include "env_util.h"
#include "exp/experiment.h"

using namespace btbsim;

namespace {

std::vector<CpuConfig>
twoConfigs()
{
    std::vector<CpuConfig> v(2);
    v[0].btb = BtbConfig::ibtb(16);
    v[1].btb = BtbConfig::bbtb(1, true);
    return v;
}

std::vector<WorkloadSpec>
threeWorkloads()
{
    std::vector<WorkloadSpec> v(3);
    for (std::size_t i = 0; i < v.size(); ++i) {
        v[i].name = "wl" + std::to_string(i);
        v[i].params.seed = 100 + i;
    }
    return v;
}

/** Fast fake simulation: deterministic stats from (config, workload). */
SimStats
fakeSim(const CpuConfig &c, const WorkloadSpec &w, const RunOptions &o)
{
    SimStats s;
    s.config = c.btb.name();
    s.workload = w.name;
    s.instructions = o.measure;
    s.cycles = o.measure * 2 + w.params.seed;
    s.ipc = static_cast<double>(s.instructions) /
            static_cast<double>(s.cycles);
    s.counters["fake.seed"] = static_cast<double>(w.params.seed);
    return s;
}

exp::ExperimentOptions
baseOptions(const std::string &cache_dir)
{
    exp::ExperimentOptions o;
    o.run.warmup = 10;
    o.run.measure = 1000;
    o.run.threads = 2;
    o.cache_dir = cache_dir;
    o.backoff_ms = 1; // Keep retry tests fast.
    o.simulate = fakeSim;
    return o;
}

/** statsToJson() of @p s without the host-side measurements (wall
 *  time, sim speed, span profile), which differ run to run. */
std::string
simulatedJson(SimStats s)
{
    s.host_seconds = 0.0;
    s.minst_per_host_sec = 0.0;
    s.span_profile = {};
    s.host_counters_available = false;
    s.source_minst_per_sec = 0.0;
    return exp::statsToJson(s);
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

} // namespace

TEST(Experiment, AllPointsRunAndAreOrdered)
{
    const auto r = exp::runExperiment("t-basic", twoConfigs(),
                                      threeWorkloads(), baseOptions(""));
    ASSERT_EQ(r.points.size(), 6u);
    EXPECT_TRUE(r.allOk());
    EXPECT_EQ(r.summary.total, 6u);
    EXPECT_EQ(r.summary.ok, 6u);
    EXPECT_EQ(r.summary.cached, 0u);
    EXPECT_EQ(r.summary.cacheHitRate(), 0.0);
    // Ordered by (config, workload), stats dense.
    EXPECT_EQ(r.points[0].config, "I-BTB 16");
    EXPECT_EQ(r.points[0].workload, "wl0");
    EXPECT_EQ(r.points[2].workload, "wl2");
    EXPECT_EQ(r.points[3].config, "B-BTB 1BS Splt");
    EXPECT_EQ(r.stats().size(), 6u);
    for (const auto &p : r.points) {
        EXPECT_EQ(p.status, exp::PointStatus::kOk);
        EXPECT_EQ(p.attempts, 1u);
        EXPECT_EQ(p.digest.size(), 64u);
    }
    // exp.* counters for the observability block.
    const auto c = r.counters();
    EXPECT_EQ(c.at("exp.points"), 6.0);
    EXPECT_EQ(c.at("exp.ok"), 6.0);
    EXPECT_EQ(c.at("exp.cache_hit_rate"), 0.0);
}

TEST(Experiment, SecondRunIsServedEntirelyFromCache)
{
    const std::string dir = freshDir("exp_cache");

    const auto cold = exp::runExperiment("t-cache", twoConfigs(),
                                         threeWorkloads(), baseOptions(dir));
    EXPECT_EQ(cold.summary.ok, 6u);
    EXPECT_EQ(cold.summary.cached, 0u);

    std::atomic<unsigned> sims{0};
    exp::ExperimentOptions warm_opt = baseOptions(dir);
    warm_opt.simulate = [&](const CpuConfig &c, const WorkloadSpec &w,
                            const RunOptions &o) {
        sims.fetch_add(1);
        return fakeSim(c, w, o);
    };
    const auto warm = exp::runExperiment("t-cache", twoConfigs(),
                                         threeWorkloads(),
                                         std::move(warm_opt));
    EXPECT_EQ(sims.load(), 0u) << "warm run must not simulate";
    EXPECT_EQ(warm.summary.cached, 6u);
    EXPECT_EQ(warm.summary.cacheHitRate(), 1.0);

    // Bit-identical restoration, point by point.
    for (std::size_t i = 0; i < warm.points.size(); ++i) {
        EXPECT_EQ(warm.points[i].status, exp::PointStatus::kCached);
        EXPECT_EQ(exp::statsToJson(warm.points[i].stats),
                  exp::statsToJson(cold.points[i].stats));
    }
    std::filesystem::remove_all(dir);
}

TEST(Experiment, ChangedRunOptionsMissTheCache)
{
    const std::string dir = freshDir("exp_cache_miss");

    auto opt = baseOptions(dir);
    (void)exp::runExperiment("t-miss", twoConfigs(), threeWorkloads(), opt);

    opt.run.measure += 1; // Any result-affecting change -> new digests.
    const auto r = exp::runExperiment("t-miss", twoConfigs(),
                                      threeWorkloads(), std::move(opt));
    EXPECT_EQ(r.summary.cached, 0u);
    EXPECT_EQ(r.summary.ok, 6u);
    std::filesystem::remove_all(dir);
}

TEST(Experiment, TransientFailureIsRetriedToSuccess)
{
    std::atomic<unsigned> calls{0};
    auto opt = baseOptions("");
    opt.retries = 3;
    opt.simulate = [&](const CpuConfig &c, const WorkloadSpec &w,
                       const RunOptions &o) {
        // wl1 fails twice before succeeding, everything else is clean.
        if (w.name == "wl1" && calls.fetch_add(1) < 2)
            throw std::runtime_error("transient fault");
        return fakeSim(c, w, o);
    };
    const auto r = exp::runExperiment("t-retry", {twoConfigs()[0]},
                                      threeWorkloads(), std::move(opt));
    EXPECT_TRUE(r.allOk());
    EXPECT_EQ(r.summary.retries, 2u);
    for (const auto &p : r.points)
        if (p.workload == "wl1")
            EXPECT_EQ(p.attempts, 3u);
        else
            EXPECT_EQ(p.attempts, 1u);
}

TEST(Experiment, PermanentFailureIsIsolatedToItsPoint)
{
    auto opt = baseOptions("");
    opt.retries = 1;
    opt.simulate = [](const CpuConfig &c, const WorkloadSpec &w,
                      const RunOptions &o) {
        if (w.name == "wl1")
            throw std::runtime_error("port model exploded");
        return fakeSim(c, w, o);
    };
    const auto r = exp::runExperiment("t-fail", twoConfigs(),
                                      threeWorkloads(), std::move(opt));

    EXPECT_FALSE(r.allOk());
    EXPECT_EQ(r.summary.ok, 4u);
    EXPECT_EQ(r.summary.failed, 2u); // wl1 under both configs.
    EXPECT_EQ(r.stats().size(), 4u); // Failed points carry no stats.

    const auto fails = r.failures();
    ASSERT_EQ(fails.size(), 2u);
    for (const exp::PointResult *p : fails) {
        EXPECT_EQ(p->workload, "wl1");
        EXPECT_EQ(p->status, exp::PointStatus::kFailed);
        EXPECT_EQ(p->attempts, 2u); // 1 try + 1 retry.
        EXPECT_EQ(p->error, "port model exploded");
    }
}

TEST(Experiment, CircuitBreakerSkipsAfterMaxFailures)
{
    auto opt = baseOptions("");
    opt.retries = 0;
    opt.max_failures = 1;
    opt.run.threads = 1; // Deterministic scheduling for the assertion.
    opt.simulate = [](const CpuConfig &, const WorkloadSpec &,
                      const RunOptions &) -> SimStats {
        throw std::runtime_error("always fails");
    };
    const auto r = exp::runExperiment("t-breaker", twoConfigs(),
                                      threeWorkloads(), std::move(opt));
    EXPECT_EQ(r.summary.failed, 1u);
    EXPECT_EQ(r.summary.skipped, 5u);
    EXPECT_FALSE(r.allOk());
}

TEST(Experiment, ResumePicksUpWhereAnInterruptedSweepStopped)
{
    const std::string dir = freshDir("exp_resume");

    // First run "crashes" after completing the first config's points:
    // simulate the crash by only sweeping a subset.
    auto first = baseOptions(dir);
    (void)exp::runExperiment("t-resume", {twoConfigs()[0]},
                             threeWorkloads(), std::move(first));

    // Full sweep with resume: the journaled points count as resumed work
    // and nothing already complete is simulated again.
    std::atomic<unsigned> sims{0};
    auto second = baseOptions(dir);
    second.resume = true;
    second.simulate = [&](const CpuConfig &c, const WorkloadSpec &w,
                          const RunOptions &o) {
        sims.fetch_add(1);
        return fakeSim(c, w, o);
    };
    const auto r = exp::runExperiment("t-resume", twoConfigs(),
                                      threeWorkloads(), std::move(second));
    EXPECT_TRUE(r.allOk());
    EXPECT_EQ(r.summary.cached, 3u);
    EXPECT_EQ(r.summary.resumed, 3u);
    EXPECT_EQ(sims.load(), 3u); // Only the second config's points ran.
    std::filesystem::remove_all(dir);
}

TEST(Experiment, JournalRecordsEveryPoint)
{
    const std::string dir = freshDir("exp_journal");
    auto opt = baseOptions(dir);
    opt.journal_path = dir + "/j.jsonl";
    (void)exp::runExperiment("t-journal", twoConfigs(), threeWorkloads(),
                             std::move(opt));

    std::ifstream is(dir + "/j.jsonl");
    ASSERT_TRUE(is.good());
    std::size_t lines = 0;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        ++lines;
        EXPECT_NE(line.find("\"digest\""), std::string::npos);
        EXPECT_NE(line.find("\"status\": \"ok\""), std::string::npos);
    }
    EXPECT_EQ(lines, 6u);
    std::filesystem::remove_all(dir);
}

TEST(Experiment, WorkerThreadsAreAccountedPerSlot)
{
    // Real (tiny) simulations, so each point spends measurable host time
    // and the cross-thread-count comparison covers the simulator too.
    std::vector<WorkloadSpec> wls = threeWorkloads();
    for (WorkloadSpec &w : wls)
        w.params.target_static_insts = 8 * 1024;
    auto sweep = [&](unsigned threads) {
        // Each of the first `threads` points waits until that many are
        // in flight, so every worker thread finishes at least one point
        // (the wait gives up after 10 s rather than hang the suite).
        std::mutex mu;
        std::condition_variable cv;
        unsigned arrived = 0;
        exp::ExperimentOptions o;
        o.run.warmup = 2000;
        o.run.measure = 6000;
        o.run.threads = threads;
        o.simulate = [&](const CpuConfig &c, const WorkloadSpec &w,
                         const RunOptions &run) {
            {
                std::unique_lock<std::mutex> lk(mu);
                ++arrived;
                cv.notify_all();
                cv.wait_for(lk, std::chrono::seconds(10),
                            [&] { return arrived >= threads; });
            }
            return runOne(c, w, run);
        };
        return exp::runExperiment("t-slots", twoConfigs(), wls,
                                  std::move(o));
    };
    const auto one = sweep(1);
    const auto four = sweep(4);
    ASSERT_TRUE(one.allOk());
    ASSERT_TRUE(four.allOk());

    // One accounting slot per resolved worker thread; the slots' point
    // counts sum to the sweep and the host time they report is real.
    ASSERT_EQ(one.shards.size(), 1u);
    ASSERT_EQ(four.shards.size(), 4u);
    for (const auto *r : {&one, &four}) {
        std::size_t points = 0;
        double busy = 0.0;
        for (const exp::ShardUtil &u : r->shards) {
            points += u.points;
            busy += u.busy_seconds;
            EXPECT_GT(u.points, 0u);
            EXPECT_GT(u.busy_seconds, 0.0);
        }
        EXPECT_EQ(points, r->points.size());
        EXPECT_GT(busy, 0.0);

        const auto counters = r->counters();
        EXPECT_EQ(counters.at("exp.shards"),
                  static_cast<double>(r->shards.size()));
        for (std::size_t i = 0; i < r->shards.size(); ++i) {
            const std::string prefix = "exp.shard" + std::to_string(i);
            EXPECT_EQ(counters.at(prefix + ".points"),
                      static_cast<double>(r->shards[i].points));
            EXPECT_EQ(counters.at(prefix + ".busy_seconds"),
                      r->shards[i].busy_seconds);
            EXPECT_TRUE(counters.count(prefix + ".util")) << prefix;
        }
    }

    // The thread count changes scheduling only, never a simulated
    // statistic.
    ASSERT_EQ(four.points.size(), one.points.size());
    for (std::size_t i = 0; i < one.points.size(); ++i) {
        EXPECT_EQ(four.points[i].digest, one.points[i].digest);
        EXPECT_EQ(simulatedJson(four.points[i].stats),
                  simulatedJson(one.points[i].stats))
            << one.points[i].config << " / " << one.points[i].workload;
    }
}

TEST(Experiment, WorkerThreadsAreCappedAtThePointCount)
{
    auto opt = baseOptions("");
    opt.run.threads = 16;
    const auto r = exp::runExperiment("t-cap", twoConfigs(),
                                      threeWorkloads(), std::move(opt));
    EXPECT_TRUE(r.allOk());
    EXPECT_EQ(r.shards.size(), 6u);
}

TEST(Experiment, EnvOptions)
{
    {
        test::ScopedEnv e1("BTBSIM_RUN_CACHE", "/tmp/expenv");
        test::ScopedEnv e2("BTBSIM_RESUME", "1");
        test::ScopedEnv e3("BTBSIM_RETRIES", "5");
        test::ScopedEnv e4("BTBSIM_MAX_FAILURES", "9");
        const auto o = exp::ExperimentOptions::fromEnv("fallback");
        EXPECT_EQ(o.cache_dir, "/tmp/expenv");
        EXPECT_TRUE(o.resume);
        EXPECT_EQ(o.retries, 5u);
        EXPECT_EQ(o.max_failures, 9u);
    }

    test::ScopedEnv e1("BTBSIM_RUN_CACHE", nullptr);
    test::ScopedEnv e2("BTBSIM_RESUME", nullptr);
    const auto d = exp::ExperimentOptions::fromEnv("fallback");
    EXPECT_EQ(d.cache_dir, "fallback");
    EXPECT_FALSE(d.resume);
}
