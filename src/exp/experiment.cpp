#include "exp/experiment.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "common/env.h"
#include "exp/journal.h"
#include "exp/sha256.h"
#include "obs/export.h"
#include "obs/progress.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "obs/span.h"
#include "traceio/replay_env.h"

namespace btbsim::exp {

const char *
pointStatusName(PointStatus s)
{
    switch (s) {
      case PointStatus::kOk:
        return "ok";
      case PointStatus::kCached:
        return "cached";
      case PointStatus::kFailed:
        return "failed";
      case PointStatus::kSkipped:
        return "skipped";
    }
    return "unknown";
}

std::map<std::string, double>
ExperimentResult::counters() const
{
    obs::StatRegistry reg;
    auto scope = reg.scope("exp");
    scope.counter("points") = summary.total;
    scope.counter("ok") = summary.ok;
    scope.counter("cached") = summary.cached;
    scope.counter("failed") = summary.failed;
    scope.counter("skipped") = summary.skipped;
    scope.counter("retries") = summary.retries;
    scope.counter("resumed") = summary.resumed;
    std::map<std::string, double> out = reg.flatten();
    out["exp.cache_hit_rate"] = summary.cacheHitRate();
    out["exp.wall_seconds"] = summary.wall_seconds;
    if (!shards.empty()) {
        out["exp.shards"] = static_cast<double>(shards.size());
        double busy_min = -1.0, busy_max = 0.0, busy_sum = 0.0;
        for (std::size_t i = 0; i < shards.size(); ++i) {
            const ShardUtil &u = shards[i];
            const std::string prefix =
                "exp.shard" + std::to_string(i) + ".";
            out[prefix + "points"] = static_cast<double>(u.points);
            out[prefix + "busy_seconds"] = u.busy_seconds;
            out[prefix + "util"] =
                summary.wall_seconds > 0.0
                    ? u.busy_seconds / summary.wall_seconds
                    : 0.0;
            busy_sum += u.busy_seconds;
            busy_max = std::max(busy_max, u.busy_seconds);
            busy_min = busy_min < 0.0 ? u.busy_seconds
                                      : std::min(busy_min, u.busy_seconds);
        }
        if (summary.wall_seconds > 0.0) {
            out["exp.shard_util_min"] =
                std::max(busy_min, 0.0) / summary.wall_seconds;
            out["exp.shard_util_max"] = busy_max / summary.wall_seconds;
            out["exp.shard_util_mean"] =
                busy_sum /
                (summary.wall_seconds * static_cast<double>(shards.size()));
        }
    }
    return out;
}

std::vector<const PointResult *>
ExperimentResult::failures() const
{
    std::vector<const PointResult *> out;
    for (const PointResult &p : points)
        if (p.status == PointStatus::kFailed)
            out.push_back(&p);
    return out;
}

std::vector<SimStats>
ExperimentResult::stats() const
{
    std::vector<SimStats> out;
    out.reserve(points.size());
    for (const PointResult &p : points)
        if (p.hasStats())
            out.push_back(p.stats);
    return out;
}

ExperimentOptions
ExperimentOptions::fromEnv(const std::string &default_cache_dir)
{
    ExperimentOptions o;
    o.run = RunOptions::fromEnv();
    o.cache_dir = RunCache::dirFromEnv(default_cache_dir);
    // A cached point skips simulation, so it produces none of the
    // per-run side effects decision tracing exists for. Run uncached
    // when the tracer is on.
    if (env::flag("BTBSIM_TRACE"))
        o.cache_dir.clear();
    o.resume = env::flag("BTBSIM_RESUME");
    o.retries = static_cast<unsigned>(env::u64("BTBSIM_RETRIES", o.retries));
    o.max_failures =
        static_cast<unsigned>(env::u64("BTBSIM_MAX_FAILURES", 0));
    return o;
}

namespace {

/** Render one single-line JSON record (JsonWriter pretty-prints, so
 *  newlines are stripped; JSON strings never contain raw newlines). */
std::string
flatJsonLine(const std::function<void(obs::JsonWriter &)> &fill)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    fill(w);
    const std::string s = os.str();
    std::string flat;
    flat.reserve(s.size());
    for (char c : s)
        if (c != '\n')
            flat += c;
    return flat;
}

unsigned
resolveThreads(unsigned requested, std::size_t jobs)
{
    unsigned n = requested;
    if (n == 0) {
        n = std::thread::hardware_concurrency();
        if (n == 0)
            n = 4;
    }
    return std::min<unsigned>(n, static_cast<unsigned>(std::max<std::size_t>(
                                     jobs, 1)));
}

} // namespace

Experiment::Experiment(std::string name, std::vector<CpuConfig> configs,
                       std::vector<WorkloadSpec> workloads,
                       ExperimentOptions opt)
    : name_(std::move(name)), configs_(std::move(configs)),
      workloads_(std::move(workloads)), opt_(std::move(opt))
{
    if (!opt_.simulate)
        opt_.simulate = [](const CpuConfig &c, const WorkloadSpec &w,
                           const RunOptions &o) { return runOne(c, w, o); };
}

ExperimentResult
Experiment::run()
{
    const auto t0 = std::chrono::steady_clock::now();
    obs::ObsSpan sweep_span("sweep");

    ExperimentResult result;
    result.name = name_;
    result.points.resize(configs_.size() * workloads_.size());

    // Pre-compute every point's identity. The effective sample interval
    // and per-workload source kind are part of the key: both change the
    // resulting SimStats.
    const std::uint64_t sample_interval = obs::Sampler::intervalFromEnv();
    const std::string replay_dir = traceio::replayDirFromEnv();
    std::vector<std::string> key_jsons(result.points.size());
    for (std::size_t c = 0; c < configs_.size(); ++c) {
        for (std::size_t w = 0; w < workloads_.size(); ++w) {
            const std::size_t i = c * workloads_.size() + w;
            PointResult &p = result.points[i];
            p.config_index = c;
            p.workload_index = w;
            p.config = configs_[c].btb.name();
            p.workload = workloads_[w].name;

            RunKey key;
            key.config = configs_[c];
            key.workload = workloads_[w];
            key.opt = opt_.run;
            key.sample_interval = sample_interval;
            std::error_code ec;
            const std::string rp =
                traceio::replayPath(replay_dir, workloads_[w].name);
            key.source_kind = (!rp.empty() &&
                               std::filesystem::exists(rp, ec))
                                  ? "replay"
                                  : "generated";
            key_jsons[i] = canonicalRunKeyJson(key);
            p.digest = Sha256::hexDigest(key_jsons[i]);
        }
    }

    const RunCache cache(opt_.cache_dir);

    std::string journal_path = opt_.journal_path;
    if (journal_path.empty() && cache.enabled())
        journal_path = (std::filesystem::path(cache.dir()) / "journal" /
                        (obs::slugify(name_) + ".jsonl"))
                           .string();
    Journal journal(journal_path, opt_.resume);

    // Per-thread utilization (points finished + host time spent) is
    // reported as ExperimentResult::shards.
    const unsigned n_threads =
        resolveThreads(opt_.run.threads, result.points.size());
    result.shards.assign(n_threads, ShardUtil{});

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> failures{0};
    std::atomic<std::size_t> retries{0};
    std::atomic<std::size_t> resumed{0};
    std::mutex point_mu; // Serializes the on_point callback.

    // Live JSONL progress stream (BTBSIM_PROGRESS_FD / _FILE): one
    // sweep_start record, one per finished point, one sweep_end.
    const std::unique_ptr<obs::ProgressStream> progress =
        obs::ProgressStream::openFromEnv();
    std::mutex progress_mu; // Guards the done/status tallies below.
    struct
    {
        std::size_t done = 0, ok = 0, cached = 0, failed = 0, skipped = 0;
    } tally;
    if (progress) {
        progress->emitLine(flatJsonLine([&](obs::JsonWriter &w) {
            w.beginObject();
            w.kv("type", "sweep_start");
            w.kv("sweep", name_);
            w.kv("total", static_cast<std::uint64_t>(result.points.size()));
            w.kv("cache", cache.enabled() ? cache.dir() : "");
            w.kv("threads", n_threads);
            w.endObject();
        }));
    }

    auto finishPoint = [&](PointResult &p) {
        journal.append({p.digest, pointStatusName(p.status), p.config,
                        p.workload, p.attempts, p.error});
        if (progress) {
            std::lock_guard<std::mutex> lk(progress_mu);
            ++tally.done;
            switch (p.status) {
              case PointStatus::kOk:
                ++tally.ok;
                break;
              case PointStatus::kCached:
                ++tally.cached;
                break;
              case PointStatus::kFailed:
                ++tally.failed;
                break;
              case PointStatus::kSkipped:
                ++tally.skipped;
                break;
            }
            const double elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            // Linear extrapolation over finished points; -1 until the
            // first one lands (no basis for an estimate yet).
            const std::size_t left = result.points.size() - tally.done;
            const double eta =
                tally.done > 0
                    ? elapsed / static_cast<double>(tally.done) *
                          static_cast<double>(left)
                    : -1.0;
            progress->emitLine(flatJsonLine([&](obs::JsonWriter &w) {
                w.beginObject();
                w.kv("type", "point");
                w.kv("sweep", name_);
                w.kv("done", static_cast<std::uint64_t>(tally.done));
                w.kv("total",
                     static_cast<std::uint64_t>(result.points.size()));
                w.kv("ok", static_cast<std::uint64_t>(tally.ok));
                w.kv("cached", static_cast<std::uint64_t>(tally.cached));
                w.kv("failed", static_cast<std::uint64_t>(tally.failed));
                w.kv("skipped", static_cast<std::uint64_t>(tally.skipped));
                w.kv("elapsed_seconds", elapsed);
                w.kv("eta_seconds", eta);
                w.kv("config", p.config);
                w.kv("workload", p.workload);
                w.kv("status", pointStatusName(p.status));
                w.kv("span",
                     obs::SpanCollector::instance().currentPath());
                w.endObject();
            }));
        }
        if (opt_.on_point) {
            std::lock_guard<std::mutex> lk(point_mu);
            opt_.on_point(p);
        }
    };

    auto worker = [&](unsigned slot) {
        ShardUtil &util = result.shards[slot];
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= result.points.size())
                return;
            const auto point_t0 = std::chrono::steady_clock::now();
            PointResult &p = result.points[i];
            obs::ObsSpan point_span("point");
            auto account = [&] {
                ++util.points;
                util.busy_seconds +=
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - point_t0)
                        .count();
            };

            // Circuit breaker: once the failure budget is spent, stop
            // burning host time and report the rest as skipped.
            if (opt_.max_failures != 0 &&
                failures.load() >= opt_.max_failures) {
                p.status = PointStatus::kSkipped;
                finishPoint(p);
                account();
                continue;
            }

            if (cache.enabled()) {
                obs::ObsSpan probe_span("cache_probe");
                if (auto hit = cache.load(p.digest)) {
                    p.status = PointStatus::kCached;
                    p.stats = std::move(*hit);
                    if (opt_.resume && journal.completedBefore(p.digest))
                        resumed.fetch_add(1);
                    finishPoint(p);
                    account();
                    continue;
                }
            }

            const CpuConfig &cfg = configs_[p.config_index];
            const WorkloadSpec &spec = workloads_[p.workload_index];
            const unsigned max_attempts = 1 + opt_.retries;
            for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
                p.attempts = attempt;
                try {
                    obs::ObsSpan exec_span("execute");
                    p.stats = opt_.simulate(cfg, spec, opt_.run);
                    p.status = PointStatus::kOk;
                    p.error.clear();
                    break;
                } catch (const std::exception &e) {
                    p.error = e.what();
                } catch (...) {
                    p.error = "non-standard exception";
                }
                p.status = PointStatus::kFailed;
                if (attempt < max_attempts) {
                    retries.fetch_add(1);
                    // Bounded exponential backoff, capped at 1s.
                    const unsigned ms = std::min<unsigned>(
                        opt_.backoff_ms << (attempt - 1), 1000);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(ms));
                }
            }

            if (p.status == PointStatus::kOk) {
                if (cache.enabled()) {
                    obs::ObsSpan store_span("cache_store");
                    cache.store(p.digest, key_jsons[i], p.stats);
                }
            } else {
                failures.fetch_add(1);
            }
            finishPoint(p);
            account();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(n_threads);
    for (unsigned t = 0; t < n_threads; ++t)
        pool.emplace_back(worker, t);
    for (auto &t : pool)
        t.join();

    ExperimentSummary &s = result.summary;
    s.total = result.points.size();
    for (const PointResult &p : result.points) {
        switch (p.status) {
          case PointStatus::kOk:
            ++s.ok;
            break;
          case PointStatus::kCached:
            ++s.cached;
            break;
          case PointStatus::kFailed:
            ++s.failed;
            break;
          case PointStatus::kSkipped:
            ++s.skipped;
            break;
        }
    }
    s.retries = retries.load();
    s.resumed = resumed.load();
    s.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();

    if (progress) {
        progress->emitLine(flatJsonLine([&](obs::JsonWriter &w) {
            w.beginObject();
            w.kv("type", "sweep_end");
            w.kv("sweep", name_);
            w.kv("total", static_cast<std::uint64_t>(s.total));
            w.kv("ok", static_cast<std::uint64_t>(s.ok));
            w.kv("cached", static_cast<std::uint64_t>(s.cached));
            w.kv("failed", static_cast<std::uint64_t>(s.failed));
            w.kv("skipped", static_cast<std::uint64_t>(s.skipped));
            w.kv("retries", static_cast<std::uint64_t>(s.retries));
            w.kv("wall_seconds", s.wall_seconds);
            w.endObject();
        }));
    }
    return result;
}

ExperimentResult
runExperiment(std::string name, std::vector<CpuConfig> configs,
              std::vector<WorkloadSpec> workloads, ExperimentOptions opt)
{
    return Experiment(std::move(name), std::move(configs),
                      std::move(workloads), std::move(opt))
        .run();
}

} // namespace btbsim::exp
