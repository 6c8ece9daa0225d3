/**
 * @file
 * The experiment engine: a typed, fault-tolerant, cache-aware sweep of
 * configs x workloads, sitting above sim/runner.h's runOne().
 *
 * An Experiment:
 *
 *  - identifies every point by a content hash of its canonical run key
 *    (exp/run_cache.h) and serves warm points bit-identically from the
 *    persistent run cache without simulating;
 *  - schedules cold points through a dynamic work queue, isolating a
 *    worker exception to its point (and re-running it at once when the
 *    caller asks for retries);
 *  - journals per-point completion (JSONL) so an interrupted sweep can
 *    be resumed with resume=true / BTBSIM_RESUME=1 / --resume;
 *  - reports progress and cache-hit-rate through an obs::StatRegistry
 *    ("exp.*" counters) surfaced in the ExperimentResult and in the
 *    bench JSON "experiment" block.
 *
 * Per-point status: ok (simulated this run), cached (served from the
 * store), failed (every attempt raised; error recorded).
 */

#ifndef BTBSIM_EXP_EXPERIMENT_H
#define BTBSIM_EXP_EXPERIMENT_H

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "exp/run_cache.h"
#include "sim/runner.h"

namespace btbsim::exp {

/** Outcome of one sweep point. */
enum class PointStatus : std::uint8_t {
    kOk,      ///< Simulated successfully this run.
    kCached,  ///< Served bit-identically from the run cache.
    kFailed,  ///< All attempts raised; see PointResult::error.
};

const char *pointStatusName(PointStatus s);

/** One (config, workload) point of a sweep. */
struct PointResult
{
    std::size_t config_index = 0;
    std::size_t workload_index = 0;
    std::string config;   ///< BtbConfig::name() of the point's config.
    std::string workload; ///< WorkloadSpec::name.
    std::string digest;   ///< Content hash of the canonical run key.

    PointStatus status = PointStatus::kFailed;
    unsigned attempts = 0; ///< Simulation attempts (0 for cached).
    std::string error;     ///< Last failure message (kFailed only).

    SimStats stats; ///< Valid for kOk and kCached.

    bool hasStats() const
    {
        return status == PointStatus::kOk || status == PointStatus::kCached;
    }
};

/** Per-worker-thread accounting of one sweep (exported as the
 *  "exp.shard<i>.*" counters). */
struct ShardUtil
{
    std::size_t points = 0;      ///< Points this slot finished.
    double busy_seconds = 0.0;   ///< Host time spent handling them.
};

/** Sweep-level accounting (also exported as "exp.*" counters). */
struct ExperimentSummary
{
    std::size_t total = 0;
    std::size_t ok = 0;
    std::size_t cached = 0;
    std::size_t failed = 0;
    std::size_t retries = 0; ///< Attempts beyond the first, summed.
    /** Cached points whose digest the resume journal already listed as
     *  complete — i.e. work a previous interrupted run contributed. */
    std::size_t resumed = 0;
    double wall_seconds = 0.0;

    double
    cacheHitRate() const
    {
        return total ? static_cast<double>(cached) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** Everything a finished (or partially failed) sweep produced. */
struct ExperimentResult
{
    std::string name;
    std::vector<PointResult> points; ///< Ordered by (config, workload).

    ExperimentSummary summary;

    /** One entry per worker thread the sweep ran on. */
    std::vector<ShardUtil> shards;

    /** Flattened "exp.*" metrics (points, ok, cached, failed, retries,
     *  cache_hit_rate, wall_seconds, shards and per-shard
     *  shard<i>.points / busy_seconds / util) for the JSON exporter. */
    std::map<std::string, double> counters() const;

    bool allOk() const { return summary.failed == 0; }

    /** Points that failed, for error reporting. */
    std::vector<const PointResult *> failures() const;

    /**
     * The stats of every point carrying results, in sweep order
     * (failed points are absent — check allOk() first when a dense
     * matrix is required).
     */
    std::vector<SimStats> stats() const;
};

/** Scheduling and policy knobs for one Experiment. */
struct ExperimentOptions
{
    RunOptions run;

    /** Run-cache directory; empty disables caching. */
    std::string cache_dir;

    /** Extra attempts after a point's first failure, each run at once.
     *  A deterministic point that fails once fails every time, so the
     *  default is none. */
    unsigned retries = 0;

    /** Resume from the journal instead of truncating it. */
    bool resume = false;
    /** Journal path; empty derives <cache_dir>/journal/<slug>.jsonl
     *  (no journal when the cache is disabled too). */
    std::string journal_path;

    /** The simulation function; tests inject failures here. Defaults to
     *  sim/runner.h runOne(). */
    std::function<SimStats(const CpuConfig &, const WorkloadSpec &,
                           const RunOptions &)>
        simulate;

    /** Per-completed-point progress hook (serialized; may be empty). */
    std::function<void(const PointResult &)> on_point;

    /**
     * Environment-driven options for sweeps run by benches and tools:
     * RunOptions::fromEnv() plus BTBSIM_RUN_CACHE (default
     * @p default_cache_dir) and BTBSIM_RESUME. BTBSIM_TRACE=1 forces
     * the cache off: a cached point skips the simulation whose
     * decisions the tracer would have recorded.
     */
    static ExperimentOptions
    fromEnv(const std::string &default_cache_dir = "results/cache");
};

/**
 * A named sweep of configs x workloads. run() never throws for a
 * point-level failure — inspect the per-point statuses instead.
 */
class Experiment
{
  public:
    Experiment(std::string name, std::vector<CpuConfig> configs,
               std::vector<WorkloadSpec> workloads, ExperimentOptions opt);

    /** Execute (or resume) the sweep. Thread count comes from
     *  opt.run.threads (0 = hardware concurrency). */
    ExperimentResult run();

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::vector<CpuConfig> configs_;
    std::vector<WorkloadSpec> workloads_;
    ExperimentOptions opt_;
};

/** One-call convenience wrapper. */
ExperimentResult runExperiment(std::string name,
                               std::vector<CpuConfig> configs,
                               std::vector<WorkloadSpec> workloads,
                               ExperimentOptions opt);

} // namespace btbsim::exp

#endif // BTBSIM_EXP_EXPERIMENT_H
