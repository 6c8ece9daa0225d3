/**
 * @file
 * btbsim host-speed benchmark.
 *
 *   perfbench --workload <olap-backend|mono-frontend|fig5-sweep>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--data-dir <dir>] [--scale full|tiny]
 *             [--corrupt range|identity]
 *
 * One process runs one workload. Programs are generated from --seed in
 * the shape of named suite entries; the simulator sees only them. A
 * round simulates every point of the workload once; untraced rounds,
 * each preceded by a fresh set-up (generation, recording for the sweep,
 * Cpu construction), repeat until --seconds of rounds have passed. The
 * set-up time is the median over repetitions; the throughput uses each
 * point's fastest repetition (see fastestPoints). With --trace 1 the
 * rounds get half the time, traced rounds (timing decorators on the
 * Cpu's TraceSource and BtbOrg) the other half, single layers are then
 * driven in isolation, and the per-layer metrics are printed instead.
 *
 * Every point is checked (see verify.h); a failing point makes the
 * process exit 1. The last stdout line is the JSON result.
 * --scale tiny and --corrupt exist for the self-test (selftest.py).
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/experiment.h"
#include "probes.h"
#include "sim/cpu.h"
#include "trace/suite.h"
#include "traceio/replay_env.h"
#include "verify.h"

using namespace btbsim;
using namespace perfbench;

namespace {

// ---- command line -------------------------------------------------------

enum class Corruption { kNone, kRange, kIdentity };

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string data_dir = ".bench_build/perfbench-data";
    bool tiny = false;
    Corruption corrupt = Corruption::kNone;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + key);
        const std::string val = argv[++i];
        if (key == "--workload") {
            a.workload = val;
            have_workload = true;
        } else if (key == "--seed") {
            a.seed = std::stoull(val);
        } else if (key == "--seconds") {
            a.seconds = std::stod(val);
            if (!(a.seconds > 0 && a.seconds <= 600))
                throw std::invalid_argument("--seconds must be in (0, 600]");
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                throw std::invalid_argument("--trace must be 0 or 1");
            a.trace = val == "1";
        } else if (key == "--data-dir") {
            a.data_dir = val;
        } else if (key == "--scale") {
            if (val != "full" && val != "tiny")
                throw std::invalid_argument("--scale must be full or tiny");
            a.tiny = val == "tiny";
        } else if (key == "--corrupt") {
            if (val == "range")
                a.corrupt = Corruption::kRange;
            else if (val == "identity")
                a.corrupt = Corruption::kIdentity;
            else
                throw std::invalid_argument("--corrupt must be range or identity");
        } else {
            throw std::invalid_argument("unknown argument " + key);
        }
    }
    if (!have_workload)
        throw std::invalid_argument("--workload is required");
    return a;
}

// ---- workloads ----------------------------------------------------------

struct NamedConfig
{
    std::string id; ///< Metric suffix, e.g. "rbtb3".
    CpuConfig cfg;
};

struct WorkloadDef
{
    std::string name;
    std::vector<std::string> shapes; ///< serverSuite() entries.
    std::vector<NamedConfig> configs;
    bool sweep = false; ///< Experiment sweep over replayed recordings.
};

/** The five organizations bench_simspeed times, Table 1 geometry. */
std::vector<NamedConfig>
canonicalOrgs(bool ideal_backend)
{
    std::vector<NamedConfig> out = {
        {"ibtb16", {}}, {"rbtb3", {}}, {"bbtb2", {}},
        {"mbbtb3", {}}, {"hetero2", {}},
    };
    out[0].cfg.btb = BtbConfig::ibtb(16);
    out[1].cfg.btb = BtbConfig::rbtb(3);
    out[2].cfg.btb = BtbConfig::bbtb(2);
    out[3].cfg.btb = BtbConfig::mbbtb(3, PullPolicy::kAllBr);
    out[4].cfg.btb = BtbConfig::hetero(2);
    if (ideal_backend)
        for (NamedConfig &n : out)
            n.cfg = n.cfg.withIdealBackend();
    return out;
}

/** The ten Fig. 5 configurations (bench_fig5_realistic). */
std::vector<NamedConfig>
fig5Configs()
{
    std::vector<NamedConfig> out;
    NamedConfig ideal{"ibtb16-ideal", {}};
    ideal.cfg.btb = BtbConfig::ibtb(16);
    ideal.cfg.btb.makeIdeal();
    out.push_back(ideal);
    NamedConfig real{"ibtb16", {}};
    real.cfg.btb = BtbConfig::ibtb(16);
    out.push_back(real);
    for (unsigned slots = 1; slots <= 4; ++slots) {
        NamedConfig n{"rbtb" + std::to_string(slots), {}};
        n.cfg.btb = BtbConfig::rbtb(slots);
        out.push_back(n);
    }
    for (unsigned slots = 1; slots <= 4; ++slots) {
        NamedConfig n{"bbtb" + std::to_string(slots), {}};
        n.cfg.btb = BtbConfig::bbtb(slots);
        out.push_back(n);
    }
    return out;
}

WorkloadDef
workloadDef(const std::string &name)
{
    // olap-backend: Table-1 core on the suite's long-block, 16 MB-data
    // program; the BTB hits ~98%, so backend and D-side memory dominate.
    if (name == "olap-backend")
        return {name, {"olap-md", "olap-md", "olap-md"}, canonicalOrgs(false),
                false};
    // mono-frontend: Fig. 11a ideal backend on the largest code
    // footprint; PcGen/BTB, predictor and I$ dominate.
    if (name == "mono-frontend")
        return {name, {"mono-xxl", "mono-xxl", "mono-xxl"},
                canonicalOrgs(true), false};
    // fig5-sweep: the paper's Fig. 5 sweep, replayed from recordings on
    // every core, so trace decode and sweep scheduling are exercised.
    if (name == "fig5-sweep")
        return {name, {"web-lg", "db-xl", "kv-md", "proxy-lg"}, fig5Configs(),
                true};
    throw std::invalid_argument("unknown workload " + name);
}

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Suite-shaped specs whose program and interpreter seeds derive from
 *  the benchmark seed alone. */
std::vector<WorkloadSpec>
seededSpecs(const WorkloadDef &def, std::uint64_t seed)
{
    const std::vector<WorkloadSpec> suite = serverSuite(64);
    std::vector<WorkloadSpec> out;
    for (std::size_t i = 0; i < def.shapes.size(); ++i) {
        auto it = std::find_if(suite.begin(), suite.end(),
                               [&](const WorkloadSpec &s) {
                                   return s.name == def.shapes[i];
                               });
        if (it == suite.end())
            throw std::runtime_error("suite has no entry " + def.shapes[i]);
        WorkloadSpec spec = *it;
        spec.name += "." + std::to_string(i);
        const std::uint64_t base = splitmix(seed * 0x100 + i);
        spec.params.seed = splitmix(base ^ 1);
        spec.trace_seed = splitmix(base ^ 2);
        out.push_back(spec);
    }
    return out;
}

/** Instructions per point, and how much work each layer driver does. */
struct Scale
{
    std::uint64_t warmup, measure;
    unsigned min_rounds;
    std::uint64_t probe_insts;  ///< Stream length fed to layer drivers.
    std::uint64_t probe_cycles; ///< PcGen cycles per configuration.
    unsigned probe_passes;
};

Scale
scaleFor(bool sweep, bool tiny)
{
    if (tiny)
        return {5'000, 10'000, 2, 20'000, 2'000, 1};
    if (sweep)
        return {50'000, 150'000, 3, 300'000, 20'000, 3};
    return {50'000, 200'000, 3, 300'000, 40'000, 3};
}

// ---- statistics helpers -------------------------------------------------

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double
seconds(Clock::time_point t0, Clock::time_point t1)
{
    return nsSince(t0, t1) * 1e-9;
}

unsigned
hostThreads()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

// ---- verification -------------------------------------------------------

/**
 * Checks every simulated point and keeps the run's failure accounting.
 * The first run of a point becomes its reference; every later run of it
 * (another round, the traced run) must reproduce it bit for bit.
 */
class Verifier
{
  public:
    Verifier(const Scale &scale, Corruption corrupt)
        : scale_(scale), corrupt_(corrupt)
    {}

    void
    point(const std::string &key, const CpuConfig &cfg, SimStats s,
          std::uint64_t committed)
    {
        ++attempted;
        if (corrupt_ == Corruption::kRange && attempted == 1)
            s.ipc = -s.ipc;
        auto ref = reference_.find(key);
        if (corrupt_ == Corruption::kIdentity && ref != reference_.end() &&
            !identity_corrupted_) {
            identity_corrupted_ = true;
            s.cycles += 1;
        }
        std::string err =
            checkPoint(s, cfg, scale_.warmup, scale_.measure, committed);
        std::string canon = canonicalStats(s);
        if (ref == reference_.end())
            reference_.emplace(key, std::move(canon));
        else if (err.empty() && ref->second != canon)
            err = "simulated statistics differ from the first run";
        if (!err.empty())
            fail(key, err);
    }

    void
    fail(const std::string &key, const std::string &err)
    {
        ++failed;
        std::fprintf(stderr, "perfbench: FAILED %s: %s\n", key.c_str(),
                     err.c_str());
    }

    /** Digest of the reference statistics of @p keys, in order. */
    std::string
    digest(const std::vector<std::string> &keys) const
    {
        std::vector<std::string> canon;
        for (const std::string &k : keys) {
            auto it = reference_.find(k);
            canon.push_back(it == reference_.end() ? "missing " + k
                                                   : it->second);
        }
        return statsDigest(canon);
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    Scale scale_;
    Corruption corrupt_;
    bool identity_corrupted_ = false;
    std::map<std::string, std::string> reference_;
};

std::string
pointKey(const NamedConfig &c, const WorkloadSpec &w)
{
    return c.id + "@" + w.name;
}

// ---- set-up -------------------------------------------------------------

/** One repetition of the workload's set-up. */
struct Setup
{
    std::vector<std::unique_ptr<Workload>> live; ///< One per spec.
    double generate_s = 0.0, record_s = 0.0, construct_s = 0.0;
    std::uint64_t record_bytes = 0, record_insts = 0;

    double total() const { return generate_s + record_s + construct_s; }
};

/** Instructions a recording holds: the run plus room for the frontend
 *  to fetch ahead of commit, so replay never wraps. */
std::uint64_t
recordLength(const Scale &sc)
{
    return sc.warmup + sc.measure + (sc.warmup + sc.measure) / 4 + 16'384;
}

/**
 * Generate the programs (for a sweep, also record them to @p dir) and
 * construct every point's Cpu, opening its source as the point will.
 */
Setup
runSetup(const WorkloadDef &def, const std::vector<WorkloadSpec> &specs,
         const Scale &sc, const std::string &dir)
{
    Setup st;
    const Clock::time_point t0 = Clock::now();
    for (const WorkloadSpec &spec : specs)
        st.live.push_back(makeWorkload(spec));
    st.generate_s = seconds(t0, Clock::now());

    if (def.sweep) {
        for (std::size_t w = 0; w < specs.size(); ++w) {
            const RecordProbe r = recordTrace(
                *st.live[w], traceio::replayPath(dir, specs[w].name),
                recordLength(sc));
            st.record_s += r.seconds;
            st.record_bytes += r.bytes;
            st.record_insts += r.insts;
        }
    }

    for (std::size_t w = 0; w < specs.size(); ++w) {
        for (const NamedConfig &c : def.configs) {
            traceio::OpenedSource opened;
            const Clock::time_point c0 = Clock::now();
            TraceSource *src = st.live[w].get();
            if (def.sweep) {
                opened = traceio::openWorkloadSource(specs[w]);
                src = opened.source.get();
            } else {
                src->reset();
            }
            auto cpu = std::make_unique<Cpu>(c.cfg, *src);
            st.construct_s += seconds(c0, Clock::now());
        }
    }
    return st;
}

// ---- rounds -------------------------------------------------------------

/** Host accounting of one round: every point of the workload once. */
struct Round
{
    double wall_s = 0.0;     ///< Whole round.
    double run_s = 0.0;      ///< Summed time inside Cpu::run.
    std::uint64_t insts = 0; ///< Committed, warmup included, all points.
    std::uint64_t cycles = 0;
    std::map<std::string, double> point_run_s; ///< By pointKey().
    std::map<std::string, std::uint64_t> point_insts;
    /// Simulated IPC, L1-BTB hit rate and I$ MPKI summed over points,
    /// to show the character of the workload.
    double ipc_sum = 0.0, l1_btb_hit_sum = 0.0, icache_mpki_sum = 0.0;

    // Traced rounds only.
    CallTimer next;
    BtbTimers btb;

    // Experiment rounds only.
    std::vector<double> point_s; ///< Open + construct + run, per point.
    double busy_s = 0.0;
    double slots_wall_s = 0.0; ///< Worker slots x sweep wall time.
    std::size_t retries = 0;

    void
    addPoint(const std::string &key, const SimStats &s, double run,
             std::uint64_t committed, std::uint64_t sim_cycles)
    {
        ipc_sum += s.ipc;
        l1_btb_hit_sum += s.l1_btb_hitrate;
        icache_mpki_sum += s.icache_mpki;
        run_s += run;
        insts += committed;
        cycles += sim_cycles;
        point_run_s[key] = run;
        point_insts[key] = committed;
    }

    /** Simulated Minst per host second: time inside Cpu::run for a
     *  single-thread round, wall time for a sweep. */
    double
    minstPerS(bool sweep) const
    {
        const double s = sweep ? wall_s : run_s;
        return s > 0 ? static_cast<double>(insts) / 1e6 / s : 0.0;
    }
};

/** A single-thread, untraced round: each configuration on each live
 *  workload, timed around Cpu::run. */
Round
directRound(Setup &st, const std::vector<WorkloadSpec> &specs,
            const std::vector<NamedConfig> &configs, const Scale &sc,
            Verifier &ver)
{
    Round r;
    const Clock::time_point w0 = Clock::now();
    for (const NamedConfig &c : configs) {
        for (std::size_t w = 0; w < specs.size(); ++w) {
            Workload &wl = *st.live[w];
            wl.reset();
            Cpu cpu(c.cfg, wl);
            const Clock::time_point t0 = Clock::now();
            cpu.run(sc.warmup, sc.measure);
            const double run = seconds(t0, Clock::now());
            const std::string key = pointKey(c, specs[w]);
            ver.point(key, c.cfg, cpu.stats(), cpu.committed());
            r.addPoint(key, cpu.stats(), run, cpu.committed(),
                       cpu.cycleCount());
        }
    }
    r.wall_s = seconds(w0, Clock::now());
    return r;
}

/** Per-point host record written by the worker that ran the point. */
struct PointHost
{
    double run_s = 0.0, point_s = 0.0;
    std::uint64_t committed = 0, cycles = 0;
    CallTimer next;
    BtbTimers btb;
};

/**
 * A round through exp::Experiment: the sweep (replayed sources opened by
 * traceio::openWorkloadSource, @p threads workers) or the traced pass
 * of a single-thread workload (its live workload, one worker). With
 * @p traced the Cpu gets timing decorators on its source and BTB.
 */
Round
experimentRound(const WorkloadDef &def, const std::vector<WorkloadSpec> &specs,
                Setup &st, const Scale &sc, unsigned threads, bool traced,
                Verifier &ver)
{
    const std::size_t nw = specs.size();
    std::vector<PointHost> host(def.configs.size() * nw);
    std::vector<CpuConfig> cfgs;
    for (const NamedConfig &c : def.configs)
        cfgs.push_back(c.cfg);

    exp::ExperimentOptions opt;
    opt.run.warmup = sc.warmup;
    opt.run.measure = sc.measure;
    opt.run.threads = threads;
    opt.cache_dir.clear(); // Every point simulates.
    opt.retries = 0;       // A deterministic point fails every time.
    opt.simulate = [&](const CpuConfig &cfg, const WorkloadSpec &spec,
                       const RunOptions &run) {
        const Clock::time_point p0 = Clock::now();
        const std::size_t ci =
            std::find(cfgs.begin(), cfgs.end(), cfg) - cfgs.begin();
        std::size_t wi = 0;
        while (wi < nw && specs[wi].name != spec.name)
            ++wi;
        if (ci == cfgs.size() || wi == nw)
            throw std::logic_error("point not in the workload");
        PointHost &ph = host[ci * nw + wi];

        traceio::OpenedSource opened;
        TraceSource *src = st.live[wi].get();
        if (def.sweep) {
            opened = traceio::openWorkloadSource(spec);
            if (!opened.replay)
                throw std::runtime_error("no recording of " + spec.name);
            src = opened.source.get();
        } else {
            src->reset();
        }

        std::unique_ptr<TimedSource> timed_src;
        TimedBtb *timed_btb = nullptr;
        std::unique_ptr<Cpu> cpu;
        if (traced) {
            timed_src = std::make_unique<TimedSource>(*src);
            auto btb = std::make_unique<TimedBtb>(makeBtb(cfg.btb));
            timed_btb = btb.get();
            cpu = std::make_unique<Cpu>(cfg, *timed_src, std::move(btb));
        } else {
            cpu = std::make_unique<Cpu>(cfg, *src);
        }
        const Clock::time_point t0 = Clock::now();
        cpu->run(run.warmup, run.measure);
        ph.run_s = seconds(t0, Clock::now());
        ph.committed = cpu->committed();
        ph.cycles = cpu->cycleCount();

        SimStats s = cpu->stats();
        if (traced) {
            ph.next = timed_src->timer;
            ph.btb = timed_btb->timers;
            // Cpu harvested the decorator's (empty) StatSet; restore the
            // organization's counters exactly as harvestRegistry does.
            for (const auto &[k, v] : timed_btb->innerStats().all())
                s.counters["btb." + k] = static_cast<double>(v);
        }
        ph.point_s = seconds(p0, Clock::now());
        return s;
    };

    exp::Experiment e(def.name, cfgs, specs, std::move(opt));
    const Clock::time_point w0 = Clock::now();
    const exp::ExperimentResult res = e.run();

    Round r;
    r.wall_s = seconds(w0, Clock::now());
    for (const exp::PointResult &p : res.points) {
        const NamedConfig &c = def.configs[p.config_index];
        const std::string key = pointKey(c, specs[p.workload_index]);
        const PointHost &ph = host[p.config_index * nw + p.workload_index];
        if (!p.hasStats()) {
            ++ver.attempted;
            ver.fail(key, std::string(exp::pointStatusName(p.status)) + ": " +
                              p.error);
            continue;
        }
        ver.point(key, c.cfg, p.stats, ph.committed);
        r.addPoint(key, p.stats, ph.run_s, ph.committed, ph.cycles);
        r.next.merge(ph.next);
        r.btb.merge(ph.btb);
        r.point_s.push_back(ph.point_s);
    }
    for (const exp::ShardUtil &u : res.shards)
        r.busy_s += u.busy_seconds;
    r.slots_wall_s = static_cast<double>(res.shards.size()) *
                     res.summary.wall_seconds;
    r.retries = res.summary.retries;
    return r;
}

/**
 * Each point's fastest Cpu::run time across @p rounds, summed over the
 * points whose key starts with @p prefix, with their instructions.
 *
 * On a shared virtual machine, speed drifts by up to ±30% in phases of
 * seconds. Interference only ever slows a deterministic computation, so
 * the fastest repetition of a point is the steadiest estimate of the
 * code's own speed. (On a shared 4-vCPU Xeon VM, eight 10 s runs of
 * olap-backend with one seed gave an interquartile spread of 21% for
 * the median round and 3.5% for this estimate.)
 */
struct Fastest
{
    double run_s = 0.0;
    std::uint64_t insts = 0;

    double minstPerS() const
    {
        return run_s > 0 ? static_cast<double>(insts) / 1e6 / run_s : 0.0;
    }
};

Fastest
fastestPoints(const std::vector<Round> &rounds, const std::string &prefix = "")
{
    Fastest f;
    for (const auto &[key, insts] : rounds.front().point_insts) {
        if (key.compare(0, prefix.size(), prefix) != 0)
            continue;
        double best = 0.0;
        for (const Round &r : rounds) {
            auto it = r.point_run_s.find(key);
            if (it != r.point_run_s.end() && (best == 0.0 || it->second < best))
                best = it->second;
        }
        f.run_s += best;
        f.insts += insts;
    }
    return f;
}

/** The sweep's counterpart: its fastest round by wall time. */
const Round &
fastestRound(const std::vector<Round> &rounds)
{
    return *std::min_element(rounds.begin(), rounds.end(),
                             [](const Round &a, const Round &b) {
                                 return a.wall_s < b.wall_s;
                             });
}

// ---- output -------------------------------------------------------------

struct Metric
{
    double value;
    const char *unit;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<std::pair<std::string, Metric>> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char num[40];
        std::snprintf(num, sizeof num, "%.17g", metrics[i].second.value);
        if (i)
            out += ", ";
        out += "\"";
        out += metrics[i].first;
        out += "\": {\"value\": ";
        out += num;
        out += ", \"unit\": \"";
        out += metrics[i].second.unit;
        out += "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

using Metrics = std::vector<std::pair<std::string, Metric>>;

/** Everything the traced half of a --trace 1 run measures. */
Metrics
layerMetrics(const WorkloadDef &def, const std::vector<WorkloadSpec> &specs,
             Setup &st, const Scale &sc, unsigned threads, double budget,
             const std::filesystem::path &dir,
             const std::vector<Round> &plain, Verifier &ver)
{
    std::vector<Round> traced;
    double spent = 0.0;
    while (traced.empty() || spent < budget) {
        traced.push_back(
            experimentRound(def, specs, st, sc, threads, true, ver));
        spent += traced.back().wall_s;
    }

    // Per-organization speed, single-thread and untraced. The sweep
    // runs the canonical organizations once on its programs.
    std::vector<NamedConfig> orgs = def.configs;
    std::vector<Round> by_org = plain;
    if (def.sweep) {
        orgs = canonicalOrgs(false);
        by_org = {directRound(st, specs, orgs, sc, ver)};
    }

    // Isolated layer drivers on the first program.
    Workload &first = *st.live[0];
    first.reset();
    std::vector<Instruction> stream;
    stream.reserve(sc.probe_insts);
    for (std::uint64_t i = 0; i < sc.probe_insts; ++i)
        stream.push_back(first.next());
    std::vector<CpuConfig> cfgs;
    for (const NamedConfig &c : def.configs)
        cfgs.push_back(c.cfg);
    const CpuConfig &base = def.configs.front().cfg;
    const FrontendProbe fe = probeFrontend(first, cfgs, sc.probe_cycles);
    const BpredProbe bp = probeBpred(stream, base.bpred, sc.probe_passes);
    const MemoryProbe mem = probeMemory(stream, base.mem, sc.probe_passes);
    const BackendProbe be = probeBackend(stream, base, sc.probe_passes);

    // The sweep recorded during set-up; a single-thread workload records
    // its program here.
    RecordProbe rec{st.record_s, st.record_bytes, st.record_insts};
    if (!def.sweep)
        rec = recordTrace(first,
                          traceio::replayPath(dir.string(), specs[0].name),
                          recordLength(sc));

    CallTimer next;
    BtbTimers btb;
    double traced_run_s = 0.0;
    std::vector<double> point_s;
    for (const Round &r : traced) {
        next.merge(r.next);
        btb.merge(r.btb);
        traced_run_s += r.run_s;
        point_s.insert(point_s.end(), r.point_s.begin(), r.point_s.end());
    }
    const double nt = static_cast<double>(traced.size());
    const double trace_share = next.ns / (traced_run_s * 1e9);
    const double btb_share = btb.totalNs() / (traced_run_s * 1e9);
    const Fastest fast = fastestPoints(plain);
    const Round &last = traced.back();

    Metrics m;
    auto add = [&](std::string name, double v, const char *unit) {
        m.push_back({std::move(name), {v, unit}});
    };
    add("sim.run_s", fast.run_s, "s");
    add("sim.ns_per_cycle",
        fast.run_s * 1e9 / static_cast<double>(plain.front().cycles), "ns");
    add("sim.ns_per_inst", fast.run_s * 1e9 / static_cast<double>(fast.insts),
        "ns");
    add("sim.other_share", 1.0 - trace_share - btb_share, "frac");
    {
        std::vector<double> v;
        for (const Round &r : plain)
            v.push_back(r.minstPerS(def.sweep));
        add("sim.minst_per_s_median", median(v), "Minst/s");
    }
    for (const NamedConfig &c : orgs)
        add("sim.minst_per_s." + c.id,
            fastestPoints(by_org, c.id + "@").minstPerS(), "Minst/s");
    add("trace.next_ns", next.nsPerCall(), "ns");
    add("trace.next_calls", static_cast<double>(next.calls) / nt, "count");
    add("trace.share", trace_share, "frac");
    add("traceio.record_s", rec.seconds, "s");
    add("traceio.bytes_per_inst",
        static_cast<double>(rec.bytes) / static_cast<double>(rec.insts),
        "B/inst");
    const std::pair<const char *, const CallTimer *> calls[] = {
        {"begin_access", &btb.begin_access},
        {"chain_access", &btb.chain_access},
        {"end_access", &btb.end_access},
        {"update", &btb.update},
    };
    for (const auto &[name, t] : calls) {
        add(std::string("core.btb.") + name + "_ns", t->nsPerCall(), "ns");
        add(std::string("core.btb.") + name + "_calls",
            static_cast<double>(t->calls) / nt, "count");
    }
    add("core.btb.share", btb_share, "frac");
    add("frontend.pcgen_cycle_ns", fe.pcgen_cycle_ns, "ns");
    add("frontend.fetch_pcs_per_access", fe.fetch_pcs_per_access,
        "pcs/access");
    add("bpred.direction_ns", bp.direction_ns, "ns");
    add("bpred.direction_calls", static_cast<double>(bp.direction_calls),
        "count");
    add("bpred.indirect_ns", bp.indirect_ns, "ns");
    add("bpred.cond_mispredict_rate", bp.cond_mispredict_rate, "frac");
    add("memory.fetch_line_ns", mem.fetch_line_ns, "ns");
    add("memory.load_ns", mem.load_ns, "ns");
    add("memory.store_ns", mem.store_ns, "ns");
    add("memory.l1i_miss_rate", mem.l1i_miss_rate, "frac");
    add("memory.l1d_miss_rate", mem.l1d_miss_rate, "frac");
    add("backend.run_cycle_ns", be.run_cycle_ns, "ns");
    add("backend.allocate_ns", be.allocate_ns, "ns");
    add("backend.ipc", be.ipc, "inst/cycle");
    add("backend.rob_occupancy_mean", be.rob_occupancy_mean, "entries");
    add("exp.worker_busy_frac",
        last.slots_wall_s > 0 ? last.busy_s / last.slots_wall_s : 0.0,
        "frac");
    add("exp.idle_s", std::max(0.0, last.slots_wall_s - last.busy_s), "s");
    add("exp.point_s_p50", quantile(point_s, 0.50), "s");
    add("exp.point_s_p75", quantile(point_s, 0.75), "s");
    add("exp.retries", static_cast<double>(last.retries), "count");
    add("trace_overhead_frac", fastestPoints(traced).run_s / fast.run_s - 1.0,
        "frac");
    return m;
}

/** The run's recordings directory, removed however the run ends. */
struct ScratchDir
{
    explicit ScratchDir(std::filesystem::path p) : path(std::move(p))
    {
        std::filesystem::create_directories(path);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    std::filesystem::path path;
};

int
run(const Args &args)
{
    const WorkloadDef def = workloadDef(args.workload);
    const Scale sc = scaleFor(def.sweep, args.tiny);
    const std::vector<WorkloadSpec> specs = seededSpecs(def, args.seed);
    const unsigned threads = def.sweep ? hostThreads() : 1;

    const ScratchDir scratch(std::filesystem::path(args.data_dir) /
                             (def.name + "-seed" + std::to_string(args.seed) +
                              "-" + std::to_string(::getpid())));
    const std::filesystem::path &dir = scratch.path;
    // The sweep's points open their sources through the replay
    // directory, exactly as bench sweeps do.
    if (def.sweep)
        ::setenv("BTBSIM_TRACE_DIR", dir.c_str(), 1);

    const double calib0 = calibrateHostNs();
    Verifier ver(sc, args.corrupt);

    // Untraced rounds, each after its own set-up, so that set-up times
    // are sampled across the run as the rounds are.
    Setup st;
    std::vector<double> setup_s, generate_s, construct_s;
    std::vector<Round> plain;
    const double budget = args.trace ? args.seconds / 2 : args.seconds;
    double spent = 0.0;
    // Peak memory after a fixed amount of work: with spans on (the
    // default) the process keeps every finished worker thread's span
    // buffer, so the true peak grows with the number of sweep rounds,
    // which depends on host speed.
    double peak_rss_mb = 0.0;
    while (plain.size() < sc.min_rounds || spent < budget) {
        st = Setup{}; // Free the previous repetition first.
        st = runSetup(def, specs, sc, dir.string());
        setup_s.push_back(st.total());
        generate_s.push_back(st.generate_s);
        construct_s.push_back(st.construct_s);
        plain.push_back(def.sweep ? experimentRound(def, specs, st, sc,
                                                    threads, false, ver)
                                  : directRound(st, specs, def.configs, sc,
                                                ver));
        spent += plain.back().wall_s;
        if (plain.size() == sc.min_rounds)
            peak_rss_mb = peakRssMb();
    }

    std::vector<std::string> keys;
    for (const NamedConfig &c : def.configs)
        for (const WorkloadSpec &w : specs)
            keys.push_back(pointKey(c, w));
    const std::string digest = ver.digest(keys);

    Metrics metrics;
    if (!args.trace) {
        const Round &best = fastestRound(plain);
        metrics.push_back(
            {"sim_minst_per_s",
             {def.sweep ? best.minstPerS(true)
                        : fastestPoints(plain).minstPerS(),
              "Minst/s"}});
        metrics.push_back({"setup_s", {median(setup_s), "s"}});
        metrics.push_back({"peak_rss_mb", {peak_rss_mb, "MB"}});
    } else {
        metrics = layerMetrics(def, specs, st, sc, threads, args.seconds / 2,
                               dir, plain, ver);
        metrics.push_back({"sim.setup.generate_s", {median(generate_s), "s"}});
        metrics.push_back(
            {"sim.setup.construct_s", {median(construct_s), "s"}});
    }
    const double calib1 = calibrateHostNs();
    if (args.trace) {
        metrics.push_back({"host.calib_ns", {(calib0 + calib1) / 2, "ns"}});
        metrics.push_back(
            {"host.calib_drift_frac", {calib1 / calib0 - 1.0, "frac"}});
        metrics.push_back(
            {"failed_frac",
             {static_cast<double>(ver.failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, ver.attempted)),
              "frac"}});
    }

    std::printf("workload %s seed %llu: %zu points x %zu rounds, %u thread(s)\n",
                def.name.c_str(), static_cast<unsigned long long>(args.seed),
                keys.size(), plain.size(), threads);
    for (std::size_t i = 0; i < plain.size(); ++i)
        std::printf("  round %zu: %.3f Minst/s, wall %.3f s, set-up %.4f s\n",
                    i, plain[i].minstPerS(def.sweep), plain[i].wall_s,
                    setup_s[i]);
    const double n = static_cast<double>(keys.size());
    std::printf("  simulated means: IPC %.3f, L1-BTB hit rate %.3f, "
                "I$ MPKI %.2f\n",
                plain[0].ipc_sum / n, plain[0].l1_btb_hit_sum / n,
                plain[0].icache_mpki_sum / n);
    std::printf("host.calib_ns start %.4f end %.4f\n", calib0, calib1);
    std::printf("stats_digest %s seed=%llu sha256=%s\n", def.name.c_str(),
                static_cast<unsigned long long>(args.seed), digest.c_str());

    const bool correct = ver.failed == 0;
    printResult(correct, ver.attempted, ver.failed, metrics);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        args = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr,
                     "perfbench: %s\nusage: perfbench --workload "
                     "<olap-backend|mono-frontend|fig5-sweep> --seed <n> "
                     "--seconds <s> --trace <0|1> [--data-dir <dir>]\n",
                     e.what());
        return 2;
    }
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
