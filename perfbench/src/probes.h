/**
 * @file
 * Layer timing from outside the simulator: decorators placed at the
 * public seams of Cpu (its TraceSource and its BtbOrg), and isolated
 * drivers that exercise one layer's public functions on a workload's
 * instruction stream. Nothing inside the simulator is instrumented.
 */

#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/btb_org.h"
#include "sim/config.h"
#include "trace/trace_source.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
nsSince(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

/** Host time and call count of one timed call site. */
struct CallTimer
{
    double ns = 0.0;
    std::uint64_t calls = 0;

    double nsPerCall() const { return calls ? ns / static_cast<double>(calls) : 0.0; }

    void
    merge(const CallTimer &o)
    {
        ns += o.ns;
        calls += o.calls;
    }
};

/** Times every next() of the wrapped source. */
class TimedSource : public btbsim::TraceSource
{
  public:
    explicit TimedSource(btbsim::TraceSource &inner) : inner_(&inner) {}

    const btbsim::Instruction &
    next() override
    {
        const Clock::time_point t0 = Clock::now();
        const btbsim::Instruction &in = inner_->next();
        timer.ns += nsSince(t0, Clock::now());
        ++timer.calls;
        return in;
    }

    void reset() override { inner_->reset(); }
    std::string name() const override { return inner_->name(); }
    const btbsim::Program *codeImage() const override
    {
        return inner_->codeImage();
    }

    CallTimer timer;

  private:
    btbsim::TraceSource *inner_;
};

/** The four BtbOrg calls the frontend makes on its hot path. */
struct BtbTimers
{
    CallTimer begin_access, chain_access, end_access, update;

    double totalNs() const
    {
        return begin_access.ns + chain_access.ns + end_access.ns + update.ns;
    }

    void
    merge(const BtbTimers &o)
    {
        begin_access.merge(o.begin_access);
        chain_access.merge(o.chain_access);
        end_access.merge(o.end_access);
        update.merge(o.update);
    }
};

/**
 * Times the hot-path calls of the wrapped organization. Bundle-walk
 * counters go to the inner organization (walk_stats), as the checking
 * decorator does it; the inner organization's own counters are read
 * back with innerStats() because Cpu harvests the decorator's.
 */
class TimedBtb : public btbsim::BtbOrg
{
  public:
    explicit TimedBtb(std::unique_ptr<btbsim::BtbOrg> inner);

    int beginAccess(btbsim::Addr pc, btbsim::PredictionBundle &b) override;
    bool chainAccess(btbsim::Addr pc, btbsim::Addr target,
                     btbsim::PredictionBundle &b) override;
    void endAccess(btbsim::PredictionBundle &b) override;
    void update(const btbsim::Instruction &br, bool resteer) override;

    void prefill(const btbsim::Instruction &br) override { inner_->prefill(br); }
    btbsim::OccupancySample sampleOccupancy() const override
    {
        return inner_->sampleOccupancy();
    }
    const btbsim::BtbConfig &config() const override { return inner_->config(); }
    int peekLevel(btbsim::Addr key) const override { return inner_->peekLevel(key); }

    const btbsim::StatSet &innerStats() const { return inner_->stats; }

    BtbTimers timers;

  private:
    std::unique_ptr<btbsim::BtbOrg> inner_;
};

/** PcGen::runCycle alone: the FTQ is drained every cycle and every
 *  resteer is resolved at once, so only PC generation and the BTB and
 *  predictor calls it makes are timed. */
struct FrontendProbe
{
    double pcgen_cycle_ns = 0.0;
    double fetch_pcs_per_access = 0.0;
};
FrontendProbe probeFrontend(btbsim::TraceSource &src,
                            const std::vector<btbsim::CpuConfig> &cfgs,
                            std::uint64_t cycles_per_config);

/** BPredUnit fed the stream's conditional and indirect branches. */
struct BpredProbe
{
    double direction_ns = 0.0;
    std::uint64_t direction_calls = 0;
    double indirect_ns = 0.0;
    double cond_mispredict_rate = 0.0;
};
BpredProbe probeBpred(const std::vector<btbsim::Instruction> &insts,
                      const btbsim::BPredConfig &cfg, unsigned passes);

/** MemHier fed the stream's fetched lines, loads and stores. */
struct MemoryProbe
{
    double fetch_line_ns = 0.0;
    double load_ns = 0.0;
    double store_ns = 0.0;
    double l1i_miss_rate = 0.0;
    double l1d_miss_rate = 0.0;
};
MemoryProbe probeMemory(const std::vector<btbsim::Instruction> &insts,
                        const btbsim::MemConfig &cfg, unsigned passes);

/** Backend behind a perfect frontend: every cycle allocates up to the
 *  allocation width from the stream. */
struct BackendProbe
{
    double run_cycle_ns = 0.0;
    double allocate_ns = 0.0;
    double ipc = 0.0;
    double rob_occupancy_mean = 0.0;
};
BackendProbe probeBackend(const std::vector<btbsim::Instruction> &insts,
                          const btbsim::CpuConfig &cfg, unsigned passes);

/** Record @p insts instructions of @p src (from its start) to @p path. */
struct RecordProbe
{
    double seconds = 0.0;
    std::uint64_t bytes = 0;
    std::uint64_t insts = 0;
};
RecordProbe recordTrace(btbsim::TraceSource &src, const std::string &path,
                        std::uint64_t insts);

/**
 * Fixed host-speed probe, independent of the simulator: nanoseconds per
 * step of a dependent load-and-hash chain over an 8 MiB table, median of
 * a few repetitions. It shows host drift; it normalizes nothing.
 */
double calibrateHostNs();

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
