/**
 * @file
 * Top-level processor model: the decoupled frontend of Fig. 3 feeding the
 * Table 1 backend, driven cycle by cycle.
 */

#ifndef BTBSIM_SIM_CPU_H
#define BTBSIM_SIM_CPU_H

#include <memory>

#include "backend/backend.h"
#include "bpred/bpred_unit.h"
#include "common/fifo_ring.h"
#include "core/btb_org.h"
#include "frontend/ftq.h"
#include "frontend/pcgen.h"
#include "memory/memhier.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "obs/tracer.h"
#include "sim/config.h"
#include "sim/sim_stats.h"
#include "trace/trace_source.h"

namespace btbsim {

namespace check {
class CheckedBtb;
}

/**
 * The simulated core. Construction wires BP stage (BTB + predictors),
 * FTQ, fetch, decode/allocate queues and the backend; run() executes a
 * warmup phase followed by a measurement phase and fills stats().
 *
 * The FTQ and the decode and allocate queues are fixed rings sized from
 * cfg (ftq_entries, decode_queue, alloc_queue) at construction, so the
 * instruction hand-off from PcGen to the ROB allocates nothing.
 */
class Cpu
{
  public:
    /** @throws std::invalid_argument when cfg has a zero queue size or
     *  width, or icache_interleaves outside 1..32. */
    Cpu(const CpuConfig &cfg, TraceSource &trace);

    /**
     * Construct with a user-supplied BTB organization (see
     * examples/custom_btb.cpp). @p org must be non-null; cfg.btb is used
     * only for reporting in that case.
     */
    Cpu(const CpuConfig &cfg, TraceSource &trace,
        std::unique_ptr<BtbOrg> org);

    ~Cpu(); // Out of line: check::CheckedBtb is incomplete here.

    /**
     * Simulate until @p warmup + @p measure instructions commit;
     * statistics cover only the measurement window.
     */
    void run(std::uint64_t warmup, std::uint64_t measure);

    const SimStats &stats() const { return stats_; }

    /** Advance one cycle (exposed for fine-grained tests). */
    void step();

    Cycle cycleCount() const { return now_; }
    std::uint64_t committed() const { return backend_.committed(); }

    BtbOrg &btb() { return *org_; }
    MemHier &mem() { return mem_; }
    const PcGenStats &pcgenStats() const { return pcgen_.stats; }

    /**
     * Attach (or detach with nullptr) a pipeline event tracer. The
     * tracer pointer is propagated to the frontend; when null, every
     * event site reduces to one predictable branch.
     */
    void attachTracer(obs::Tracer *tracer);
    obs::Tracer *tracer() { return tracer_; }

    /** Interval (cycles) of the time-series sampler; 0 disables it.
     *  Defaults to BTBSIM_SAMPLE_INTERVAL / 100k. Takes effect at the
     *  next run(). */
    void setSampleInterval(std::uint64_t cycles)
    {
        sample_interval_ = cycles;
    }

    /** Hierarchical stats harvested from every component at end of run. */
    const obs::StatRegistry &registry() const { return registry_; }

  private:
    CpuConfig cfg_;
    TraceSource *trace_;

    MemHier mem_;
    BPredUnit bpred_;
    std::unique_ptr<BtbOrg> org_;
    /** Differential-checking wrapper, non-null only with BTBSIM_CHECK. */
    std::unique_ptr<check::CheckedBtb> checked_;
    /** What the frontend actually drives: the checker when enabled,
     *  else the organization itself. */
    BtbOrg *btb_front_;
    Ftq ftq_;
    PcGen pcgen_;
    Backend backend_;

    FifoRing<DynInst> decode_queue_;
    FifoRing<DynInst> alloc_queue_;

    Cycle now_ = 0;
    SimStats stats_;

    // Occupancy sampling.
    double occ_samples_ = 0.0;
    OccupancySample occ_accum_;

    // Observability.
    obs::Tracer *tracer_ = nullptr;
    obs::StatRegistry registry_;
    std::uint64_t sample_interval_ = obs::Sampler::intervalFromEnv();
    double ftq_occ_sum_ = 0.0; ///< Per-cycle FTQ size, measurement only.

    void fetchIssue();
    void predecodeLine(Addr line);
    void deliver();
    void decode();
    void allocate();
    void sampleStructures();
    obs::SampleSnapshot sampleSnapshot(Cycle cycles0, std::uint64_t insts0,
                                       const PcGenStats &pg0,
                                       std::uint64_t i_miss0) const;
    void harvestRegistry();
};

} // namespace btbsim

#endif // BTBSIM_SIM_CPU_H
