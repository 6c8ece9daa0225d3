/**
 * @file
 * Out-of-order backend: rename, issue queue, functional units, ROB.
 *
 * Table 1: 352-entry ROB, 128-entry IQ, 128-entry LQ, 72-entry SQ,
 * 16-wide allocate/execute/commit with 11 misc + 3 load + 2 store ports.
 * Memory dependence prediction is oracle (as in ChampSim), so loads never
 * stall on unrelated stores.
 *
 * An ideal mode (Fig. 11a) models a backend limited only by data
 * dependencies inside an 8K-instruction window: unit latencies, unlimited
 * ports and single-cycle retire of the whole window.
 *
 * Scheduling is event-driven. The ROB is a fixed ring indexed by
 * allocation position. A consumer waiting on un-issued producers sits on
 * their dependent lists; issuing a producer pushes its completion cycle
 * to them. Once a consumer's last operand cycle is known it waits in a
 * timing wheel (or, beyond the wheel's horizon, an overflow list) until
 * that cycle, then joins a ready bitmap over ROB slots. Issue scans the
 * bitmap oldest first from the ROB head under the issue-width and port
 * caps.
 */

#ifndef BTBSIM_BACKEND_BACKEND_H
#define BTBSIM_BACKEND_BACKEND_H

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "memory/memhier.h"
#include "sim/dyn_inst.h"

namespace btbsim {

/** Backend configuration. */
struct BackendConfig
{
    unsigned rob_size = 352;
    unsigned iq_size = 128;
    unsigned lq_size = 128;
    unsigned sq_size = 72;
    unsigned alloc_width = 16;
    unsigned commit_width = 16;
    unsigned issue_width = 16;
    unsigned misc_ports = 11;
    unsigned load_ports = 3;
    unsigned store_ports = 2;
    bool ideal = false; ///< Fig. 11a: 8K window, unit latencies.

    static BackendConfig
    idealBackend()
    {
        BackendConfig c;
        c.ideal = true;
        c.rob_size = 8192;
        c.iq_size = 8192;
        c.lq_size = 8192;
        c.sq_size = 8192;
        c.alloc_width = 8192;
        c.commit_width = 8192;
        c.issue_width = 8192;
        return c;
    }

    bool operator==(const BackendConfig &) const = default;
};

/**
 * The backend pipeline from Allocate to Commit. The Cpu pushes decoded
 * instructions through tryAllocate() and polls for exec-resolved resteers.
 */
class Backend
{
  public:
    Backend(const BackendConfig &cfg, MemHier &mem);

    /** Space for one more instruction this cycle? */
    bool canAllocate() const;

    /** Allocate @p inst into ROB/IQ (call only when canAllocate()). */
    void allocate(DynInst &&inst, Cycle now);

    /** Issue + complete + commit for cycle @p now. */
    void runCycle(Cycle now);

    /**
     * If a resteer-flagged branch finished executing at or before @p now,
     * consume the event. @return the resolution cycle, or 0 when none.
     */
    Cycle takeExecResteer(Cycle now);

    std::uint64_t committed() const { return committed_; }
    bool empty() const { return head_ == tail_; }
    std::uint64_t robOccupancy() const { return tail_ - head_; }

    /** One issued instruction. */
    struct IssueEvent
    {
        std::uint64_t seq;
        Cycle issue;
        Cycle complete;
    };

    /** Append every issue to @p log (nullptr stops recording). */
    void traceIssues(std::vector<IssueEvent> *log) { issue_log_ = log; }

    StatSet stats;

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    static constexpr Cycle kNever = ~Cycle{0};
    /// Wheel horizon in cycles: covers L1/L2/LLC load latencies; DRAM
    /// completions land in the overflow list.
    static constexpr unsigned kWheelSize = 64;

    /// Compact ROB record (one cache line): only what issue, wakeup and
    /// commit read.
    struct RobEntry
    {
        std::uint64_t seq;
        Addr pc;
        Addr mem_addr;
        /// Latest known operand cycle (at least alloc + 1); the issue
        /// cycle lower bound once pending reaches 0.
        Cycle ready;
        Cycle complete; ///< Valid once issued.
        /// Head of the dependent-link list: link 2 * slot + op names
        /// operand op of the consumer in slot.
        std::uint32_t waiters;
        std::uint32_t link_next[2]; ///< Next link after this operand's.
        std::uint32_t wheel_next;   ///< Next slot in the same wheel bucket.
        InstClass cls;
        std::uint8_t port; ///< Port class: 0 load, 1 store, 2 misc.
        Resteer resteer;
        bool issued;
        std::uint8_t pending; ///< Operands whose producer has not issued.
    };

    struct FreeDeleter
    {
        void operator()(RobEntry *p) const { std::free(p); }
    };

    BackendConfig cfg_;
    MemHier *mem_;

    /// The ring: zeroed on demand (calloc), so an 8K-entry ideal window
    /// costs memory only for the slots it reaches.
    std::unique_ptr<RobEntry[], FreeDeleter> rob_;
    std::uint32_t mask_ = 0;      ///< Ring capacity - 1 (power of two).
    std::uint64_t head_ = 0;      ///< Allocation position of the oldest.
    std::uint64_t tail_ = 0;      ///< Next allocation position.

    std::uint64_t last_committed_seq_ = 0;
    std::uint64_t committed_ = 0;

    unsigned loads_in_flight_ = 0;
    unsigned stores_in_flight_ = 0;
    unsigned iq_occupancy_ = 0;

    /// Outstanding exec-resolved resteer (at most one; the frontend
    /// stalls). 0 = none; otherwise the branch's completion cycle.
    Cycle pending_resteer_complete_ = 0;
    bool has_pending_resteer_ = false;

    /// Rename: architectural register -> producing seq and ROB slot.
    std::uint64_t last_writer_[64] = {};
    std::uint32_t last_writer_slot_[64] = {};

    /// Timing wheel: bucket c % kWheelSize lists the slots that become
    /// ready at cycle c, for c in (wheel_now_, wheel_now_ + kWheelSize].
    std::array<std::uint32_t, kWheelSize> wheel_;
    Cycle wheel_now_ = 0; ///< Last cycle whose bucket was drained.
    /// Slots ready beyond the wheel's horizon, and their earliest cycle.
    std::vector<std::uint32_t> overflow_;
    Cycle overflow_min_ = kNever;

    /// Slots whose operands are ready and that have not issued (a power
    /// of two words; empty in ideal mode).
    std::vector<std::uint64_t> ready_;

    std::vector<IssueEvent> *issue_log_ = nullptr;

    RobEntry &at(std::uint64_t pos) { return rob_[pos & mask_]; }
    bool producerLive(std::uint64_t seq, std::uint32_t slot) const;
    void setReady(std::uint32_t slot);
    void schedule(std::uint32_t slot, Cycle ready);
    void advanceWheel(Cycle now);
    void migrateOverflow();
    void issue(Cycle now);
    void issueSlot(std::uint32_t slot, Cycle now);
    unsigned execLatency(const RobEntry &e, Cycle now);
};

} // namespace btbsim

#endif // BTBSIM_BACKEND_BACKEND_H
