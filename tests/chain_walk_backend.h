/**
 * @file
 * Reference model for the backend scheduler: the per-cycle chain walk the
 * simulator used before its event-driven scheduler. Every cycle it walks
 * the un-issued ROB entries oldest first, re-checks their producers and
 * issues under the issue-width and port caps, with the wake bounds that
 * let it skip entries (stall_until) and whole walks (issue_sleep_until_).
 *
 * It is kept only so backend_diff_test can drive it and btbsim::Backend
 * with the same instruction streams and require identical issue and
 * completion cycles, commit counts and exec resteers.
 */

#ifndef BTBSIM_TESTS_CHAIN_WALK_BACKEND_H
#define BTBSIM_TESTS_CHAIN_WALK_BACKEND_H

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "backend/backend.h"

namespace btbsim::test {

class ChainWalkBackend
{
  public:
    ChainWalkBackend(const BackendConfig &cfg, MemHier &mem);

    /** Space for one more instruction this cycle? */
    bool canAllocate() const;

    /** Allocate @p inst into ROB/IQ (call only when canAllocate()). */
    void allocate(const DynInst &inst, Cycle now);

    /** Issue + complete + commit for cycle @p now. */
    void runCycle(Cycle now);

    /**
     * If a resteer-flagged branch finished executing at or before @p now,
     * consume the event. @return the resolution cycle, or 0 when none.
     */
    Cycle takeExecResteer(Cycle now);

    std::uint64_t committed() const { return committed_; }
    bool empty() const { return rob_.empty(); }
    std::uint64_t robOccupancy() const { return rob_.size(); }

    /** Append every issue to @p log (nullptr stops recording). */
    void traceIssues(std::vector<Backend::IssueEvent> *log) { issue_log_ = log; }

  private:
    struct RobEntry
    {
        DynInst inst;
        bool issued = false;
        /// Producer sequence numbers from rename (0 = no dependency).
        std::uint64_t dep1 = 0;
        std::uint64_t dep2 = 0;
        // Timing (absolute cycles, 0 = not reached).
        Cycle alloc_cycle = 0;
        Cycle complete_cycle = 0;
        /// Producing ROB entries of the renamed sources (null = none or
        /// producer outside the ROB). Dereference only after checking the
        /// dep seq against last_committed_seq_: deque references stay
        /// stable until commit pops the producer.
        RobEntry *dep1_src = nullptr;
        RobEntry *dep2_src = nullptr;
        /// Intrusive issue-scan chain threading the un-issued entries in
        /// ROB order; issue unlinks, so the per-cycle scan never walks
        /// already-issued entries.
        RobEntry *next_unissued = nullptr;
        /// Earliest cycle the dependencies can possibly be ready (issued
        /// producers pin their completion cycle; an un-issued producer
        /// cannot complete before now+2). Purely a scan shortcut:
        /// readiness never regresses, so skipping the producer re-check
        /// until this cycle is timing-identical to re-checking every
        /// cycle.
        Cycle stall_until = 0;
    };

    BackendConfig cfg_;
    MemHier *mem_;

    std::deque<RobEntry> rob_;
    /// seq -> complete_cycle for live producers (ideal mode only: the
    /// realistic path resolves producers through RobEntry pointers).
    std::unordered_map<std::uint64_t, Cycle> live_;
    std::uint64_t last_committed_seq_ = 0;
    std::uint64_t committed_ = 0;

    unsigned loads_in_flight_ = 0;
    unsigned stores_in_flight_ = 0;
    unsigned iq_occupancy_ = 0;

    /// Outstanding exec-resolved resteer (at most one; the frontend
    /// stalls). 0 = none; otherwise the branch's completion cycle.
    Cycle pending_resteer_complete_ = 0;
    bool has_pending_resteer_ = false;

    /// Rename: architectural register -> producing seq / ROB entry.
    std::uint64_t last_writer_[64] = {};
    RobEntry *last_writer_entry_[64] = {};

    RobEntry *unissued_head_ = nullptr;
    RobEntry *unissued_tail_ = nullptr;

    /// Proven lower bound on the next cycle any entry could issue; the
    /// issue walk is skipped while now < issue_sleep_until_. Reset to 0
    /// by allocate() (a new entry voids the proof). Purely a scan
    /// shortcut — every bound is derived from fixed completion cycles,
    /// so skipped walks are provable no-ops.
    Cycle issue_sleep_until_ = 0;

    std::vector<Backend::IssueEvent> *issue_log_ = nullptr;

    bool depReady(std::uint64_t seq, const RobEntry *src, Cycle now) const;
    unsigned execLatency(const DynInst &d, Cycle now);
};

} // namespace btbsim::test

#endif // BTBSIM_TESTS_CHAIN_WALK_BACKEND_H
