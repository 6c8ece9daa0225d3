/**
 * @file
 * Fetch Target Queue: the decoupling queue between PC generation and
 * instruction fetch (Reinman et al.). One entry relates to a single cache
 * line (Table 1), holding the fetch PCs that fall within it.
 *
 * The queue is a ring of recycled entries sized at construction. Each
 * slot keeps its instruction vector's capacity across reuse, so the
 * PcGen -> fetch hand-off allocates nothing in steady state.
 */

#ifndef BTBSIM_FRONTEND_FTQ_H
#define BTBSIM_FRONTEND_FTQ_H

#include <vector>

#include "common/fifo_ring.h"
#include "common/types.h"
#include "sim/dyn_inst.h"

namespace btbsim {

/**
 * One FTQ entry: instructions within a single I-cache line. @c insts is
 * growable: a same-line entry can hold more than one line's worth of
 * instructions (PcGen may append a non-sequential target to it).
 */
struct FtqEntry
{
    Addr line = 0;
    std::vector<DynInst> insts;
    Cycle min_issue_cycle = 0; ///< Earliest I$ access (FTQ bypass when 0-delay).
    bool issued = false;       ///< I$ access started.
    Cycle data_ready = 0;      ///< I$ data available (valid when issued).
    std::size_t next_idx = 0;  ///< Delivery progress within @c insts.
};

/** The queue itself (64 entries per Table 1). */
class Ftq
{
  public:
    /** @throws std::invalid_argument for a zero @p capacity. */
    explicit Ftq(std::size_t capacity = 64) : entries_(capacity)
    {
        // One line's worth per slot up front; a longer entry grows its
        // slot once and keeps the capacity.
        for (std::size_t i = 0; i < capacity; ++i)
            entries_.pushSlot().insts.reserve(kLineBytes / kInstBytes);
        entries_.clear();
    }

    bool full() const { return entries_.full(); }
    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }
    std::size_t capacity() const { return entries_.capacity(); }

    /**
     * Append @p inst, opening a new entry when the line changes (or when
     * the stream was redirected). @return false if a new entry was needed
     * but the queue is full.
     *
     * @param new_entry Force a fresh entry even within the same line
     *                  (redirect targets start a new fetch block).
     */
    bool
    push(const DynInst &inst, Cycle now, bool bypass, bool new_entry)
    {
        const Addr line = alignDown(inst.in.pc, kLineBytes);
        if (!new_entry && !entries_.empty() && !entries_.back().issued &&
            entries_.back().line == line) {
            entries_.back().insts.push_back(inst);
            return true;
        }
        if (full())
            return false;
        FtqEntry &e = entries_.pushSlot();
        e.line = line;
        e.insts.clear();
        e.min_issue_cycle = bypass ? now : now + 1;
        e.issued = false;
        e.data_ready = 0;
        e.next_idx = 0;
        e.insts.push_back(inst);
        return true;
    }

    /** Can a new entry be opened for @p pc without allocating? */
    bool
    canAccept(Addr pc, bool new_entry) const
    {
        const Addr line = alignDown(pc, kLineBytes);
        if (!new_entry && !entries_.empty() && !entries_.back().issued &&
            entries_.back().line == line)
            return true;
        return !full();
    }

    /** The @p i-th oldest entry (0 = front); requires i < size(). */
    FtqEntry &at(std::size_t i) { return entries_[i]; }
    FtqEntry &front() { return entries_.front(); }

    void
    popFront()
    {
        // Issued entries form a prefix; dropping an issued front shifts
        // the first-unissued index left by one.
        if (first_unissued_ > 0)
            --first_unissued_;
        entries_.popFront();
    }

    void
    clear()
    {
        entries_.clear();
        first_unissued_ = 0;
    }

    /**
     * Index of the oldest un-issued entry (== size() when all are
     * issued). Valid because issue happens strictly in queue order and
     * nothing un-issues an entry.
     */
    std::size_t firstUnissued() const { return first_unissued_; }

    /** Record that the entry at firstUnissued() was just issued. */
    void noteIssued() { ++first_unissued_; }

  private:
    FifoRing<FtqEntry> entries_;
    std::size_t first_unissued_ = 0;
};

} // namespace btbsim

#endif // BTBSIM_FRONTEND_FTQ_H
