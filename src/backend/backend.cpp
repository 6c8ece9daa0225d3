#include "backend/backend.h"

#include <algorithm>
#include <bit>
#include <new>

namespace btbsim {

Backend::Backend(const BackendConfig &cfg, MemHier &mem)
    : cfg_(cfg), mem_(&mem)
{
    // A power-of-two ring of at least one bitmap word; canAllocate()
    // keeps occupancy within rob_size, so ring order is ROB order.
    const std::uint64_t cap =
        std::bit_ceil(std::max<std::uint64_t>(cfg_.rob_size, 64));
    rob_.reset(static_cast<RobEntry *>(std::calloc(cap, sizeof(RobEntry))));
    if (!rob_)
        throw std::bad_alloc();
    mask_ = static_cast<std::uint32_t>(cap - 1);
    wheel_.fill(kNil);
    if (!cfg_.ideal)
        ready_.assign(cap / 64, 0);
}

bool
Backend::canAllocate() const
{
    return robOccupancy() < cfg_.rob_size && iq_occupancy_ < cfg_.iq_size &&
           loads_in_flight_ < cfg_.lq_size &&
           stores_in_flight_ < cfg_.sq_size;
}

bool
Backend::producerLive(std::uint64_t seq, std::uint32_t slot) const
{
    // Commit is in order, so a producer younger than the last commit is
    // still in the ring (the seq check guards a reused slot).
    return seq != 0 && seq > last_committed_seq_ && rob_[slot].seq == seq;
}

void
Backend::allocate(const DynInst &inst, Cycle now)
{
    // Rename: resolve sources to producing sequence numbers and slots.
    const std::uint8_t src[2] = {inst.in.src1, inst.in.src2};
    std::uint64_t dep[2];
    std::uint32_t dep_slot[2];
    for (int i = 0; i < 2; ++i) {
        dep[i] = src[i] ? last_writer_[src[i]] : 0;
        dep_slot[i] = last_writer_slot_[src[i]];
    }
    const auto slot = static_cast<std::uint32_t>(tail_ & mask_);
    if (inst.in.dst) {
        last_writer_[inst.in.dst] = inst.seq;
        last_writer_slot_[inst.in.dst] = slot;
    }

    if (inst.in.isLoad())
        ++loads_in_flight_;
    if (inst.in.isStore())
        ++stores_in_flight_;

    RobEntry &e = at(tail_++);
    e.seq = inst.seq;
    e.pc = inst.in.pc;
    e.mem_addr = inst.in.mem_addr;
    e.ready = now + 1;
    e.complete = 0;
    e.waiters = kNil;
    e.cls = inst.in.cls;
    e.port = inst.in.isLoad() ? 0 : inst.in.isStore() ? 1 : 2;
    e.resteer = inst.resteer;
    e.issued = false;
    e.pending = 0;

    if (cfg_.ideal) {
        // Pure-dataflow scheduling: with unit latencies and unlimited
        // ports, completion is computable at allocation because all
        // producers allocated (and thus scheduled) earlier.
        Cycle c = now + 1;
        for (int i = 0; i < 2; ++i)
            if (producerLive(dep[i], dep_slot[i]))
                c = std::max(c, rob_[dep_slot[i]].complete + 1);
        e.issued = true;
        e.complete = c;
        if (e.resteer == Resteer::kExec) {
            has_pending_resteer_ = true;
            pending_resteer_complete_ = c;
        }
        if (issue_log_)
            issue_log_->push_back({e.seq, now, c});
        return;
    }

    ++iq_occupancy_;
    for (int i = 0; i < 2; ++i) {
        if (!producerLive(dep[i], dep_slot[i]))
            continue;
        RobEntry &p = rob_[dep_slot[i]];
        if (p.issued) {
            e.ready = std::max(e.ready, p.complete);
        } else {
            e.link_next[i] = p.waiters;
            p.waiters = 2 * slot + static_cast<std::uint32_t>(i);
            ++e.pending;
        }
    }
    if (e.pending == 0)
        schedule(slot, e.ready);
}

void
Backend::setReady(std::uint32_t slot)
{
    ready_[slot / 64] |= std::uint64_t{1} << (slot % 64);
}

void
Backend::schedule(std::uint32_t slot, Cycle ready)
{
    if (ready <= wheel_now_) {
        setReady(slot);
    } else if (ready - wheel_now_ <= kWheelSize) {
        std::uint32_t &bucket = wheel_[ready % kWheelSize];
        rob_[slot].wheel_next = bucket;
        bucket = slot;
    } else {
        overflow_.push_back(slot);
        overflow_min_ = std::min(overflow_min_, ready);
    }
}

void
Backend::migrateOverflow()
{
    const Cycle horizon = wheel_now_ + kWheelSize;
    overflow_min_ = kNever;
    std::size_t kept = 0;
    for (const std::uint32_t slot : overflow_) {
        const Cycle r = rob_[slot].ready;
        if (r <= horizon) {
            schedule(slot, r);
        } else {
            overflow_[kept++] = slot;
            overflow_min_ = std::min(overflow_min_, r);
        }
    }
    overflow_.resize(kept);
}

void
Backend::advanceWheel(Cycle now)
{
    // After each step every slot ready at or before wheel_now_ is in the
    // bitmap, and the overflow list holds only slots ready after
    // wheel_now_ + kWheelSize.
    while (wheel_now_ < now) {
        ++wheel_now_;
        std::uint32_t &bucket = wheel_[wheel_now_ % kWheelSize];
        for (std::uint32_t s = bucket; s != kNil; s = rob_[s].wheel_next)
            setReady(s);
        bucket = kNil;
        if (overflow_min_ <= wheel_now_ + kWheelSize)
            migrateOverflow();
    }
}

unsigned
Backend::execLatency(const RobEntry &e, Cycle now)
{
    switch (e.cls) {
      case InstClass::kAlu:
      case InstClass::kBranch:
        return 1;
      case InstClass::kMul:
        return 3;
      case InstClass::kFp:
        return 3;
      case InstClass::kDiv:
        return 12;
      case InstClass::kStore:
        return 1;
      case InstClass::kLoad: {
        const Cycle done = mem_->load(e.pc, e.mem_addr, now);
        return static_cast<unsigned>(done > now ? done - now : 1);
      }
    }
    return 1;
}

void
Backend::issueSlot(std::uint32_t slot, Cycle now)
{
    RobEntry &e = rob_[slot];
    ready_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    --iq_occupancy_;
    e.issued = true;
    e.complete = now + execLatency(e, now);
    if (e.resteer == Resteer::kExec) {
        has_pending_resteer_ = true;
        pending_resteer_complete_ = e.complete;
    }
    if (issue_log_)
        issue_log_->push_back({e.seq, now, e.complete});

    // Wake the dependents: each learns this operand's cycle; those with
    // no operand left pending wait for their ready cycle in the wheel.
    for (std::uint32_t link = e.waiters; link != kNil;) {
        const std::uint32_t c = link / 2;
        RobEntry &d = rob_[c];
        link = d.link_next[link % 2];
        d.ready = std::max(d.ready, e.complete);
        if (--d.pending == 0)
            schedule(c, d.ready);
    }
    e.waiters = kNil;
}

void
Backend::issue(Cycle now)
{
    // Oldest first from the ROB head: the head's bitmap word from the
    // head's bit, the following words around the ring, and finally the
    // head's word below the head's bit. Every bit is a ready, un-issued
    // entry, so this is the old chain walk minus the entries it skipped.
    // Wakeups during the scan go to the wheel, never to the bitmap.
    const unsigned cap[3] = {cfg_.load_ports, cfg_.store_ports,
                             cfg_.misc_ports};
    unsigned used[3] = {};
    unsigned issued = 0;
    const std::size_t words = ready_.size();
    const auto head = static_cast<std::uint32_t>(head_ & mask_);
    const std::size_t head_word = head / 64;
    const std::uint64_t from_head = ~std::uint64_t{0} << (head % 64);
    for (std::size_t k = 0; k <= words; ++k) {
        const std::size_t w = (head_word + k) & (words - 1);
        const std::uint64_t range =
            k == 0 ? from_head : k == words ? ~from_head : ~std::uint64_t{0};
        for (std::uint64_t bits = ready_[w] & range; bits; bits &= bits - 1) {
            if (issued == cfg_.issue_width)
                return;
            const auto slot = static_cast<std::uint32_t>(
                w * 64 + static_cast<unsigned>(std::countr_zero(bits)));
            const unsigned port = rob_[slot].port;
            if (used[port] == cap[port])
                continue; // Ready but port-capped: eligible next cycle.
            issueSlot(slot, now);
            ++used[port];
            ++issued;
        }
    }
}

void
Backend::runCycle(Cycle now)
{
    if (!cfg_.ideal) {
        advanceWheel(now);
        issue(now);
    }

    unsigned commits = 0;
    while (head_ != tail_ && commits < cfg_.commit_width) {
        const RobEntry &e = at(head_);
        if (!e.issued || e.complete > now)
            break;
        if (e.cls == InstClass::kStore) {
            mem_->store(e.mem_addr, now);
            --stores_in_flight_;
        }
        if (e.cls == InstClass::kLoad)
            --loads_in_flight_;
        last_committed_seq_ = e.seq;
        ++head_;
        ++committed_;
        ++commits;
    }
}

Cycle
Backend::takeExecResteer(Cycle now)
{
    if (has_pending_resteer_ && pending_resteer_complete_ <= now) {
        has_pending_resteer_ = false;
        return pending_resteer_complete_;
    }
    return 0;
}

} // namespace btbsim
