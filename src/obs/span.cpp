#include "obs/span.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <ostream>

#include "common/env.h"
#include "obs/json.h"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace btbsim::obs {

std::uint64_t
readTsc()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#elif defined(__aarch64__)
    std::uint64_t v;
    asm volatile("mrs %0, cntvct_el0" : "=r"(v));
    return v;
#else
    return 0;
#endif
}

namespace {

std::uint64_t
steadyNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** The calling thread's buffer; hands it back when the thread exits. */
struct ThreadLease
{
    detail::SpanThreadBuf *buf = nullptr;
    std::uint64_t generation = 0;

    ~ThreadLease()
    {
        if (buf)
            SpanCollector::instance().release(buf, generation);
    }
};

thread_local ThreadLease t_lease;

} // namespace

// ---- SpanAgg -----------------------------------------------------------

SpanAgg &
SpanAgg::operator+=(const SpanAgg &o)
{
    count += o.count;
    wall_ns += o.wall_ns;
    tsc += o.tsc;
    cycles += o.cycles;
    instructions += o.instructions;
    branch_misses += o.branch_misses;
    cache_misses += o.cache_misses;
    task_clock_ns += o.task_clock_ns;
    return *this;
}

SpanAgg
SpanAgg::minus(const SpanAgg &o) const
{
    auto sub = [](std::uint64_t a, std::uint64_t b) {
        return a >= b ? a - b : 0;
    };
    SpanAgg d;
    d.count = sub(count, o.count);
    d.wall_ns = sub(wall_ns, o.wall_ns);
    d.tsc = sub(tsc, o.tsc);
    d.cycles = sub(cycles, o.cycles);
    d.instructions = sub(instructions, o.instructions);
    d.branch_misses = sub(branch_misses, o.branch_misses);
    d.cache_misses = sub(cache_misses, o.cache_misses);
    d.task_clock_ns = sub(task_clock_ns, o.task_clock_ns);
    return d;
}

// ---- SpanThreadBuf -----------------------------------------------------

namespace detail {

SpanThreadBuf::SpanThreadBuf(std::uint32_t tid, std::size_t ring_capacity,
                             bool open_counters)
    : tid_(tid), counters_(std::make_unique<HostCounters>(open_counters)),
      ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity)
{}

} // namespace detail

// ---- SpanCollector -----------------------------------------------------

SpanCollector &
SpanCollector::instance()
{
    static SpanCollector c;
    return c;
}

SpanCollector::SpanCollector()
{
    enabled_.store(!env::disabled("BTBSIM_SPANS"),
                   std::memory_order_relaxed);
    host_counters_wanted_ = HostCounters::wantedFromEnv();
    ring_capacity_ = static_cast<std::size_t>(
        env::u64("BTBSIM_SPAN_CAP", 1 << 16));
    if (ring_capacity_ == 0)
        ring_capacity_ = 1;
    epoch_ns_ = steadyNs();
    paths_.push_back({0, ""}); // Root sentinel (id 0).
}

detail::SpanThreadBuf *
SpanCollector::threadBuf()
{
    if (t_lease.buf)
        return t_lease.buf;
    std::lock_guard<std::mutex> lk(mu_);
    if (!idle_.empty()) {
        // Take over an exited thread's buffer: its aggregates and records
        // stay, new spans add to them. Counters follow the new thread.
        t_lease.buf = idle_.back();
        idle_.pop_back();
        t_lease.buf->counters_ =
            std::make_unique<HostCounters>(host_counters_wanted_);
    } else {
        threads_.push_back(std::make_unique<detail::SpanThreadBuf>(
            static_cast<std::uint32_t>(threads_.size()), ring_capacity_,
            host_counters_wanted_));
        t_lease.buf = threads_.back().get();
    }
    t_lease.generation = generation_;
    return t_lease.buf;
}

void
SpanCollector::release(detail::SpanThreadBuf *buf, std::uint64_t gen)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (gen != generation_)
        return; // reset() already dropped it.
    buf->depth_ = 0;
    idle_.push_back(buf);
}

std::uint32_t
SpanCollector::intern(std::uint32_t parent, const char *name)
{
    std::lock_guard<std::mutex> lk(mu_);
    for (std::uint32_t id = 1; id < paths_.size(); ++id)
        if (paths_[id].parent == parent && paths_[id].name == name)
            return id;
    paths_.push_back({parent, name});
    return static_cast<std::uint32_t>(paths_.size() - 1);
}

void
SpanCollector::begin(detail::SpanThreadBuf *buf, const char *name)
{
    if (buf->depth_ >= detail::SpanThreadBuf::kMaxDepth) {
        ++buf->deep_skips_;
        ++buf->depth_;
        return;
    }
    const std::uint32_t parent =
        buf->depth_ > 0 && buf->depth_ <= detail::SpanThreadBuf::kMaxDepth
            ? buf->stack_[buf->depth_ - 1].path
            : 0;
    // Pointer-keyed per-thread memo; the slow path interns by content so
    // identical literals from different TUs share one id.
    const auto memo_key = std::make_pair(parent,
                                         static_cast<const void *>(name));
    std::uint32_t id;
    auto it = buf->intern_memo_.find(memo_key);
    if (it != buf->intern_memo_.end()) {
        id = it->second;
    } else {
        id = intern(parent, name);
        buf->intern_memo_.emplace(memo_key, id);
    }

    detail::SpanThreadBuf::Frame &f = buf->stack_[buf->depth_++];
    f.path = id;
    f.start_counters = buf->counters_->read();
    f.start_tsc = readTsc();
    f.start_ns = steadyNs();
}

void
SpanCollector::end(detail::SpanThreadBuf *buf)
{
    if (buf->depth_ == 0)
        return; // Unbalanced end (collector reset under an open span).
    if (buf->depth_ > detail::SpanThreadBuf::kMaxDepth) {
        --buf->depth_; // Matching a begin skipped for depth.
        return;
    }
    const std::uint64_t end_ns = steadyNs();
    const std::uint64_t end_tsc = readTsc();
    const HostCounters::Values end_counters = buf->counters_->read();

    const detail::SpanThreadBuf::Frame &f = buf->stack_[--buf->depth_];
    const HostCounters::Values d = end_counters.minus(f.start_counters);

    SpanRecord rec;
    rec.path = f.path;
    rec.depth = static_cast<std::uint16_t>(buf->depth_);
    rec.start_ns = f.start_ns > epoch_ns_ ? f.start_ns - epoch_ns_ : 0;
    rec.dur_ns = end_ns > f.start_ns ? end_ns - f.start_ns : 0;
    rec.tsc = end_tsc > f.start_tsc ? end_tsc - f.start_tsc : 0;
    rec.counters = d;

    // Aggregate first (complete), then ring (most recent window).
    SpanAgg &a = buf->agg_[f.path];
    ++a.count;
    a.wall_ns += rec.dur_ns;
    a.tsc += rec.tsc;
    a.cycles += d.cycles;
    a.instructions += d.instructions;
    a.branch_misses += d.branch_misses;
    a.cache_misses += d.cache_misses;
    a.task_clock_ns += d.task_clock_ns;

    if (buf->ring_.size() < buf->ring_capacity_) {
        if (buf->ring_.size() == buf->ring_.capacity())
            buf->ring_.reserve(std::min(
                buf->ring_capacity_,
                std::max<std::size_t>(64, 2 * buf->ring_.size())));
        buf->ring_.push_back(rec);
        ++buf->count_;
    } else {
        buf->ring_[buf->head_] = rec;
        buf->head_ = (buf->head_ + 1) % buf->ring_.size();
        ++buf->dropped_;
    }
    ++buf->completed_;
}

bool
SpanCollector::countersAvailable() const
{
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto &t : threads_)
        if (t->counters().available())
            return true;
    return false;
}

std::string
SpanCollector::pathName(std::uint32_t id) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string out;
    // Path chains are shallow (span nesting depth); build backwards.
    std::vector<const std::string *> parts;
    while (id != 0 && id < paths_.size()) {
        parts.push_back(&paths_[id].name);
        id = paths_[id].parent;
    }
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
        if (!out.empty())
            out += '/';
        out += **it;
    }
    return out;
}

std::string
SpanCollector::currentPath() const
{
    const detail::SpanThreadBuf *buf = t_lease.buf;
    if (!buf || buf->depth_ == 0 ||
        buf->depth_ > detail::SpanThreadBuf::kMaxDepth)
        return {};
    return pathName(buf->stack_[buf->depth_ - 1].path);
}

SpanCollector::ThreadMark
SpanCollector::mark()
{
    ThreadMark m;
    if (!enabled())
        return m;
    m.buf = threadBuf();
    m.agg = m.buf->agg_;
    return m;
}

SpanProfile
SpanCollector::aggregateSince(const ThreadMark &m) const
{
    SpanProfile out;
    if (!m.buf)
        return out;
    for (const auto &[id, agg] : m.buf->agg_) {
        SpanAgg delta = agg;
        if (auto it = m.agg.find(id); it != m.agg.end())
            delta = agg.minus(it->second);
        if (delta.count > 0)
            out[pathName(id)] += delta;
    }
    return out;
}

ProfileBlock
SpanCollector::profile() const
{
    ProfileBlock p;
    // pathName locks mu_ too; gather ids under the lock, resolve after.
    std::vector<std::pair<std::uint32_t, SpanAgg>> rows;
    {
        std::lock_guard<std::mutex> lk(mu_);
        p.threads = static_cast<std::uint32_t>(threads_.size());
        for (const auto &t : threads_) {
            p.total_spans += t->completed();
            p.dropped += t->dropped() + t->deep_skips_;
            if (t->counters().available())
                p.counters_available = true;
            for (const auto &[id, agg] : t->agg_)
                rows.emplace_back(id, agg);
        }
    }
    for (const auto &[id, agg] : rows)
        p.spans[pathName(id)] += agg;
    return p;
}

std::uint64_t
SpanCollector::dropped() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::uint64_t n = 0;
    for (const auto &t : threads_)
        n += t->dropped() + t->deep_skips_;
    return n;
}

std::size_t
SpanCollector::threadCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return threads_.size();
}

std::size_t
SpanCollector::ringBytes() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t n = 0;
    for (const auto &t : threads_)
        n += t->ringBytes();
    return n;
}

void
SpanCollector::writeChromeTrace(std::ostream &os) const
{
    // Collect (record, tid) rows under the lock, resolve names after.
    std::vector<std::pair<SpanRecord, std::uint32_t>> rows;
    std::uint64_t dropped = 0;
    std::size_t n_threads = 0;
    {
        std::lock_guard<std::mutex> lk(mu_);
        n_threads = threads_.size();
        for (const auto &t : threads_) {
            dropped += t->dropped() + t->deep_skips_;
            for (std::size_t i = 0; i < t->count_; ++i)
                rows.emplace_back(
                    t->ring_[(t->head_ + i) % t->ring_.size()], t->tid());
        }
    }

    JsonWriter w(os);
    w.beginObject();
    w.kv("displayTimeUnit", "ns");
    w.key("otherData");
    w.beginObject();
    w.kv("generator", "btbsim");
    w.kv("dropped_spans", dropped);
    w.endObject();
    w.key("traceEvents");
    w.beginArray();
    for (std::size_t tid = 0; tid < n_threads; ++tid) {
        w.beginObject();
        w.kv("name", "thread_name");
        w.kv("ph", "M");
        w.kv("pid", 1);
        w.kv("tid", static_cast<std::uint64_t>(tid));
        w.key("args");
        w.beginObject();
        w.kv("name", tid == 0 ? "main" : ("worker-" + std::to_string(tid)));
        w.endObject();
        w.endObject();
    }
    for (const auto &[rec, tid] : rows) {
        w.beginObject();
        w.kv("name", pathName(rec.path));
        w.kv("cat", "btbsim");
        w.kv("ph", "X");
        // Chrome trace timestamps and durations are microseconds.
        w.kv("ts", static_cast<double>(rec.start_ns) / 1000.0);
        w.kv("dur", static_cast<double>(rec.dur_ns) / 1000.0);
        w.kv("pid", 1);
        w.kv("tid", static_cast<std::uint64_t>(tid));
        w.key("args");
        w.beginObject();
        w.kv("tsc", rec.tsc);
        if (rec.counters.cycles != 0 || rec.counters.instructions != 0) {
            w.kv("cycles", rec.counters.cycles);
            w.kv("instructions", rec.counters.instructions);
            w.kv("branch_misses", rec.counters.branch_misses);
            w.kv("cache_misses", rec.counters.cache_misses);
        }
        w.kv("task_clock_ns", rec.counters.task_clock_ns);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

std::string
SpanCollector::writeChromeTraceFromEnv(const std::string &default_path)
{
    const std::string path = env::outPath("BTBSIM_SPAN_OUT", default_path);
    if (path.empty())
        return {};
    const std::filesystem::path p(path);
    std::error_code ec;
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);
    std::ofstream os(p);
    if (!os)
        return {};
    writeChromeTrace(os);
    return os ? path : std::string();
}

void
SpanCollector::reset()
{
    std::lock_guard<std::mutex> lk(mu_);
    threads_.clear();
    idle_.clear();
    ++generation_;
    t_lease.buf = nullptr;
    paths_.clear();
    paths_.push_back({0, ""});
    epoch_ns_ = steadyNs();
}

} // namespace btbsim::obs
