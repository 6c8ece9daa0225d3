/**
 * @file
 * Durable, append-only sweep-completion journal (JSONL).
 *
 * One record per finished sweep point; the experiment engine replays
 * the journal (plus the run cache) to resume an interrupted sweep
 * without re-running completed points.
 *
 * Durability contract (the reason this is not an std::ofstream):
 *
 *  - append() issues the whole record as ONE write(2) on an O_APPEND
 *    descriptor followed by fdatasync(2), so a `kill -9` between records
 *    loses nothing and a kill *during* a record can only leave a single
 *    torn tail — never interleaved or silently dropped records.
 *  - Opening with resume=true first runs recover(): the file is scanned,
 *    and a torn trailing record (partial write from a crash) is dropped
 *    by atomically rewriting the valid prefix (temp file + fsync +
 *    rename-into-place + directory fsync). Interior lines that fail to
 *    parse are skipped on load but preserved on disk.
 *
 * On platforms without POSIX fds the journal stays disabled — the
 * durability contract cannot be met, and a sweep runs fine without one
 * (it just cannot resume).
 */

#ifndef BTBSIM_EXP_JOURNAL_H
#define BTBSIM_EXP_JOURNAL_H

#include <cstddef>
#include <mutex>
#include <set>
#include <string>

namespace btbsim::exp {

/** One journal line. `status` uses pointStatusName() vocabulary. */
struct JournalRecord
{
    std::string digest;
    std::string status; ///< "ok", "cached" or "failed".
    std::string config;
    std::string workload;
    unsigned attempts = 0;
    std::string error; ///< Only emitted when non-empty.
};

class Journal
{
  public:
    /** An empty @p path disables the journal (all ops are no-ops).
     *  @p resume keeps the existing file (recovering a torn tail first)
     *  and loads completed digests; otherwise the file is truncated. */
    Journal(const std::string &path, bool resume);
    ~Journal();

    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    bool open() const { return fd_ >= 0; }
    const std::string &path() const { return path_; }

    /** True when a previous run journalled @p digest as ok/cached. */
    bool completedBefore(const std::string &digest) const
    {
        return completed_.count(digest) > 0;
    }

    std::size_t completedCount() const { return completed_.size(); }

    /** Durably append one record (see file comment). Thread-safe. */
    void append(const JournalRecord &r);

    /** Render @p r as its single-line JSON form (no newline). */
    static std::string renderLine(const JournalRecord &r);

    /**
     * Crash recovery on @p path: scan the file, and when the tail is a
     * torn record (no final newline, or an unparseable final line),
     * rewrite the file without it — temp file, fsync, rename into
     * place, directory fsync. Returns the digests of ok/cached records.
     * A missing file returns an empty set; the scan never throws for
     * file-content problems.
     */
    static std::set<std::string> recover(const std::string &path);

  private:
    std::string path_;
    int fd_ = -1;
    std::mutex mu_;
    std::set<std::string> completed_;
};

} // namespace btbsim::exp

#endif // BTBSIM_EXP_JOURNAL_H
