/**
 * @file
 * Live sweep progress as a JSONL stream. When BTBSIM_PROGRESS_FD (an
 * inherited file descriptor number) or BTBSIM_PROGRESS_FILE (a path,
 * opened append) is set, the experiment engine emits one JSON object per
 * line as the sweep advances, so a supervising process can render
 * progress without scraping stdout:
 *
 *   {"type":"sweep_start","sweep":"<name>","total":N,
 *    "cache":"<dir or ''>","threads":T}
 *   {"type":"point","sweep":"<name>","done":d,"total":N,"ok":o,
 *    "cached":c,"failed":f,"skipped":s,"elapsed_seconds":e,
 *    "eta_seconds":eta,"config":"...","workload":"...",
 *    "status":"ok|cached|failed|skipped","span":"<current span path>"}
 *   {"type":"sweep_end","sweep":"<name>","total":N,"ok":o,"cached":c,
 *    "failed":f,"skipped":s,"retries":r,"wall_seconds":w}
 *
 * eta_seconds is a simple linear extrapolation over completed points
 * (-1 until one point completes). Records are serialized under a mutex;
 * writes are line-buffered and flushed per record so a reader sees whole
 * lines even when the writer is killed. A dead fd / unwritable file
 * disables the stream silently — progress must never take a sweep down.
 */

#ifndef BTBSIM_OBS_PROGRESS_H
#define BTBSIM_OBS_PROGRESS_H

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

namespace btbsim::obs {

/** One JSONL progress sink; see file comment for the record schema. */
class ProgressStream
{
  public:
    ~ProgressStream();

    /**
     * BTBSIM_PROGRESS_FD takes precedence over BTBSIM_PROGRESS_FILE;
     * nullptr when neither is set or the sink cannot be opened.
     */
    static std::unique_ptr<ProgressStream> openFromEnv();

    /** Adopt file descriptor @p fd (dup()ed; caller keeps ownership). */
    static std::unique_ptr<ProgressStream> fromFd(int fd);

    /** Append to @p path (created when missing). */
    static std::unique_ptr<ProgressStream> fromFile(const std::string &path);

    /** Write one pre-rendered single-line JSON record (no newline). */
    void emitLine(const std::string &json_line);

  private:
    explicit ProgressStream(std::FILE *f) : f_(f) {}

    std::FILE *f_ = nullptr;
    std::mutex mu_;
};

} // namespace btbsim::obs

#endif // BTBSIM_OBS_PROGRESS_H
