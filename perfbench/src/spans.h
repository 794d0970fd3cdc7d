/**
 * @file
 * In-memory span log of a traced benchmark run.  Spans mark the coarse
 * layer boundaries (set-up phases, runs, cells, live phases) and are
 * written out once, when the run ends; per-call boundaries with
 * millions of calls go to counters instead (see timed_policy.h).
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanLog
{
  public:
    /** No parent. */
    static constexpr std::int64_t kNone = -1;

    /** Open a span; @return its id (thread-safe). */
    std::int64_t begin(std::string name, std::int64_t parent = kNone);

    /** Close span @p id (thread-safe). */
    void end(std::int64_t id);

    /** Every span as one JSON array, times in ns since the log began. */
    void write(std::ostream &out) const;

  private:
    struct Span
    {
        std::string name;
        std::int64_t parent = kNone;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = -1;
    };

    std::int64_t nowNs() const;

    const std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Opens a span on construction and closes it on destruction. */
class ScopedSpan
{
  public:
    /** @p log may be null: then nothing is recorded. */
    ScopedSpan(SpanLog *log, std::string name,
               std::int64_t parent = SpanLog::kNone)
        : log_(log),
          id_(log != nullptr ? log->begin(std::move(name), parent)
                             : SpanLog::kNone)
    {
    }
    ~ScopedSpan()
    {
        if (log_ != nullptr)
            log_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t id() const { return id_; }

  private:
    SpanLog *log_;
    std::int64_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
