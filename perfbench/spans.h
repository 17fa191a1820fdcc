/**
 * @file
 * In-memory span log of the benchmark's traced run.
 *
 * Each span records a name, host start/end (microseconds since the
 * log's epoch), its parent span and the run it belongs to. Spans are
 * appended from any thread, kept in memory and written out once when
 * the benchmark ends. A layer's self time is its spans' duration minus
 * the part of each interval its child spans cover.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    std::uint64_t id = 0;
    /** 0 for a root span. */
    std::uint64_t parent = 0;
    /** Id of the enclosing exp.run span (0 outside a simulation run). */
    std::uint64_t run = 0;
};

/** Per-name totals over a span log. */
struct LayerTime
{
    std::uint64_t count = 0;
    double totalUs = 0.0;
    double selfUs = 0.0;
};

class SpanLog
{
  public:
    SpanLog() : epoch_(Clock::now()) {}

    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    double
    usAt(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - epoch_)
            .count();
    }

    std::uint64_t newId() { return next_.fetch_add(1); }

    /** Record a finished span; @p id 0 allocates a fresh one. */
    std::uint64_t add(std::string name, Clock::time_point start,
                      Clock::time_point end, std::uint64_t parent,
                      std::uint64_t run, std::uint64_t id = 0);

    /** Totals and self time per span name. */
    std::map<std::string, LayerTime> layerTimes() const;

    /** One JSON object per line: name, start_us, end_us, id, parent, run. */
    void writeJsonLines(std::ostream &out) const;

  private:
    Clock::time_point epoch_;
    std::atomic<std::uint64_t> next_{1};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Times a scope and records it into a SpanLog on exit. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, std::string name, std::uint64_t parent = 0,
               std::uint64_t run = 0)
        : log_(log), name_(std::move(name)), parent_(parent), run_(run),
          id_(log->newId()), start_(Clock::now())
    {
    }
    ~ScopedSpan()
    {
        log_->add(std::move(name_), start_, Clock::now(), parent_, run_,
                  id_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    SpanLog *log_;
    std::string name_;
    std::uint64_t parent_;
    std::uint64_t run_;
    std::uint64_t id_;
    Clock::time_point start_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
