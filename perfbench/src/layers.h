/**
 * @file
 * Layer harnesses: each drives one library layer from outside, through
 * its public API, with inputs taken from the workload's own columns,
 * and times it in fixed-size blocks so the per-operation cost is a
 * distribution (median, a tail percentile, and the block count) rather
 * than a single mean.
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"
#include "trace/trace_view.h"

namespace perfbench {

/**
 * Median and tail of a set of samples.  The tail is the highest of
 * p99.9 / p99 / p90 that still has at least ten samples beyond it
 * (p50 when there are too few samples for any of them).
 */
struct Distribution
{
    double p50 = 0.0;
    double tail = 0.0;
    double tail_q = 0.5;
    std::uint64_t samples = 0;

    /** Exact nearest-rank quantile @p q of @p values (sorted in place). */
    static double quantile(std::vector<double> &values, double q);

    static Distribution of(std::vector<double> values);

    /** "p50 X, p99 Y (N samples)" with @p unit after each value. */
    std::string describe(const char *unit) const;
};

/** EventQueue hold model over the workload's arrivals and completions. */
struct QueueHold
{
    /** ns per runNext(), per block of kQueueBlock events. */
    Distribution ns_per_event;
    std::uint64_t events = 0;
    std::size_t peak_pending = 0;
};
inline constexpr std::uint64_t kQueueBlock = 1024;

/**
 * Schedule every request's arrival, and at its arrival its completion
 * (arrival + exec), through sim::EventQueue; drain with runNext().
 */
QueueHold queueHold(const cidre::trace::TraceView &workload);

/** SlidingWindow replay: one window per function, like the engine's. */
struct WindowReplay
{
    /** ns per expire()+add(), per block of kWindowAddBlock adds. */
    Distribution add_ns;
    /** ns per percentile(0.5), per burst of kWindowQueryBurst queries. */
    Distribution query_ns;
    std::uint64_t adds = 0;
    std::uint64_t queries = 0;
    std::size_t peak_len = 0;
};
inline constexpr std::uint64_t kWindowAddBlock = 1024;
inline constexpr std::uint64_t kWindowQueryBurst = 128;

/**
 * Feed each function's arrivals (value: the request's exec time) into
 * its window at @p horizon / @p max_samples; after every add block,
 * query the windows of the last kWindowQueryBurst requests' functions.
 */
WindowReplay windowReplay(const cidre::trace::TraceView &workload,
                          cidre::sim::SimTime horizon,
                          std::size_t max_samples);

/** Full TraceView column scan. */
struct ViewScan
{
    /** ns per request, per block of kScanBlock requests. */
    Distribution ns_per_req;
    std::uint64_t requests = 0;
    /** Order-sensitive digest of (function, arrival, exec). */
    std::uint64_t digest = 0;
};
inline constexpr std::uint64_t kScanBlock = 4096;

ViewScan viewScan(const cidre::trace::TraceView &workload);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
