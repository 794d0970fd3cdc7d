#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "sim/event_queue.h"
#include "stats/sliding_window.h"

namespace perfbench {

namespace sim = cidre::sim;
namespace stats = cidre::stats;
namespace trace = cidre::trace;

namespace {

using Clock = std::chrono::steady_clock;

double
nsSince(Clock::time_point start, Clock::time_point stop)
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
            .count());
}

} // namespace

double
Distribution::quantile(std::vector<double> &values, double q)
{
    if (values.empty())
        return 0.0;
    const auto n = values.size();
    auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return values[rank - 1];
}

Distribution
Distribution::of(std::vector<double> values)
{
    Distribution d;
    d.samples = values.size();
    d.p50 = quantile(values, 0.5);
    d.tail = d.p50;
    for (double q : {0.999, 0.99, 0.9}) {
        if (static_cast<double>(d.samples) * (1.0 - q) >= 10.0) {
            d.tail_q = q;
            d.tail = quantile(values, q);
            break;
        }
    }
    return d;
}

std::string
Distribution::describe(const char *unit) const
{
    char buf[160];
    std::snprintf(buf, sizeof buf, "p50 %.4g %s, p%g %.4g %s (%llu samples)",
                  p50, unit, tail_q * 100.0, tail, unit,
                  static_cast<unsigned long long>(samples));
    return buf;
}

namespace {

/** Arrival i schedules its completion and arrival i+1. */
struct HoldModel
{
    const trace::TraceView &workload;
    sim::EventQueue queue;
    std::uint64_t next = 0;
    std::uint64_t completed = 0;

    void arrive(sim::SimTime now)
    {
        const std::uint64_t i = next++;
        queue.schedule(now + workload.execUs(i),
                       [this](sim::SimTime) { ++completed; });
        if (next < workload.requestCount())
            queue.schedule(workload.arrivalUs(next),
                           [this](sim::SimTime t) { arrive(t); });
    }
};

} // namespace

QueueHold
queueHold(const trace::TraceView &workload)
{
    QueueHold out;
    if (workload.empty())
        return out;
    HoldModel hold{workload, {}, 0, 0};
    hold.queue.schedule(workload.arrivalUs(0),
                        [&hold](sim::SimTime t) { hold.arrive(t); });
    std::vector<double> blocks;
    std::uint64_t in_block = 0;
    auto block_start = Clock::now();
    while (hold.queue.runNext()) {
        out.peak_pending =
            std::max(out.peak_pending, hold.queue.pendingCount());
        if (++in_block == kQueueBlock) {
            const auto now = Clock::now();
            blocks.push_back(nsSince(block_start, now) /
                             static_cast<double>(kQueueBlock));
            in_block = 0;
            block_start = now;
        }
    }
    out.events = hold.queue.executedCount();
    out.ns_per_event = Distribution::of(std::move(blocks));
    return out;
}

WindowReplay
windowReplay(const trace::TraceView &workload, sim::SimTime horizon,
             std::size_t max_samples)
{
    WindowReplay out;
    std::vector<stats::SlidingWindow> windows(
        workload.functionCount(), stats::SlidingWindow(horizon, max_samples));
    std::vector<double> add_blocks;
    std::vector<double> query_bursts;
    const std::uint64_t n = workload.requestCount();
    auto block_start = Clock::now();
    for (std::uint64_t i = 0; i < n; ++i) {
        const sim::SimTime now = workload.arrivalUs(i);
        stats::SlidingWindow &w = windows[workload.requestFunction(i)];
        w.expire(now);
        w.add(now, static_cast<double>(workload.execUs(i)));
        out.peak_len = std::max(out.peak_len, w.count());
        if ((i + 1) % kWindowAddBlock != 0)
            continue;
        const auto add_end = Clock::now();
        add_blocks.push_back(nsSince(block_start, add_end) /
                             static_cast<double>(kWindowAddBlock));
        for (std::uint64_t k = i + 1 - kWindowQueryBurst; k <= i; ++k)
            windows[workload.requestFunction(k)].percentile(0.5);
        const auto query_end = Clock::now();
        query_bursts.push_back(nsSince(add_end, query_end) /
                               static_cast<double>(kWindowQueryBurst));
        out.queries += kWindowQueryBurst;
        block_start = Clock::now();
    }
    out.adds = n;
    out.add_ns = Distribution::of(std::move(add_blocks));
    out.query_ns = Distribution::of(std::move(query_bursts));
    return out;
}

ViewScan
viewScan(const trace::TraceView &workload)
{
    ViewScan out;
    std::vector<double> blocks;
    const std::uint64_t n = workload.requestCount();
    std::uint64_t digest = 1469598103934665603ull;
    for (std::uint64_t begin = 0; begin < n; begin += kScanBlock) {
        const std::uint64_t end = std::min(n, begin + kScanBlock);
        const auto start = Clock::now();
        for (std::uint64_t i = begin; i < end; ++i) {
            digest = (digest ^ workload.requestFunction(i)) * 1099511628211ull;
            digest = (digest ^ static_cast<std::uint64_t>(
                                   workload.arrivalUs(i))) *
                1099511628211ull;
            digest = (digest ^ static_cast<std::uint64_t>(
                                   workload.execUs(i))) *
                1099511628211ull;
        }
        blocks.push_back(nsSince(start, Clock::now()) /
                         static_cast<double>(end - begin));
    }
    out.requests = n;
    out.digest = digest;
    out.ns_per_req = Distribution::of(std::move(blocks));
    return out;
}

} // namespace perfbench
