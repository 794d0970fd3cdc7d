/**
 * @file
 * The benchmark's own live load generator and admission timing.
 *
 * One producer thread, pinned to a CPU other than the admission loop's,
 * streams a trace's requests into a live::IngestRing with pushBlocking.
 * Unpaced, it pushes as fast as the ring accepts.  Paced, request i is
 * due at start + i / rate (an open loop at a fixed offered rate): the
 * producer spin-waits to each due time, so the offered load does not
 * depend on the scheduler's sleep granularity, and stamps how late it
 * sent each request and the backlog it found.
 *
 * The consumer is live::consumeStream with a TimingDriver around the
 * library's admission driver: it times each Engine::admit exactly and,
 * paced, each request's sojourn from its due time to the return of its
 * admit.  Catch-up stepping is timed only when asked (traced runs).
 */

#ifndef PERFBENCH_LIVE_LOAD_H
#define PERFBENCH_LIVE_LOAD_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "live/ingest_ring.h"
#include "live/orchestrator.h"
#include "trace/trace_view.h"

namespace perfbench {

struct LivePhaseOptions
{
    /** Offered requests per wall second; <= 0 = unpaced. */
    double rate_per_s = 0.0;
    /** Stream only the first @c limit requests of the trace. */
    std::uint64_t limit = std::numeric_limits<std::uint64_t>::max();
    int producer_cpu = -1;
    int consumer_cpu = -1;
    /** Time the catch-up stepping too (traced runs only). */
    bool time_steps = false;
};

/** Ring slots of every live phase. */
inline constexpr std::size_t kRingCapacity = 4096;

struct LivePhaseResult
{
    cidre::live::LiveStats stats;
    /** Wall ns of each Engine::admit, in admission order. */
    std::vector<double> admit_ns;
    /** Paced: ns from each request's due time to its admit's return. */
    std::vector<double> sojourn_ns;
    /** Paced: ns the producer sent each request after its due time. */
    std::vector<double> late_ns;
    std::uint64_t backpressure = 0;
    /** Largest pushed-minus-admitted count the producer saw. */
    std::uint64_t max_backlog = 0;
    std::uint64_t admit_total_ns = 0;
    /** Catch-up stepping ns (only with time_steps). */
    std::uint64_t catchup_ns = 0;
};

/** CPUs this process may run on (sched_getaffinity), ascending. */
std::vector<int> allowedCpus();

/** Streams a trace prefix into a ring on its own pinned thread. */
class PinnedProducer
{
  public:
    PinnedProducer(cidre::trace::TraceView workload,
                   cidre::live::IngestRing &ring,
                   const LivePhaseOptions &options,
                   const std::atomic<std::uint64_t> &admitted);
    ~PinnedProducer() { join(); }

    PinnedProducer(const PinnedProducer &) = delete;
    PinnedProducer &operator=(const PinnedProducer &) = delete;

    void start();
    void join();

    std::uint64_t count() const { return count_; }
    const std::atomic<bool> &done() const { return done_; }
    /** Steady-clock ns of request 0's due time (valid once it is pushed). */
    std::int64_t startNs() const
    {
        return start_ns_.load(std::memory_order_acquire);
    }

    /** Producer results; read after join(). */
    std::vector<double> late_ns;
    std::atomic<std::uint64_t> backpressure{0};
    std::uint64_t max_backlog = 0;

  private:
    void run();

    cidre::trace::TraceView workload_;
    cidre::live::IngestRing &ring_;
    LivePhaseOptions options_;
    const std::atomic<std::uint64_t> &admitted_;
    std::uint64_t count_;
    std::atomic<std::int64_t> start_ns_{0};
    std::atomic<bool> done_{false};
    std::thread thread_;
};

inline std::int64_t
steadyNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Wraps a live::*Driver; see the file comment. */
template <typename Inner>
struct TimingDriver
{
    Inner inner;
    LivePhaseResult &result;
    const PinnedProducer &producer;
    std::atomic<std::uint64_t> &admitted;
    double period_ns; //!< 0 when unpaced
    bool time_steps;
    std::uint64_t index = 0;

    void step(cidre::sim::SimTime until)
    {
        if (!time_steps) {
            inner.step(until);
            return;
        }
        const std::int64_t t0 = steadyNs();
        inner.step(until);
        result.catchup_ns += static_cast<std::uint64_t>(steadyNs() - t0);
    }

    void admit(cidre::sim::SimTime when, std::uint32_t function,
               cidre::sim::SimTime exec_us)
    {
        const std::int64_t t0 = steadyNs();
        inner.admit(when, function, exec_us);
        const std::int64_t t1 = steadyNs();
        result.admit_ns.push_back(static_cast<double>(t1 - t0));
        result.admit_total_ns += static_cast<std::uint64_t>(t1 - t0);
        if (period_ns > 0.0) {
            const double due = static_cast<double>(producer.startNs()) +
                static_cast<double>(index) * period_ns;
            result.sojourn_ns.push_back(static_cast<double>(t1) - due);
        }
        admitted.store(++index, std::memory_order_relaxed);
    }

    void close() { inner.close(); }
};

/**
 * Stream @p workload (a prefix of @c options.limit requests) through a
 * fresh ring into @p driver, an armed live::SingleCellDriver or
 * live::ShardedDriver.  The caller finishes the engine afterwards.
 */
template <typename Driver>
LivePhaseResult
runLivePhase(Driver driver, cidre::trace::TraceView workload,
             const LivePhaseOptions &options)
{
    LivePhaseResult result;
    cidre::live::IngestRing ring(kRingCapacity);
    std::atomic<std::uint64_t> admitted{0};
    PinnedProducer producer(workload, ring, options, admitted);
    result.admit_ns.reserve(producer.count());
    if (options.rate_per_s > 0.0)
        result.sojourn_ns.reserve(producer.count());
    TimingDriver<Driver> timing{driver,
                                result,
                                producer,
                                admitted,
                                options.rate_per_s > 0.0
                                    ? 1e9 / options.rate_per_s
                                    : 0.0,
                                options.time_steps};
    cidre::live::OrchestratorOptions orch;
    orch.pin_cpu = options.consumer_cpu;
    producer.start();
    result.stats =
        cidre::live::consumeStream(timing, ring, producer.done(), orch);
    producer.join();
    result.late_ns = std::move(producer.late_ns);
    result.backpressure = producer.backpressure.load();
    result.max_backlog = producer.max_backlog;
    return result;
}

} // namespace perfbench

#endif // PERFBENCH_LIVE_LOAD_H
