/**
 * @file
 * The live orchestrator: the single consumer thread that drains the
 * ingest ring and admits requests into an engine, one synchronous
 * placement/scaling decision at a time.
 *
 * The loop is the production shape of the decision path:
 *
 *   drain a batch -> for each request, catch the virtual clock up to
 *   just before the arrival (simulated completions, expiries and
 *   maintenance run *between* admissions) -> admit, timing the
 *   decision -> record the wall latency in a log-bucketed histogram.
 *
 * The timed window covers exactly what a production control plane
 * cannot take off the critical path: the admission decision itself
 * plus any simulated event ordered at the same instant before it.
 * Catch-up work strictly before the arrival is stepped untimed.
 *
 * Timestamp discipline: admissions must be nondecreasing, so arrivals
 * that drain out of global order (possible only with concurrent
 * producers on independent lanes) are clamped forward to the previous
 * admission's timestamp and counted, never reordered retroactively —
 * the same choice a streaming ingest tier makes when merging shards.
 */

#ifndef CIDRE_LIVE_ORCHESTRATOR_H
#define CIDRE_LIVE_ORCHESTRATOR_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/sharded_engine.h"
#include "live/ingest_ring.h"
#include "sim/thread_pool.h"
#include "sim/topology.h"
#include "stats/latency_histogram.h"

namespace cidre::live {

/** Knobs of the admission loop. */
struct OrchestratorOptions
{
    /** Max requests drained (and admitted) per ring visit. */
    std::size_t batch = 256;
    /** Empty-ring polls before the consumer yields its core. */
    unsigned spin = sim::kDefaultPoolSpin;
    /** CPU to pin the admission thread to; -1 = unpinned. */
    int pin_cpu = -1;
};

/** What the admission loop measured. */
struct LiveStats
{
    /** Wall nanoseconds per admission decision, log-bucketed. */
    stats::LatencyHistogram decision_ns;
    std::uint64_t admitted = 0;
    /** Out-of-order arrivals clamped forward (multi-producer only). */
    std::uint64_t reordered = 0;
    /** Wall seconds spent in the admission loop (drain + admit). */
    double wall_seconds = 0.0;

    /** Sustained admission throughput over the loop's lifetime. */
    double admitRate() const
    {
        return wall_seconds > 0.0
            ? static_cast<double>(admitted) / wall_seconds
            : 0.0;
    }
};

/** Admission adapter over the single-cell engine. */
struct SingleCellDriver
{
    core::Engine &engine;

    void step(sim::SimTime until) { engine.stepUntil(until); }
    void admit(sim::SimTime when, std::uint32_t function,
               sim::SimTime exec_us)
    {
        engine.admit(when, function, exec_us);
    }
    void close() { engine.closeStream(); }
};

/** Admission adapter routing into sharded cells (serial stepping). */
struct ShardedDriver
{
    core::ShardedEngine &engine;

    void step(sim::SimTime until) { engine.stepUntil(until, nullptr); }
    void admit(sim::SimTime when, std::uint32_t function,
               sim::SimTime exec_us)
    {
        engine.admit(when, function, exec_us);
    }
    void close() { engine.closeStream(); }
};

/**
 * Drain @p ring into @p driver until @p producers_done is observed with
 * the ring empty, then close the driver's stream.  The caller finishes
 * the engine (and merges metrics) afterwards; this function owns only
 * the admission loop.
 */
template <typename Driver>
LiveStats
consumeStream(Driver &&driver, IngestRing &ring,
              const std::atomic<bool> &producers_done,
              const OrchestratorOptions &options = {})
{
    using Clock = std::chrono::steady_clock;
    LiveStats stats;
    sim::ScopedAffinity pin(options.pin_cpu);
    std::vector<IngestRequest> batch(options.batch > 0 ? options.batch : 1);

    sim::SimTime last = 0;
    unsigned idle_polls = 0;
    const auto loop_start = Clock::now();
    for (;;) {
        std::size_t n = ring.drain(batch.data(), batch.size());
        if (n == 0) {
            if (!producers_done.load(std::memory_order_acquire)) {
                if (++idle_polls >= options.spin) {
                    idle_polls = 0;
                    std::this_thread::yield();
                }
                continue;
            }
            // The flag is set after the final push, so this drain sees
            // every remaining request: admit them, or stop once empty.
            n = ring.drain(batch.data(), batch.size());
            if (n == 0)
                break;
        }
        idle_polls = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const IngestRequest &req = batch[i];
            sim::SimTime when = req.arrival_us;
            if (when < last) {
                when = last;
                ++stats.reordered;
            }
            last = when;
            // Untimed catch-up: everything strictly before the arrival.
            if (when > 0)
                driver.step(when - 1);
            const auto t0 = Clock::now();
            driver.admit(when, req.function, req.exec_us);
            const auto t1 = Clock::now();
            stats.decision_ns.record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t1 - t0)
                    .count()));
            ++stats.admitted;
        }
    }
    driver.close();
    stats.wall_seconds =
        std::chrono::duration<double>(Clock::now() - loop_start).count();
    return stats;
}

} // namespace cidre::live

#endif // CIDRE_LIVE_ORCHESTRATOR_H
