/**
 * @file
 * Ingest producers: threads that feed the IngestRing.
 *
 * Two sources cover the live orchestrator's use cases:
 *
 *  - TracePacer replays a recorded trace's arrival sequence, optionally
 *    paced against the wall clock at a multiple of recorded time
 *    (`--rate 2` replays a day of trace in half a day; rate <= 0 pushes
 *    as fast as the ring accepts).  Pacing only shapes *wall-clock*
 *    delivery — the simulated arrival timestamps stay the recorded
 *    ones, which is what makes a replayed stream bit-identical to the
 *    trace-driven run at any rate.
 *  - SyntheticProducers run an open-loop generator across N threads:
 *    each thread owns an interleaved lane of a virtual arrival clock
 *    and pushes requests for seeded-random functions, exercising the
 *    ring's multi-producer path and the admission throughput ceiling.
 *
 * Producers never drop on a full ring: they spin/yield and count the
 * backpressure (see IngestRing::pushBlocking).
 */

#ifndef CIDRE_LIVE_PRODUCER_H
#define CIDRE_LIVE_PRODUCER_H

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "live/ingest_ring.h"
#include "sim/time.h"
#include "trace/trace_view.h"

namespace cidre::live {

/** Shared counters a producer reports into (atomic: read live). */
struct ProducerStats
{
    std::atomic<std::uint64_t> produced{0};
    std::atomic<std::uint64_t> backpressure{0};
};

/** Knobs of a trace replay (see TracePacer). */
struct PacerOptions
{
    /** Wall-clock speed as a multiple of recorded time; <= 0 unpaced. */
    double rate = 0.0;
    /** Only arrivals strictly before this cutoff are streamed. */
    sim::SimTime until_us = sim::kTimeInfinity;
};

/** Replays a trace's arrival sequence into the ring on its own thread. */
class TracePacer
{
  public:
    TracePacer(trace::TraceView workload, IngestRing &ring,
               ProducerStats &stats, PacerOptions options);
    ~TracePacer() { join(); }

    TracePacer(const TracePacer &) = delete;
    TracePacer &operator=(const TracePacer &) = delete;

    /** Spawn the producer thread (single-shot). */
    void start();

    /** Wait for the full (or cut-off) trace to be pushed. */
    void join();

  private:
    void run();

    trace::TraceView workload_;
    IngestRing &ring_;
    ProducerStats &stats_;
    PacerOptions options_;
    std::thread thread_;
};

/** Knobs of the synthetic open-loop generator (see SyntheticProducers). */
struct SyntheticOptions
{
    /** Producer threads (each pushes its own interleaved lane). */
    unsigned producers = 1;
    /**
     * Requests pushed across all producer threads: the global arrival
     * slots 0 .. total_requests-1, lane p taking p, p+P, p+2P, ...
     */
    std::uint64_t total_requests = 1'000'000;
    /** Virtual microseconds between consecutive global arrivals. */
    sim::SimTime inter_arrival_us = 1;
    /** Execution time of every synthetic request. */
    sim::SimTime exec_us = 1000;
    /** Functions are drawn seeded-uniform from [0, function_count). */
    std::uint32_t function_count = 1;
    std::uint64_t seed = 42;
};

/** Open-loop multi-threaded generator feeding the ring. */
class SyntheticProducers
{
  public:
    SyntheticProducers(IngestRing &ring, ProducerStats &stats,
                       SyntheticOptions options);
    ~SyntheticProducers() { join(); }

    SyntheticProducers(const SyntheticProducers &) = delete;
    SyntheticProducers &operator=(const SyntheticProducers &) = delete;

    void start();
    void join();

  private:
    void run(unsigned lane);

    IngestRing &ring_;
    ProducerStats &stats_;
    SyntheticOptions options_;
    std::vector<std::thread> threads_;
};

} // namespace cidre::live

#endif // CIDRE_LIVE_PRODUCER_H
