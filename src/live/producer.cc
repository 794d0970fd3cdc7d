#include "live/producer.h"

#include <chrono>
#include <stdexcept>

#include "sim/rng.h"

namespace cidre::live {

TracePacer::TracePacer(trace::TraceView workload, IngestRing &ring,
                       ProducerStats &stats, PacerOptions options)
    : workload_(workload), ring_(ring), stats_(stats), options_(options)
{
    if (!workload_.valid())
        throw std::invalid_argument("TracePacer: unbound workload view");
}

void
TracePacer::start()
{
    if (thread_.joinable())
        throw std::logic_error("TracePacer: already started");
    thread_ = std::thread([this] { run(); });
}

void
TracePacer::join()
{
    if (thread_.joinable())
        thread_.join();
}

void
TracePacer::run()
{
    using Clock = std::chrono::steady_clock;
    const std::uint64_t count = workload_.requestCount();
    const bool paced = options_.rate > 0.0;
    const sim::SimTime base = count > 0 ? workload_.arrivalUs(0) : 0;
    const auto start = Clock::now();

    for (std::uint64_t i = 0; i < count; ++i) {
        const sim::SimTime arrival = workload_.arrivalUs(i);
        if (arrival >= options_.until_us)
            break; // arrivals are sorted: nothing later qualifies
        if (paced) {
            const auto offset = std::chrono::microseconds(
                static_cast<std::int64_t>(
                    static_cast<double>(arrival - base) / options_.rate));
            std::this_thread::sleep_until(start + offset);
        }
        ring_.pushBlocking(
            IngestRequest{workload_.requestFunction(i), arrival,
                          workload_.execUs(i)},
            stats_.backpressure);
        stats_.produced.fetch_add(1, std::memory_order_relaxed);
    }
}

SyntheticProducers::SyntheticProducers(IngestRing &ring,
                                       ProducerStats &stats,
                                       SyntheticOptions options)
    : ring_(ring), stats_(stats), options_(options)
{
    if (options_.producers == 0 || options_.function_count == 0)
        throw std::invalid_argument(
            "SyntheticProducers: producers and function_count must be > 0");
}

void
SyntheticProducers::start()
{
    if (!threads_.empty())
        throw std::logic_error("SyntheticProducers: already started");
    threads_.reserve(options_.producers);
    for (unsigned lane = 0; lane < options_.producers; ++lane)
        threads_.emplace_back([this, lane] { run(lane); });
}

void
SyntheticProducers::join()
{
    for (auto &t : threads_)
        if (t.joinable())
            t.join();
}

void
SyntheticProducers::run(unsigned lane)
{
    // Lane `lane` owns the open-loop clock's slots lane, lane+P,
    // lane+2P, ... below total_requests, so the union of all lanes is
    // the dense arrival sequence 0 .. total_requests-1, whose global
    // order the orchestrator restores by clamping (per-lane timestamps
    // are monotonic by construction).
    sim::Rng rng(sim::substreamSeed(options_.seed, lane));
    for (std::uint64_t index = lane; index < options_.total_requests;
         index += options_.producers) {
        const sim::SimTime slot =
            static_cast<sim::SimTime>(index) * options_.inter_arrival_us;
        const auto fn =
            static_cast<std::uint32_t>(rng.below(options_.function_count));
        ring_.pushBlocking(IngestRequest{fn, slot, options_.exec_us},
                           stats_.backpressure);
        stats_.produced.fetch_add(1, std::memory_order_relaxed);
    }
}

} // namespace cidre::live
