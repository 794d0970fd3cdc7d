#include "live_load.h"

#include <algorithm>

#include "sim/topology.h"

#ifdef __linux__
#include <sched.h>
#endif

namespace perfbench {

std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
    }
#endif
    return cpus;
}

PinnedProducer::PinnedProducer(cidre::trace::TraceView workload,
                               cidre::live::IngestRing &ring,
                               const LivePhaseOptions &options,
                               const std::atomic<std::uint64_t> &admitted)
    : workload_(workload),
      ring_(ring),
      options_(options),
      admitted_(admitted),
      count_(std::min(options.limit, workload.requestCount()))
{
    if (options_.rate_per_s > 0.0)
        late_ns.reserve(count_);
}

void
PinnedProducer::start()
{
    thread_ = std::thread([this] { run(); });
}

void
PinnedProducer::join()
{
    if (thread_.joinable())
        thread_.join();
}

void
PinnedProducer::run()
{
    cidre::sim::ScopedAffinity pin(options_.producer_cpu);
    const bool paced = options_.rate_per_s > 0.0;
    const double period_ns = paced ? 1e9 / options_.rate_per_s : 0.0;
    const std::int64_t start = steadyNs();
    start_ns_.store(start, std::memory_order_release);
    for (std::uint64_t i = 0; i < count_; ++i) {
        if (paced) {
            const auto due = start + static_cast<std::int64_t>(
                                         static_cast<double>(i) * period_ns);
            std::int64_t now = steadyNs();
            while (now < due)
                now = steadyNs();
            late_ns.push_back(static_cast<double>(now - due));
            max_backlog = std::max<std::uint64_t>(
                max_backlog,
                i - admitted_.load(std::memory_order_relaxed));
        }
        ring_.pushBlocking(
            cidre::live::IngestRequest{workload_.requestFunction(i),
                                       workload_.arrivalUs(i),
                                       workload_.execUs(i)},
            backpressure);
    }
    // live::consumeStream drops whatever its re-drain pops after it sees
    // the done flag, so raise the flag only once every pushed request
    // has been admitted.
    while (admitted_.load(std::memory_order_acquire) < count_)
        std::this_thread::yield();
    done_.store(true, std::memory_order_release);
}

} // namespace perfbench
