#include "stats/timestamp_window.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>

#include "sim/serialize.h"

namespace cidre::stats {

TimestampWindow::TimestampWindow(sim::SimTime horizon,
                                 std::size_t max_samples)
    : horizon_(horizon), max_samples_(max_samples)
{
    if (max_samples_ == 0)
        throw std::invalid_argument(
            "TimestampWindow: max_samples must be > 0");
}

void
TimestampWindow::dropFront()
{
    head_ = (head_ + 1) % ring_.size();
    if (--size_ == 0)
        head_ = 0;
}

void
TimestampWindow::add(sim::SimTime now)
{
    assert(size_ == 0 || now >= latestTime());
    if (size_ == max_samples_)
        dropFront(); // retention cap: newest wins
    if (size_ == ring_.size()) {
        // Grow toward max_samples_, unrolling the ring to start at 0.
        std::vector<sim::SimTime> grown(std::min(
            max_samples_, std::max<std::size_t>(16, ring_.size() * 2)));
        for (std::size_t i = 0; i < size_; ++i)
            grown[i] = ring_[(head_ + i) % ring_.size()];
        ring_ = std::move(grown);
        head_ = 0;
    }
    ring_[(head_ + size_) % ring_.size()] = now;
    ++size_;
    if (horizon_ == sim::kTimeInfinity)
        return;
    const sim::SimTime cutoff = now - horizon_;
    while (size_ > 0 && ring_[head_] < cutoff)
        dropFront();
}

sim::SimTime
TimestampWindow::earliestTime() const
{
    if (size_ == 0)
        throw std::logic_error("TimestampWindow::earliestTime: empty window");
    return ring_[head_];
}

sim::SimTime
TimestampWindow::latestTime() const
{
    if (size_ == 0)
        throw std::logic_error("TimestampWindow::latestTime: empty window");
    return ring_[(head_ + size_ - 1) % ring_.size()];
}

void
TimestampWindow::saveState(sim::StateWriter &writer) const
{
    writer.put(horizon_);
    writer.put<std::uint64_t>(max_samples_);
    writer.put<std::uint64_t>(size_);
    for (std::size_t i = 0; i < size_; ++i)
        writer.put(ring_[(head_ + i) % ring_.size()]);
}

void
TimestampWindow::loadState(sim::StateReader &reader)
{
    horizon_ = reader.get<sim::SimTime>();
    max_samples_ = static_cast<std::size_t>(reader.get<std::uint64_t>());
    if (max_samples_ == 0)
        throw std::runtime_error("TimestampWindow: corrupt checkpoint");
    const auto count = reader.get<std::uint64_t>();
    if (count > max_samples_)
        throw std::runtime_error("TimestampWindow: corrupt checkpoint");
    ring_.clear();
    ring_.resize(static_cast<std::size_t>(count));
    for (sim::SimTime &when : ring_)
        when = reader.get<sim::SimTime>();
    head_ = 0;
    size_ = ring_.size();
}

} // namespace cidre::stats
