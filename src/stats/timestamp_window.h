/**
 * @file
 * Time-bounded window of bare event timestamps.
 *
 * The rate estimators of FLAME and ENSURE only ask how many events fell
 * in the recent window and when the oldest and newest of them happened.
 * This window keeps exactly that: a ring of timestamps under the same
 * horizon and retention cap as stats::SlidingWindow (newest win, entries
 * older than now - horizon expire on add), with no values, sum or order
 * statistics.
 */

#ifndef CIDRE_STATS_TIMESTAMP_WINDOW_H
#define CIDRE_STATS_TIMESTAMP_WINDOW_H

#include <cstddef>
#include <vector>

#include "sim/time.h"

namespace cidre::sim {
class StateReader;
class StateWriter;
} // namespace cidre::sim

namespace cidre::stats {

/** Sliding time window of timestamps: count, earliest and latest. */
class TimestampWindow
{
  public:
    /**
     * @param horizon     max entry age; sim::kTimeInfinity keeps all.
     * @param max_samples retention cap (newest entries win); must be > 0.
     */
    TimestampWindow(sim::SimTime horizon, std::size_t max_samples);

    /** Record an event at @p now; expire entries older than the horizon. */
    void add(sim::SimTime now);

    /** Number of retained timestamps (after the last add). */
    std::size_t count() const { return size_; }

    /** Oldest retained timestamp (non-empty windows). */
    sim::SimTime earliestTime() const;

    /** Newest retained timestamp (non-empty windows). */
    sim::SimTime latestTime() const;

    /** Checkpoint the retained timestamps (time order). */
    void saveState(sim::StateWriter &writer) const;
    void loadState(sim::StateReader &reader);

  private:
    void dropFront();

    sim::SimTime horizon_;
    std::size_t max_samples_;
    std::vector<sim::SimTime> ring_; //!< ring_[head_] oldest
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace cidre::stats

#endif // CIDRE_STATS_TIMESTAMP_WINDOW_H
