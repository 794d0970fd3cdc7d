/**
 * @file
 * Property tests of the statistics substrate against naive reference
 * implementations, under randomized inputs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <vector>

#include "sim/rng.h"
#include "sim/serialize.h"
#include "stats/cdf.h"
#include "stats/histogram.h"
#include "stats/sliding_window.h"
#include "stats/summary.h"
#include "stats/timestamp_window.h"

namespace cidre::stats {
namespace {

class SeededPropertyTest : public ::testing::TestWithParam<int>
{
  protected:
    sim::Rng rng() const
    {
        return sim::Rng(static_cast<std::uint64_t>(GetParam()));
    }
};

TEST_P(SeededPropertyTest, HistogramTracksExactCdf)
{
    sim::Rng gen = rng();
    Histogram histogram(0.01);
    Cdf exact;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        // Mixture: heavy tail plus mass at zero, like latency data.
        double v = 0.0;
        if (!gen.chance(0.1))
            v = std::exp(gen.uniform(0.0, 12.0));
        histogram.add(v);
        exact.add(v);
    }
    for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
        const double approx = histogram.percentile(q);
        const double truth = exact.percentile(q);
        if (truth < 1.0)
            continue; // sub-unit values fall below bucket resolution
        EXPECT_NEAR(approx, truth, truth * 0.05 + 1.0)
            << "quantile " << q;
    }
    EXPECT_NEAR(histogram.mean(), exact.mean(), std::abs(exact.mean()) * 1e-9);
    EXPECT_EQ(histogram.count(), exact.count());
}

TEST_P(SeededPropertyTest, HistogramFractionBelowMatches)
{
    sim::Rng gen = rng();
    Histogram histogram(0.01);
    Cdf exact;
    for (int i = 0; i < 5000; ++i) {
        const double v = gen.uniform(1.0, 10000.0);
        histogram.add(v);
        exact.add(v);
    }
    for (int i = 0; i < 50; ++i) {
        const double x = gen.uniform(1.0, 10000.0);
        EXPECT_NEAR(histogram.fractionBelow(x), exact.fractionBelow(x),
                    0.03)
            << "x=" << x;
    }
}

/**
 * Naive reference for both window types: a deque of (time, value) under
 * the same cap (newest win) and horizon, queried by nth_element.
 */
struct ReferenceWindow
{
    sim::SimTime horizon;
    std::size_t cap;
    std::deque<std::pair<sim::SimTime, double>> entries;

    void expire(sim::SimTime now)
    {
        while (!entries.empty() && entries.front().first < now - horizon)
            entries.pop_front();
    }

    void add(sim::SimTime now, double value)
    {
        entries.emplace_back(now, value);
        if (entries.size() > cap)
            entries.pop_front();
        expire(now);
    }

    double percentile(double q) const
    {
        std::vector<double> values;
        for (const auto &[when, v] : entries)
            values.push_back(v);
        const auto rank = static_cast<std::size_t>(
            q * static_cast<double>(values.size() - 1) + 0.5);
        const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank);
        std::nth_element(values.begin(), nth, values.end());
        return *nth;
    }
};

/** Churn a window through adds, cap drops and horizon expiries. */
void
churn(sim::Rng &gen, SlidingWindow &window, ReferenceWindow &reference,
      sim::SimTime &now, int steps)
{
    for (int i = 0; i < steps; ++i) {
        // 1-in-10 steps jump past most of the horizon.
        now += static_cast<sim::SimTime>(
            gen.chance(0.1) ? gen.below(reference.horizon)
                            : gen.below(sim::msec(200)));
        if (gen.chance(0.2)) {
            window.expire(now);
            reference.expire(now);
        } else {
            // Few distinct values, so duplicates exercise tie handling.
            const double value = std::floor(gen.uniform(0.0, 50.0));
            window.add(now, value);
            reference.add(now, value);
        }
        ASSERT_EQ(window.count(), reference.entries.size());
    }
}

TEST_P(SeededPropertyTest, SlidingWindowMatchesReference)
{
    sim::Rng gen = rng();
    const std::size_t cap = 64;
    SlidingWindow window(sim::sec(30), cap);
    ReferenceWindow reference{sim::sec(30), cap, {}};

    sim::SimTime now = 0;
    for (int i = 0; i < 2000; ++i) {
        now += static_cast<sim::SimTime>(gen.below(sim::sec(2)));
        const double value = gen.uniform(0.0, 1000.0);
        window.add(now, value);
        reference.add(now, value);

        ASSERT_EQ(window.count(), reference.entries.size());
        if (reference.entries.empty())
            continue;
        if (i % 37 == 0) {
            const double q = gen.uniform();
            EXPECT_DOUBLE_EQ(window.percentile(q), reference.percentile(q));
        }
    }
}

TEST_P(SeededPropertyTest, SlidingWindowExpireHeavyMatchesReference)
{
    // The add-driven property above rarely empties the window; this one
    // interleaves explicit expire() sweeps (the engine's read path) with
    // long idle gaps, and also checks mean() and the change-epoch
    // contract: the epoch moves iff the observable contents changed.
    sim::Rng gen = rng();
    const std::size_t cap = 32;
    SlidingWindow window(sim::sec(10), cap);
    ReferenceWindow reference{sim::sec(10), cap, {}};

    sim::SimTime now = 0;
    for (int i = 0; i < 3000; ++i) {
        // 1-in-8 steps jump far ahead, usually past the whole horizon.
        now += static_cast<sim::SimTime>(
            gen.chance(0.125) ? gen.below(sim::sec(25))
                              : gen.below(sim::sec(1)));
        const std::uint64_t before_epoch = window.changeEpoch();
        if (gen.chance(0.4)) {
            const std::size_t before_count = window.count();
            window.expire(now);
            reference.expire(now);
            ASSERT_EQ(window.count(), reference.entries.size());
            if (reference.entries.size() == before_count)
                EXPECT_EQ(window.changeEpoch(), before_epoch);
            else
                EXPECT_NE(window.changeEpoch(), before_epoch);
        } else {
            const double value = gen.uniform(0.0, 100.0);
            window.add(now, value);
            reference.add(now, value);
            ASSERT_EQ(window.count(), reference.entries.size());
            EXPECT_NE(window.changeEpoch(), before_epoch);
        }
        if (reference.entries.empty())
            continue;

        double sum = 0.0;
        for (const auto &[when, v] : reference.entries)
            sum += v;
        const double mean =
            sum / static_cast<double>(reference.entries.size());
        EXPECT_NEAR(window.mean(), mean, 1e-9);
        if (i % 23 == 0) {
            const double q = gen.uniform();
            EXPECT_DOUBLE_EQ(window.percentile(q), reference.percentile(q));
            EXPECT_DOUBLE_EQ(window.median(), reference.percentile(0.5));
        }
    }
}

TEST_P(SeededPropertyTest, SlidingWindowFirstQueryAfterChurnMatchesReference)
{
    // The sorted companion is built at a window's first percentile()
    // call.  Query only after long unqueried stretches (many adds, cap
    // drops and expiries, sometimes emptying the window), then keep
    // going so the built companion is maintained incrementally, and
    // check every answer and the change-epoch contract.
    sim::Rng gen = rng();
    const std::size_t cap = 48;
    SlidingWindow window(sim::sec(5), cap);
    ReferenceWindow reference{sim::sec(5), cap, {}};
    sim::SimTime now = 0;
    for (int round = 0; round < 40; ++round) {
        churn(gen, window, reference, now,
              static_cast<int>(gen.below(400)));
        if (reference.entries.empty())
            continue;
        for (int k = 0; k < 5; ++k) {
            const double q = k == 0 ? 0.5 : gen.uniform();
            const std::uint64_t epoch = window.changeEpoch();
            EXPECT_EQ(window.percentile(q), reference.percentile(q))
                << "round " << round << " q=" << q;
            EXPECT_EQ(window.changeEpoch(), epoch)
                << "a query must not stamp the epoch";
        }
        EXPECT_EQ(window.median(), reference.percentile(0.5));
    }
}

TEST_P(SeededPropertyTest, SlidingWindowUnqueriedCheckpointRoundTrip)
{
    // A window saved before any query restores with no companion, even
    // onto a window whose own companion was built; its first query must
    // still match the reference, as must later ones.
    sim::Rng gen = rng();
    const std::size_t cap = 64;
    SlidingWindow window(sim::sec(20), cap);
    ReferenceWindow reference{sim::sec(20), cap, {}};
    sim::SimTime now = 0;
    churn(gen, window, reference, now, 600);
    if (reference.entries.empty()) {
        window.add(now, 7.0);
        reference.add(now, 7.0);
    }

    sim::StateWriter writer;
    window.saveState(writer);
    const std::vector<std::byte> bytes = writer.release();
    SlidingWindow restored;
    restored.add(0, -1.0);
    EXPECT_EQ(restored.median(), -1.0);
    sim::StateReader reader(bytes);
    restored.loadState(reader);
    EXPECT_TRUE(reader.atEnd());

    EXPECT_EQ(restored.count(), window.count());
    EXPECT_EQ(restored.changeEpoch(), window.changeEpoch());
    EXPECT_EQ(restored.mean(), window.mean());
    EXPECT_EQ(restored.latest(), window.latest());
    for (const double q : {0.0, 0.25, 0.5, 0.9, 1.0})
        EXPECT_EQ(restored.percentile(q), reference.percentile(q));

    churn(gen, restored, reference, now, 300);
    if (!reference.entries.empty()) {
        EXPECT_EQ(restored.percentile(0.5), reference.percentile(0.5));
        EXPECT_EQ(restored.percentile(0.99), reference.percentile(0.99));
    }
}

TEST_P(SeededPropertyTest, TimestampWindowMatchesReference)
{
    // The arrival window keeps only timestamps: count, earliest and
    // latest must track the reference under the cap and the horizon,
    // and survive a checkpoint round-trip taken at random points.
    sim::Rng gen = rng();
    const std::size_t cap = 40;
    const sim::SimTime horizon = sim::sec(8);
    TimestampWindow window(horizon, cap);
    ReferenceWindow reference{horizon, cap, {}};
    sim::SimTime now = 0;
    for (int i = 0; i < 3000; ++i) {
        now += static_cast<sim::SimTime>(
            gen.chance(0.05) ? gen.below(sim::sec(12))
                             : gen.below(sim::msec(150)));
        window.add(now);
        reference.add(now, 0.0);
        ASSERT_EQ(window.count(), reference.entries.size());
        EXPECT_EQ(window.earliestTime(), reference.entries.front().first);
        EXPECT_EQ(window.latestTime(), reference.entries.back().first);

        if (gen.chance(0.02)) {
            sim::StateWriter writer;
            window.saveState(writer);
            const std::vector<std::byte> bytes = writer.release();
            TimestampWindow restored(sim::sec(1), 1);
            sim::StateReader reader(bytes);
            restored.loadState(reader);
            EXPECT_TRUE(reader.atEnd());
            EXPECT_EQ(restored.count(), window.count());
            EXPECT_EQ(restored.earliestTime(), window.earliestTime());
            EXPECT_EQ(restored.latestTime(), window.latestTime());
            window = restored; // carry on from the restored copy
        }
    }
}

TEST_P(SeededPropertyTest, SummaryMatchesTwoPass)
{
    sim::Rng gen = rng();
    OnlineSummary summary;
    std::vector<double> values;
    for (int i = 0; i < 5000; ++i) {
        const double v = gen.uniform(-50.0, 150.0);
        summary.add(v);
        values.push_back(v);
    }
    double mean = 0.0;
    for (const double v : values)
        mean += v;
    mean /= static_cast<double>(values.size());
    double var = 0.0;
    for (const double v : values)
        var += (v - mean) * (v - mean);
    var /= static_cast<double>(values.size());

    EXPECT_NEAR(summary.mean(), mean, 1e-9);
    EXPECT_NEAR(summary.variance(), var, 1e-6);
    EXPECT_DOUBLE_EQ(summary.min(),
                     *std::min_element(values.begin(), values.end()));
    EXPECT_DOUBLE_EQ(summary.max(),
                     *std::max_element(values.begin(), values.end()));
}

TEST_P(SeededPropertyTest, SummaryMergeAssociative)
{
    sim::Rng gen = rng();
    OnlineSummary whole;
    OnlineSummary parts[3];
    for (int i = 0; i < 3000; ++i) {
        const double v = std::exp(gen.uniform(0.0, 10.0));
        whole.add(v);
        parts[gen.below(3)].add(v);
    }
    OnlineSummary merged;
    for (auto &part : parts)
        merged.merge(part);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_NEAR(merged.mean(), whole.mean(),
                std::abs(whole.mean()) * 1e-9);
    EXPECT_NEAR(merged.variance(), whole.variance(),
                whole.variance() * 1e-6);
}

TEST_P(SeededPropertyTest, CdfPercentileFractionRoundTrip)
{
    sim::Rng gen = rng();
    Cdf cdf;
    for (int i = 0; i < 3000; ++i)
        cdf.add(gen.uniform(0.0, 100.0));
    for (const double q : {0.05, 0.3, 0.5, 0.7, 0.95}) {
        const double value = cdf.percentile(q);
        // fractionBelow(percentile(q)) ≈ q for continuous data.
        EXPECT_NEAR(cdf.fractionBelow(value), q, 0.01) << "q=" << q;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededPropertyTest,
                         ::testing::Range(1, 6));

} // namespace
} // namespace cidre::stats
