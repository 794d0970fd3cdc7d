/**
 * @file
 * The admission loop's end-of-stream handshake: producers raise the
 * done flag right after their final push, and live::consumeStream must
 * admit every request pushed before the flag — including the ones its
 * confirming drain pops after it observed the flag.  Many tiny streams
 * make that window (final push lands between an empty drain and the
 * flag load) come up often; a dropped request shows as admitted <
 * pushed.  Also a TSan target: one producer thread per stream races the
 * consuming thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "live/ingest_ring.h"
#include "live/orchestrator.h"

namespace cidre {
namespace {

/** Counts admissions; no engine, so the loop polls as fast as it can. */
struct CountingDriver
{
    std::uint64_t admitted = 0;

    void step(sim::SimTime) {}
    void admit(sim::SimTime, std::uint32_t, sim::SimTime) { ++admitted; }
    void close() {}
};

TEST(ConsumeStream, AdmitsTheFinalBatchOfEveryShortStream)
{
    constexpr int kStreams = 20000;
    live::OrchestratorOptions options;
    options.spin = 1; // yield on every empty poll: more interleavings
    for (int stream = 0; stream < kStreams; ++stream) {
        live::IngestRing ring(8);
        std::atomic<bool> done{false};
        const std::uint64_t pushed = 1 + stream % 3;
        std::thread producer([&ring, &done, pushed] {
            for (std::uint64_t i = 0; i < pushed; ++i)
                EXPECT_TRUE(ring.tryPush(live::IngestRequest{
                    static_cast<std::uint32_t>(i),
                    static_cast<sim::SimTime>(i), 1}));
            done.store(true, std::memory_order_release);
        });
        CountingDriver driver;
        const live::LiveStats stats =
            live::consumeStream(driver, ring, done, options);
        producer.join();
        ASSERT_EQ(stats.admitted, pushed) << "stream " << stream;
        ASSERT_EQ(driver.admitted, pushed) << "stream " << stream;
    }
}

} // namespace
} // namespace cidre
