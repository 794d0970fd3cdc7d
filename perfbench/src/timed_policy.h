/**
 * @file
 * A forwarding decorator around a core::OrchestrationPolicy bundle that
 * counts and times every call the engine makes into the policy layer,
 * from outside the policy: the wrapped bundle never knows it is timed.
 *
 * Every virtual of ScalingPolicy, KeepAlivePolicy and ClusterAgent is
 * forwarded, including wantsBusyCompletionView() and the checkpoint
 * hooks, so a decorated bundle simulates exactly what the bare one
 * does (pinned by tests/timed_policy_test.cc).  A null agent stays
 * null: the engine treats "no agent" differently from an agent whose
 * hooks do nothing.
 */

#ifndef PERFBENCH_TIMED_POLICY_H
#define PERFBENCH_TIMED_POLICY_H

#include <cstdint>
#include <deque>
#include <mutex>

#include "core/policy.h"
#include "stats/latency_histogram.h"

namespace perfbench {

/** What one decorated bundle observed (one writer: its engine). */
struct PolicyCounters
{
    std::uint64_t scaling_calls = 0;
    std::uint64_t scaling_ns = 0;

    std::uint64_t reclaim_calls = 0;
    std::uint64_t reclaim_ns = 0;
    /** Containers the plans chose to evict or compress. */
    std::uint64_t reclaim_victims = 0;
    /** Plans whose evictions free less than ReclaimRequest::need_mb. */
    std::uint64_t reclaim_short = 0;
    cidre::stats::LatencyHistogram reclaim_call_ns;

    std::uint64_t expire_calls = 0;
    std::uint64_t expire_ns = 0;
    std::uint64_t expired = 0;

    /** Every other hook: on* observers, provisionCost, agent ticks. */
    std::uint64_t hook_calls = 0;
    std::uint64_t hook_ns = 0;

    std::uint64_t calls() const
    {
        return scaling_calls + reclaim_calls + expire_calls + hook_calls;
    }
    std::uint64_t ns() const
    {
        return scaling_ns + reclaim_ns + expire_ns + hook_ns;
    }

    void add(const PolicyCounters &other);
};

/**
 * Counter slots for a run that builds several bundles (one per sharded
 * cell, possibly on concurrent threads).  Slots have stable addresses;
 * each bundle writes only its own.
 */
class CounterBank
{
  public:
    /** A fresh slot for one bundle (thread-safe). */
    PolicyCounters &slot();

    /** Sum of every slot, in creation order. */
    PolicyCounters total() const;

  private:
    mutable std::mutex mutex_;
    std::deque<PolicyCounters> slots_;
};

/** Wrap @p bare so every call into it is counted into @p counters. */
cidre::core::OrchestrationPolicy
decorate(cidre::core::OrchestrationPolicy bare, PolicyCounters &counters);

} // namespace perfbench

#endif // PERFBENCH_TIMED_POLICY_H
