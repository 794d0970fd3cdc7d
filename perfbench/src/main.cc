/**
 * @file
 * The repo benchmark: replays and live-admits one named workload for a
 * fixed wall budget, checks that the simulated outputs are correct, and
 * prints one JSON result line.  See ../README.md for the workloads and
 * metrics; run it through ../run.py, which builds it first.
 *
 *   perfbench_run --workload <name> --seed <n> --seconds <s> --trace 0|1
 *                 --scratch <dir> [--spans-out <file>]
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
 * mode (decorated policies, spans, layer harnesses) and prints the
 * per-layer metrics.  A failed output check makes the exit code 1.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/metrics_io.h"
#include "core/sharded_engine.h"
#include "exp/telemetry.h"
#include "layers.h"
#include "live_load.h"
#include "policies/registry.h"
#include "sim/rng.h"
#include "sim/thread_pool.h"
#include "sim/topology.h"
#include "spans.h"
#include "timed_policy.h"
#include "trace/generators.h"
#include "trace/trace_image.h"

namespace {

using namespace cidre;
using perfbench::Distribution;
using perfbench::SpanLog;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- workloads ------------------------------------------------------------

/** One named workload: its trace family, cluster and execution shape. */
struct Shape
{
    const char *name;
    const char *policy;
    /** Independently seeded Azure-like sub-traces merged into one. */
    int sub_traces;
    /** Request-volume scale of each sub-trace. */
    double sub_scale;
    int minutes;
    std::uint32_t workers;
    std::int64_t cache_gb;
    std::uint32_t cells;
    unsigned shard_threads;
    /** Replay from a `.ctrb` image written and opened during set-up. */
    bool image;
    /** Requests streamed by each live phase (0 = the whole trace). */
    std::uint64_t live_requests;
};

// The two workloads of BENCHMARK.json; README.md says why each exists.
const Shape kShapes[] = {
    {"azure_cidre_tight", "cidre", 4, 0.25, 10, 3, 150, 1, 1, false, 0},
    {"ctrb_ttl_roomy_sharded", "ttl", 8, 0.5, 30, 8, 25600, 4, 2, true,
     150000},
};

/** Fixed offered rate of every paced live phase (requests / s). */
constexpr double kPacedRate = 150000.0;

trace::Trace
synthesize(const Shape &shape, std::uint64_t seed)
{
    trace::Trace out;
    for (int k = 0; k < shape.sub_traces; ++k) {
        trace::SyntheticSpec spec = trace::azureLikeSpec();
        spec.total_rps *= shape.sub_scale;
        spec.duration = sim::minutes(shape.minutes);
        const trace::Trace part = trace::generate(
            spec, sim::substreamSeed(seed, static_cast<std::uint64_t>(k)));
        const auto base = static_cast<trace::FunctionId>(out.functionCount());
        for (const trace::FunctionProfile &f : part.functions())
            out.addFunction(f);
        for (const trace::Request &r : part.requests())
            out.addRequest(base + r.function, r.arrival_us, r.exec_us);
    }
    out.seal();
    return out;
}

core::EngineConfig
configFor(const Shape &shape)
{
    core::EngineConfig config;
    config.cluster.workers = shape.workers;
    config.cluster.total_memory_mb = shape.cache_gb * 1024;
    config.shard_cells = shape.cells;
    return config;
}

std::string
metricsJson(const core::RunMetrics &m)
{
    std::ostringstream out;
    core::writeMetricsJson(m, out);
    return out.str();
}

// ---- one pass -------------------------------------------------------------

/** Everything one pass over a workload measured. */
struct PassResult
{
    double setup_s = 0.0;
    double generate_s = 0.0;
    double image_write_s = 0.0;
    double image_open_s = 0.0;
    double replay_s = 0.0;
    double wall_s = 0.0; //!< replay + both live phases
    std::uint64_t requests = 0;
    std::uint64_t events = 0;
    std::string replay_json;
    std::string unpaced_json;
    std::string paced_json;
    core::RunMetrics replay_metrics;
    perfbench::LivePhaseResult unpaced;
    perfbench::LivePhaseResult paced;
    /** Traced passes only. */
    perfbench::PolicyCounters policy;
};

struct Context
{
    const Shape &shape;
    std::uint64_t seed;
    std::string image_path;
    /** Runs set-up, replay and the admission loop. */
    int main_cpu = -1;
    /** Runs the live producer, or the shard pool's helper threads. */
    int helper_cpu = -1;
    perfbench::SpanLog *spans = nullptr; //!< non-null in traced passes
};

/** The trace a pass replays: in memory, or an opened image. */
struct Workload
{
    std::optional<trace::Trace> memory;
    std::optional<trace::TraceImage> image;
    trace::TraceView view() const
    {
        return image ? image->view() : trace::TraceView(*memory);
    }
};

Workload
setUp(const Context &ctx, PassResult &r, bool write_image,
      std::int64_t parent)
{
    Workload w;
    auto t = Clock::now();
    {
        perfbench::ScopedSpan span(ctx.spans, "setup.generate", parent);
        w.memory.emplace(synthesize(ctx.shape, ctx.seed));
    }
    r.generate_s = secondsSince(t);
    if (!write_image)
        return w;
    t = Clock::now();
    {
        perfbench::ScopedSpan span(ctx.spans, "setup.image_write", parent);
        trace::writeTraceImageFile(*w.memory, ctx.image_path);
    }
    r.image_write_s = secondsSince(t);
    w.memory.reset();
    t = Clock::now();
    {
        perfbench::ScopedSpan span(ctx.spans, "setup.image_open", parent);
        w.image.emplace(trace::TraceImage::open(ctx.image_path));
    }
    r.image_open_s = secondsSince(t);
    return w;
}

core::ShardedEngine::PolicyFactory
factoryFor(const Shape &shape, perfbench::CounterBank *bank)
{
    const std::string policy = shape.policy;
    return [policy, bank](const core::EngineConfig &cell) {
        core::OrchestrationPolicy bare = policies::makePolicy(policy, cell);
        if (bank == nullptr)
            return bare;
        return perfbench::decorate(std::move(bare), bank->slot());
    };
}

/** Shard threads: the caller on main_cpu, helpers on helper_cpu. */
sim::ThreadPoolOptions
poolOptions(const Context &ctx, unsigned threads)
{
    sim::ThreadPoolOptions o;
    o.threads = threads;
    if (ctx.helper_cpu >= 0)
        o.pin_cpus = {ctx.helper_cpu};
    return o;
}

perfbench::LivePhaseOptions
liveOptions(const Context &ctx, double rate, bool traced)
{
    perfbench::LivePhaseOptions o;
    o.rate_per_s = rate;
    if (ctx.shape.live_requests > 0)
        o.limit = ctx.shape.live_requests;
    o.producer_cpu = ctx.helper_cpu;
    o.consumer_cpu = ctx.main_cpu;
    o.time_steps = traced;
    return o;
}

/** Stream the workload through a fresh live engine; @return its metrics. */
std::string
livePhase(const Context &ctx, trace::TraceView view, double rate,
          perfbench::LivePhaseResult &out, std::int64_t parent)
{
    const core::EngineConfig config = configFor(ctx.shape);
    const bool traced = ctx.spans != nullptr;
    perfbench::ScopedSpan span(ctx.spans,
                               rate > 0.0 ? "live.paced" : "live.unpaced",
                               parent);
    if (ctx.shape.cells == 1) {
        core::Engine engine(view, config,
                            policies::makePolicy(ctx.shape.policy, config));
        engine.beginLive();
        out = perfbench::runLivePhase(live::SingleCellDriver{engine}, view,
                                      liveOptions(ctx, rate, traced));
        return metricsJson(engine.finish());
    }
    core::ShardedEngine engine(view, config, factoryFor(ctx.shape, nullptr));
    engine.beginLive();
    out = perfbench::runLivePhase(live::ShardedDriver{engine}, view,
                                  liveOptions(ctx, rate, traced));
    return metricsJson(engine.finish(nullptr));
}

/**
 * One pass: set up, replay the trace (timed), then stream it unpaced and
 * paced through the live path.  A traced pass decorates the replay's
 * policies and records spans.
 */
PassResult
runPass(const Context &ctx)
{
    PassResult r;
    perfbench::ScopedSpan pass_span(ctx.spans, "pass");
    const std::int64_t parent = pass_span.id();
    const auto setup_start = Clock::now();
    Workload w = setUp(ctx, r, ctx.shape.image, parent);
    const trace::TraceView view = w.view();
    perfbench::CounterBank bank;
    std::optional<sim::ThreadPool> pool;
    std::optional<core::ShardedEngine> engine;
    {
        perfbench::ScopedSpan span(ctx.spans, "setup.engine", parent);
        if (ctx.shape.shard_threads > 1)
            pool.emplace(poolOptions(ctx, ctx.shape.shard_threads));
        engine.emplace(view, configFor(ctx.shape),
                       factoryFor(ctx.shape,
                                  ctx.spans != nullptr ? &bank : nullptr));
    }
    r.setup_s = secondsSince(setup_start);
    r.requests = view.requestCount();

    const auto wall_start = Clock::now();
    {
        perfbench::ScopedSpan span(ctx.spans, "replay.run", parent);
        const auto t = Clock::now();
        r.replay_metrics = engine->run(pool ? &*pool : nullptr);
        r.replay_s = secondsSince(t);
    }
    r.events = engine->eventsExecuted();
    r.replay_json = metricsJson(r.replay_metrics);
    r.policy = bank.total();
    engine.reset();
    pool.reset();

    r.unpaced_json = livePhase(ctx, view, 0.0, r.unpaced, parent);
    r.paced_json = livePhase(ctx, view, kPacedRate, r.paced, parent);
    r.wall_s = secondsSince(wall_start);
    return r;
}

// ---- output ---------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

double
median(std::vector<double> v)
{
    return Distribution::quantile(v, 0.5);
}

struct Checks
{
    bool ok = true;
    void require(bool cond, const std::string &what)
    {
        if (!cond) {
            ok = false;
            std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n",
                         what.c_str());
        }
    }
};

void
printResult(const Checks &checks, std::uint64_t attempted,
            std::uint64_t failed, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                checks.ok ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    std::printf("}}\n");
    std::fflush(stdout);
}

/** Output checks shared by both modes; @return completed requests. */
std::uint64_t
checkPass(Checks &checks, const PassResult &p, const PassResult &first,
          const Shape &shape)
{
    const std::uint64_t completed = p.replay_metrics.total();
    checks.require(completed == p.requests,
                   "replay completed every request");
    checks.require(p.replay_json == first.replay_json,
                   "replay metrics repeat bit-exactly across passes");
    checks.require(p.unpaced.stats.reordered == 0 &&
                       p.paced.stats.reordered == 0,
                   "live phases reordered no request");
    const std::uint64_t streamed = p.unpaced.stats.admitted;
    checks.require(p.paced.stats.admitted == streamed &&
                       p.paced.admit_ns.size() == streamed,
                   "both live phases admitted the same requests");
    if (shape.live_requests == 0) {
        checks.require(streamed == p.requests,
                       "live phases streamed the whole trace");
        checks.require(p.unpaced_json == p.replay_json,
                       "unpaced live metrics equal the replay's");
        checks.require(p.paced_json == p.replay_json,
                       "paced live metrics equal the replay's");
    } else {
        checks.require(p.unpaced_json == p.paced_json,
                       "paced and unpaced live prefixes agree");
        checks.require(p.unpaced_json == first.unpaced_json,
                       "live metrics repeat bit-exactly across passes");
    }
    return completed;
}

/**
 * Median ns between two back-to-back steady_clock reads: what a timed
 * call's measured span adds on top of the call itself.
 */
double
clockReadNs()
{
    std::vector<double> samples;
    for (int s = 0; s < 64; ++s) {
        constexpr int kReads = 4096;
        const auto t0 = Clock::now();
        for (int i = 0; i < kReads; ++i)
            (void)Clock::now();
        samples.push_back(
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count() /
            kReads);
    }
    return median(samples);
}

/**
 * Median of the best quarter of @p per_pass (at least one pass): the
 * highest values when @p higher_is_better, else the lowest.  Host
 * interference on the machines this was tuned on only ever slows a
 * pass, and comes in stretches of 10-20 s, so the best quarter is where
 * the program ran at full speed; the plain median instead tracks how
 * much of the run the host was contended (see README.md, Noise).
 */
double
bestQuarterMedian(std::vector<double> per_pass, bool higher_is_better)
{
    if (higher_is_better)
        std::sort(per_pass.begin(), per_pass.end(), std::greater<>());
    else
        std::sort(per_pass.begin(), per_pass.end());
    per_pass.resize(std::max<std::size_t>(1, per_pass.size() / 4));
    return median(std::move(per_pass));
}

std::vector<Metric>
endToEnd(const std::vector<PassResult> &passes)
{
    std::vector<double> setup, replay, sustained, a50, a99, s50;
    for (const PassResult &p : passes) {
        setup.push_back(p.setup_s);
        replay.push_back(static_cast<double>(p.requests) / p.replay_s);
        sustained.push_back(p.unpaced.stats.admitRate());
        std::vector<double> admit = p.paced.admit_ns;
        std::vector<double> sojourn = p.paced.sojourn_ns;
        a50.push_back(Distribution::quantile(admit, 0.5) / 1e3);
        a99.push_back(Distribution::quantile(admit, 0.99) / 1e3);
        s50.push_back(Distribution::quantile(sojourn, 0.5) / 1e3);
    }
    const core::RunMetrics &m = passes.front().replay_metrics;
    return {
        {"setup_s", median(setup), "s"},
        {"replay_req_per_s", bestQuarterMedian(replay, true), "1/s"},
        {"sustained_req_per_s", bestQuarterMedian(sustained, true), "1/s"},
        {"admit_p50_us", bestQuarterMedian(a50, false), "us"},
        {"admit_p99_us", bestQuarterMedian(a99, false), "us"},
        {"sojourn_p50_us", bestQuarterMedian(s50, false), "us"},
        {"peak_rss_mb", static_cast<double>(exp::peakRssMb()), "MB"},
        {"sim_cold_pct", 100.0 * m.coldRatio(), "%"},
        {"sim_e2e_p99_ms", m.e2eHistogram().percentile(0.99) / 1e3, "ms"},
        {"sim_mem_avg_gb", m.avgMemoryGb(), "GB"},
        {"completed_pct",
         100.0 * static_cast<double>(m.total()) /
             static_cast<double>(passes.front().requests),
         "%"},
    };
}

void
describeSamples(const std::vector<PassResult> &passes)
{
    std::fprintf(stderr, "perfbench: per pass replay / sustained req/s:");
    for (const PassResult &p : passes)
        std::fprintf(stderr, " %.0f/%.0f",
                     static_cast<double>(p.requests) / p.replay_s,
                     p.unpaced.stats.admitRate());
    std::fprintf(stderr, "\n");
    const PassResult &p = passes.back();
    std::fprintf(stderr,
                 "perfbench: %zu passes; last pass: %llu requests, "
                 "replay %.3f s, paced admits: %s, sojourn: %s\n",
                 passes.size(), static_cast<unsigned long long>(p.requests),
                 p.replay_s,
                 Distribution::of(p.paced.admit_ns).describe("ns").c_str(),
                 Distribution::of(p.paced.sojourn_ns).describe("ns").c_str());
}

/** Per-layer metrics from a traced run; see README.md for each. */
std::vector<Metric>
perLayer(Checks &checks, const Context &ctx, const PassResult &traced,
         double untraced_wall, double traced_wall)
{
    const Shape &shape = ctx.shape;
    std::vector<Metric> out;
    const double clock_ns = clockReadNs();
    std::fprintf(stderr,
                 "perfbench: per-call policy times exclude %.1f ns of "
                 "clock read each\n",
                 clock_ns);
    auto corrected = [clock_ns](std::uint64_t ns, std::uint64_t calls) {
        return std::max(0.0, static_cast<double>(ns) -
                                 clock_ns * static_cast<double>(calls));
    };
    auto perCall = [&](std::uint64_t ns, std::uint64_t calls) {
        return calls == 0 ? 0.0
                          : corrected(ns, calls) / static_cast<double>(calls);
    };

    // Fresh set-up (untraced) for the layer harnesses and sharding probe.
    PassResult scratch;
    Context plain = ctx;
    plain.spans = nullptr;
    Workload w = setUp(plain, scratch, false, SpanLog::kNone);
    const trace::TraceView view(*w.memory);
    const core::EngineConfig config = configFor(shape);

    // sim: event queue hold model + events per request.
    const perfbench::QueueHold hold = perfbench::queueHold(view);
    std::fprintf(stderr, "perfbench: queue hold: %s\n",
                 hold.ns_per_event.describe("ns/event").c_str());
    out.push_back({"sim.events_per_req",
                   static_cast<double>(traced.events) /
                       static_cast<double>(traced.requests),
                   "events/req"});
    out.push_back({"sim.queue_ns_per_event", hold.ns_per_event.p50, "ns"});
    out.push_back({"sim.queue_peak_pending",
                   static_cast<double>(hold.peak_pending), "count"});

    // sim (sharding): the same cells with one thread and with the
    // workload's shard threads.
    double one_s = 0.0;
    double many_s = 0.0;
    std::string one_json;
    std::string many_json;
    double max_over_mean = 0.0;
    for (unsigned threads : {1u, std::max(2u, shape.shard_threads)}) {
        std::optional<sim::ThreadPool> pool;
        if (threads > 1)
            pool.emplace(poolOptions(ctx, threads));
        core::ShardedEngine engine(view, config, factoryFor(shape, nullptr));
        const auto t = Clock::now();
        const std::string json =
            metricsJson(engine.run(pool ? &*pool : nullptr));
        (threads == 1 ? one_s : many_s) = secondsSince(t);
        (threads == 1 ? one_json : many_json) = json;
        double max_events = 0.0;
        double sum_events = 0.0;
        for (std::size_t c = 0; c < engine.cellCount(); ++c) {
            const auto e =
                static_cast<double>(engine.cellEngine(c).eventsExecuted());
            max_events = std::max(max_events, e);
            sum_events += e;
        }
        max_over_mean = max_events * static_cast<double>(engine.cellCount()) /
            sum_events;
    }
    checks.require(one_json == many_json,
                   "sharded replay with 1 thread equals N threads");
    checks.require(one_json == traced.replay_json,
                   "traced replay equals the untraced replay");
    out.push_back({"sim.shard_speedup", one_s / many_s, "x"});
    out.push_back({"sim.cell_events_max_over_mean", max_over_mean, "x"});

    // trace: set-up phases, image round trip, column scan.
    {
        const auto t = Clock::now();
        trace::writeTraceImageFile(view, ctx.image_path);
        const double write_s = secondsSince(t);
        const auto t2 = Clock::now();
        const trace::TraceImage image = trace::TraceImage::open(ctx.image_path);
        const double open_s = secondsSince(t2);
        const perfbench::ViewScan scan = perfbench::viewScan(image.view());
        std::fprintf(stderr, "perfbench: image scan: %s\n",
                     scan.ns_per_req.describe("ns/req").c_str());
        checks.require(scan.digest == perfbench::viewScan(view).digest,
                       "image columns equal the in-memory trace");
        out.push_back({"trace.generate_s", scratch.generate_s, "s"});
        out.push_back({"trace.image_write_s",
                       shape.image ? traced.image_write_s : write_s,
                       "s"});
        out.push_back({"trace.image_open_s",
                       shape.image ? traced.image_open_s : open_s,
                       "s"});
        out.push_back({"trace.scan_ns_per_req", scan.ns_per_req.p50, "ns"});
    }
    std::remove(ctx.image_path.c_str());

    // stats: window replay at the engine's window settings.
    const perfbench::WindowReplay win = perfbench::windowReplay(
        view, config.stats_window, config.window_max_samples);
    std::fprintf(stderr, "perfbench: window add: %s; query: %s\n",
                 win.add_ns.describe("ns").c_str(),
                 win.query_ns.describe("ns").c_str());
    out.push_back({"stats.window_add_ns", win.add_ns.p50, "ns"});
    out.push_back({"stats.window_query_ns", win.query_ns.p50, "ns"});
    out.push_back({"stats.window_peak_len",
                   static_cast<double>(win.peak_len), "count"});

    // policies: the decorated replay of the traced pass.
    const perfbench::PolicyCounters &pc = traced.policy;
    const double run_ns = traced.replay_s * 1e9;
    const double policy_ns = corrected(pc.ns(), pc.calls());
    out.push_back({"policies.scaling_calls",
                   static_cast<double>(pc.scaling_calls), "count"});
    out.push_back({"policies.scaling_ns",
                   perCall(pc.scaling_ns, pc.scaling_calls), "ns"});
    out.push_back({"policies.reclaim_calls",
                   static_cast<double>(pc.reclaim_calls), "count"});
    out.push_back({"policies.reclaim_ns",
                   perCall(pc.reclaim_ns, pc.reclaim_calls), "ns"});
    out.push_back({"policies.reclaim_p99_ns",
                   static_cast<double>(pc.reclaim_call_ns.percentile(0.99)),
                   "ns"});
    out.push_back({"policies.victims_per_reclaim",
                   pc.reclaim_calls == 0
                       ? 0.0
                       : static_cast<double>(pc.reclaim_victims) /
                           static_cast<double>(pc.reclaim_calls),
                   "count"});
    out.push_back({"policies.reclaim_short_pct",
                   pc.reclaim_calls == 0
                       ? 0.0
                       : 100.0 * static_cast<double>(pc.reclaim_short) /
                           static_cast<double>(pc.reclaim_calls),
                   "%"});
    out.push_back({"policies.expire_ns_per_tick",
                   perCall(pc.expire_ns, pc.expire_calls), "ns"});
    out.push_back({"policies.expired_per_tick",
                   pc.expire_calls == 0
                       ? 0.0
                       : static_cast<double>(pc.expired) /
                           static_cast<double>(pc.expire_calls),
                   "count"});
    out.push_back({"policies.hook_calls", static_cast<double>(pc.hook_calls),
                   "count"});
    out.push_back({"policies.hook_ns", perCall(pc.hook_ns, pc.hook_calls),
                   "ns"});
    // Across cells on several threads the policy time is CPU time summed
    // over threads; share_pct divides it by replay wall × threads.
    const double threads = static_cast<double>(
        std::min(shape.shard_threads, shape.cells));
    out.push_back({"policies.share_pct",
                   100.0 * policy_ns / (run_ns * threads), "%"});

    // core: the traced replay's wall time and counters.
    const core::RunMetrics &m = traced.replay_metrics;
    const double events = static_cast<double>(traced.events);
    out.push_back({"core.ns_per_event", run_ns * threads / events, "ns"});
    out.push_back({"core.self_ns_per_event",
                   (run_ns * threads - policy_ns) / events, "ns"});
    out.push_back({"core.containers_created",
                   static_cast<double>(m.containers_created), "count"});
    out.push_back(
        {"core.evictions", static_cast<double>(m.evictions), "count"});
    out.push_back({"core.deferred_provisions",
                   static_cast<double>(m.deferred_provisions), "count"});
    out.push_back({"core.cancelled_provisions",
                   static_cast<double>(m.cancelled_provisions), "count"});
    out.push_back({"core.wasted_cold_pct",
                   m.containers_created == 0
                       ? 0.0
                       : 100.0 * static_cast<double>(m.wasted_cold_starts) /
                           static_cast<double>(m.containers_created),
                   "%"});

    // live: the traced pass's live phases (catch-up timed).
    const perfbench::LivePhaseResult &up = traced.unpaced;
    const perfbench::LivePhaseResult &pa = traced.paced;
    const auto admitted = static_cast<double>(up.stats.admitted);
    std::vector<double> admit = pa.admit_ns;
    std::vector<double> sojourn = pa.sojourn_ns;
    std::vector<double> late = pa.late_ns;
    out.push_back({"live.admit_p999_us",
                   Distribution::quantile(admit, 0.999) / 1e3, "us"});
    out.push_back({"live.admit_mean_us",
                   static_cast<double>(pa.admit_total_ns) /
                       static_cast<double>(pa.admit_ns.size()) / 1e3,
                   "us"});
    out.push_back({"live.catchup_ns_per_admit",
                   static_cast<double>(up.catchup_ns) / admitted, "ns"});
    out.push_back(
        {"live.loop_ns_per_admit",
         (up.stats.wall_seconds * 1e9 -
          static_cast<double>(up.admit_total_ns + up.catchup_ns)) /
             admitted,
         "ns"});
    out.push_back({"live.sojourn_p99_us",
                   Distribution::quantile(sojourn, 0.99) / 1e3, "us"});
    out.push_back(
        {"live.generator_late_p99_us",
         Distribution::quantile(late, 0.99) / 1e3, "us"});
    out.push_back({"live.backpressure_per_req",
                   static_cast<double>(pa.backpressure) /
                       static_cast<double>(pa.admit_ns.size()),
                   "count"});
    out.push_back({"live.max_backlog", static_cast<double>(pa.max_backlog),
                   "count"});
    out.push_back({"live.reordered",
                   static_cast<double>(up.stats.reordered +
                                       pa.stats.reordered),
                   "count"});

    out.push_back({"bench.tracing_overhead_pct",
                   100.0 * (traced_wall - untraced_wall) / untraced_wall,
                   "%"});
    return out;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string scratch;
    std::string spans_out;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + key);
        const std::string value = argv[++i];
        if (key == "--workload")
            a.workload = value;
        else if (key == "--seed")
            a.seed = std::stoull(value);
        else if (key == "--seconds")
            a.seconds = std::stod(value);
        else if (key == "--trace")
            a.trace = value == "1";
        else if (key == "--scratch")
            a.scratch = value;
        else if (key == "--spans-out")
            a.spans_out = value;
        else
            throw std::invalid_argument("unknown option " + key);
    }
    if (a.scratch.empty())
        throw std::invalid_argument("--scratch <dir> is required");
    return a;
}

int
run(const Args &args)
{
    const Shape *shape = nullptr;
    for (const Shape &s : kShapes)
        if (args.workload == s.name)
            shape = &s;
    if (shape == nullptr)
        throw std::invalid_argument("unknown workload " + args.workload);

    Context ctx{*shape, args.seed, args.scratch + "/" + shape->name + ".ctrb"};
    const std::vector<int> cpus = perfbench::allowedCpus();
    if (cpus.size() >= 2) {
        // CPU 0 takes most interrupts; keep it for everything else.
        ctx.main_cpu = cpus[cpus.size() >= 3 ? 1 : 0];
        ctx.helper_cpu = cpus[cpus.size() >= 3 ? 2 : 1];
    }

    const sim::ScopedAffinity pin(ctx.main_cpu);
    Checks checks;
    std::uint64_t attempted = 0;
    std::uint64_t completed = 0;
    const auto start = Clock::now();
    std::vector<PassResult> passes;
    // Untraced passes until the budget is spent (at least three).  In
    // traced mode the budget is shared with traced passes, alternating.
    SpanLog spans;
    std::vector<PassResult> traced;
    std::vector<double> untraced_wall;
    std::vector<double> traced_wall;
    const double budget = args.seconds;
    while (passes.size() < 3 ||
           secondsSince(start) < budget * (args.trace ? 0.5 : 1.0)) {
        passes.push_back(runPass(ctx));
        const PassResult &p = passes.back();
        attempted += p.requests;
        completed += checkPass(checks, p, passes.front(), *shape);
        untraced_wall.push_back(p.wall_s);
        if (args.trace) {
            Context tctx = ctx;
            tctx.spans = &spans;
            traced.push_back(runPass(tctx));
            const PassResult &t = traced.back();
            attempted += t.requests;
            completed += checkPass(checks, t, passes.front(), *shape);
            traced_wall.push_back(t.wall_s);
        }
    }
    std::remove(ctx.image_path.c_str());

    std::vector<Metric> metrics;
    if (args.trace) {
        metrics = perLayer(checks, ctx, traced.back(), median(untraced_wall),
                           median(traced_wall));
        if (!args.spans_out.empty()) {
            std::ofstream out(args.spans_out);
            spans.write(out);
        }
    } else {
        metrics = endToEnd(passes);
        describeSamples(passes);
    }
    printResult(checks, attempted, attempted - completed, metrics);
    return checks.ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
