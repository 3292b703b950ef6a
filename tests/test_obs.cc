/**
 * @file
 * Tests for the observability layer (src/obs/): ring-buffer overflow
 * semantics, byte-identical trace export across the sequential and
 * threaded engine drivers, the flight recorder's fire-once latch, and
 * the metrics and JSON primitives every BENCH file is built from.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>

#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/engine.h"

namespace
{

using namespace hfi;
using namespace hfi::serve;

// ---------------------------------------------------------------------
// TraceBuffer: bounded ring with drop-oldest overflow.
// ---------------------------------------------------------------------

TEST(TraceBuffer, DropsOldestAndCountsDrops)
{
    obs::TraceBuffer buf;
    buf.init(0, 8, obs::kCatAll);
    ASSERT_EQ(buf.capacity(), 8u);

    for (int i = 0; i < 12; ++i)
        buf.record(obs::EventType::QueuePush, 1000.0 * i,
                   static_cast<std::uint64_t>(i));

    EXPECT_EQ(buf.size(), 8u);
    EXPECT_EQ(buf.dropped(), 4u);
    // The four oldest events (ids 0..3) were evicted; the survivors are
    // 4..11 in emission order.
    for (std::size_t i = 0; i < buf.size(); ++i) {
        EXPECT_EQ(buf.at(i).a, i + 4);
        EXPECT_DOUBLE_EQ(buf.at(i).tsNs, 1000.0 * static_cast<double>(i + 4));
    }
}

TEST(TraceBuffer, ExactFillDropsNothing)
{
    obs::TraceBuffer buf;
    buf.init(0, 4, obs::kCatAll);
    for (int i = 0; i < 4; ++i)
        buf.record(obs::EventType::QueuePop, i, static_cast<std::uint64_t>(i));
    EXPECT_EQ(buf.size(), 4u);
    EXPECT_EQ(buf.dropped(), 0u);
    EXPECT_EQ(buf.at(0).a, 0u);
    EXPECT_EQ(buf.at(3).a, 3u);
}

TEST(TraceBuffer, CapacityRoundsUpToPowerOfTwo)
{
    obs::TraceBuffer buf;
    buf.init(0, 5, obs::kCatAll);
    EXPECT_EQ(buf.capacity(), 8u);
}

TEST(TraceBuffer, ZeroCapacityRecordsNothing)
{
    obs::TraceBuffer buf;
    buf.init(0, 0, obs::kCatAll);
    buf.record(obs::EventType::QueuePush, 1.0);
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.dropped(), 0u);
}

TEST(TraceBuffer, MaskedCategoriesAreDroppedFree)
{
    obs::TraceBuffer buf;
    buf.init(0, 8, obs::kCatQueue);
    buf.record(obs::EventType::QueuePush, 1.0);    // recorded
    buf.record(obs::EventType::RegionSet, 2.0);    // masked out
    buf.record(obs::EventType::ContextSwitch, 3.0); // masked out
    EXPECT_EQ(buf.size(), 1u);
    EXPECT_EQ(buf.dropped(), 0u);
    EXPECT_EQ(buf.at(0).type, obs::EventType::QueuePush);
}

TEST(TraceBuffer, DefaultCategoriesExcludeVerboseHfiTransitions)
{
    obs::TraceBuffer buf;
    buf.init(0, 8, obs::kCatDefault);
    buf.record(obs::EventType::HfiEnter, 1.0);    // verbose: masked
    buf.record(obs::EventType::HfiExit, 2.0);     // verbose: masked
    buf.record(obs::EventType::KernelXrstor, 3.0); // required: recorded
    buf.record(obs::EventType::HfiFault, 4.0);     // required: recorded
    ASSERT_EQ(buf.size(), 2u);
    EXPECT_EQ(buf.at(0).type, obs::EventType::KernelXrstor);
    EXPECT_EQ(buf.at(1).type, obs::EventType::HfiFault);
}

// ---------------------------------------------------------------------
// Trace determinism across engine drivers. These drive the serving
// engine's record sites, which HFI_OBS=OFF compiles away — the
// ring/flight-latch unit tests above and ManualDumpLatches below are
// the coverage that survives in that configuration.
// ---------------------------------------------------------------------

#if HFI_OBS_ENABLED

Handler
testHandler()
{
    return [](sfi::Sandbox &s, std::uint32_t seed) {
        for (int i = 0; i < 16; ++i)
            s.store<std::uint32_t>(64 + (i % 16) * 4, seed + i);
        s.chargeOps(30'000);
    };
}

/** The same provably-decomposable shape test_serve_threads pins. */
EngineConfig
threadableConfig(unsigned workers)
{
    EngineConfig ec;
    ec.workers = workers;
    ec.mode = LoadMode::OpenLoop;
    ec.requests = 300;
    ec.meanInterarrivalNs = 4'000.0;
    ec.seed = 77;
    ec.workStealing = false;
    ec.sharding = Sharding::RoundRobin;
    ec.worker.scheme = Scheme::HfiNative;
    ec.worker.quantumNs = 50'000.0;
    return ec;
}

obs::TraceConfig
fullTraceConfig()
{
    obs::TraceConfig tc;
    tc.capacityPerCore = 4096;    // hold the whole run, no drops
    tc.categories = obs::kCatAll; // include the verbose hfi transitions
    return tc;
}

std::string
traceJsonFor(EngineConfig cfg, bool real_threads)
{
    obs::Trace trace(cfg.workers, fullTraceConfig());
    cfg.trace = &trace;
    cfg.realThreads = real_threads;
    const auto res = ServeEngine(cfg, testHandler()).run();
    EXPECT_EQ(res.usedThreads, real_threads ? cfg.workers : 1u);
    std::size_t events = 0;
    for (unsigned c = 0; c < trace.cores(); ++c) {
        events += trace.buffer(c).size();
        EXPECT_EQ(trace.buffer(c).dropped(), 0u) << "core " << c;
    }
    EXPECT_GT(events, cfg.requests); // at least one event per request
    return trace.chromeTraceJson();
}

TEST(TraceDeterminism, SequentialAndThreadedExportsAreByteIdentical)
{
    const auto cfg = threadableConfig(4);
    const std::string sequential = traceJsonFor(cfg, false);
    const std::string threaded = traceJsonFor(cfg, true);
    ASSERT_EQ(sequential.size(), threaded.size());
    ASSERT_EQ(sequential, threaded);
    // Spot-check the export carries labeled, categorized events.
    EXPECT_NE(sequential.find("\"schema_version\""), std::string::npos);
    EXPECT_NE(sequential.find("\"name\": \"request\""), std::string::npos);
    EXPECT_NE(sequential.find("\"cat\": \"sched\""), std::string::npos);
    EXPECT_NE(sequential.find("\"label\": \"none\""), std::string::npos);
    EXPECT_NE(sequential.find("\"name\": \"hfi-enter\""), std::string::npos);
}

TEST(TraceDeterminism, RepeatedRunsExportIdenticalJson)
{
    const auto cfg = threadableConfig(3);
    EXPECT_EQ(traceJsonFor(cfg, false), traceJsonFor(cfg, false));
}

// ---------------------------------------------------------------------
// Flight recorder: latched post-mortem dump on watchdog timeout.
// ---------------------------------------------------------------------

/** A campaign guaranteed to stall past the request timeout. */
EngineConfig
timeoutConfig()
{
    auto cfg = threadableConfig(4);
    cfg.requests = 600;
    cfg.worker.poolSize = 2;
    cfg.worker.respawnDelayNs = 50'000.0;
    cfg.worker.requestTimeoutNs = 150'000.0;
    cfg.worker.maxRetries = 2;
    cfg.worker.retryBackoffNs = 10'000.0;
    cfg.worker.faults.rate = 0.1;
    cfg.worker.faults.stallNs = 400'000.0;
    return cfg;
}

TEST(FlightRecorder, FiresExactlyOnceOnWatchdogTimeout)
{
    obs::TraceConfig tc;
    tc.flightLastN = 16;
    obs::Trace trace(4, tc);
    auto cfg = timeoutConfig();
    cfg.trace = &trace;

    const auto res = ServeEngine(cfg, testHandler()).run();
    ASSERT_GT(res.robustness.timeouts, 0u);

    // Every timeout triggers the recorder; only the first dump fires.
    EXPECT_TRUE(trace.flightFired());
    EXPECT_EQ(trace.flightTriggers(), res.robustness.timeouts);
    EXPECT_FALSE(trace.flightDump("again"));

    const std::string &report = trace.flightReport();
    EXPECT_NE(report.find("watchdog-timeout"), std::string::npos);
    EXPECT_NE(report.find("sandbox-enter"), std::string::npos);
    // The dump captured the faulting request's envelope: its
    // fault-injector decision is labeled with the injected kind.
    EXPECT_NE(report.find("fault-inject"), std::string::npos);
    EXPECT_NE(report.find("stall"), std::string::npos);
}

TEST(FlightRecorder, DisabledWatchdogHookNeverFires)
{
    obs::TraceConfig tc;
    tc.flightOnWatchdog = false;
    obs::Trace trace(4, tc);
    auto cfg = timeoutConfig();
    cfg.trace = &trace;

    const auto res = ServeEngine(cfg, testHandler()).run();
    ASSERT_GT(res.robustness.timeouts, 0u);
    EXPECT_FALSE(trace.flightFired());
    EXPECT_EQ(trace.flightTriggers(), 0u);
    EXPECT_TRUE(trace.flightReport().empty());
}

#endif // HFI_OBS_ENABLED

TEST(FlightRecorder, ManualDumpLatches)
{
    obs::Trace trace(1, {});
    trace.buffer(0).record(obs::EventType::QueuePush, 1.0, 42);
    EXPECT_TRUE(trace.flightDump("manual"));
    EXPECT_FALSE(trace.flightDump("manual"));
    EXPECT_EQ(trace.flightTriggers(), 2u);
    EXPECT_NE(trace.flightReport().find("queue-push"), std::string::npos);
    EXPECT_NE(trace.flightReport().find("a=42"), std::string::npos);
}

// ---------------------------------------------------------------------
// Metrics primitives: histogram bucket edges and merge order.
// ---------------------------------------------------------------------

TEST(Histogram, BucketEdges)
{
    using obs::Histogram;
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(1ULL << 63), 64u);
    EXPECT_EQ(Histogram::bucketOf((1ULL << 63) - 1), 63u);
    EXPECT_EQ(Histogram::bucketOf(kMax), 64u);
    EXPECT_LT(Histogram::bucketOf(kMax), Histogram::kBuckets);

    EXPECT_EQ(Histogram::bucketBound(0), 0u);
    EXPECT_EQ(Histogram::bucketBound(1), 1u);
    EXPECT_EQ(Histogram::bucketBound(63), (1ULL << 63) - 1);
    EXPECT_EQ(Histogram::bucketBound(64), kMax);

    // Each bound is the largest value of its own bucket.
    for (unsigned i = 0; i < Histogram::kBuckets; ++i) {
        EXPECT_EQ(Histogram::bucketOf(Histogram::bucketBound(i)), i);
        if (i < 64) {
            EXPECT_EQ(Histogram::bucketOf(Histogram::bucketBound(i) + 1),
                      i + 1);
        }
    }

    Histogram h;
    h.observe(0);
    h.observe(kMax);
    EXPECT_EQ(h.buckets[0], 1u);
    EXPECT_EQ(h.buckets[64], 1u);
    EXPECT_EQ(h.min, 0u);
    EXPECT_EQ(h.max, kMax);
}

TEST(MetricsRegistry, MergeIsOrderIndependent)
{
    std::array<obs::MetricsRegistry, 3> parts;
    for (unsigned i = 0; i < parts.size(); ++i) {
        obs::MetricsRegistry &r = parts[i];
        r.counterAdd("requests", 10 * (i + 1));
        if (i != 1)
            r.counterAdd("only.some", i + 7);
        r.gaugeSet("depth.max", 5 + 3 * i, obs::GaugeMode::Max);
        r.gaugeSet("depth.max", 2, obs::GaugeMode::Max);
        r.gaugeSet("free.min", 40 - 9 * i, obs::GaugeMode::Min);
        r.gaugeSet("bytes.sum", 100 + i, obs::GaugeMode::Sum);
        for (std::uint64_t v = 0; v < 5 + i; ++v)
            r.histogram("lat").observe(v * v * (i + 1));
        if (i == 2)
            r.histogram("rare").observe(1ULL << 40);
    }

    std::array<unsigned, 3> order = {0, 1, 2};
    std::string first;
    do {
        obs::MetricsRegistry merged;
        for (unsigned i : order)
            merged.merge(parts[i]);
        const std::string json = merged.json();
        if (first.empty()) {
            first = json;
            EXPECT_EQ(merged.counter("requests"), 60u);
            EXPECT_EQ(merged.counter("only.some"), 7u + 9u);
            EXPECT_EQ(merged.gauge("depth.max"), 11u);
            EXPECT_EQ(merged.gauge("free.min"), 22u);
            EXPECT_EQ(merged.gauge("bytes.sum"), 303u);
            ASSERT_NE(merged.findHistogram("lat"), nullptr);
            EXPECT_EQ(merged.findHistogram("lat")->count, 5u + 6u + 7u);
        } else {
            EXPECT_EQ(json, first);
        }
    } while (std::next_permutation(order.begin(), order.end()));

    // Associativity: (a+b)+c == a+(b+c).
    obs::MetricsRegistry bc;
    bc.merge(parts[1]);
    bc.merge(parts[2]);
    obs::MetricsRegistry a_bc;
    a_bc.merge(parts[0]);
    a_bc.merge(bc);
    EXPECT_EQ(a_bc.json(), first);
}

// ---------------------------------------------------------------------
// JsonWriter: escaping and number formatting.
// ---------------------------------------------------------------------

TEST(JsonWriter, EscapesStringsAndKeys)
{
    obs::JsonWriter w(0);
    w.beginObject();
    w.field("quote\"back\\slash", "a\"b\\c");
    w.field("ws", "line\nfeed\ttab\rret");
    w.field("ctl", std::string("x\x01y\x1fz"));
    w.field("utf8", "caf\xc3\xa9");
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"quote\\\"back\\\\slash\":\"a\\\"b\\\\c\","
              "\"ws\":\"line\\nfeed\\ttab\\rret\","
              "\"ctl\":\"x\\u0001y\\u001fz\","
              "\"utf8\":\"caf\xc3\xa9\"}");
}

TEST(JsonWriter, NumbersAndNonFiniteDoubles)
{
    obs::JsonWriter w(0);
    w.beginArray();
    w.value(std::numeric_limits<std::uint64_t>::max());
    w.value(std::numeric_limits<std::int64_t>::min());
    w.value(1.5, "%.2f");
    w.value(std::numeric_limits<double>::quiet_NaN());
    w.value(std::numeric_limits<double>::infinity());
    w.value(-std::numeric_limits<double>::infinity(), "%.1f");
    w.value(true);
    w.endArray();
    EXPECT_EQ(w.str(), "[18446744073709551615,-9223372036854775808,"
                       "1.50,null,null,null,true]");
}

} // namespace
