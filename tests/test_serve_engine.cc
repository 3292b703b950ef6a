/**
 * @file
 * Tests for the multi-core serving engine: seeded-run reproducibility,
 * worker-count-independent latency multisets, admission control and
 * shedding, work stealing, the preemption path that round-trips HFI
 * state through the §3.3.3 save-hfi-regs context switch mid-sandbox,
 * config validation, the event loop's step selection against its
 * per-core oracle, and a golden grid of pinned engine outputs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "obs/trace.h"
#include "serve/engine.h"
#include "serve/load_gen.h"
#include "serve/shard_queue.h"
#include "sfi/runtime.h"

namespace
{

using namespace hfi;
using namespace hfi::serve;

/** A small real handler: stores plus metered compute, pure in seed. */
Handler
smallHandler()
{
    return [](sfi::Sandbox &s, std::uint32_t seed) {
        for (int i = 0; i < 16; ++i)
            s.store<std::uint32_t>(64 + (i % 16) * 4, seed + i);
        s.chargeOps(2'000);
    };
}

/** A longer handler, several quanta worth of compute. */
Handler
longHandler()
{
    return [](sfi::Sandbox &s, std::uint32_t seed) {
        for (int i = 0; i < 64; ++i)
            s.store<std::uint32_t>(64 + (i % 16) * 4, seed + i);
        s.chargeOps(100'000);
    };
}

EngineConfig
sparseConfig(unsigned workers)
{
    EngineConfig ec;
    ec.workers = workers;
    ec.mode = LoadMode::OpenLoop;
    ec.requests = 48;
    // Sparse: mean interarrival orders of magnitude above service, so
    // requests never contend for a core even in the 1-worker run.
    ec.meanInterarrivalNs = 5'000'000.0;
    ec.seed = 42;
    ec.worker.teardownBatch = 8;
    return ec;
}

std::vector<double>
sortedLatencies(const ServeResult &res)
{
    auto v = res.latencies.values();
    std::sort(v.begin(), v.end());
    return v;
}

// ----------------------------------------------------------- load gen

TEST(LoadGen, SplitmixIsDeterministic)
{
    std::uint64_t a = 7, b = 7;
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(splitmix64(a), splitmix64(b));
    std::uint64_t c = 8;
    EXPECT_NE(splitmix64(a), splitmix64(c));
}

TEST(LoadGen, PoissonArrivalsReproducibleAndOrdered)
{
    OpenLoopPoissonSource s1(1000, 10'000.0, 99);
    OpenLoopPoissonSource s2(1000, 10'000.0, 99);
    ASSERT_EQ(s1.arrivals().size(), 1000u);
    double prev = -1;
    for (std::size_t i = 0; i < 1000; ++i) {
        const auto &a = s1.arrivals()[i];
        const auto &b = s2.arrivals()[i];
        EXPECT_EQ(a.arrivalNs, b.arrivalNs);
        EXPECT_EQ(a.seed, b.seed);
        EXPECT_GE(a.arrivalNs, prev); // non-decreasing
        prev = a.arrivalNs;
    }
}

TEST(LoadGen, PoissonMeanNearConfigured)
{
    OpenLoopPoissonSource src(20'000, 10'000.0, 3);
    const double span = src.arrivals().back().arrivalNs;
    const double mean = span / (20'000 - 1);
    EXPECT_NEAR(mean, 10'000.0, 500.0); // ~sigma/sqrt(n) tolerance
}

TEST(LoadGen, DifferentSeedsDifferentArrivals)
{
    OpenLoopPoissonSource a(10, 10'000.0, 1);
    OpenLoopPoissonSource b(10, 10'000.0, 2);
    EXPECT_NE(a.arrivals()[1].arrivalNs, b.arrivals()[1].arrivalNs);
}

TEST(LoadGen, ClosedLoopKeepsPopulationBounded)
{
    ClosedLoopSource src(3, 10, 0.0);
    // Only the population can be outstanding at once.
    auto r0 = src.next(), r1 = src.next(), r2 = src.next();
    ASSERT_TRUE(r0 && r1 && r2);
    EXPECT_FALSE(src.next().has_value()); // all clients busy
    src.onComplete(*r1, 500.0);
    const auto r3 = src.next();
    ASSERT_TRUE(r3.has_value());
    EXPECT_EQ(r3->client, r1->client);
    EXPECT_EQ(r3->arrivalNs, 500.0);
}

// -------------------------------------------------------- shard queue

TEST(ShardedQueues, BoundedShardSheds)
{
    ShardedQueues q(1, 2);
    Request r;
    EXPECT_TRUE(q.offer(0, r));
    EXPECT_TRUE(q.offer(0, r));
    EXPECT_FALSE(q.offer(0, r));
    EXPECT_EQ(q.shedCount(), 1u);
    EXPECT_EQ(q.maxDepth(), 2u);
}

TEST(ShardedQueues, StealsFromDeepestShard)
{
    ShardedQueues q(3, 0);
    Request r;
    q.offer(1, r);
    q.offer(2, r);
    q.offer(2, r);
    EXPECT_EQ(q.pickFor(0, true), 2);  // deepest
    EXPECT_EQ(q.pickFor(0, false), -1); // no stealing
    EXPECT_EQ(q.pickFor(1, true), 1);  // own shard first
}

// ------------------------------------------------------------- engine

TEST(ServeEngine, SameSeedBitIdentical)
{
    auto cfg = sparseConfig(4);
    cfg.meanInterarrivalNs = 20'000.0; // dense enough to queue
    const auto a = ServeEngine(cfg, smallHandler()).run();
    const auto b = ServeEngine(cfg, smallHandler()).run();
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.durationNs, b.durationNs);
    EXPECT_EQ(a.contextSwitches, b.contextSwitches);
    EXPECT_EQ(a.latencies.values(), b.latencies.values());
}

TEST(ServeEngine, LatencyMultisetIndependentOfWorkerCount)
{
    // With sparse arrivals no request ever waits for a core, so the
    // per-request latency multiset must be *identical* for any worker
    // count — the determinism contract from ISSUE.md.
    const auto one = ServeEngine(sparseConfig(1), smallHandler()).run();
    const auto two = ServeEngine(sparseConfig(2), smallHandler()).run();
    const auto eight = ServeEngine(sparseConfig(8), smallHandler()).run();
    ASSERT_EQ(one.served, 48u);
    ASSERT_EQ(two.served, 48u);
    ASSERT_EQ(eight.served, 48u);
    EXPECT_EQ(sortedLatencies(one), sortedLatencies(two));
    EXPECT_EQ(sortedLatencies(one), sortedLatencies(eight));
}

TEST(ServeEngine, PercentilesAreOrdered)
{
    auto cfg = sparseConfig(2);
    cfg.meanInterarrivalNs = 10'000.0;
    cfg.requests = 200;
    const auto res = ServeEngine(cfg, smallHandler()).run();
    EXPECT_GT(res.latency.p50, 0.0);
    EXPECT_LE(res.latency.p50, res.latency.p95);
    EXPECT_LE(res.latency.p95, res.latency.p99);
    EXPECT_LE(res.latency.p99, res.latency.p999);
    EXPECT_EQ(res.latencies.count(), res.served);
}

TEST(ServeEngine, ShedsUnderOverloadWithBoundedQueues)
{
    EngineConfig ec;
    ec.workers = 2;
    ec.mode = LoadMode::OpenLoop;
    ec.requests = 300;
    ec.meanInterarrivalNs = 500.0; // far beyond capacity
    ec.queueCapacity = 4;
    ec.seed = 7;
    const auto res = ServeEngine(ec, longHandler()).run();
    EXPECT_GT(res.shed, 0u);
    EXPECT_EQ(res.served + res.shed + res.rejected, 300u);
    // Shed requests must not contribute latency samples.
    EXPECT_EQ(res.latencies.count(), res.served);
    // The bound holds.
    EXPECT_LE(res.maxQueueDepth, 4u);
}

TEST(ServeEngine, UnboundedQueueNeverSheds)
{
    EngineConfig ec;
    ec.workers = 1;
    ec.mode = LoadMode::OpenLoop;
    ec.requests = 100;
    ec.meanInterarrivalNs = 500.0;
    ec.queueCapacity = 0;
    const auto res = ServeEngine(ec, smallHandler()).run();
    EXPECT_EQ(res.shed, 0u);
    EXPECT_EQ(res.served, 100u);
}

TEST(ServeEngine, WorkStealingDrainsASingleHotShard)
{
    EngineConfig ec;
    ec.workers = 2;
    ec.mode = LoadMode::OpenLoop;
    ec.requests = 120;
    ec.meanInterarrivalNs = 2'000.0;
    ec.sharding = Sharding::SingleShard; // everything lands on shard 0
    ec.workStealing = true;
    const auto res = ServeEngine(ec, smallHandler()).run();
    EXPECT_EQ(res.served, 120u);
    EXPECT_GT(res.stolen, 0u);

    // Stealing turns the second core from dead weight into throughput.
    auto solo = ec;
    solo.workers = 1;
    const auto one = ServeEngine(solo, smallHandler()).run();
    EXPECT_GT(res.throughputRps, one.throughputRps);
}

TEST(ServeEngine, ClosedLoopModeServesAllRequests)
{
    EngineConfig ec;
    ec.workers = 2;
    ec.mode = LoadMode::ClosedLoop;
    ec.clients = 8;
    ec.requests = 64;
    const auto res = ServeEngine(ec, smallHandler()).run();
    EXPECT_EQ(res.served, 64u);
    EXPECT_GT(res.meanLatencyNs, 0.0);
}

// --------------------------------------------- preemption / HFI state

TEST(ServeEngine, PreemptionRoundTripsHfiStateMidSandbox)
{
    EngineConfig ec;
    ec.workers = 2;
    ec.mode = LoadMode::OpenLoop;
    ec.requests = 40;
    ec.meanInterarrivalNs = 50'000.0;
    ec.worker.scheme = Scheme::HfiNative;
    ec.worker.quantumNs = 5'000.0; // several quanta per request
    const auto res = ServeEngine(ec, longHandler()).run();
    EXPECT_EQ(res.served, 40u);
    EXPECT_GT(res.preemptions, 0u);
    // §3.3.3: the native sandbox's live register file survives every
    // save/restore round trip.
    EXPECT_EQ(res.hfiStateMismatches, 0u);
    // Dispatch alone costs 2 switches per request; preemptions add 2
    // more each.
    EXPECT_GE(res.contextSwitches,
              2 * res.served + 2 * res.preemptions);
}

TEST(ServeEngine, SwitchOnExitSurvivesPreemption)
{
    EngineConfig ec;
    ec.workers = 1;
    ec.mode = LoadMode::OpenLoop;
    ec.requests = 20;
    ec.meanInterarrivalNs = 50'000.0;
    ec.worker.scheme = Scheme::HfiSwitchOnExit;
    ec.worker.quantumNs = 5'000.0;
    const auto res = ServeEngine(ec, longHandler()).run();
    EXPECT_EQ(res.served, 20u);
    EXPECT_GT(res.preemptions, 0u);
    EXPECT_EQ(res.hfiStateMismatches, 0u);
}

TEST(ServeEngine, QuantumZeroNeverPreempts)
{
    auto cfg = sparseConfig(1);
    cfg.worker.scheme = Scheme::HfiNative;
    cfg.worker.quantumNs = 0;
    const auto res = ServeEngine(cfg, longHandler()).run();
    EXPECT_EQ(res.preemptions, 0u);
    // Dispatch still goes through the scheduler: 2 per request.
    EXPECT_EQ(res.contextSwitches, 2 * res.served);
}

TEST(ServeEngine, PreemptionCostShowsUpInLatency)
{
    auto base = sparseConfig(1);
    base.requests = 24;
    base.worker.scheme = Scheme::HfiNative;
    const auto unpreempted = ServeEngine(base, longHandler()).run();
    auto preempted_cfg = base;
    preempted_cfg.worker.quantumNs = 5'000.0;
    const auto preempted = ServeEngine(preempted_cfg, longHandler()).run();
    // Context-switch + xsave/xrstor costs are charged, so the preempted
    // configuration is strictly slower.
    EXPECT_GT(preempted.meanLatencyNs, unpreempted.meanLatencyNs);
}

// --------------------------------------------------- pools / teardown

TEST(ServeEngine, FreshInstancePerRequestWithBatchedTeardown)
{
    auto cfg = sparseConfig(1);
    cfg.requests = 48;
    cfg.worker.teardownBatch = 16;
    const auto res = ServeEngine(cfg, smallHandler()).run();
    EXPECT_EQ(res.instancesCreated, 48u);
    EXPECT_EQ(res.reclaimBatches, 3u); // 48 / 16
    EXPECT_EQ(res.rejected, 0u);
}

// ---------------------------------------------------------------------
// ShardedQueues edge cases and counter properties.

TEST(ShardedQueues, StealTieGoesToLowestIndex)
{
    // Shards 1 and 2 equally deep: worker 0 must steal from shard 1
    // (strict > comparison, first-seen wins).
    ShardedQueues q(3, 0);
    Request r;
    q.offer(1, r);
    q.offer(1, r);
    q.offer(2, r);
    q.offer(2, r);
    EXPECT_EQ(q.pickFor(0, true), 1);
    // Depth 2 beats depth 1 regardless of index order.
    q.offer(2, r);
    EXPECT_EQ(q.pickFor(0, true), 2);
}

TEST(ShardedQueues, StealSkipsOwnEmptyShardAndHonorsFlag)
{
    ShardedQueues q(2, 0);
    Request r;
    q.offer(1, r);
    EXPECT_EQ(q.pickFor(0, false), -1); // stealing off: stay dry
    EXPECT_EQ(q.pickFor(0, true), 1);
    EXPECT_EQ(q.pickFor(1, false), 1); // own shard needs no stealing
}

TEST(ShardedQueues, CapacityZeroNeverSheds)
{
    ShardedQueues q(2, 0);
    Request r;
    for (int i = 0; i < 10'000; ++i)
        EXPECT_TRUE(q.offer(static_cast<unsigned>(i % 2), r));
    EXPECT_EQ(q.shedCount(), 0u);
    EXPECT_EQ(q.maxDepth(), 5'000u);
}

TEST(ShardedQueues, CountersMatchReferenceModelAcrossInterleavings)
{
    // Drive offer/take/steal interleavings from a seeded stream and
    // check shed (global and per shard) plus maxDepth against a plain
    // reference model.
    constexpr unsigned kShards = 3;
    constexpr std::size_t kCap = 4;
    ShardedQueues q(kShards, kCap);
    std::vector<std::size_t> refDepth(kShards, 0);
    std::vector<std::size_t> refShed(kShards, 0);
    std::size_t refMax = 0;

    std::uint64_t state = 0xfeedULL;
    for (int step = 0; step < 2'000; ++step) {
        const std::uint64_t roll = splitmix64(state);
        const auto shard = static_cast<unsigned>(roll % kShards);
        if ((roll >> 8) % 3 != 0) { // two thirds arrivals
            Request r;
            r.id = static_cast<std::uint64_t>(step);
            const bool admitted = q.offer(shard, r);
            if (refDepth[shard] >= kCap) {
                EXPECT_FALSE(admitted);
                ++refShed[shard];
            } else {
                EXPECT_TRUE(admitted);
                ++refDepth[shard];
                refMax = std::max(refMax, refDepth[shard]);
            }
        } else { // one third serves, stealing when dry
            const int pick = q.pickFor(shard, true);
            int refPick = -1;
            if (refDepth[shard] > 0) {
                refPick = static_cast<int>(shard);
            } else {
                std::size_t best = 0;
                for (unsigned s = 0; s < kShards; ++s)
                    if (s != shard && refDepth[s] > best) {
                        best = refDepth[s];
                        refPick = static_cast<int>(s);
                    }
            }
            ASSERT_EQ(pick, refPick);
            if (pick >= 0) {
                q.take(static_cast<unsigned>(pick));
                --refDepth[static_cast<unsigned>(pick)];
            }
        }
    }

    std::size_t refShedTotal = 0;
    for (unsigned s = 0; s < kShards; ++s) {
        EXPECT_EQ(q.shedCount(s), refShed[s]) << "shard " << s;
        EXPECT_EQ(q.size(s), refDepth[s]) << "shard " << s;
        refShedTotal += refShed[s];
    }
    EXPECT_EQ(q.shedCount(), refShedTotal);
    EXPECT_EQ(q.maxDepth(), refMax);
    EXPECT_GT(refShedTotal, 0u); // the stream actually exercised shedding
}

TEST(ShardedQueues, TakePreservesFifoOrderEvenWhenStolen)
{
    ShardedQueues q(2, 0);
    for (std::uint64_t i = 0; i < 4; ++i) {
        Request r;
        r.id = i;
        q.offer(0, r);
    }
    // Worker 1 steals: it must receive the *oldest* request (FIFO
    // stealing is kind to tail latency).
    const int pick = q.pickFor(1, true);
    ASSERT_EQ(pick, 0);
    EXPECT_EQ(q.take(0).id, 0u);
    EXPECT_EQ(q.take(0).id, 1u);
    EXPECT_EQ(q.take(0).id, 2u);
}

// ---------------------------------------------------------------------
// Invalid configurations are rejected up front.

TEST(ServeEngine, RejectsZeroWorkers)
{
    EngineConfig ec;
    ec.workers = 0;
    ec.requests = 10;
    EXPECT_THROW(ServeEngine(ec, smallHandler()), std::invalid_argument);
}

TEST(ServeEngine, RejectsTraceWithFewerCoresThanWorkers)
{
    obs::Trace trace(2);
    EngineConfig ec;
    ec.workers = 4;
    ec.requests = 10;
    ec.trace = &trace;
    EXPECT_THROW(ServeEngine(ec, smallHandler()), std::invalid_argument);
    ec.workers = 2;
    EXPECT_EQ(ServeEngine(ec, smallHandler()).run().served, 10u);
}

TEST(ServeEngine, RunResidentRejectsInvalidConfigs)
{
    vm::VirtualClock clock;
    vm::Mmu mmu{clock};
    core::HfiContext ctx{clock};
    sfi::Runtime runtime(mmu, ctx, sfi::RuntimeConfig{});
    auto sandbox = runtime.createSandbox({4, 64});

    EngineConfig ec;
    ec.requests = 10;
    ec.workers = 0;
    EXPECT_THROW(ServeEngine::runResident(ec, ctx, *sandbox, smallHandler()),
                 std::invalid_argument);
    ec.workers = 1;
    obs::Trace none(0);
    ec.trace = &none;
    EXPECT_THROW(ServeEngine::runResident(ec, ctx, *sandbox, smallHandler()),
                 std::invalid_argument);
    obs::Trace one(1);
    ec.trace = &one;
    EXPECT_EQ(
        ServeEngine::runResident(ec, ctx, *sandbox, smallHandler()).served,
        10u);
}

// ---------------------------------------------------------------------
// The event loop's O(shards) step selection against the per-core
// pickFor loop it replaced.

TEST(ShardedQueues, PickStepMatchesPerCorePickForOracle)
{
    std::uint64_t state = 0x5eed5ULL;
    std::size_t steals = 0, idle = 0;
    for (int trial = 0; trial < 5'000; ++trial) {
        const auto shards = static_cast<unsigned>(1 + splitmix64(state) % 33);
        // Depths 0..maxDepth (maxDepth 0..4): with up to 33 shards most
        // depths tie, and maxDepth 0 leaves every shard empty.
        const auto maxDepth = static_cast<unsigned>(splitmix64(state) % 5);
        // Free times and arrivals drawn from six instants, so they tie
        // with each other and across the two.
        auto instant = [&state] {
            return 250.0 * static_cast<double>(splitmix64(state) % 6);
        };
        ShardedQueues q(shards, 0);
        std::vector<double> freeNs(shards);
        for (unsigned s = 0; s < shards; ++s) {
            const auto depth =
                static_cast<unsigned>(splitmix64(state) % (maxDepth + 1));
            for (unsigned k = 0; k < depth; ++k) {
                Request r;
                r.id = s * 8 + k;
                r.arrivalNs = instant();
                q.offer(s, r);
            }
            freeNs[s] = instant();
        }

        for (bool steal : {true, false}) {
            int refWorker = -1;
            int refShard = -1;
            double refStart = 0;
            for (unsigned w = 0; w < shards; ++w) {
                const int shard = q.pickFor(w, steal);
                if (shard < 0)
                    continue;
                const double start = std::max(
                    freeNs[w], q.front(static_cast<unsigned>(shard)).arrivalNs);
                if (refWorker < 0 || start < refStart) {
                    refWorker = static_cast<int>(w);
                    refShard = shard;
                    refStart = start;
                }
            }
            const auto pick = q.pickStep(freeNs, steal);
            ASSERT_EQ(pick.worker, refWorker)
                << "trial " << trial << " shards " << shards << " steal "
                << steal;
            ASSERT_EQ(pick.shard, refShard) << "trial " << trial;
            if (refWorker >= 0) {
                ASSERT_EQ(pick.startNs, refStart) << "trial " << trial;
            }
            steals += refShard != refWorker && refWorker >= 0;
            idle += refWorker < 0;
        }
    }
    // The stream exercised both stealing and the nothing-queued case.
    EXPECT_GT(steals, 100u);
    EXPECT_GT(idle, 100u);
}

// ---------------------------------------------------------------------
// Engine golden grid: every configuration's counters, duration bits and
// latency multiset pinned, so any change to the event loop's schedule
// shows up here.

/** Mean service time of smallHandler per request, teardown included. */
constexpr double kSmallServiceNs = 28'000.0;

std::vector<EngineConfig>
goldenGrid()
{
    std::vector<EngineConfig> grid;
    for (unsigned workers : {1u, 2u, 3u, 16u, 33u})
        for (bool steal : {true, false})
            for (Sharding sharding :
                 {Sharding::RoundRobin, Sharding::SingleShard})
                for (std::size_t cap : {std::size_t{0}, std::size_t{4}})
                    for (double load : {0.7, 1.5}) { // under / over capacity
                        EngineConfig ec;
                        ec.workers = workers;
                        ec.mode = LoadMode::OpenLoop;
                        ec.requests = 2'000;
                        ec.meanInterarrivalNs =
                            kSmallServiceNs / (load * workers);
                        ec.seed = 2024;
                        ec.workStealing = steal;
                        ec.sharding = sharding;
                        ec.queueCapacity = cap;
                        grid.push_back(ec);
                    }
    for (unsigned workers : {1u, 2u, 3u, 16u, 33u})
        for (bool steal : {true, false})
            for (Sharding sharding :
                 {Sharding::RoundRobin, Sharding::SingleShard}) {
                EngineConfig ec;
                ec.workers = workers;
                ec.sharding = sharding;
                ec.mode = LoadMode::ClosedLoop;
                ec.clients = 2 * workers + 1;
                ec.requests = 2'000;
                ec.seed = 2024;
                ec.workStealing = steal;
                grid.push_back(ec);
            }
    return grid;
}

std::uint64_t
bitsOf(double d)
{
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    return bits;
}

/** FNV-1a over the bit patterns of the sorted latencies. */
std::uint64_t
latencyDigest(const ServeResult &res)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (double d : sortedLatencies(res)) {
        const std::uint64_t bits = bitsOf(d);
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

struct GoldenPin
{
    std::size_t served, shed, rejected, stolen, maxQueueDepth;
    std::uint64_t contextSwitches, durationBits, latencyDigest;
};

// goldenGrid() order; captured from the per-core pickFor event loop.
const GoldenPin kGoldenPins[] = {
    {2000, 0, 0, 0, 30, 4000, 0x41936a6d50a1ca88ULL, 0xababba726bec3ed7ULL},
    {2000, 0, 0, 0, 656, 4000, 0x418aaa6eac439339ULL, 0x0bf5ca0e6ea01306ULL},
    {1459, 541, 0, 0, 4, 2918, 0x41935a5bc226db04ULL, 0x31ca2fdf60491d37ULL},
    {1028, 972, 0, 0, 4, 2056, 0x41825dd56c61a970ULL, 0x21667630caeaf347ULL},
    {2000, 0, 0, 0, 30, 4000, 0x41936a6d50a1ca88ULL, 0xababba726bec3ed7ULL},
    {2000, 0, 0, 0, 656, 4000, 0x418aaa6eac439339ULL, 0x0bf5ca0e6ea01306ULL},
    {1459, 541, 0, 0, 4, 2918, 0x41935a5bc226db04ULL, 0x31ca2fdf60491d37ULL},
    {1028, 972, 0, 0, 4, 2056, 0x41825dd56c61a970ULL, 0x21667630caeaf347ULL},
    {2000, 0, 0, 0, 30, 4000, 0x41936a6d50a1ca88ULL, 0xababba726bec3ed7ULL},
    {2000, 0, 0, 0, 656, 4000, 0x418aaa6eac439339ULL, 0x0bf5ca0e6ea01306ULL},
    {1459, 541, 0, 0, 4, 2918, 0x41935a5bc226db04ULL, 0x31ca2fdf60491d37ULL},
    {1028, 972, 0, 0, 4, 2056, 0x41825dd56c61a970ULL, 0x21667630caeaf347ULL},
    {2000, 0, 0, 0, 30, 4000, 0x41936a6d50a1ca88ULL, 0xababba726bec3ed7ULL},
    {2000, 0, 0, 0, 656, 4000, 0x418aaa6eac439339ULL, 0x0bf5ca0e6ea01306ULL},
    {1459, 541, 0, 0, 4, 2918, 0x41935a5bc226db04ULL, 0x31ca2fdf60491d37ULL},
    {1028, 972, 0, 0, 4, 2056, 0x41825dd56c61a970ULL, 0x21667630caeaf347ULL},
    {2000, 0, 0, 942, 21, 4000, 0x41838bc31a543724ULL, 0xfe5dc5a177030b18ULL},
    {2000, 0, 0, 44, 334, 4000, 0x417aec8900919f49ULL, 0x98ad6ab085035383ULL},
    {1838, 162, 0, 910, 4, 3676, 0x418385165dde7410ULL, 0x942f7a60ce880487ULL},
    {1288, 712, 0, 574, 4, 2576, 0x4172932cbd532104ULL, 0x548f78ada4e6ffb7ULL},
    {2000, 0, 0, 976, 33, 4000, 0x41838bc31a543724ULL, 0x9e606455fffb8c2aULL},
    {2000, 0, 0, 992, 659, 4000, 0x417aec8900919f49ULL, 0xce6433a564f6da4bULL},
    {1738, 262, 0, 787, 4, 3476, 0x41835acf08746e69ULL, 0x3275bf27b1f1f074ULL},
    {1255, 745, 0, 615, 4, 2510, 0x41728a24d282dbfdULL, 0x794cd32f5f187fa7ULL},
    {2000, 0, 0, 0, 25, 4000, 0x418392f77f2d6d74ULL, 0x536731a14684a402ULL},
    {2000, 0, 0, 0, 334, 4000, 0x417afa13ebf297e6ULL, 0xff69168cd3ae9ac6ULL},
    {1459, 541, 0, 0, 4, 2918, 0x41835acf08746e68ULL, 0x8aa8fb55a143ca9bULL},
    {1025, 975, 0, 0, 4, 2050, 0x4172afd05614160aULL, 0x527084c4e228cb98ULL},
    {2000, 0, 0, 0, 560, 4000, 0x418ab68b7c862351ULL, 0xa4711da42366433aULL},
    {2000, 0, 0, 0, 1320, 4000, 0x418a828ba974b0b3ULL, 0xb7c9671a2457df55ULL},
    {1060, 940, 0, 0, 4, 2120, 0x4183998b6d81d9ccULL, 0x3a288b1b6e77a2ceULL},
    {644, 1356, 0, 0, 4, 1288, 0x41724189eabb040dULL, 0x735baea338e6811fULL},
    {2000, 0, 0, 1238, 17, 4000, 0x417a45bc612a7809ULL, 0x8a7fbfea74b6f8b0ULL},
    {2000, 0, 0, 64, 224, 4000, 0x4172250815a770bcULL, 0x86e9d70009434bc7ULL},
    {1915, 85, 0, 1237, 4, 3830, 0x4179cf0313ad57b5ULL, 0x171704f8b2373415ULL},
    {1339, 661, 0, 691, 4, 2678, 0x41690a6fe6ae0768ULL, 0x70a1eb7b93a7cd7aULL},
    {2000, 0, 0, 1253, 40, 4000, 0x417a45bc612a7809ULL, 0x3e96bd42da86a6abULL},
    {2000, 0, 0, 1328, 656, 4000, 0x4172250815a770bcULL, 0x975b3796a1845756ULL},
    {1831, 169, 0, 1120, 4, 3662, 0x417a42d68f4b88ecULL, 0xe29989401f25c26cULL},
    {1307, 693, 0, 859, 4, 2614, 0x4168a4139294a17dULL, 0x682c16cc36b8f8d9ULL},
    {2000, 0, 0, 0, 22, 4000, 0x4179cf0313ad57b5ULL, 0xd51b187c7b7142e1ULL},
    {2000, 0, 0, 0, 225, 4000, 0x4171a82b22bfcce4ULL, 0x71af6bfb9b2a40c4ULL},
    {1451, 549, 0, 0, 4, 2902, 0x417a57831cffe1baULL, 0xffd14fdbe585bdd0ULL},
    {1066, 934, 0, 0, 4, 2132, 0x41694e02e46540f1ULL, 0xd8605e01691e2f81ULL},
    {2000, 0, 0, 0, 1039, 4000, 0x418a9379674648e7ULL, 0x3ca5fcd2915bb3ecULL},
    {2000, 0, 0, 0, 1537, 4000, 0x418a7560f95fe4feULL, 0x89fcb7022bd16ea1ULL},
    {860, 1140, 0, 0, 4, 1720, 0x4179cf40b56d9841ULL, 0xedb21a054fdd73f9ULL},
    {456, 1544, 0, 0, 4, 912, 0x416823cd25252b75ULL, 0x314e4ab97f4ad474ULL},
    {2000, 0, 0, 1839, 1, 4000, 0x4155cc993a1d0094ULL, 0x7dc960100719d720ULL},
    {2000, 0, 0, 483, 51, 4000, 0x414dab24bef4a149ULL, 0xa38abfc16a87dcc5ULL},
    {2000, 0, 0, 1839, 1, 4000, 0x4155cc993a1d0094ULL, 0x7dc960100719d720ULL},
    {1451, 549, 0, 1056, 4, 2902, 0x4146f941e9c8ad72ULL, 0x838ac4a051ca978fULL},
    {2000, 0, 0, 1820, 5, 4000, 0x4155cc993a1d0094ULL, 0x7dc960100719d720ULL},
    {2000, 0, 0, 1872, 561, 4000, 0x414dab24bef4a149ULL, 0x87b6a866b7513c08ULL},
    {1999, 1, 0, 1819, 4, 3998, 0x4155cc993a1d0094ULL, 0xf8d258ccd2f54aebULL},
    {1380, 620, 0, 1284, 4, 2760, 0x4147198621b6fec4ULL, 0x9bc6652aef543ce0ULL},
    {2000, 0, 0, 0, 17, 4000, 0x4153611ce0b27decULL, 0xe035f44c985d5ac7ULL},
    {2000, 0, 0, 0, 50, 4000, 0x4148d16c8529c60fULL, 0xeed698d164024998ULL},
    {1600, 400, 0, 0, 4, 3200, 0x41554b82a709f9daULL, 0x1d901f1bcbbe5762ULL},
    {1088, 912, 0, 0, 4, 2176, 0x4142cfae4eeff524ULL, 0xb3af6c4af68a1f3aULL},
    {2000, 0, 0, 0, 1808, 4000, 0x418a74484d6f1f8aULL, 0xdfaf42264126b584ULL},
    {2000, 0, 0, 0, 1904, 4000, 0x418a7445765dbf97ULL, 0xe1e0b18212f42c4cULL},
    {196, 1804, 0, 0, 4, 392, 0x41548cdee7980411ULL, 0x8d9631eee668aac2ULL},
    {100, 1900, 0, 0, 4, 200, 0x4144a9ada3eb7d55ULL, 0x715aa2f173cf1fecULL},
    {2000, 0, 0, 1946, 1, 4000, 0x4147643b7127d320ULL, 0x19dac184d4a75e9eULL},
    {2000, 0, 0, 1020, 29, 4000, 0x413ffd2c4ed5d516ULL, 0xb240858f9300b424ULL},
    {2000, 0, 0, 1946, 1, 4000, 0x4147643b7127d320ULL, 0x19dac184d4a75e9eULL},
    {1462, 538, 0, 1135, 4, 2924, 0x413ba7ddb911268aULL, 0x5a4cddb91d97137bULL},
    {2000, 0, 0, 1904, 1, 4000, 0x4147643b7127d320ULL, 0x19dac184d4a75e9eULL},
    {2000, 0, 0, 1936, 611, 4000, 0x413ffd2c4ed5d516ULL, 0x3f98164a9c6ed969ULL},
    {2000, 0, 0, 1904, 1, 4000, 0x4147643b7127d320ULL, 0x19dac184d4a75e9eULL},
    {1390, 610, 0, 1326, 4, 2780, 0x413b9ee908028d43ULL, 0x76e4e9b0e5b6febbULL},
    {2000, 0, 0, 0, 16, 4000, 0x4142d232f4378b37ULL, 0xaa0dc5b16f05d657ULL},
    {2000, 0, 0, 0, 29, 4000, 0x413692789e6d06d1ULL, 0x3f24cfa0c586ce5aULL},
    {1604, 396, 0, 0, 4, 3208, 0x4142d232f4378b36ULL, 0x6b1634c0fc0220a2ULL},
    {1188, 812, 0, 0, 4, 2376, 0x4133d31c6b5e0656ULL, 0xbced15ea8167c97aULL},
    {2000, 0, 0, 0, 1904, 4000, 0x418a74458f271168ULL, 0x2894ba5b54e102c9ULL},
    {2000, 0, 0, 0, 1936, 4000, 0x418a74442ea285ccULL, 0x819616ea06b68281ULL},
    {100, 1900, 0, 0, 4, 200, 0x4144a9af30809a65ULL, 0x6a46a996f9c444f4ULL},
    {68, 1932, 0, 0, 4, 136, 0x413bb345d450b979ULL, 0x4ea311635ef7e84eULL},
    {2000, 0, 0, 0, 3, 4000, 0x418a7442fa2e8ba3ULL, 0x65f261f6f50b8efbULL},
    {2000, 0, 0, 0, 3, 4000, 0x418a7442fa2e8ba3ULL, 0x65f261f6f50b8efbULL},
    {2000, 0, 0, 0, 3, 4000, 0x418a7442fa2e8ba3ULL, 0x65f261f6f50b8efbULL},
    {2000, 0, 0, 0, 3, 4000, 0x418a7442fa2e8ba3ULL, 0x65f261f6f50b8efbULL},
    {2000, 0, 0, 0, 3, 4000, 0x417a7442fa2e8ba3ULL, 0x72c6e56bc61eca9eULL},
    {2000, 0, 0, 1000, 5, 4000, 0x417a7442fa2e8ba3ULL, 0x72c6e56bc61eca9eULL},
    {2000, 0, 0, 0, 3, 4000, 0x417a7442fa2e8ba3ULL, 0x72c6e56bc61eca9eULL},
    {2000, 0, 0, 0, 5, 4000, 0x418a7442fa2e8ba3ULL, 0x24e290366c51096eULL},
    {2000, 0, 0, 0, 3, 4000, 0x4171388943e0f83eULL, 0x71cd6bdba8874d11ULL},
    {2000, 0, 0, 1333, 7, 4000, 0x4171388943e0f83eULL, 0x71cd6bdba8874d11ULL},
    {2000, 0, 0, 0, 3, 4000, 0x4171388943e0f83eULL, 0x71cd6bdba8874d11ULL},
    {2000, 0, 0, 0, 7, 4000, 0x418a7442fa2e8ba3ULL, 0x1cfe06f57b6ad2d1ULL},
    {2000, 0, 0, 0, 3, 4000, 0x414611c19364d936ULL, 0x609ea009907334d0ULL},
    {2000, 0, 0, 1875, 33, 4000, 0x414611c19364d936ULL, 0x609ea009907334d0ULL},
    {2000, 0, 0, 0, 3, 4000, 0x414611c19364d936ULL, 0x609ea009907334d0ULL},
    {2000, 0, 0, 0, 33, 4000, 0x418a7442fa2e8ba3ULL, 0x922848bcf176b918ULL},
    {2000, 0, 0, 0, 3, 4000, 0x4130e3aa2e8ba2e9ULL, 0x1e917bddb4d484dfULL},
    {2000, 0, 0, 1939, 67, 4000, 0x4130e3aa2e8ba2e9ULL, 0x1e917bddb4d484dfULL},
    {2000, 0, 0, 0, 3, 4000, 0x4130e3aa2e8ba2e9ULL, 0x1e917bddb4d484dfULL},
    {2000, 0, 0, 0, 67, 4000, 0x418a7442fa2e8ba3ULL, 0xdd1a50c5cb506108ULL},
};

TEST(ServeEngine, GoldenGridMatchesPins)
{
    const auto grid = goldenGrid();
    ASSERT_EQ(grid.size(), std::size(kGoldenPins));
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const EngineConfig &ec = grid[i];
        SCOPED_TRACE(testing::Message()
                     << "config " << i << ": workers " << ec.workers
                     << (ec.mode == LoadMode::ClosedLoop ? " closed" : " open")
                     << " steal " << ec.workStealing << " single-shard "
                     << (ec.sharding == Sharding::SingleShard) << " cap "
                     << ec.queueCapacity << " gap " << ec.meanInterarrivalNs);
        const auto res = ServeEngine(ec, smallHandler()).run();
        const GoldenPin &pin = kGoldenPins[i];
        EXPECT_EQ(res.served, pin.served);
        EXPECT_EQ(res.shed, pin.shed);
        EXPECT_EQ(res.rejected, pin.rejected);
        EXPECT_EQ(res.stolen, pin.stolen);
        EXPECT_EQ(res.maxQueueDepth, pin.maxQueueDepth);
        EXPECT_EQ(res.contextSwitches, pin.contextSwitches);
        EXPECT_EQ(bitsOf(res.durationNs), pin.durationBits);
        EXPECT_EQ(latencyDigest(res), pin.latencyDigest);
    }
}

} // namespace
