/**
 * @file
 * The multi-core sandbox serving engine.
 *
 * N simulated cores — each a serve::Worker with its own VirtualClock,
 * Mmu arena, HfiContext (per-core region registers and exit-reason MSR)
 * and os::Scheduler — pull requests from sharded run queues with work
 * stealing and serve them under a Table 1 protection scheme. Load is
 * generated either open-loop (seeded Poisson arrivals, with bounded
 * queues and shedding at admission) or closed-loop (the Table 1 client
 * population). Per-worker latency accumulators are merged into global
 * p50/p95/p99/p999.
 *
 * The engine is a sequential discrete-event simulation: at every step
 * the earliest actionable event (an arrival, or the earliest possible
 * service start across all cores, ties to the lowest core index) is
 * processed. All state is seeded and virtual-clocked, so a run is
 * bit-for-bit reproducible — and, when requests do not contend, the
 * per-request latency multiset is identical for any worker count.
 */

#ifndef HFI_SERVE_ENGINE_H
#define HFI_SERVE_ENGINE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "faas/latency.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/load_gen.h"
#include "serve/request.h"
#include "serve/worker.h"

namespace hfi::serve
{

/** How arrivals are generated. */
enum class LoadMode
{
    OpenLoop,   ///< seeded Poisson process at a fixed rate
    ClosedLoop, ///< fixed client population, send-on-response
};

/** How arrivals map to queue shards. */
enum class Sharding
{
    RoundRobin,  ///< request id modulo worker count
    SingleShard, ///< everything lands on shard 0 (stealing stress test)
};

struct EngineConfig
{
    unsigned workers = 1; ///< simulated cores, >= 1
    LoadMode mode = LoadMode::OpenLoop;

    /** Total requests to generate. */
    unsigned requests = 400;
    /** Open loop: mean interarrival gap in virtual ns. */
    double meanInterarrivalNs = 100'000.0;
    /** Closed loop: client population. */
    unsigned clients = 100;
    /** Master seed for arrivals and per-request handler seeds. */
    std::uint64_t seed = 1;

    /** Per-shard queue bound; 0 = unbounded (no shedding). */
    std::size_t queueCapacity = 0;
    bool workStealing = true;
    Sharding sharding = Sharding::RoundRobin;

    /**
     * Compatibility switch for the closed-loop per-request seed
     * sequence. Closed-loop seeds were historically
     * `issued * 2654435761u`, ignoring EngineConfig::seed entirely —
     * every closed-loop run drew identical per-request work. Table 1's
     * golden numbers are pinned against that sequence, so
     * faas::runClosedLoop keeps it; new closed-loop users get seeds
     * mixed from EngineConfig::seed.
     */
    bool closedLoopLegacySeeds = false;

    /**
     * Run one host std::thread per simulated core instead of the
     * sequential event loop. Only configurations whose cores are
     * provably independent qualify — open loop, round-robin sharding,
     * no work stealing — because then the global event loop decomposes
     * into per-shard loops with no cross-core event ordering, and the
     * merged result is bit-identical to the sequential run (asserted by
     * tests and the serve_scaling --threads gate). Anything else
     * (closed loop couples clients to completions; stealing couples
     * queues) silently falls back to the sequential driver; check
     * ServeResult::usedThreads for what actually ran. Handlers must be
     * pure functions of (sandbox, seed) — already required for
     * determinism — and are called concurrently in this mode.
     */
    bool realThreads = false;

    /**
     * Caller-owned event trace (nullptr = tracing off). Must be built
     * with cores() >= workers (the engine throws std::invalid_argument
     * otherwise); each worker records into the ring of its core index
     * (single-writer even in realThreads mode), the queue
     * shards record admissions into their owning core's ring, and the
     * HfiContext/Scheduler of every core are wired to the same ring.
     * Ignored when HFI_OBS=OFF compiled the record sites away.
     */
    obs::Trace *trace = nullptr;

    /** Per-worker knobs (scheme, pool, scheduler, quantum). */
    WorkerConfig worker{};
};

/** Merged engine-wide results. */
struct ServeResult
{
    std::size_t served = 0;
    std::size_t shed = 0;     ///< dropped at admission (queue full)
    std::size_t rejected = 0; ///< dropped at dispatch (pool exhausted)
    std::size_t stolen = 0;   ///< requests served off another shard
    std::size_t maxQueueDepth = 0;

    double durationNs = 0; ///< first arrival issue to last completion
    double throughputRps = 0;
    double meanLatencyNs = 0;
    faas::Percentiles latency{};

    std::uint64_t contextSwitches = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t instancesCreated = 0;
    std::uint64_t reclaimBatches = 0;
    std::uint64_t hfiStateMismatches = 0;

    /** Host threads the run actually used (1 = sequential driver). */
    unsigned usedThreads = 1;

    /**
     * Engine-wide robustness accounting (exits by reason, retries,
     * timeouts, quarantines, respawns, failures). All zero on the
     * happy path.
     */
    RobustnessStats robustness{};
    /**
     * The same breakdown per core, index = worker index. Each entry's
     * `shed` comes from that core's queue shard — the single source of
     * truth ServeResult::shed is derived from, in both the sequential
     * and the threaded driver.
     */
    std::vector<RobustnessStats> perCore{};

    /** Merged per-request latencies (service order), for tests. */
    faas::LatencyRecorder latencies{};

    /**
     * The engine-wide metrics registry every worker exported into —
     * the single typed merge both drivers share. The scalar fields
     * above are views derived from it (counter sums are order-
     * independent, so they are bit-identical to the historical manual
     * merging); this carries the full breakdown for exporters.
     */
    obs::MetricsRegistry metrics{};
};

class ServeEngine
{
  public:
    /** @throws std::invalid_argument when @p config.workers is 0 or
        @p config.trace has fewer cores than workers. */
    ServeEngine(EngineConfig config, Handler handler);

    /** Run with owned per-core stacks (the normal configuration). */
    ServeResult run();

    /**
     * Single-worker run on the caller's clock/context with a resident
     * caller-owned sandbox — the faas::runClosedLoop compatibility
     * path. Validates @p config like the constructor.
     */
    static ServeResult runResident(const EngineConfig &config,
                                   core::HfiContext &ctx,
                                   sfi::Sandbox &sandbox,
                                   const Handler &handler);

  private:
    static ServeResult drive(std::vector<std::unique_ptr<Worker>> &workers,
                             ArrivalSource &source,
                             const EngineConfig &config, double start_ns);

    /** One host thread per core; requires threadable(config_). */
    ServeResult runThreaded();

    /** True when the configuration decomposes into independent shards. */
    static bool threadable(const EngineConfig &config);

    EngineConfig config_;
    Handler handler_;
};

} // namespace hfi::serve

#endif // HFI_SERVE_ENGINE_H
