#include "serve/engine.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "serve/shard_queue.h"

namespace hfi::serve
{

/**
 * Reject configurations drive() cannot run: it shards arrivals modulo
 * the worker count, and indexes the trace by core.
 */
static void
validate(const EngineConfig &config)
{
    if (config.workers == 0)
        throw std::invalid_argument("EngineConfig: workers must be >= 1");
    if (config.trace && config.trace->cores() < config.workers)
        throw std::invalid_argument(
            "EngineConfig: trace has fewer cores than workers");
}

ServeEngine::ServeEngine(EngineConfig config, Handler handler)
    : config_(std::move(config)), handler_(std::move(handler))
{
    validate(config_);
}

/**
 * Fill the ServeResult scalar fields from the merged registry. Counter
 * sums are order-independent uint64 additions, so these views are
 * bit-identical to the manual per-field merging they replaced — in both
 * the sequential and the threaded driver, which now share this one
 * reduction.
 */
static void
deriveFromMetrics(ServeResult &res)
{
    const obs::MetricsRegistry &m = res.metrics;
    res.served = static_cast<std::size_t>(m.counter("serve.served"));
    res.shed = static_cast<std::size_t>(m.counter("serve.shed"));
    res.rejected = static_cast<std::size_t>(m.counter("serve.rejected"));
    res.stolen = static_cast<std::size_t>(m.counter("serve.stolen"));
    res.maxQueueDepth =
        static_cast<std::size_t>(m.gauge("serve.max_queue_depth"));
    res.contextSwitches = m.counter("serve.context_switches");
    res.preemptions = m.counter("serve.preemptions");
    res.instancesCreated = m.counter("serve.instances_created");
    res.reclaimBatches = m.counter("serve.reclaim_batches");
    res.hfiStateMismatches = m.counter("serve.hfi_state_mismatches");
}

bool
ServeEngine::threadable(const EngineConfig &config)
{
    return config.realThreads && config.mode == LoadMode::OpenLoop &&
           config.sharding == Sharding::RoundRobin &&
           !config.workStealing && config.workers > 1;
}

ServeResult
ServeEngine::run()
{
    if (threadable(config_))
        return runThreaded();

    std::vector<std::unique_ptr<Worker>> workers;
    workers.reserve(config_.workers);
    for (unsigned w = 0; w < config_.workers; ++w)
        workers.push_back(std::make_unique<Worker>(w, config_.worker,
                                                   handler_, config_.seed));

    if (config_.mode == LoadMode::ClosedLoop) {
        ClosedLoopSource source(config_.clients, config_.requests, 0.0,
                                config_.seed, config_.closedLoopLegacySeeds);
        return drive(workers, source, config_, 0.0);
    }
    OpenLoopPoissonSource source(config_.requests,
                                 config_.meanInterarrivalNs, config_.seed,
                                 0.0);
    return drive(workers, source, config_, 0.0);
}

ServeResult
ServeEngine::runThreaded()
{
    // With round-robin sharding and no stealing, worker w only ever
    // touches shard w, and open-loop arrivals do not depend on
    // completions — so the global event loop is the disjoint union of n
    // per-shard event loops, one per core. Generate the one global
    // arrival sequence, partition it by shard, and replay each
    // partition through the ordinary drive() on its own host thread
    // with a single-worker queue set. Per-shard event order (including
    // the admit-vs-serve tie break and bounded-queue shedding) is
    // exactly what the shard would see inside the sequential loop, so
    // the merged result is bit-identical.
    const unsigned n = config_.workers;
    OpenLoopPoissonSource global(config_.requests, config_.meanInterarrivalNs,
                                 config_.seed, 0.0);
    std::vector<std::vector<Request>> parts(n);
    for (const Request &req : global.arrivals())
        parts[static_cast<std::size_t>(req.id % n)].push_back(req);

    std::vector<ServeResult> sub(n);
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (unsigned w = 0; w < n; ++w) {
        threads.emplace_back([this, w, &parts, &sub] {
            std::vector<std::unique_ptr<Worker>> one;
            one.push_back(std::make_unique<Worker>(w, config_.worker,
                                                   handler_, config_.seed));
            VectorSource source(std::move(parts[w]));
            sub[w] = drive(one, source, config_, 0.0);
        });
    }
    for (auto &t : threads)
        t.join();

    // Merge in worker-index order — the same order the sequential
    // driver folds per-worker recorders — so every derived statistic
    // matches bit-for-bit.
    ServeResult res;
    res.usedThreads = n;
    res.perCore.resize(n);
    for (unsigned w = 0; w < n; ++w) {
        const ServeResult &s = sub[w];
        // Same single typed merge the sequential driver uses: each
        // sub-run's registry (counters sum, gauges max) carries every
        // scalar the result's view fields need — including per-shard
        // shed, the one source of truth, with no double counting.
        res.metrics.merge(s.metrics);
        res.latencies.merge(s.latencies);
        res.durationNs = std::max(res.durationNs, s.durationNs);
        // Each sub-run drove one worker over one shard: its per-core
        // entry 0 *is* core w's breakdown.
        res.perCore[w] = s.perCore.empty() ? RobustnessStats{}
                                           : s.perCore[0];
        res.robustness.merge(res.perCore[w]);
    }
    deriveFromMetrics(res);
    res.throughputRps = res.latencies.throughput(res.durationNs);
    res.meanLatencyNs = res.latencies.mean();
    res.latency = res.latencies.percentiles();
    return res;
}

ServeResult
ServeEngine::runResident(const EngineConfig &config, core::HfiContext &ctx,
                         sfi::Sandbox &sandbox, const Handler &handler)
{
    validate(config);
    const double start = ctx.clock().nowNs();
    std::vector<std::unique_ptr<Worker>> workers;
    workers.push_back(std::make_unique<Worker>(0, config.worker, handler,
                                               ctx, sandbox, config.seed));

    if (config.mode == LoadMode::ClosedLoop) {
        ClosedLoopSource source(config.clients, config.requests, start,
                                config.seed, config.closedLoopLegacySeeds);
        return drive(workers, source, config, start);
    }
    OpenLoopPoissonSource source(config.requests, config.meanInterarrivalNs,
                                 config.seed, start);
    return drive(workers, source, config, start);
}

ServeResult
ServeEngine::drive(std::vector<std::unique_ptr<Worker>> &workers,
                   ArrivalSource &source, const EngineConfig &config,
                   double start_ns)
{
    const unsigned n = static_cast<unsigned>(workers.size());
    ShardedQueues queues(n, config.queueCapacity);
    std::size_t stolen = 0;

    // Wire the trace: worker w (and its HfiContext/Scheduler) records
    // into the ring of its *global* core index, and so does queue shard
    // w — in the threaded driver this sub-run drives one worker whose
    // index is the core, so the per-core streams come out identical to
    // the sequential run's.
    HFI_OBS_STMT(if (config.trace) for (unsigned w = 0; w < n; ++w) {
        workers[w]->attachTrace(config.trace);
        queues.setTrace(w, &config.trace->buffer(workers[w]->index()));
    });

    std::optional<Request> staged = source.next();

    // Each core's next-free time, refreshed only for the core that
    // served: the event loop's whole per-core state in one flat array.
    std::vector<double> freeNs(n);
    for (unsigned w = 0; w < n; ++w)
        freeNs[w] = workers[w]->freeNs();

    while (true) {
        // The earliest possible service start across all cores: each
        // worker considers its own shard first, then (work stealing)
        // the deepest shard. Ties break to the lowest core index, so
        // the schedule is a pure function of the configuration.
        const auto [bestWorker, bestShard, bestStart] =
            queues.pickStep(freeNs, config.workStealing);

        // Admit any arrival that happens strictly before that start
        // (at an exact tie the server dequeues first, so an arrival at
        // the same instant sees the freed slot).
        if (staged &&
            (bestWorker < 0 || staged->arrivalNs < bestStart)) {
            const unsigned shard =
                config.sharding == Sharding::SingleShard
                    ? 0
                    : static_cast<unsigned>(staged->id % n);
            queues.offer(shard, *staged);
            staged = source.next();
            continue;
        }

        if (bestWorker < 0)
            break; // no queued work and the source is dry

        const Request req = queues.take(static_cast<unsigned>(bestShard));
        if (bestShard != bestWorker)
            ++stolen;
        // Pop/steal are acts of the serving core: they go to *its* ring
        // (a steal names the victim core in b), stamped at the service
        // start the event loop computed.
        HFI_OBS_STMT(if (config.trace) config.trace
                         ->buffer(workers[bestWorker]->index())
                         .record(bestShard != bestWorker
                                     ? obs::EventType::QueueSteal
                                     : obs::EventType::QueuePop,
                                 bestStart, req.id,
                                 workers[bestShard]->index()));
        const auto outcome = workers[bestWorker]->serve(req);
        freeNs[static_cast<unsigned>(bestWorker)] =
            workers[bestWorker]->freeNs();
        // A request that exhausted its retries still produced an error
        // response, so a closed-loop client unblocks either way.
        if (outcome.ok || outcome.failed)
            source.onComplete(req, outcome.doneNs);
        // A closed-loop source may only now have a next arrival.
        if (!staged)
            staged = source.next();
    }

    ServeResult res;
    res.perCore.resize(n);
    double lastFree = start_ns;
    for (unsigned w = 0; w < n; ++w) {
        // One typed merge per worker: the worker exports its plain
        // counters into a registry (plus this shard's admission shed)
        // and the engine folds registries — no per-field summing here.
        obs::MetricsRegistry wm;
        workers[w]->exportMetrics(wm);
        wm.counterAdd("serve.shed", queues.shedCount(w));
        res.metrics.merge(wm);

        res.latencies.merge(workers[w]->latencies());
        lastFree = std::max(lastFree, workers[w]->freeNs());

        // By-core breakdown; shed comes from the core's queue shard —
        // the one source of truth the engine-wide total sums (the
        // threaded merge derives it the same way, so sequential and
        // threaded shed always agree).
        res.perCore[w] = workers[w]->stats().robustness;
        res.perCore[w].shed = queues.shedCount(w);
        res.robustness.merge(res.perCore[w]);
    }
    res.metrics.counterAdd("serve.stolen", stolen);
    res.metrics.gaugeSet("serve.max_queue_depth", queues.maxDepth());

    deriveFromMetrics(res);
    res.durationNs = lastFree - start_ns;
    res.throughputRps = res.latencies.throughput(res.durationNs);
    res.meanLatencyNs = res.latencies.mean();
    res.latency = res.latencies.percentiles();
    return res;
}

} // namespace hfi::serve
