#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "faas/platform.h"
#include "serve/load_gen.h"
#include "sfi/runtime.h"
#include "sim/functional.h"
#include "sim/kernels.h"
#include "sim/pipeline.h"
#include "spans.h"
#include "workloads/crypto.h"
#include "workloads/faas_workloads.h"
#include "workloads/image.h"

namespace perfbench
{

using namespace hfi;

namespace
{

/** FNV-1a over 64-bit words; the digest of every modeled output. */
struct Digest
{
    std::uint64_t h = 1469598103934665603ULL;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    }

    void
    add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
};

/** Order-independent digest of a latency multiset. */
std::uint64_t
multisetDigest(const std::vector<double> &values)
{
    std::uint64_t sum = 0;
    for (double v : values) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        sum += serve::splitmix64(bits);
    }
    return sum;
}

constexpr double kCyclesPerNs = 3.3; // VirtualClock default, 3300 MHz

// ---------------------------------------------------------------- serve

/** Both serving workloads: one ServeEngine::run per repetition. */
class ServeWorkload : public Workload
{
  public:
    /** @p threads 0 = serve_dispatch, else serve_faults_threaded. */
    ServeWorkload(unsigned threads, unsigned requests)
        : threads_(threads), requests_(requests)
    {
    }

    void
    setup(std::uint64_t seed) override
    {
        config_ = threads_ ? faultsConfig(seed, requests_, threads_)
                           : dispatchConfig(seed, requests_);
        handler_ = lightHandler();
        // Arrival times are precomputed before the engine serves, so
        // the generator can never run late: check the schedule exists
        // up front and is in time order.
        const serve::OpenLoopPoissonSource schedule(
            config_.requests, config_.meanInterarrivalNs, config_.seed);
        const auto &arrivals = schedule.arrivals();
        lateness_ = arrivals.size() != config_.requests;
        for (std::size_t i = 1; i < arrivals.size() && !lateness_; ++i)
            lateness_ = arrivals[i].arrivalNs < arrivals[i - 1].arrivalNs;
        // Warm-up: a short run on the same configuration.
        serve::EngineConfig warm = config_;
        warm.requests = std::min(config_.requests, 20'000u);
        serve::ServeEngine(warm, handler_).run();
    }

    RepOutcome
    run(bool traced) override
    {
        RepOutcome out;
        serve::Handler handler = handler_;
        if (traced) {
            handler = [inner = handler_](sfi::Sandbox &s,
                                         std::uint32_t seed) {
                Scope span("handler", seed);
                const std::uint64_t before =
                    s.stats().loads + s.stats().stores;
                inner(s, seed);
                Spans::count(s.stats().loads + s.stats().stores - before);
            };
        }

        serve::ServeResult res;
        const double t0 = hostNowNs();
        {
            Scope root("ServeEngine::run", config_.seed);
            if (traced)
                Spans::setDefaultParent(root.id());
            res = serve::ServeEngine(config_, handler).run();
        }
        out.wallNs = hostNowNs() - t0;
        Spans::setDefaultParent(0);

        const auto &rb = res.robustness;
        out.ops = config_.requests;
        out.attempted = config_.requests;
        out.failed = res.shed + res.rejected + rb.failed;
        out.threads = res.usedThreads;
        out.modeledP99Us = res.latency.p99 / 1e3;
        out.modeledCycles =
            static_cast<std::uint64_t>(res.durationNs * kCyclesPerNs);

        check(res, out);
        pin(res, out);
        if (traced)
            countRows(res, Spans::counted(), out);
        return out;
    }

  private:
    void
    check(const serve::ServeResult &res, RepOutcome &out) const
    {
        const auto &rb = res.robustness;
        auto expect = [&](bool ok, const char *what) {
            if (!ok)
                out.errors.push_back(what);
        };
        expect(!lateness_, "arrival schedule not precomputed in order");
        expect(res.served + res.shed + res.rejected + rb.failed ==
                   config_.requests,
               "served + shed + rejected + failed != issued");
        std::uint64_t served = 0, shed = 0, failed = 0, exits = 0;
        for (const auto &c : res.perCore) {
            served += c.served;
            shed += c.shed;
            failed += c.failed;
            exits += c.exits;
        }
        expect(res.perCore.size() == config_.workers,
               "per-core breakdown has the wrong core count");
        expect(served == res.served, "per-core served != total");
        expect(shed == res.shed, "per-core shed != total");
        expect(failed == rb.failed, "per-core failed != total");
        expect(exits == rb.exits, "per-core exits != total");
        expect(res.latencies.count() == res.served,
               "latency samples != served");
        expect(res.hfiStateMismatches == 0, "HFI state lost on preemption");
        expect(res.usedThreads == std::max(threads_, 1u),
               "engine ran a different driver than configured");
    }

    static void
    pin(const serve::ServeResult &res, RepOutcome &out)
    {
        const auto &rb = res.robustness;
        auto &p = out.pinned;
        p["served"] = res.served;
        p["shed"] = res.shed;
        p["rejected"] = res.rejected;
        p["failed"] = rb.failed;
        p["stolen"] = res.stolen;
        p["max_queue_depth"] = res.maxQueueDepth;
        p["context_switches"] = res.contextSwitches;
        p["preemptions"] = res.preemptions;
        p["instances_created"] = res.instancesCreated;
        p["faults_injected"] = rb.faultsInjected;
        p["exits"] = rb.exits;
        p["retries"] = rb.retries;
        p["timeouts"] = rb.timeouts;
        p["quarantines"] = rb.quarantines;
        p["respawns"] = rb.respawns;
        p["pool_waits"] = rb.poolWaits;
        p["latency_digest"] = multisetDigest(res.latencies.values());
        std::uint64_t bits = 0;
        std::memcpy(&bits, &res.durationNs, sizeof bits);
        p["duration_bits"] = bits;

        Digest d;
        for (const auto &[name, v] : p)
            d.add(v);
        out.digest = d.h;
    }

    void
    countRows(const serve::ServeResult &res, std::uint64_t accesses,
              RepOutcome &out) const
    {
        const auto &rb = res.robustness;
        const double served = static_cast<double>(std::max<std::size_t>(
            res.served, 1));
        const double issued = config_.requests;
        auto &c = out.counts;
        c["serve.stolen_frac"] = res.stolen / served;
        c["serve.switches_per_req"] = res.contextSwitches / served;
        c["serve.preemptions_per_req"] = res.preemptions / served;
        c["serve.instances_per_req"] = res.instancesCreated / served;
        c["serve.max_queue_depth"] = res.maxQueueDepth;
        c["serve.faults.exits_per_kreq"] = rb.exits * 1e3 / issued;
        c["serve.retries_per_kreq"] = rb.retries * 1e3 / issued;
        c["serve.quarantines"] = rb.quarantines;
        c["serve.respawns"] = rb.respawns;
        c["serve.pool_waits"] = rb.poolWaits;
        const double attempts = issued + rb.retries;
        const double perReq = accesses / attempts;
        c["sfi.sandbox.accesses_per_req"] = perReq;

        // Ledger, per issued request: what the microbenchmarked layers
        // explain of the measured cost. Every event-loop step calls
        // pickFor once per core; a step admits or serves one request.
        auto &l = out.ledger;
        const double workers = config_.workers;
        const double steps = (issued + res.served + 1) / issued;
        l.push_back({"serve.load_gen.ns_per_req", 1});
        l.push_back({"serve.shard_queue.offer_take_ns",
                     (issued - res.shed) / issued});
        if (config_.workStealing)
            l.push_back({"serve.shard_queue.steal_scan_ns",
                         steps * workers});
        l.push_back({"os.scheduler.switch_pair_ns",
                     res.contextSwitches / 2.0 / issued});
        l.push_back({"core.context.enter_exit_ns", attempts / issued});
        if (config_.worker.poolSize > 0)
            l.push_back({"sfi.sandbox.rebind_ns", attempts / issued});
        else
            l.push_back({"sfi.runtime.create_retire_ns.hfi",
                         res.instancesCreated / issued});
        // The light handler only stores; one chargeOps per attempt.
        l.push_back({"sfi.sandbox.store_ns.hfi", perReq * attempts / issued});
        l.push_back({"sfi.sandbox.charge_ops_ns", attempts / issued});
    }

    unsigned threads_;
    unsigned requests_;
    serve::EngineConfig config_{};
    serve::Handler handler_;
    bool lateness_ = false;
};

// ----------------------------------------------------------------- faas

std::uint64_t
xmlBody(sfi::Sandbox &s, std::uint32_t seed)
{
    const std::string xml = workloads::faas::makeXmlDocument(220, seed);
    s.memory().writeBytes(64, xml.data(), xml.size());
    return workloads::faas::xmlToJson(s, 64, xml.size());
}

std::uint64_t
imageBody(sfi::Sandbox &s, std::uint32_t seed)
{
    const auto img = workloads::image::makeTestImage(96, 96, seed);
    s.memory().writeBytes(64, img.data(), img.size());
    return workloads::faas::classifyImage(s, 64, 96, seed);
}

std::uint64_t
shaBody(sfi::Sandbox &s, std::uint32_t seed)
{
    std::vector<std::uint8_t> payload(96 * 1024);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i ^ seed);
    s.memory().writeBytes(64, payload.data(), payload.size());
    const auto digest =
        workloads::crypto::sha256(payload.data(), payload.size());
    s.memory().writeBytes(1 << 20, digest.data(), 32);
    return workloads::faas::checkSha256(s, 64, payload.size(), 1 << 20);
}

std::uint64_t
htmlBody(sfi::Sandbox &s, std::uint32_t seed)
{
    const std::string tpl = workloads::faas::makeHtmlTemplate(0);
    s.memory().writeBytes(64, tpl.data(), tpl.size());
    return workloads::faas::renderTemplate(s, 64, tpl.size(), 24, seed);
}

} // namespace

/** The four Table 1 handlers (shared with the layer microbenchmarks). */
const std::vector<FaasCellInfo> &
faasCells()
{
    static const std::vector<FaasCellInfo> cells = {
        {"xml", xmlBody},
        {"image", imageBody},
        {"sha256", shaBody},
        {"html", htmlBody},
    };
    return cells;
}

namespace
{

/** Span name "handler.<h>.<backend>", interned for the span recorder. */
const char *
handlerSpanName(const char *h, sfi::BackendKind b)
{
    static std::vector<std::unique_ptr<std::string>> names;
    const std::string n = std::string("handler.") + h + "." +
                          sfi::backendKindName(b);
    for (const auto &s : names)
        if (*s == n)
            return s->c_str();
    names.push_back(std::make_unique<std::string>(n));
    return names.back()->c_str();
}

class FaasWorkload : public Workload
{
  public:
    static constexpr unsigned kRequestsPerCell = 100;

    void
    setup(std::uint64_t seed) override
    {
        seed_ = seed;
        // Warm-up: one request per cell on fresh stacks.
        for (sfi::BackendKind b : kFaasBackends)
            for (const auto &cell : faasCells())
                runCell(cell, b, 1, false);
    }

    RepOutcome
    run(bool traced) override
    {
        RepOutcome out;
        Digest d;
        std::uint64_t checksum = 0;
        double logP99 = 0;
        double makespanNs = 0;
        std::uint64_t failed = 0;
        std::uint64_t calls = 0;

        const double t0 = hostNowNs();
        for (sfi::BackendKind b : kFaasBackends) {
            for (const auto &cell : faasCells()) {
                const faas::RunResult r =
                    runCell(cell, b, kRequestsPerCell, traced, &checksum,
                            &calls);
                for (double v : {r.avgLatencyNs, r.p50LatencyNs,
                                 r.p95LatencyNs, r.tailLatencyNs,
                                 r.p999LatencyNs, r.throughputRps})
                    d.add(v);
                if (!(r.p50LatencyNs <= r.p95LatencyNs &&
                      r.p95LatencyNs <= r.tailLatencyNs &&
                      r.tailLatencyNs <= r.p999LatencyNs &&
                      r.throughputRps > 0))
                    out.errors.push_back(std::string("bad latency summary: ") +
                                         cell.handler);
                logP99 += std::log(r.tailLatencyNs);
                makespanNs += kRequestsPerCell * 1e9 / r.throughputRps;
                failed += r.failedRequests;
            }
        }
        out.wallNs = hostNowNs() - t0;

        const std::uint64_t issued =
            kRequestsPerCell * faasCells().size() * kFaasBackends.size();
        out.ops = issued;
        out.attempted = issued;
        out.failed = failed;
        // Geometric mean of the eight cells' p99 (Table 1's tail cells).
        const double cells = faasCells().size() * kFaasBackends.size();
        out.modeledP99Us = std::exp(logP99 / cells) / 1e3;
        out.modeledCycles =
            static_cast<std::uint64_t>(makespanNs * kCyclesPerNs);
        // Closed loop, no retries: every request runs its handler once.
        if (calls != issued)
            out.errors.push_back("handler calls != requests issued");

        out.pinned["latency_digest"] = d.h;
        out.pinned["handler_checksum"] = checksum;
        out.pinned["failed"] = failed;
        d.add(checksum);
        d.add(failed);
        out.digest = d.h;

        if (traced) {
            const auto totals = Spans::totals();
            double rootNs = 0, handlerNs = 0;
            for (const auto &[name, t] : totals) {
                if (name == "faas::runClosedLoop")
                    rootNs += t.totalNs;
                else if (name.rfind("handler.", 0) == 0)
                    handlerNs += t.totalNs;
            }
            out.counts["faas.closed_loop.overhead_frac"] =
                rootNs > 0 ? (rootNs - handlerNs) / rootNs : 0;
            out.counts["sfi.sandbox.accesses_per_req"] =
                static_cast<double>(Spans::counted()) / issued;
            const double share =
                1.0 / (faasCells().size() * kFaasBackends.size());
            for (sfi::BackendKind b : kFaasBackends)
                for (const auto &cell : faasCells())
                    out.ledger.push_back(
                        {faasCellMetric(cell.handler, b), share * 1e3});
        }
        return out;
    }

  private:
    faas::RunResult
    runCell(const FaasCellInfo &cell, sfi::BackendKind backend,
            unsigned requests, bool traced,
            std::uint64_t *checksum = nullptr,
            std::uint64_t *calls = nullptr)
    {
        vm::VirtualClock clock;
        vm::Mmu mmu(clock);
        core::HfiContext ctx(clock);
        sfi::RuntimeConfig rc;
        rc.backend = backend;
        sfi::Runtime runtime(mmu, ctx, rc);
        auto sandbox = runtime.createSandbox({64, 4096});

        faas::PlatformConfig pc;
        pc.clients = 100;
        pc.requests = requests;
        pc.protection = faas::Protection::HfiNative;
        pc.seed = seed_;
        pc.legacySeeds = false;

        std::uint64_t sum = 0, n = 0;
        const char *spanName = handlerSpanName(cell.handler, backend);
        faas::Handler handler = [&](sfi::Sandbox &s, std::uint32_t seed) {
            ++n;
            if (!traced) {
                sum += cell.body(s, seed);
                return;
            }
            Scope span(spanName, seed);
            const std::uint64_t before = s.stats().loads + s.stats().stores;
            sum += cell.body(s, seed);
            Spans::count(s.stats().loads + s.stats().stores - before);
        };
        faas::RunResult r;
        {
            Scope root("faas::runClosedLoop", seed_);
            r = faas::runClosedLoop(pc, *sandbox, ctx, handler);
        }
        if (checksum)
            *checksum += sum;
        if (calls)
            *calls += n;
        return r;
    }

    std::uint64_t seed_ = kDefaultSeed;
};

// ------------------------------------------------------------------ sim

class SimWorkload : public Workload
{
  public:
    /** Functional-core passes per repetition (~1/3 of host time). */
    static constexpr unsigned kFunctionalPasses = 16;
    static constexpr std::uint64_t kScale = 2;

    void
    setup(std::uint64_t seed) override
    {
        stageSeed_ = static_cast<std::uint32_t>(seed);
        programs_.clear();
        const auto &suite = sim::kernels::suite();
        for (std::size_t k = 0; k < suite.size(); ++k) {
            for (auto mode : kModes)
                programs_.push_back(suite[k].build(mode, kScale));
        }
        // Warm-up: every program once on the functional core, and one
        // pipeline run.
        for (std::size_t i = 0; i < programs_.size(); ++i) {
            sim::ArchState state;
            state.pc = programs_[i].base();
            sim::SimMemory mem;
            suite[i / 2].stage(mem, kScale, stageSeed_);
            sim::FunctionalCore::run(programs_[i], state, mem);
        }
        sim::Pipeline pipe(programs_.front());
        suite.front().stage(pipe.memory(), kScale, stageSeed_);
        pipe.run(kMaxCycles);
    }

    RepOutcome
    run(bool traced) override
    {
        RepOutcome out;
        const auto &suite = sim::kernels::suite();
        std::vector<std::uint64_t> committed(programs_.size());
        std::vector<double> kernelUs;
        std::uint64_t cycles = 0, insts = 0, mispredicts = 0;
        std::uint64_t active = 0, skipped = 0, hits = 0, misses = 0;
        std::uint64_t functional = 0;
        Digest d;

        const double t0 = hostNowNs();
        for (std::size_t i = 0; i < programs_.size(); ++i) {
            const auto &kernel = suite[i / 2];
            sim::Pipeline pipe(programs_[i]);
            {
                Scope span("Kernel::stage", i);
                kernel.stage(pipe.memory(), kScale, stageSeed_);
            }
            sim::PipelineResult r;
            {
                Scope span("Pipeline::run", i);
                r = pipe.run(kMaxCycles);
            }
            if (!r.halted || r.faulted)
                out.errors.push_back(kernel.name + " did not halt cleanly");
            committed[i] = r.instructions;
            cycles += r.cycles;
            insts += r.instructions;
            kernelUs.push_back(r.cycles / kCyclesPerNs / 1e3);
            const char *mode = i % 2 ? "emu" : "hw";
            out.pinned["cycles." + kernel.name + "." + mode] = r.cycles;
            out.pinned["insts." + kernel.name + "." + mode] = r.instructions;
            d.add(r.cycles);
            d.add(r.instructions);
            if (traced) {
                mispredicts += pipe.stats().mispredicts;
                active += pipe.profile().activeCycles;
                skipped += pipe.profile().skippedCycles;
                hits += pipe.dcache().hits();
                misses += pipe.dcache().misses();
            }
        }
        std::uint64_t mismatched = 0;
        for (unsigned pass = 0; pass < kFunctionalPasses; ++pass) {
            for (std::size_t i = 0; i < programs_.size(); ++i) {
                const sim::Program &prog = programs_[i];
                sim::ArchState state;
                state.pc = prog.base();
                sim::SimMemory mem;
                {
                    Scope span("Kernel::stage", i);
                    suite[i / 2].stage(mem, kScale, stageSeed_);
                }
                std::uint64_t n = 0;
                {
                    Scope span("FunctionalCore::run", i);
                    n = sim::FunctionalCore::run(prog, state, mem);
                }
                functional += n;
                if (n != committed[i] && pass == 0)
                    ++mismatched;
            }
        }
        out.wallNs = hostNowNs() - t0;

        out.ops = insts + functional;
        out.attempted = programs_.size();
        out.failed = mismatched;
        if (functional != insts * kFunctionalPasses || mismatched)
            out.errors.push_back(
                "functional instruction count != pipeline committed");
        std::sort(kernelUs.begin(), kernelUs.end());
        // Nearest-rank p99 over the kernel runs.
        const std::size_t rank =
            (kernelUs.size() * 99 + 99) / 100; // ceil(0.99 n)
        out.modeledP99Us = kernelUs[rank - 1];
        out.modeledCycles = cycles;
        out.digest = d.h;

        if (traced) {
            auto &c = out.counts;
            c["sim.pipeline.ipc"] = static_cast<double>(insts) / cycles;
            c["sim.pipeline.mispredicts_per_kinst"] =
                mispredicts * 1e3 / insts;
            c["sim.pipeline.skipped_cycle_frac"] =
                static_cast<double>(skipped) / (active + skipped);
            c["sim.dcache.miss_rate"] =
                static_cast<double>(misses) / (hits + misses);
            out.ledger.push_back({"sim.pipeline.ns_per_inst",
                                  static_cast<double>(insts) / out.ops});
            out.ledger.push_back(
                {"sim.functional.ns_per_inst",
                 static_cast<double>(functional) / out.ops});
        }
        return out;
    }

  private:
    static constexpr std::uint64_t kMaxCycles = 500'000'000;
    static constexpr sim::kernels::Mode kModes[2] = {
        sim::kernels::Mode::HfiHardware, sim::kernels::Mode::HfiEmulation};

    std::uint32_t stageSeed_ = kDefaultSeed;
    std::vector<sim::Program> programs_;
};

} // namespace

std::string
faasCellMetric(const char *handler, sfi::BackendKind b)
{
    return std::string("faas.") + handler + "." +
           sfi::backendKindName(b) + ".host_us_per_req";
}

serve::Handler
lightHandler()
{
    return [](sfi::Sandbox &s, std::uint32_t seed) {
        for (int i = 0; i < 16; ++i)
            s.store<std::uint32_t>(64 + i * 4, seed + i);
        s.chargeOps(66'000);
    };
}

serve::EngineConfig
dispatchConfig(std::uint64_t seed, unsigned requests)
{
    serve::EngineConfig ec;
    ec.workers = 16;
    ec.mode = serve::LoadMode::OpenLoop;
    ec.requests = requests;
    ec.meanInterarrivalNs = 3'500.0;
    ec.seed = seed;
    ec.queueCapacity = 64;
    ec.workStealing = true;
    ec.worker.scheme = serve::Scheme::HfiNative;
    ec.worker.backend = sfi::BackendKind::Hfi;
    ec.worker.quantumNs = 50'000.0;
    ec.worker.teardownBatch = 32;
    return ec;
}

serve::EngineConfig
faultsConfig(std::uint64_t seed, unsigned requests, unsigned workers)
{
    serve::EngineConfig ec;
    ec.workers = workers;
    ec.mode = serve::LoadMode::OpenLoop;
    ec.requests = requests;
    ec.meanInterarrivalNs = 40'000.0 / workers;
    ec.seed = seed;
    ec.workStealing = false;
    ec.realThreads = true;
    ec.worker.scheme = serve::Scheme::HfiNative;
    ec.worker.backend = sfi::BackendKind::Hfi;
    ec.worker.quantumNs = 50'000.0;
    ec.worker.poolSize = 4;
    ec.worker.requestTimeoutNs = 300'000.0;
    ec.worker.maxRetries = 6;
    ec.worker.faults.rate = 0.05;
    ec.worker.faults.stallNs = 2'000'000.0;
    return ec;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "serve_dispatch")
        return std::make_unique<ServeWorkload>(0, 1'000'000);
    if (name == "faas_access")
        return std::make_unique<FaasWorkload>();
    if (name == "serve_faults_threaded")
        return std::make_unique<ServeWorkload>(2, 2'000'000);
    if (name == "serve_faults_threaded_4t")
        return std::make_unique<ServeWorkload>(4, 2'000'000);
    if (name == "sim_fig2")
        return std::make_unique<SimWorkload>();
    return nullptr;
}

const std::map<std::string, std::uint64_t> &
pinnedOutputs(const std::string &workload)
{
    // Modeled outputs at kDefaultSeed. Regenerate with --print-pins only
    // when a change sets out to alter the modeled results.
    static const std::map<std::string, std::map<std::string, std::uint64_t>>
        pins = {
        {"serve_dispatch",
         {
             {"context_switches", 2000000ULL},
             {"duration_bits", 4749637189014284557ULL},
             {"exits", 0ULL},
             {"failed", 0ULL},
             {"faults_injected", 0ULL},
             {"instances_created", 1000000ULL},
             {"latency_digest", 8742487745511254106ULL},
             {"max_queue_depth", 7ULL},
             {"pool_waits", 0ULL},
             {"preemptions", 0ULL},
             {"quarantines", 0ULL},
             {"rejected", 0ULL},
             {"respawns", 0ULL},
             {"retries", 0ULL},
             {"served", 1000000ULL},
             {"shed", 0ULL},
             {"stolen", 859141ULL},
             {"timeouts", 0ULL},
         }},
        {"faas_access",
         {
             {"failed", 0ULL},
             {"handler_checksum", 14354334056760724792ULL},
             {"latency_digest", 2185053716694998255ULL},
         }},
        {"serve_faults_threaded",
         {
             {"context_switches", 4168418ULL},
             {"duration_bits", 4765550016552603142ULL},
             {"exits", 77733ULL},
             {"failed", 0ULL},
             {"faults_injected", 103776ULL},
             {"instances_created", 26051ULL},
             {"latency_digest", 1083614803489503747ULL},
             {"max_queue_depth", 45ULL},
             {"pool_waits", 1ULL},
             {"preemptions", 0ULL},
             {"quarantines", 26043ULL},
             {"rejected", 0ULL},
             {"respawns", 26043ULL},
             {"retries", 84209ULL},
             {"served", 2000000ULL},
             {"shed", 0ULL},
             {"stolen", 0ULL},
             {"timeouts", 6476ULL},
         }},
        {"sim_fig2",
         {
             {"cycles.ackermann.emu", 119717ULL},
             {"cycles.ackermann.hw", 119318ULL},
             {"cycles.base64.emu", 185525ULL},
             {"cycles.base64.hw", 177429ULL},
             {"cycles.blake3-scalar.emu", 45296ULL},
             {"cycles.blake3-scalar.hw", 45192ULL},
             {"cycles.ctype.emu", 242799ULL},
             {"cycles.ctype.hw", 242695ULL},
             {"cycles.fib2.emu", 50354ULL},
             {"cycles.fib2.hw", 48249ULL},
             {"cycles.gimli.emu", 46695ULL},
             {"cycles.gimli.hw", 46592ULL},
             {"cycles.keccak.emu", 42572ULL},
             {"cycles.keccak.hw", 42467ULL},
             {"cycles.memmove.emu", 137958ULL},
             {"cycles.memmove.hw", 125642ULL},
             {"cycles.minicsv.emu", 226492ULL},
             {"cycles.minicsv.hw", 226159ULL},
             {"cycles.nestedloop.emu", 471955ULL},
             {"cycles.nestedloop.hw", 471854ULL},
             {"cycles.random.emu", 261979ULL},
             {"cycles.random.hw", 241859ULL},
             {"cycles.ratelimit.emu", 758982ULL},
             {"cycles.ratelimit.hw", 758863ULL},
             {"cycles.sieve.emu", 97504ULL},
             {"cycles.sieve.hw", 97326ULL},
             {"cycles.switch.emu", 2817492ULL},
             {"cycles.switch.hw", 2733174ULL},
             {"cycles.xblabla20.emu", 75974ULL},
             {"cycles.xblabla20.hw", 70869ULL},
             {"cycles.xchacha20.emu", 75974ULL},
             {"cycles.xchacha20.hw", 70869ULL},
             {"insts.ackermann.emu", 218413ULL},
             {"insts.ackermann.hw", 218415ULL},
             {"insts.base64.emu", 368013ULL},
             {"insts.base64.hw", 368015ULL},
             {"insts.blake3-scalar.emu", 65612ULL},
             {"insts.blake3-scalar.hw", 65614ULL},
             {"insts.ctype.emu", 480013ULL},
             {"insts.ctype.hw", 480015ULL},
             {"insts.fib2.emu", 56016ULL},
             {"insts.fib2.hw", 56018ULL},
             {"insts.gimli.emu", 68212ULL},
             {"insts.gimli.hw", 68214ULL},
             {"insts.keccak.emu", 61012ULL},
             {"insts.keccak.hw", 61014ULL},
             {"insts.memmove.emu", 246962ULL},
             {"insts.memmove.hw", 246964ULL},
             {"insts.minicsv.emu", 499745ULL},
             {"insts.minicsv.hw", 499747ULL},
             {"insts.nestedloop.emu", 577812ULL},
             {"insts.nestedloop.hw", 577814ULL},
             {"insts.random.emu", 240013ULL},
             {"insts.random.hw", 240015ULL},
             {"insts.ratelimit.emu", 508257ULL},
             {"insts.ratelimit.hw", 508259ULL},
             {"insts.sieve.emu", 320412ULL},
             {"insts.sieve.hw", 320414ULL},
             {"insts.switch.emu", 296671ULL},
             {"insts.switch.hw", 296673ULL},
             {"insts.xblabla20.emu", 100013ULL},
             {"insts.xblabla20.hw", 100015ULL},
             {"insts.xchacha20.emu", 100013ULL},
             {"insts.xchacha20.hw", 100015ULL},
         }},
        {"serve_faults_threaded_4t",
         {
             {"context_switches", 4168418ULL},
             {"duration_bits", 4761046419875067584ULL},
             {"exits", 77733ULL},
             {"failed", 0ULL},
             {"faults_injected", 103776ULL},
             {"instances_created", 26058ULL},
             {"latency_digest", 16108591901120031914ULL},
             {"max_queue_depth", 43ULL},
             {"pool_waits", 0ULL},
             {"preemptions", 0ULL},
             {"quarantines", 26043ULL},
             {"rejected", 0ULL},
             {"respawns", 26042ULL},
             {"retries", 84209ULL},
             {"served", 2000000ULL},
             {"shed", 0ULL},
             {"stolen", 0ULL},
             {"timeouts", 6476ULL},
         }},
        };
    static const std::map<std::string, std::uint64_t> none;
    const auto it = pins.find(workload);
    return it == pins.end() ? none : it->second;
}

} // namespace perfbench
