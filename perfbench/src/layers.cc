#include "layers.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/checker.h"
#include "core/context.h"
#include "obs/metrics.h"
#include "os/scheduler.h"
#include "serve/engine.h"
#include "serve/load_gen.h"
#include "serve/shard_queue.h"
#include "serve/worker.h"
#include "sfi/runtime.h"
#include "sim/functional.h"
#include "sim/kernels.h"
#include "sim/pipeline.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench
{

using namespace hfi;

namespace
{

/** Keeps measured results observable so loops are not folded away. */
volatile std::uint64_t gSink = 0;

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Median over @p batches of host ns per op for @p batch(ops). */
template <typename F>
double
nsPerOp(unsigned batches, std::uint64_t ops, F &&batch)
{
    batch(ops); // warm
    std::vector<double> per;
    for (unsigned b = 0; b < batches; ++b) {
        const double t0 = hostNowNs();
        batch(ops);
        per.push_back((hostNowNs() - t0) / static_cast<double>(ops));
    }
    return median(per);
}

constexpr unsigned kBatches = 5;
constexpr std::uint64_t kTestRegionBase = 0x10000000;

void
measureServe(std::map<std::string, double> &rows)
{
    rows["serve.load_gen.ns_per_req"] =
        nsPerOp(kBatches, 100'000, [](std::uint64_t n) {
            serve::OpenLoopPoissonSource src(static_cast<unsigned>(n),
                                             3'500.0, kDefaultSeed);
            std::uint64_t acc = 0;
            while (auto r = src.next())
                acc += r->seed;
            gSink = gSink + acc;
        });

    rows["serve.shard_queue.offer_take_ns"] =
        nsPerOp(kBatches, 400'000, [](std::uint64_t n) {
            serve::ShardedQueues q(16, 64);
            serve::Request req;
            for (std::uint64_t i = 0; i < n; ++i) {
                req.id = i;
                q.offer(static_cast<unsigned>(i & 15), req);
                gSink = gSink + q.take(static_cast<unsigned>(i & 15)).id;
            }
        });

    // Core 0's own shard is empty and the other 15 hold work, so every
    // pickFor walks all shards (the stealing scan).
    serve::ShardedQueues stealQ(16, 0);
    for (unsigned s = 1; s < 16; ++s)
        for (unsigned k = 0; k < s; ++k)
            stealQ.offer(s, serve::Request{});
    rows["serve.shard_queue.steal_scan_ns"] =
        nsPerOp(kBatches, 1'000'000, [&](std::uint64_t n) {
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < n; ++i)
                acc += static_cast<std::uint64_t>(
                    stealQ.pickFor(static_cast<unsigned>(i & 1), true));
            gSink = gSink + acc;
        });

    // A standalone Worker replaying shard 0 of serve_dispatch's arrivals.
    const serve::EngineConfig ec = dispatchConfig(kDefaultSeed, 16 * 20'000);
    serve::Worker worker(0, ec.worker, lightHandler(), ec.seed);
    const serve::OpenLoopPoissonSource arrivals(ec.requests,
                                                ec.meanInterarrivalNs,
                                                ec.seed);
    std::vector<double> serveNs;
    for (const serve::Request &req : arrivals.arrivals()) {
        if (req.id % ec.workers != 0)
            continue;
        Scope span("Worker::serve", req.id);
        const double t0 = hostNowNs();
        gSink = gSink + worker.serve(req).ok;
        serveNs.push_back(hostNowNs() - t0);
    }
    double meanServe = 0;
    for (double v : serveNs)
        meanServe += v;
    meanServe /= static_cast<double>(serveNs.size());
    std::sort(serveNs.begin(), serveNs.end());
    rows["serve.worker.serve_ns.p50"] = serveNs[(serveNs.size() - 1) / 2];
    rows["serve.worker.serve_ns.p99"] =
        serveNs[(serveNs.size() * 99 + 99) / 100 - 1];

    obs::MetricsRegistry workerMetrics;
    worker.exportMetrics(workerMetrics);
    rows["obs.metrics.merge_ns"] =
        nsPerOp(kBatches, 20'000, [&](std::uint64_t n) {
            obs::MetricsRegistry acc;
            for (std::uint64_t i = 0; i < n; ++i)
                acc.merge(workerMetrics);
            gSink = gSink + acc.counter("serve.served");
        });

    // The event loop's own share: a whole serve_dispatch-shaped run
    // minus what the worker and the generator account for.
    {
        const serve::EngineConfig run =
            dispatchConfig(kDefaultSeed, 100'000);
        std::vector<double> perReq;
        for (int i = 0; i < 3; ++i) {
            const double t0 = hostNowNs();
            gSink = gSink +
                    serve::ServeEngine(run, lightHandler()).run().served;
            perReq.push_back((hostNowNs() - t0) / run.requests);
        }
        rows["serve.drive.ns_per_req"] = median(perReq) - meanServe -
                                          rows["serve.load_gen.ns_per_req"];
    }

    // Sequential over threaded wall on a serve_faults_threaded config.
    {
        serve::EngineConfig threaded = faultsConfig(kDefaultSeed, 200'000);
        serve::EngineConfig sequential = threaded;
        sequential.realThreads = false;
        std::vector<double> seqNs, thrNs;
        for (int i = 0; i < 3; ++i) {
            for (auto *cfg : {&sequential, &threaded}) {
                const double t0 = hostNowNs();
                gSink = gSink +
                        serve::ServeEngine(*cfg, lightHandler()).run().served;
                (cfg == &threaded ? thrNs : seqNs)
                    .push_back(hostNowNs() - t0);
            }
        }
        rows["serve.threads.speedup"] = median(seqNs) / median(thrNs);
    }
}

void
measureOsAndCore(std::map<std::string, double> &rows)
{
    vm::VirtualClock clock;
    core::HfiContext ctx(clock);

    {
        os::Scheduler sched(ctx);
        const int a = sched.createProcess("server");
        const int b = sched.createProcess("tenant");
        rows["os.scheduler.switch_pair_ns"] =
            nsPerOp(kBatches, 200'000, [&](std::uint64_t n) {
                for (std::uint64_t i = 0; i < n; ++i) {
                    sched.switchTo(a);
                    sched.switchTo(b);
                }
                gSink = gSink + sched.totalSwitches();
            });
    }

    core::ImplicitDataRegion heap;
    heap.basePrefix = kTestRegionBase;
    heap.lsbMask = 0xffff;
    heap.permRead = heap.permWrite = true;
    core::ImplicitDataRegion other = heap;
    other.basePrefix = 2 * kTestRegionBase;
    core::ExplicitDataRegion expl;
    expl.baseAddress = 0x1'0000'0000ULL;
    expl.bound = 1 << 20;
    expl.permRead = expl.permWrite = true;
    ctx.setRegion(core::kFirstImplicitDataRegion, heap);
    ctx.setRegion(core::kFirstExplicitRegion, expl);

    rows["core.context.set_region_ns"] =
        nsPerOp(kBatches, 400'000, [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i)
                ctx.setRegion(core::kFirstImplicitDataRegion + 1,
                              i & 1 ? heap : other);
        });

    core::SandboxConfig native;
    native.isSerialized = true;
    native.exitHandler = 0x7000'0000;
    rows["core.context.enter_exit_ns"] =
        nsPerOp(kBatches, 400'000, [&](std::uint64_t n) {
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                ctx.enter(native);
                acc += ctx.exit();
            }
            gSink = gSink + acc;
        });

    rows["core.checker.hmov_ns"] =
        nsPerOp(kBatches, 2'000'000, [&](std::uint64_t n) {
            core::HmovOperands ops;
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                ops.index = static_cast<std::int64_t>(i & 0xfff8);
                acc += core::AccessChecker::checkHmov(ctx, 0, ops, i & 1)
                           .address;
            }
            gSink = gSink + acc;
        });

    core::SandboxConfig hybrid;
    hybrid.isHybrid = true;
    ctx.enter(hybrid);
    rows["core.checker.data_ns"] =
        nsPerOp(kBatches, 2'000'000, [&](std::uint64_t n) {
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < n; ++i)
                acc += core::AccessChecker::checkData(
                           ctx, kTestRegionBase + (i & 0xfff8), 8, i & 1)
                           .matchedRegion;
            gSink = gSink + acc;
        });
    ctx.exit();
}

/** One core's SFI stack: clock, MMU arena, context and runtime. */
struct SfiStack
{
    explicit SfiStack(sfi::BackendKind backend)
        : mmu(clock, 48), ctx(clock), runtime(mmu, ctx, config(backend))
    {
    }

    static sfi::RuntimeConfig
    config(sfi::BackendKind backend)
    {
        sfi::RuntimeConfig rc;
        rc.backend = backend;
        return rc;
    }

    vm::VirtualClock clock;
    vm::Mmu mmu;
    core::HfiContext ctx;
    sfi::Runtime runtime;
};

void
measureSfi(std::map<std::string, double> &rows)
{
    for (sfi::BackendKind b :
         {sfi::BackendKind::GuardPages, sfi::BackendKind::BoundsCheck,
          sfi::BackendKind::Mask, sfi::BackendKind::Hfi}) {
        SfiStack stack(b);
        auto s = stack.runtime.createSandbox({1, 64});
        const std::string name = sfi::backendKindName(b);
        s->enter();
        rows["sfi.sandbox.load_ns." + name] =
            nsPerOp(kBatches, 2'000'000, [&](std::uint64_t n) {
                std::uint64_t acc = 0;
                for (std::uint64_t i = 0; i < n; ++i)
                    acc += s->load<std::uint32_t>((i * 4) & 0xffc);
                gSink = gSink + acc;
            });
        rows["sfi.sandbox.store_ns." + name] =
            nsPerOp(kBatches, 2'000'000, [&](std::uint64_t n) {
                for (std::uint64_t i = 0; i < n; ++i)
                    s->store<std::uint32_t>((i * 4) & 0xffc,
                                            static_cast<std::uint32_t>(i));
            });
        if (b == sfi::BackendKind::Hfi) {
            rows["sfi.sandbox.charge_ops_ns"] =
                nsPerOp(kBatches, 2'000'000, [&](std::uint64_t n) {
                    for (std::uint64_t i = 0; i < n; ++i)
                        s->chargeOps(16);
                });
        }
        s->exit();
        if (b == sfi::BackendKind::Hfi) {
            rows["sfi.sandbox.rebind_ns"] =
                nsPerOp(kBatches, 400'000, [&](std::uint64_t n) {
                    for (std::uint64_t i = 0; i < n; ++i)
                        s->rebindRegions();
                });
        }
    }

    // Instance churn as the serving worker does it: create, then retire
    // in batched-madvise groups of 32.
    for (sfi::BackendKind b :
         {sfi::BackendKind::Hfi, sfi::BackendKind::GuardPages}) {
        SfiStack stack(b);
        rows[std::string("sfi.runtime.create_retire_ns.") +
             sfi::backendKindName(b)] =
            nsPerOp(kBatches, 4'096, [&](std::uint64_t n) {
                std::vector<std::unique_ptr<sfi::Sandbox>> batch;
                std::vector<sfi::Sandbox *> raw;
                for (std::uint64_t i = 0; i < n; i += 32) {
                    for (int k = 0; k < 32; ++k) {
                        batch.push_back(
                            stack.runtime.createSandbox({1, 64}));
                        raw.push_back(batch.back().get());
                    }
                    stack.runtime.reclaim(raw, sfi::ReclaimPolicy::Batched,
                                          32);
                    batch.clear();
                    raw.clear();
                }
            });
    }
}

void
measureFaas(std::map<std::string, double> &rows)
{
    constexpr std::uint32_t kSeeds[] = {1, 2, 3, 4};
    for (sfi::BackendKind b : kFaasBackends) {
        for (const auto &cell : faasCells()) {
            SfiStack stack(b);
            auto s = stack.runtime.createSandbox({64, 4096});
            std::vector<double> passUs;
            for (int pass = 0; pass < 4; ++pass) {
                const double t0 = hostNowNs();
                for (std::uint32_t seed : kSeeds)
                    s->invoke([&](sfi::Sandbox &sb) {
                        gSink = gSink + cell.body(sb, seed);
                    });
                if (pass > 0) // pass 0 warms
                    passUs.push_back((hostNowNs() - t0) / 1e3 /
                                     std::size(kSeeds));
            }
            rows[faasCellMetric(cell.handler, b)] = median(passUs);
        }
    }
}

void
measureSim(std::map<std::string, double> &rows)
{
    constexpr std::uint64_t kScale = 2;
    const auto &suite = sim::kernels::suite();
    std::vector<sim::Program> programs;
    const double t0 = hostNowNs();
    for (std::size_t k = 0; k < suite.size(); ++k) {
        for (auto mode : {sim::kernels::Mode::HfiHardware,
                          sim::kernels::Mode::HfiEmulation}) {
            Scope span("Kernel::build", k);
            programs.push_back(suite[k].build(mode, kScale));
        }
    }
    rows["sim.program.build_us"] =
        (hostNowNs() - t0) / 1e3 / static_cast<double>(programs.size());

    double runNs = 0, insts = 0, active = 0;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        sim::Pipeline pipe(programs[i]);
        suite[i / 2].stage(pipe.memory(), kScale, kDefaultSeed);
        Scope span("Pipeline::run", i);
        const double r0 = hostNowNs();
        const sim::PipelineResult r = pipe.run(500'000'000);
        runNs += hostNowNs() - r0;
        insts += static_cast<double>(r.instructions);
        active += static_cast<double>(pipe.profile().activeCycles);
    }
    rows["sim.pipeline.ns_per_inst"] = runNs / insts;
    rows["sim.pipeline.ns_per_active_cycle"] = runNs / active;

    double fnNs = 0, fnInsts = 0;
    for (int pass = 0; pass < 3; ++pass) {
        for (std::size_t i = 0; i < programs.size(); ++i) {
            sim::ArchState state;
            state.pc = programs[i].base();
            sim::SimMemory mem;
            suite[i / 2].stage(mem, kScale, kDefaultSeed);
            Scope span("FunctionalCore::run", i);
            const double r0 = hostNowNs();
            const std::uint64_t n =
                sim::FunctionalCore::run(programs[i], state, mem);
            if (pass > 0) { // pass 0 warms
                fnNs += hostNowNs() - r0;
                fnInsts += static_cast<double>(n);
            }
        }
    }
    rows["sim.functional.ns_per_inst"] = fnNs / fnInsts;
}

} // namespace

std::map<std::string, double>
measureLayers()
{
    std::map<std::string, double> rows;
    measureServe(rows);
    measureOsAndCore(rows);
    measureSfi(rows);
    measureFaas(rows);
    measureSim(rows);
    return rows;
}

} // namespace perfbench
