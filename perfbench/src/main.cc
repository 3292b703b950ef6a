/**
 * @file
 * Host-performance benchmark driver: one workload per process.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--trace-out FILE] [--print-pins]
 *   perfbench --list-metrics
 *
 * --trace 0 repeats the workload's fixed work for S seconds with
 * tracing off and reports the end-to-end metrics; host cost is counted
 * in user-mode instructions retired, which load from other processes
 * on a shared host does not move. --trace 1 alternates
 * untraced and traced repetitions (the difference is the tracing
 * overhead), runs every per-layer microbenchmark, reconciles the layer
 * ledger against the workload's measured ns/op and writes the spans as
 * Chrome trace JSON. The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 * A failed correctness check prints correct=false and exits 1.
 */

#include <algorithm>
#include <cinttypes>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "layers.h"
#include "obs/json_writer.h"
#include "spans.h"
#include "workloads.h"

namespace
{

using namespace perfbench;

struct MetricDef
{
    const char *name;
    const char *unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"host_insts_per_op", "insts/op"},
    {"peak_rss_mb", "MiB"},
    {"modeled_p99_us", "us"},
    {"modeled_cycles", "cycles"},
};

const std::vector<MetricDef> kPerLayer = {
    {"wall_s", "s"},
    {"ops_per_host_s", "ops/s"},
    {"serve.load_gen.ns_per_req", "ns"},
    {"serve.shard_queue.offer_take_ns", "ns"},
    {"serve.shard_queue.steal_scan_ns", "ns"},
    {"serve.worker.serve_ns.p50", "ns"},
    {"serve.worker.serve_ns.p99", "ns"},
    {"serve.drive.ns_per_req", "ns"},
    {"serve.threads.speedup", "x"},
    {"serve.stolen_frac", "ratio"},
    {"serve.switches_per_req", "1/req"},
    {"serve.preemptions_per_req", "1/req"},
    {"serve.instances_per_req", "1/req"},
    {"serve.max_queue_depth", "count"},
    {"serve.faults.exits_per_kreq", "1/kreq"},
    {"serve.retries_per_kreq", "1/kreq"},
    {"serve.quarantines", "count"},
    {"serve.respawns", "count"},
    {"serve.pool_waits", "count"},
    {"os.scheduler.switch_pair_ns", "ns"},
    {"core.context.enter_exit_ns", "ns"},
    {"core.context.set_region_ns", "ns"},
    {"core.checker.hmov_ns", "ns"},
    {"core.checker.data_ns", "ns"},
    {"sfi.sandbox.load_ns.guard-pages", "ns"},
    {"sfi.sandbox.load_ns.bounds-check", "ns"},
    {"sfi.sandbox.load_ns.mask", "ns"},
    {"sfi.sandbox.load_ns.hfi", "ns"},
    {"sfi.sandbox.store_ns.guard-pages", "ns"},
    {"sfi.sandbox.store_ns.bounds-check", "ns"},
    {"sfi.sandbox.store_ns.mask", "ns"},
    {"sfi.sandbox.store_ns.hfi", "ns"},
    {"sfi.sandbox.charge_ops_ns", "ns"},
    {"sfi.sandbox.accesses_per_req", "1/req"},
    {"sfi.runtime.create_retire_ns.hfi", "ns"},
    {"sfi.runtime.create_retire_ns.guard-pages", "ns"},
    {"sfi.sandbox.rebind_ns", "ns"},
    {"faas.xml.guard-pages.host_us_per_req", "us"},
    {"faas.image.guard-pages.host_us_per_req", "us"},
    {"faas.sha256.guard-pages.host_us_per_req", "us"},
    {"faas.html.guard-pages.host_us_per_req", "us"},
    {"faas.xml.hfi.host_us_per_req", "us"},
    {"faas.image.hfi.host_us_per_req", "us"},
    {"faas.sha256.hfi.host_us_per_req", "us"},
    {"faas.html.hfi.host_us_per_req", "us"},
    {"faas.closed_loop.overhead_frac", "ratio"},
    {"obs.metrics.merge_ns", "ns"},
    {"obs.bench_trace.overhead_frac", "ratio"},
    {"sim.functional.ns_per_inst", "ns"},
    {"sim.pipeline.ns_per_inst", "ns"},
    {"sim.pipeline.ns_per_active_cycle", "ns"},
    {"sim.pipeline.skipped_cycle_frac", "ratio"},
    {"sim.program.build_us", "us"},
    {"sim.pipeline.ipc", "inst/cycle"},
    {"sim.pipeline.mispredicts_per_kinst", "1/kinst"},
    {"sim.dcache.miss_rate", "ratio"},
    {"ledger.residual_frac", "ratio"},
    {"ledger.incomplete", "count"},
};

/** A residual above this share of ns/op marks the ledger incomplete. */
constexpr double kLedgerTolerance = 0.10;

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/**
 * Peak resident set of this process image. VmHWM, not getrusage's
 * ru_maxrss: the latter keeps the pre-exec high-water mark of the
 * launching process (the Python wrapper) across execve.
 */
double
peakRssMib()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    double kib = 0;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
            break;
    std::fclose(f);
    return kib / 1024.0;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
    bool printPins = false;
    bool listMetrics = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--list-metrics") {
            a.listMetrics = true;
            continue;
        }
        if (flag == "--print-pins") {
            a.printPins = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const char *v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
            if (*end)
                return false;
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v, &end);
            if (*end || !(a.seconds > 0))
                return false;
        } else if (flag == "--trace") {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                return false;
            a.trace = v[0] == '1';
        } else if (flag == "--trace-out") {
            a.traceOut = v;
        } else {
            return false;
        }
    }
    return a.listMetrics || !a.workload.empty();
}

void
listMetrics()
{
    hfi::obs::JsonWriter w(0);
    w.beginObject();
    for (const auto *group : {&kEndToEnd, &kPerLayer}) {
        w.key(group == &kEndToEnd ? "end_to_end" : "per_layer").beginArray();
        for (const MetricDef &m : *group) {
            w.beginObject();
            w.field("name", m.name);
            w.field("unit", m.unit);
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
    std::printf("%s\n", w.str().c_str());
}

/** Compare a repetition's modeled outputs with the pinned values. */
void
checkPins(const std::string &workload, const RepOutcome &rep,
          std::vector<std::string> &errors)
{
    const auto &pins = pinnedOutputs(workload);
    if (pins.empty()) {
        errors.push_back("no pinned outputs for " + workload);
        return;
    }
    for (const auto &[name, want] : pins) {
        const auto it = rep.pinned.find(name);
        if (it == rep.pinned.end())
            errors.push_back("pinned output missing: " + name);
        else if (it->second != want)
            errors.push_back("pinned output " + name + " = " +
                             std::to_string(it->second) + ", want " +
                             std::to_string(want));
    }
}

void
printPins(const RepOutcome &rep)
{
    for (const auto &[name, v] : rep.pinned)
        std::printf("            {\"%s\", %" PRIu64 "ULL},\n", name.c_str(),
                    v);
}

void
emit(bool correct, std::uint64_t attempted, std::uint64_t failed,
     const std::vector<MetricDef> &defs,
     const std::map<std::string, double> &values)
{
    // Full precision: every digit as measured.
    hfi::obs::JsonWriter w(0);
    w.beginObject();
    w.field("correct", correct);
    w.field("attempted", attempted);
    w.field("failed", failed);
    w.key("metrics").beginObject();
    for (const MetricDef &m : defs) {
        const auto it = values.find(m.name);
        w.key(m.name).beginObject();
        const double v = it == values.end() ? 0.0 : it->second;
        w.field("value", std::isfinite(v) ? v : 0.0, "%.17g");
        w.field("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload W --seed N --seconds S "
                     "--trace 0|1 [--trace-out FILE] [--print-pins]\n"
                     "       perfbench --list-metrics\n");
        return 2;
    }
    if (args.listMetrics) {
        listMetrics();
        return 0;
    }
    auto workload = makeWorkload(args.workload);
    if (!workload) {
        std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
        return 2;
    }

    if (!InstructionCounter::open()) {
        std::fprintf(stderr, "perfbench: no hardware instruction counter "
                             "(perf_event_open: %s)\n",
                     std::strerror(errno));
        return 1;
    }

    // Set-up is repeated before every repetition and its median
    // reported, so the metric spans the whole run instead of one moment
    // of a shared host's load.
    std::vector<double> setupNs;
    auto setUp = [&] {
        const double t0 = hostNowNs();
        workload->setup(args.seed);
        setupNs.push_back(hostNowNs() - t0);
    };

    std::vector<std::string> errors;
    std::vector<double> wallNs, tracedNs, instsPerOp;
    std::uint64_t attempted = 0, failed = 0;
    RepOutcome first, traced;
    const double budgetNs = args.seconds * 1e9;
    const double start = hostNowNs();
    do {
        setUp();
        const std::uint64_t i0 = InstructionCounter::read();
        RepOutcome rep = workload->run(false);
        const std::uint64_t i1 = InstructionCounter::read();
        if (i0 == 0 || i1 <= i0)
            errors.push_back("instruction counter unreadable or shared");
        instsPerOp.push_back(static_cast<double>(i1 - i0) / rep.ops);
        if (wallNs.empty())
            first = rep;
        else if (rep.digest != first.digest)
            errors.push_back("modeled outputs differ between repetitions");
        wallNs.push_back(rep.wallNs);
        attempted += rep.attempted;
        failed += rep.failed;
        errors.insert(errors.end(), rep.errors.begin(), rep.errors.end());

        if (args.trace) {
            Spans::clear();
            Spans::setEnabled(true);
            traced = workload->run(true);
            Spans::setEnabled(false);
            if (traced.digest != first.digest)
                errors.push_back("tracing changed the modeled outputs");
            tracedNs.push_back(traced.wallNs);
            attempted += traced.attempted;
            failed += traced.failed;
            errors.insert(errors.end(), traced.errors.begin(),
                          traced.errors.end());
        }
    } while (hostNowNs() - start < budgetNs);

    if (args.seed == kDefaultSeed)
        checkPins(args.workload, first, errors);
    if (args.printPins)
        printPins(first);

    std::fprintf(stderr, "%s: %zu untraced repetitions\n  wall ms: ",
                 args.workload.c_str(), wallNs.size());
    for (double ns : wallNs)
        std::fprintf(stderr, " %.1f", ns / 1e6);
    std::fprintf(stderr, "\n  insts/op:");
    for (double v : instsPerOp)
        std::fprintf(stderr, " %.3f", v);
    std::fprintf(stderr, "\n  set-up ms:");
    for (double ns : setupNs)
        std::fprintf(stderr, " %.1f", ns / 1e6);
    std::fprintf(stderr, "\n");
    const double wall = median(wallNs);
    std::map<std::string, double> values;
    const std::vector<MetricDef> *defs = &kEndToEnd;
    if (!args.trace) {
        values["setup_s"] = median(setupNs) / 1e9;
        values["host_insts_per_op"] = median(instsPerOp);
        values["peak_rss_mb"] = peakRssMib();
        values["modeled_p99_us"] = first.modeledP99Us;
        values["modeled_cycles"] = static_cast<double>(first.modeledCycles);
    } else {
        defs = &kPerLayer;
        Spans::setEnabled(true);
        values = measureLayers();
        Spans::setEnabled(false);
        values["wall_s"] = wall / 1e9;
        values["ops_per_host_s"] = first.ops / (wall / 1e9);
        for (const auto &[name, v] : traced.counts)
            values[name] = v;
        values["obs.bench_trace.overhead_frac"] = median(tracedNs) / wall - 1;

        // Reconcile: measured host ns per op against the layer ledger.
        const double opNs = wall * first.threads / first.ops;
        double explained = 0;
        std::fprintf(stderr, "ledger for %s (host ns/op %.2f):\n",
                     args.workload.c_str(), opNs);
        for (const auto &[name, weight] : traced.ledger) {
            const double ns = values.at(name) * weight;
            explained += ns;
            std::fprintf(stderr, "  %-44s %10.2f ns/op\n", name.c_str(), ns);
        }
        const double residual = (opNs - explained) / opNs;
        values["ledger.residual_frac"] = residual;
        values["ledger.incomplete"] =
            std::fabs(residual) > kLedgerTolerance ? 1 : 0;
        std::fprintf(stderr, "  residual %.1f%% of ns/op%s\n",
                     residual * 100,
                     std::fabs(residual) > kLedgerTolerance
                         ? " -- INCOMPLETE LEDGER (above 10%)"
                         : "");

        std::fprintf(stderr, "span self times (last traced repetition "
                             "and microbenchmarks):\n");
        for (const auto &[name, t] : Spans::totals())
            std::fprintf(stderr, "  %-36s n=%-9" PRIu64
                                 " total %10.3f ms  self %10.3f ms\n",
                         name.c_str(), t.count, t.totalNs / 1e6,
                         t.selfNs / 1e6);
        if (!args.traceOut.empty() &&
            !Spans::writeChromeTrace(args.traceOut, 20'000))
            errors.push_back("could not write " + args.traceOut);
    }

    for (const auto &[name, v] : values)
        if (!std::isfinite(v))
            errors.push_back("metric " + name + " is not finite");
    const bool correct = errors.empty();
    for (const auto &e : errors)
        std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    emit(correct, attempted, correct ? failed : attempted, *defs, values);
    return correct ? 0 : 1;
}
