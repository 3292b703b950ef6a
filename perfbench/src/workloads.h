/**
 * @file
 * The benchmark's four workloads and the configurations they share with
 * the per-layer microbenchmarks.
 *
 * Every workload is one unit of fixed work derived from a seed. The
 * benchmark repeats that unit for the requested number of seconds and
 * reports medians; every repetition must produce the same modeled
 * (virtual-clock) outputs, and with kDefaultSeed those outputs must
 * equal the values pinned in workloads.cc.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serve/engine.h"
#include "sfi/backend.h"
#include "sfi/sandbox.h"

namespace perfbench
{

/** The seed whose modeled outputs are pinned. */
constexpr std::uint64_t kDefaultSeed = 42;

/** 16 stores plus ~20 us of modeled compute (66k ops at 3.3 GHz). */
hfi::serve::Handler lightHandler();

/**
 * serve_dispatch: 16 cores, sequential driver, stealing, bounded
 * shards, instance per request, open-loop Poisson at ~84% of modeled
 * capacity.
 */
hfi::serve::EngineConfig dispatchConfig(std::uint64_t seed,
                                        unsigned requests);

/**
 * serve_faults_threaded: @p workers cores on real threads, no stealing,
 * warm pools with quarantine/respawn, watchdog, retries and 5% injected
 * faults, at the same offered load per core for any core count.
 */
hfi::serve::EngineConfig faultsConfig(std::uint64_t seed, unsigned requests,
                                      unsigned workers = 2);

/** A Table 1 FaaS handler: stage a seeded payload, run, checksum. */
struct FaasCellInfo
{
    const char *handler; ///< short name used in metric names
    std::uint64_t (*body)(hfi::sfi::Sandbox &, std::uint32_t seed);
};

/** XML->JSON, image classification, SHA-256 check, templated HTML. */
const std::vector<FaasCellInfo> &faasCells();

/** faas_access runs every handler on both of these backends. */
constexpr std::array<hfi::sfi::BackendKind, 2> kFaasBackends = {
    hfi::sfi::BackendKind::GuardPages, hfi::sfi::BackendKind::Hfi};

/** "faas.<handler>.<backend>.host_us_per_req". */
std::string faasCellMetric(const char *handler, hfi::sfi::BackendKind b);

/** One unit of a workload's fixed work, measured and checked. */
struct RepOutcome
{
    double wallNs = 0;
    /** Requests issued, or simulated instructions for sim_fig2. */
    std::uint64_t ops = 0;
    /** Operations attempted: requests issued, or kernel runs. */
    std::uint64_t attempted = 0;
    /** Failed + shed + rejected requests, or mismatched kernels. */
    std::uint64_t failed = 0;
    /** Host threads the work ran on. */
    unsigned threads = 1;

    double modeledP99Us = 0;
    std::uint64_t modeledCycles = 0;
    /** Digest of every modeled output; equal across repetitions. */
    std::uint64_t digest = 0;

    /** Broken accounting invariants (empty when all hold). */
    std::vector<std::string> errors;
    /** Modeled outputs compared against the pins, by name. */
    std::map<std::string, std::uint64_t> pinned;

    /** Per-layer count rows this workload exercises. */
    std::map<std::string, double> counts;
    /**
     * Ledger terms: (per-layer metric, occurrences per op x ns per
     * metric unit). Sum of metric x weight is the ns/op the layers
     * explain.
     */
    std::vector<std::pair<std::string, double>> ledger;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Everything before the first timed operation; repeatable. */
    virtual void setup(std::uint64_t seed) = 0;

    /**
     * Run the fixed work once. With @p traced, calls are wrapped in
     * host-clock spans and per-request counts are collected.
     */
    virtual RepOutcome run(bool traced) = 0;
};

std::unique_ptr<Workload> makeWorkload(const std::string &name);

/** Pinned modeled outputs for kDefaultSeed (empty if unknown name). */
const std::map<std::string, std::uint64_t> &pinnedOutputs(
    const std::string &workload);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
