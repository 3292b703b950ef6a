/**
 * @file
 * Per-layer host-cost microbenchmarks, through each layer's public API.
 *
 * Every row runs on fixed inputs, independent of the workload being
 * traced, so a row moves only when its layer's code does. The ledger in
 * main.cc multiplies these costs by each workload's exact counts.
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <map>
#include <string>

namespace perfbench
{

/** Host cost of every microbenchmarked layer row, by metric name. */
std::map<std::string, double> measureLayers();

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
