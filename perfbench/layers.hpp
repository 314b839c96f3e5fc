// The traced run: one traced pass of every workload, the per-layer probes
// and the pruning layer's counters, reported as the per_layer metrics.
#pragma once

#include "bench.hpp"
#include "workloads.hpp"

namespace ftbench {

/// Runs the traced suite for config.workload and returns every per-layer
/// metric. Also writes the Chrome trace and the per-layer span table under
/// config.out_dir and prints the table.
[[nodiscard]] Metrics run_traced(const Config& config, Checks& checks);

/// The pruning layer's counters and its switched-off twin
/// (pruning_layer.cpp).
[[nodiscard]] Metrics pruning_layer_metrics(const CertifyWorkload& certify,
                                            const Config& config,
                                            Checks& checks);

}  // namespace ftbench
