// The benchmark workloads. Each builds its inputs from options.seed,
// runs in this single-threaded process, checks its outputs and fills
// `report`; see perfbench/README.md for why each exists.
#pragma once

#include "harness.h"

namespace perfbench {

/// Seeded spine/leaf fabric (~2,000 interfaces) polled by four logical
/// shards with batched GETBULK, with silent agents and light flows.
void run_fabric_poll(const Options& options, Report& report);

/// The paper's Figure 3 testbed run as the full service: per-varbind GET
/// polling, Figure 4-6 style loads, detectors, a probe and query clients.
void run_lirtss_service(const Options& options, Report& report);

}  // namespace perfbench
