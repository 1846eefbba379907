#ifndef SBFT_PERFBENCH_MODES_H_
#define SBFT_PERFBENCH_MODES_H_

#include "report.h"
#include "workloads.h"

namespace perfbench {

/// The plain run: every end-to-end metric of the workload, on the serial
/// engine. The nominal point repeats (fresh architecture each time) until
/// `seconds` of wall time have passed since the start, for the host
/// metrics; simulated metrics are medians over the workload's derived
/// seeds.
Report RunPlain(const Workload& w, uint64_t seed, double seconds);

/// The traced run: every per-layer metric, from a serial run of the
/// nominal point with a delivery observer, checked against the plain
/// serial run of the same seed, plus timings of the public sim, network
/// and crypto calls on the workload's own message sizes.
Report RunTraced(const Workload& w, uint64_t seed, double seconds,
                 int sim_threads);

}  // namespace perfbench

#endif  // SBFT_PERFBENCH_MODES_H_
