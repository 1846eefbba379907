#ifndef SBFT_PERFBENCH_REPORT_H_
#define SBFT_PERFBENCH_REPORT_H_

#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< Printed next to the value, not in the JSON.
};

/// One benchmark invocation's outcome.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< Failed correctness checks.
  uint64_t runs = 0;                  ///< Simulated runs made.
  uint64_t failed_runs = 0;           ///< Runs with a failed check.

  void Add(std::string name, double value, std::string unit,
           std::string note = "") {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(note)});
  }
  /// Folds one run's failed checks in, prefixed with the run's label.
  void Checked(const std::string& label,
               const std::vector<std::string>& run_failures) {
    ++runs;
    if (run_failures.empty()) return;
    ++failed_runs;
    for (const auto& f : run_failures) failures.push_back(label + ": " + f);
  }
};

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

}  // namespace perfbench

#endif  // SBFT_PERFBENCH_REPORT_H_
