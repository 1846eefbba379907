// End-to-end benchmark driver. One invocation runs one workload in a
// fresh process and prints, as its last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// See README.md for the workloads and metrics.
//
//   e2e_bench --workload paper_ycsb --seed 1 --seconds 10 --trace 0

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "modes.h"

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--commit SHA]\n"
               "workloads: paper_ycsb xshard_overload contended_failover\n");
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload_name;
  std::string commit = "unknown";
  uint64_t seed = 1;
  double seconds = 10;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      workload_name = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      trace = std::atoi(value);
    } else if (std::strcmp(flag, "--commit") == 0) {
      commit = value;
    } else {
      return Usage();
    }
  }
  const Workload* w = FindWorkload(workload_name);
  if (w == nullptr || (trace != 0 && trace != 1) || argc % 2 != 1) {
    return Usage();
  }

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const int threads = static_cast<int>(std::min(nproc, 4u));
#ifdef NDEBUG
  const char* build = "release (NDEBUG)";
#else
  const char* build = "debug (NDEBUG off)";
  std::fprintf(stderr,
               "warning: NDEBUG is off; host timings are not comparable\n");
#endif
  std::printf("stamp: workload=%s seed=%llu trace=%d nproc=%u "
              "sim_threads=%d crypto=kFast build=%s commit=%s\n",
              w->name.c_str(), static_cast<unsigned long long>(seed), trace,
              nproc, trace == 1 && w->parallel ? threads : 0, build,
              commit.c_str());

  Report report = trace == 1 ? RunTraced(*w, seed, seconds, threads)
                             : RunPlain(*w, seed, seconds);

  for (const Metric& m : report.metrics) {
    std::printf("  %-34s %16.6f %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const std::string& f : report.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  bool correct = report.failures.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.runs);
  json += ", \"failed\": " + std::to_string(report.failed_runs);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += (i == 0 ? "" : ", ") + JsonString(m.name) + ": {\"value\": " +
            value + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
