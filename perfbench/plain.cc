#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "modes.h"

namespace perfbench {

namespace {

constexpr int kMaxNominalRuns = 64;

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string SeedLabel(const char* what, uint64_t seed) {
  return std::string(what) + " seed " + std::to_string(seed);
}

struct Medians {
  std::vector<double> goodput, p50, p99, fail, cents;
  uint64_t samples = 0;

  void Add(const PointResult& r) {
    goodput.push_back(r.goodput_tps);
    p50.push_back(r.p50_ms);
    p99.push_back(r.p99_ms);
    fail.push_back(r.fail_frac);
    cents.push_back(r.cents_per_ktxn);
    samples += r.latency_samples;
  }
};

/// The knee: bisection of [knee_lo, knee_hi] for the highest offered
/// rate whose probe meets the workload's p99 and fail_frac caps. A probe
/// runs knee_reps derived seeds and is judged on their medians. Returns
/// the goodput that probe measured, which tracks the offered rate below
/// the knee but keeps the digits a grid point would round away.
double FindKnee(const Workload& w, uint64_t seed, Report* report,
                std::string* note) {
  double lo = w.knee_lo;
  double hi = w.knee_hi;
  double knee_goodput = 0;
  for (int i = 0; i < w.knee_steps; ++i) {
    const double rate = (lo + hi) / 2;
    Medians probe;
    for (int j = 0; j < w.knee_reps; ++j) {
      PointResult r = Session(w.knee_probe(DerivedSeed(seed, j), rate)).Run();
      report->Checked("knee probe " + std::to_string(rate), r.failures);
      probe.Add(r);
    }
    const double goodput = Median(probe.goodput);
    const double p99 = Median(probe.p99);
    const double fail = Median(probe.fail);
    const bool pass = p99 <= w.knee_p99_ms && fail <= w.knee_fail_frac;
    std::printf("knee probe %.0f t/s: goodput %.0f p99 %.1f ms fail %.4f %s\n",
                rate, goodput, p99, fail, pass ? "pass" : "fail");
    if (pass) knee_goodput = goodput;
    (pass ? lo : hi) = rate;
  }
  // The bracket ends are not probed: a knee at either end is censored.
  char buf[96];
  if (knee_goodput == 0) {
    *note = "censored: no probe passed; bracket bottom";
    return lo;
  }
  std::snprintf(buf, sizeof(buf), "offered %.0f t/s, resolution %.0f t/s%s",
                lo, hi - lo, hi == w.knee_hi ? ", censored at the top" : "");
  *note = buf;
  return knee_goodput;
}

/// The nominal point's runs: sim_reps derived seeds, then repeats of the
/// same seeds, which must reproduce every count.
///
/// A repeat replays the same events, so its window does the same work
/// every time and only the host's speed differs. The window wall time of
/// a seed is the median over its repeats, which drops the repeats that
/// the host's co-tenants slowed most.
class NominalRuns {
 public:
  NominalRuns(const Workload& w, uint64_t seed)
      : w_(w), seed_(seed), window_wall_s_(w.sim_reps) {}

  void RunOne(Report* report) {
    const int k = runs_ % w_.sim_reps;
    const uint64_t s = DerivedSeed(seed_, k);
    const PointSpec spec = w_.nominal(s, 0);
    const double t0 = WallNow();
    PointResult r = Session(spec).Run();
    run_wall_s_ += WallNow() - t0;
    setup_s_.push_back(r.setup_s);
    window_wall_s_[k].push_back(r.window_wall_s);
    if (runs_ < w_.sim_reps) {
      first_.push_back(r);
      medians_.Add(r);
      window_sim_s_ += sbft::ToSeconds(spec.window);
    } else if (!r.end.SameSimulation(first_[k].end)) {
      r.failures.push_back("repeat of the same seed diverged");
    }
    ++runs_;
    report->Checked(SeedLabel("nominal", s), r.failures);
  }

  /// Builds more architectures until there are `n` setup times.
  void FillSetups(size_t n) {
    while (setup_s_.size() < n) {
      setup_s_.push_back(Session(w_.nominal(DerivedSeed(seed_, 0), 0))
                             .setup_s());
    }
  }

  int runs() const { return runs_; }
  double mean_run_s() const { return runs_ == 0 ? 0 : run_wall_s_ / runs_; }
  const Medians& medians() const { return medians_; }
  const std::vector<double>& setup_s() const { return setup_s_; }

  double WallPerSimSecond() const {
    double wall = 0;
    for (const auto& repeats : window_wall_s_) wall += Median(repeats);
    return wall / window_sim_s_;
  }

 private:
  const Workload& w_;
  const uint64_t seed_;
  int runs_ = 0;
  double run_wall_s_ = 0;
  double window_sim_s_ = 0;
  std::vector<double> setup_s_;
  std::vector<std::vector<double>> window_wall_s_;  ///< Per seed.
  std::vector<PointResult> first_;
  Medians medians_;
};

}  // namespace

Report RunPlain(const Workload& w, uint64_t seed, double seconds) {
  Report report;
  const double deadline = WallNow() + seconds;
  NominalRuns nominal(w, seed);

  // Every seed of the nominal point runs once before the stress point
  // and the knee, and at least once more after them, while the wall
  // budget lasts, so the repeats sample the host over the whole run.
  double t0 = WallNow();
  while (nominal.runs() < w.sim_reps) nominal.RunOne(&report);
  std::printf("phase nominal: %.1f s wall\n", WallNow() - t0);

  // The first nominal runs set the memory high-water mark; the stress
  // point's backlog would swamp it.
  const double peak_rss_mb = PeakRssMb();

  // Stress point past the knee.
  t0 = WallNow();
  Medians stress;
  for (int k = 0; k < w.stress_reps; ++k) {
    const uint64_t s = DerivedSeed(seed, 100 + k);
    PointResult r = Session(w.stress(s)).Run();
    report.Checked(SeedLabel("stress", s), r.failures);
    stress.Add(r);
  }
  std::printf("phase stress: %.1f s wall\n", WallNow() - t0);

  t0 = WallNow();
  std::string knee_note;
  const double knee = FindKnee(w, DerivedSeed(seed, 200), &report, &knee_note);
  std::printf("phase knee: %.1f s wall\n", WallNow() - t0);

  t0 = WallNow();
  while (nominal.runs() < 2 * w.sim_reps ||
         (nominal.runs() < kMaxNominalRuns &&
          WallNow() + nominal.mean_run_s() <= deadline)) {
    nominal.RunOne(&report);
  }
  nominal.FillSetups(static_cast<size_t>(w.setup_reps));
  std::printf("phase nominal repeats: %.1f s wall\n", WallNow() - t0);

  const Medians& m = nominal.medians();
  const std::string samples = "samples " + std::to_string(m.samples);
  report.Add("goodput_tps", Median(m.goodput), "txn/s");
  report.Add("p50_ms", Median(m.p50), "ms", samples);
  report.Add("p99_ms", Median(m.p99), "ms", samples);
  report.Add("commit_frac", 1.0 - Median(m.fail), "frac",
             "fail_frac " + std::to_string(Median(m.fail)));
  report.Add("cents_per_ktxn", Median(m.cents), "cents/ktxn");
  report.Add("overload_goodput_tps", Median(stress.goodput), "txn/s");
  report.Add("overload_p99_ms", Median(stress.p99), "ms",
             "samples " + std::to_string(stress.samples));
  report.Add("knee_tps", knee, "txn/s", knee_note);
  report.Add("wall_s_per_sim_s", nominal.WallPerSimSecond(), "s/s",
             "median repeat per seed; " + std::to_string(nominal.runs()) +
                 " runs of " + std::to_string(w.sim_reps) + " seeds");
  report.Add("setup_s", Median(nominal.setup_s()), "s",
             "median of " + std::to_string(nominal.setup_s().size()) +
                 " builds");
  report.Add("peak_rss_mb", peak_rss_mb, "MB", "after the first nominal run");
  return report;
}

}  // namespace perfbench
