#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "faults/schedule.h"

namespace perfbench {

using sbft::core::Architecture;

double WallNow() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

void LatencyTap::Attach(Architecture* arch) {
  auto take = [this](const sbft::workload::Transaction&) { return Take(); };
  for (const auto& source : arch->sources()) source->SetLatencyResolver(take);
  for (const auto& client : arch->clients()) client->SetLatencyResolver(take);
}

sbft::Histogram* LatencyTap::Take() {
  Flush();
  return &scratch_;
}

void LatencyTap::Flush() {
  if (scratch_.count() == 0) return;
  samples_.push_back(scratch_.max());
  scratch_.Reset();
}

const std::vector<int64_t>& LatencyTap::samples() {
  Flush();
  return samples_;
}

double Quantile(std::vector<int64_t>* v, double q) {
  if (v->empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v->size())));
  size_t k = std::min(v->size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v->begin(), v->begin() + static_cast<long>(k), v->end());
  return static_cast<double>((*v)[k]);
}

uint64_t EventsExecuted(Architecture* arch) {
  uint64_t events = arch->simulator()->events_executed();
  if (arch->parallel()) {
    for (uint32_t s = 0; s < arch->shard_count(); ++s) {
      events += arch->plane_simulator(s)->events_executed();
    }
  }
  return events;
}

uint64_t CoordinatorDecided(Architecture* arch) {
  uint64_t total = 0;
  for (uint64_t d : arch->CoordinatorGroupDecisions()) total += d;
  return total;
}

Counters Counters::Read(Architecture* arch) {
  Counters c;
  c.offered = arch->TotalOffered();
  c.completed = arch->TotalCompleted();
  c.aborted = arch->TotalAborted();
  c.dropped = arch->TotalDropped();
  c.retransmissions = arch->TotalRetransmissions();
  c.messages = arch->network()->messages_sent();
  c.bytes = arch->network()->bytes_sent();
  c.events = EventsExecuted(arch);
  c.cross_loop = arch->network()->cross_loop_messages();
  for (uint32_t s = 0; s < arch->shard_count(); ++s) {
    c.applied += arch->plane(s)->verifier()->applied_txns();
    c.lambda_cents += arch->plane(s)->cloud()->cost_meter()->lambda_cents();
  }
  return c;
}

bool Counters::SameSimulation(const Counters& o) const {
  return offered == o.offered && completed == o.completed &&
         aborted == o.aborted && dropped == o.dropped &&
         retransmissions == o.retransmissions && messages == o.messages &&
         bytes == o.bytes && events == o.events && applied == o.applied;
}

void CheckInvariants(Architecture* arch, std::vector<std::string>* failures) {
  for (uint32_t s = 0; s < arch->shard_count(); ++s) {
    auto* verifier = arch->plane(s)->verifier();
    if (!verifier->audit_log().VerifyChain()) {
      failures->push_back("audit chain broken on plane " + std::to_string(s));
    }
    if (verifier->decisions_rejected() != 0) {
      failures->push_back("plane " + std::to_string(s) + " rejected " +
                          std::to_string(verifier->decisions_rejected()) +
                          " 2PC decisions");
    }
  }
  for (uint32_t r = 0; r < arch->coordinator_replicas(); ++r) {
    uint64_t rejected = arch->coordinator(r)->vote_certs_rejected();
    if (rejected != 0) {
      failures->push_back("coordinator " + std::to_string(r) + " rejected " +
                          std::to_string(rejected) + " vote certificates");
    }
  }
  if (arch->open_loop()) {
    uint64_t offered = 0;
    uint64_t accounted = 0;
    for (const auto& src : arch->sources()) {
      offered += src->offered();
      accounted += src->completed() + src->aborted() + src->dropped() +
                   src->inflight();
    }
    if (offered != accounted) {
      failures->push_back(
          "open-loop conservation: offered " + std::to_string(offered) +
          " != completed + aborted + dropped + in-flight " +
          std::to_string(accounted));
    }
  }
}

namespace {

/// Machine cost of the window, the paper's Fig. 8 methodology: every
/// plane's shim and verifier machines, plus the coordinator machines of
/// a sharded system, billed for the window's length.
double VmCents(Architecture* arch, SimDuration window) {
  const auto& config = arch->config();
  int cores = (static_cast<int>(config.shim.n) * config.shim_cores +
               config.verifier_cores) *
              static_cast<int>(arch->shard_count());
  if (arch->shard_count() > 1) {
    int coord_cores = config.coordinator_cores > 0 ? config.coordinator_cores
                                                   : config.verifier_cores;
    cores += coord_cores * static_cast<int>(arch->coord_topology().total());
  }
  sbft::serverless::CostMeter meter;
  meter.ChargeVmTime(cores, window);
  return meter.vm_cents();
}

/// Longest stall of each progress counter (each plane's applied txns,
/// then the coordinator tier's decisions), sampled every 1 ms of
/// simulated time.
class StallPoller {
 public:
  StallPoller(Architecture* arch, SimTime from) : arch_(arch), from_(from) {}

  void Poll(SimTime now) {
    if (now < from_) return;
    std::vector<uint64_t> values = Read();
    if (last_value_.empty()) {
      last_value_ = values;
      last_advance_.assign(values.size(), now);
      longest_.assign(values.size(), 0);
      return;
    }
    for (size_t i = 0; i < values.size(); ++i) {
      if (values[i] != last_value_[i]) {
        longest_[i] = std::max(longest_[i], now - last_advance_[i]);
        last_value_[i] = values[i];
        last_advance_[i] = now;
      }
    }
  }

  /// Closes the open gaps at `end`; returns the longest stall of any
  /// plane and of the coordinator tier, in ms.
  void Longest(SimTime end, double* plane_ms, double* coord_ms) {
    const size_t planes = arch_->shard_count();
    for (size_t i = 0; i < longest_.size(); ++i) {
      SimDuration gap = std::max(longest_[i], end - last_advance_[i]);
      double* out = i < planes ? plane_ms : coord_ms;
      *out = std::max(*out, static_cast<double>(gap) / 1e6);
    }
  }

 private:
  std::vector<uint64_t> Read() const {
    std::vector<uint64_t> values;
    for (uint32_t s = 0; s < arch_->shard_count(); ++s) {
      values.push_back(arch_->plane(s)->verifier()->applied_txns());
    }
    if (arch_->coordinator_replicas() > 0) {
      values.push_back(CoordinatorDecided(arch_));
    }
    return values;
  }

  Architecture* arch_;
  SimTime from_;
  std::vector<uint64_t> last_value_;
  std::vector<SimTime> last_advance_;
  std::vector<SimDuration> longest_;
};

}  // namespace

Session::Session(const PointSpec& spec) : spec_(spec) {
  double t0 = WallNow();
  arch_ = std::make_unique<Architecture>(spec_.config);
  if (!spec_.faults.empty()) {
    faults_ = std::make_unique<sbft::faults::FaultController>(arch_.get());
    auto schedule = sbft::faults::FaultSchedule::Parse(spec_.faults);
    sbft::Status status = schedule.ok() ? faults_->Install(schedule.value())
                                        : schedule.status();
    if (!status.ok()) {
      setup_failures_.push_back("fault schedule: " + status.ToString());
    }
  }
  arch_->Start();
  setup_s_ = WallNow() - t0;
  tap_.Attach(arch_.get());
}

Session::~Session() {
  // The controller unregisters from the architecture's network.
  faults_.reset();
  arch_.reset();
}

PointResult Session::Run(const RunOptions& options) {
  Architecture* arch = arch_.get();
  PointResult r;
  r.setup_s = setup_s_;
  r.failures = setup_failures_;

  const SimTime begin = spec_.warmup;
  const SimTime end = spec_.warmup + spec_.window;
  arch->RunUntil(begin);

  r.start = Counters::Read(arch);
  arch->ResetPeakInflight();
  arch->SetRecording(true);
  if (options.on_window_start) options.on_window_start(arch);

  // A polled window runs in 1 ms steps; a plain one in a single step.
  const SimDuration step = options.poll ? sbft::Millis(1) : spec_.window;
  StallPoller poller(arch, std::max(begin, options.outage_from));
  const double t0 = WallNow();
  for (SimTime t = begin; t < end;) {
    SimTime next = std::min(end, t + step);
    arch->RunUntil(next);
    if (options.poll) poller.Poll(next);
    t = next;
  }
  if (options.poll) {
    poller.Longest(end, &r.plane_outage_ms, &r.coord_outage_ms);
  }
  r.window_wall_s = WallNow() - t0;
  if (options.on_window_end) options.on_window_end(arch);
  arch->SetRecording(false);
  r.end = Counters::Read(arch);

  const double window_s = sbft::ToSeconds(spec_.window);
  const uint64_t completed = r.end.completed - r.start.completed;
  const uint64_t failed = (r.end.aborted - r.start.aborted) +
                          (r.end.dropped - r.start.dropped);
  r.goodput_tps = static_cast<double>(completed) / window_s;
  const uint64_t attempted = completed + failed;
  r.fail_frac = attempted == 0 ? 0
                               : static_cast<double>(failed) /
                                     static_cast<double>(attempted);
  if (completed > 0) {
    double cents = (r.end.lambda_cents - r.start.lambda_cents) +
                   VmCents(arch, spec_.window);
    r.cents_per_ktxn = cents * 1000.0 / static_cast<double>(completed);
  }
  std::vector<int64_t> samples = tap_.samples();
  r.latency_samples = samples.size();
  r.p50_ms = Quantile(&samples, 0.50) / 1e6;
  r.p99_ms = Quantile(&samples, 0.99) / 1e6;

  CheckInvariants(arch, &r.failures);
  return r;
}

}  // namespace perfbench
