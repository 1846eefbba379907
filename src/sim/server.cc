#include "sim/server.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace sbft::sim {

ServerResource::ServerResource(Simulator* sim, int cores)
    : sim_(sim), cores_(cores) {
  assert(cores >= 1);
}

void ServerResource::Submit(JobCost cost, Done done) {
  SimDuration charge = std::max<SimDuration>(cost.cost, 0);
  if (busy_ < cores_) {
    StartJob(Job{charge, cost.job_class, std::move(done), {}});
    return;
  }
  if (cost.job_class != 0) {
    for (auto& [job_class, job] : open_) {
      if (job_class != cost.job_class) continue;
      job->cost += std::max<SimDuration>(cost.extra_cost, 0);
      job->joined.push_back(std::move(done));
      return;
    }
  }
  pending_.push_back(Job{charge, cost.job_class, std::move(done), {}});
  if (cost.job_class != 0) open_.emplace_back(cost.job_class, &pending_.back());
}

void ServerResource::StartJob(Job job) {
  ++busy_;
  busy_time_ += job.cost;
  sim_->Schedule(job.cost, [this, done = std::move(job.done),
                            joined = std::move(job.joined)]() {
    batch_remaining_ = joined.size();
    done();
    for (const Done& next : joined) {
      --batch_remaining_;
      next();
    }
    completed_ += joined.size();
    coalesced_ += joined.size();
    FinishJob();
  });
}

void ServerResource::FinishJob() {
  --busy_;
  ++completed_;
  if (!pending_.empty() && busy_ < cores_) {
    Job next = std::move(pending_.front());
    if (next.job_class != 0) {
      // The job stops taking members once it leaves the queue.
      std::erase_if(open_, [&](const auto& entry) {
        return entry.second == &pending_.front();
      });
    }
    pending_.pop_front();
    StartJob(std::move(next));
  }
}

}  // namespace sbft::sim
