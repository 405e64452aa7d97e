#include "vcloud/verifiable.h"

namespace vcl::vcloud {
namespace {

constexpr SimTime kPollPeriod = 1.0;

}  // namespace

ReplicatedSubmitter::ReplicatedSubmitter(
    VehicularCloud& cloud, const attack::AdversaryRoster& cheaters,
    std::size_t replicas)
    : cloud_(cloud), cheaters_(cheaters), replicas_(replicas) {}

TaskId ReplicatedSubmitter::submit(Task spec) {
  Job job;
  job.status.replicas_total = replicas_;
  for (std::size_t i = 0; i < replicas_; ++i) {
    Task replica = spec;
    job.replicas.push_back(cloud_.submit(std::move(replica)));
  }
  const TaskId handle = job.replicas.front();
  jobs_.emplace(handle.value(), std::move(job));
  return handle;
}

void ReplicatedSubmitter::poll() {
  for (auto& [jid, job] : jobs_) {
    if (job.status.finished) continue;
    std::size_t done = 0;
    std::size_t terminal = 0;
    for (const TaskId replica : job.replicas) {
      const Task* t = cloud_.find_task(replica);
      if (t == nullptr) {
        ++terminal;
        continue;
      }
      if (t->state == TaskState::kCompleted) {
        ++done;
        ++terminal;
        // Record the worker's digest once, at completion: honest workers
        // return the canonical digest, cheaters a wrong one.
        if (replica_correct_.find(replica.value()) ==
            replica_correct_.end()) {
          replica_correct_[replica.value()] =
              !cheaters_.is_malicious(t->worker);
        }
      } else if (t->terminal()) {
        ++terminal;
      }
    }
    job.status.replicas_done = done;
    if (terminal < job.replicas.size()) continue;

    job.status.finished = true;
    // Majority vote over digests of COMPLETED replicas.
    std::size_t correct = 0;
    std::size_t wrong = 0;
    for (const TaskId replica : job.replicas) {
      auto it = replica_correct_.find(replica.value());
      if (it == replica_correct_.end()) continue;
      (it->second ? correct : wrong) += 1;
      // Reputation feedback per replica (ground truth known post-hoc in
      // the experiment; a deployment uses the majority as its label).
      const Task* t = cloud_.find_task(replica);
      if (t != nullptr) {
        reputation_.record(t->worker.value(), it->second);
      }
    }
    if (done == 0 || correct == wrong) {
      // No quorum: reject (re-submission is the caller's policy).
      job.status.accepted = false;
      ++rejected_;
      continue;
    }
    job.status.accepted = true;
    ++accepted_;
    if (wrong > correct) {
      job.status.wrong_accepted = true;
      ++undetected_;
    }
  }
}

void ReplicatedSubmitter::attach(sim::Simulator& sim) {
  sim.schedule_every(kPollPeriod, [this] { poll(); });
}

}  // namespace vcl::vcloud
