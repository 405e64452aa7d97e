#include "vcloud/aggregate.h"

#include "crypto/schnorr.h"

namespace vcl::vcloud {
namespace {

constexpr SimTime kPollPeriod = 1.0;

}  // namespace

TaskId Aggregator::submit(const AggregateJobSpec& spec) {
  Job job;
  job.spec = spec;
  job.status.parts_total = spec.parts;
  for (std::size_t i = 0; i < spec.parts; ++i) {
    Task part;
    part.work = spec.total_work / static_cast<double>(spec.parts);
    part.input_mb = spec.input_mb_per_part;
    part.output_mb = spec.output_mb_per_part;
    part.deadline = spec.deadline;
    job.parts.push_back(cloud_.submit(std::move(part)));
  }
  const TaskId handle = job.parts.front();
  jobs_.emplace(handle.value(), std::move(job));
  return handle;
}

void Aggregator::poll(SimTime now) {
  for (auto& [jid, job] : jobs_) {
    if (job.status.completed || job.status.failed) continue;
    std::size_t completed = 0;
    std::size_t failed = 0;
    for (const TaskId part : job.parts) {
      const Task* t = cloud_.find_task(part);
      if (t == nullptr) {
        ++failed;
        continue;
      }
      switch (t->state) {
        case TaskState::kCompleted: ++completed; break;
        case TaskState::kFailed:
        case TaskState::kExpired: ++failed; break;
        default: break;
      }
    }
    job.status.parts_completed = completed;
    job.status.parts_failed = failed;
    if (completed == job.status.parts_total) {
      job.status.completed = true;
      job.status.completed_at = now;
      // Combine: Merkle root over per-part result digests (result content
      // is modeled, not materialized; the digest binds part id and
      // completion time, which is what an integrity check needs).
      std::vector<crypto::Digest> leaves;
      leaves.reserve(job.parts.size());
      for (const TaskId part : job.parts) {
        const Task* t = cloud_.find_task(part);
        crypto::Bytes b;
        crypto::append_u64(b, part.value());
        crypto::append_u64(
            b, static_cast<std::uint64_t>(t->completed_at * 1e6));
        leaves.push_back(crypto::Sha256::hash(b));
      }
      job.status.result_root = crypto::MerkleTree(std::move(leaves)).root();
    } else if (completed + failed == job.status.parts_total && failed > 0) {
      job.status.failed = true;
    }
  }
}

void Aggregator::attach(sim::Simulator& sim) {
  sim.schedule_every(kPollPeriod, [this, &sim] { poll(sim.now()); });
}

const AggregateJobStatus* Aggregator::status(TaskId job) const {
  auto it = jobs_.find(job.value());
  return it == jobs_.end() ? nullptr : &it->second.status;
}

}  // namespace vcl::vcloud
