// Verifiable vehicular cloud computing via redundant execution (after
// Huang et al. [10], PTVC: "the user can verify the correctness of
// computation results").
//
// Without verification, a lazy or malicious worker can return garbage and
// collect credit. The replicated submitter runs each logical task on `r`
// distinct workers and accepts the result only when a majority of the
// returned digests agree. Worker honesty is modeled per-vehicle (an
// AdversaryRoster of cheaters, whose digests are always wrong); detection
// feeds a reputation store, closing the PTVC loop (reputation-based worker
// selection is the caller's policy knob).
//
// Known simplification vs PTVC: replicas are ordinary cloud tasks, so the
// scheduler may hand two replicas of one job to the same worker over time —
// a lone cheater can then fake a quorum. Real PTVC pins replicas to
// disjoint workers; E21's high-cheater rows show the gap this opens.
#pragma once

#include "attack/adversary.h"
#include "trust/reputation.h"
#include "vcloud/cloud.h"

namespace vcl::vcloud {

struct VerifiedJobStatus {
  std::size_t replicas_done = 0;
  std::size_t replicas_total = 0;
  bool finished = false;
  bool accepted = false;       // majority digest agreement
  bool wrong_accepted = false; // accepted, but the majority digest was wrong
};

class ReplicatedSubmitter {
 public:
  ReplicatedSubmitter(VehicularCloud& cloud,
                      const attack::AdversaryRoster& cheaters,
                      std::size_t replicas);

  // Submits `spec` as `replicas` independent tasks; returns a job handle.
  TaskId submit(Task spec);

  void poll();
  // Polls once per simulated second.
  void attach(sim::Simulator& sim);

  [[nodiscard]] std::size_t accepted_jobs() const { return accepted_; }
  [[nodiscard]] std::size_t rejected_jobs() const { return rejected_; }
  // Jobs whose accepted majority was actually wrong (collusion/bad luck):
  // the undetected-error count PTVC exists to minimize.
  [[nodiscard]] std::size_t undetected_errors() const { return undetected_; }
  [[nodiscard]] trust::ReputationStore& reputation() { return reputation_; }

 private:
  struct Job {
    std::vector<TaskId> replicas;
    VerifiedJobStatus status;
  };

  VehicularCloud& cloud_;
  const attack::AdversaryRoster& cheaters_;
  std::size_t replicas_;
  trust::ReputationStore reputation_;
  std::unordered_map<std::uint64_t, Job> jobs_;
  std::unordered_map<std::uint64_t, bool> replica_correct_;  // task -> digest ok
  std::size_t accepted_ = 0;
  std::size_t rejected_ = 0;
  std::size_t undetected_ = 0;
};

}  // namespace vcl::vcloud
