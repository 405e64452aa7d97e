// Result aggregation: split-run-combine jobs over a vehicular cloud
// (paper §III.A / §V.A "resource sharing, task allocation, and result
// aggregation").
//
// An AggregateJob splits a large computation into `parts` subtasks, submits
// them to the cloud, and completes when every part's result has returned to
// the broker and been combined (one combine step per part, charged as extra
// work on completion accounting). Integrity: each part's result carries a
// digest; the job records a Merkle root over them so the submitter can
// verify the combined output.
#pragma once

#include <functional>
#include <unordered_map>

#include "crypto/merkle.h"
#include "vcloud/cloud.h"

namespace vcl::vcloud {

struct AggregateJobSpec {
  double total_work = 100.0;
  std::size_t parts = 10;
  double input_mb_per_part = 1.0;
  double output_mb_per_part = 0.2;
  SimTime deadline = 0.0;  // absolute; 0 = none
};

struct AggregateJobStatus {
  std::size_t parts_total = 0;
  std::size_t parts_completed = 0;
  std::size_t parts_failed = 0;  // terminal failures (expired)
  bool completed = false;
  bool failed = false;
  SimTime completed_at = 0.0;
  crypto::Digest result_root{};  // Merkle root over part results
};

// Tracks aggregate jobs over one cloud. Drive with `poll()` after running
// the simulation (or attach for periodic polling).
class Aggregator {
 public:
  explicit Aggregator(VehicularCloud& cloud) : cloud_(cloud) {}

  // Splits and submits; returns a job handle (its id is the first part's
  // task id for uniqueness).
  TaskId submit(const AggregateJobSpec& spec);

  // Re-examines part states; fires completion when all parts are terminal.
  void poll(SimTime now);
  // Polls once per simulated second.
  void attach(sim::Simulator& sim);

  [[nodiscard]] const AggregateJobStatus* status(TaskId job) const;

 private:
  struct Job {
    AggregateJobSpec spec;
    std::vector<TaskId> parts;
    AggregateJobStatus status;
  };

  VehicularCloud& cloud_;
  std::unordered_map<std::uint64_t, Job> jobs_;
};

}  // namespace vcl::vcloud
