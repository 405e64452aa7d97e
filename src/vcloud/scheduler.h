// Task-to-worker scheduling policies (paper §III.A / E8).
#pragma once

#include <vector>

#include "util/rng.h"
#include "vcloud/resource.h"
#include "vcloud/task.h"

namespace vcl::vcloud {

struct WorkerView {
  VehicleId id;
  ResourceProfile profile;
  bool busy = false;
  double dwell_seconds = 0.0;  // estimated remaining time in the cloud
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  // Picks a worker for the task among idle candidates; invalid id = defer.
  [[nodiscard]] virtual VehicleId pick(const Task& task,
                                       const std::vector<WorkerView>& workers,
                                       Rng& rng) const = 0;
};

// Uniform choice among idle workers (the conventional-cloud baseline: any
// node is as good as any other).
class RandomScheduler final : public Scheduler {
 public:
  [[nodiscard]] const char* name() const override { return "random"; }
  [[nodiscard]] VehicleId pick(const Task& task,
                               const std::vector<WorkerView>& workers,
                               Rng& rng) const override;
};

// Fastest idle worker, ignoring mobility.
class GreedyResourceScheduler final : public Scheduler {
 public:
  [[nodiscard]] const char* name() const override { return "greedy"; }
  [[nodiscard]] VehicleId pick(const Task& task,
                               const std::vector<WorkerView>& workers,
                               Rng& rng) const override;
};

// Dwell-aware: among idle workers predicted to stay long enough to finish
// the task (execution time x a 1.25 safety margin), pick the fastest; if
// none qualifies, fall back to the longest-staying worker.
class DwellAwareScheduler final : public Scheduler {
 public:
  [[nodiscard]] const char* name() const override { return "dwell_aware"; }
  [[nodiscard]] VehicleId pick(const Task& task,
                               const std::vector<WorkerView>& workers,
                               Rng& rng) const override;
};

}  // namespace vcl::vcloud
