#include "vcloud/scheduler.h"

namespace vcl::vcloud {
namespace {

constexpr double kDwellSafetyMargin = 1.25;  // x the execution time

}  // namespace

VehicleId RandomScheduler::pick(const Task& task,
                                const std::vector<WorkerView>& workers,
                                Rng& rng) const {
  (void)task;
  std::vector<const WorkerView*> idle;
  for (const WorkerView& w : workers) {
    if (!w.busy) idle.push_back(&w);
  }
  if (idle.empty()) return VehicleId{};
  return idle[rng.index(idle.size())]->id;
}

VehicleId GreedyResourceScheduler::pick(const Task& task,
                                        const std::vector<WorkerView>& workers,
                                        Rng& rng) const {
  (void)task;
  (void)rng;
  const WorkerView* best = nullptr;
  for (const WorkerView& w : workers) {
    if (w.busy) continue;
    if (best == nullptr || w.profile.compute > best->profile.compute) {
      best = &w;
    }
  }
  return best == nullptr ? VehicleId{} : best->id;
}

VehicleId DwellAwareScheduler::pick(const Task& task,
                                    const std::vector<WorkerView>& workers,
                                    Rng& rng) const {
  (void)rng;
  const WorkerView* best_fit = nullptr;
  const WorkerView* longest = nullptr;
  for (const WorkerView& w : workers) {
    if (w.busy) continue;
    const double exec = task.remaining() / w.profile.compute;
    if (w.dwell_seconds >= exec * kDwellSafetyMargin) {
      if (best_fit == nullptr ||
          w.profile.compute > best_fit->profile.compute) {
        best_fit = &w;
      }
    }
    if (longest == nullptr || w.dwell_seconds > longest->dwell_seconds) {
      longest = &w;  // idle workers only (busy ones were skipped above)
    }
  }
  if (best_fit != nullptr) return best_fit->id;
  return longest == nullptr ? VehicleId{} : longest->id;
}

}  // namespace vcl::vcloud
