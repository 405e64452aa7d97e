// RSU downlink data dissemination scheduling (after Wu et al. [42]: "robust
// data scheduling for vehicular networks" — stability and FAIRNESS in
// allocating the shared channel).
//
// Vehicles under an RSU request content items; each broadcast slot the RSU
// serves one item, satisfying every pending requester of that item at once
// (broadcast efficiency). Policies:
//   * kFifo:          oldest outstanding request first (baseline)
//   * kMostRequested: maximize requests served per slot (throughput-greedy;
//                     starves unpopular items)
//   * kDeficitFair:   deficit round-robin over items — every item
//                     accumulates credit each slot and the largest-credit
//                     item is served, bounding starvation (the paper's
//                     stability+fairness point)
// Metrics: service ratio, mean wait, and Jain's fairness index over
// per-item mean waits.
#pragma once

#include <deque>
#include <unordered_map>
#include <vector>

#include "util/ids.h"
#include "util/stats.h"
#include "util/time.h"

namespace vcl::net {

enum class DisseminationPolicy : std::uint8_t {
  kFifo,
  kMostRequested,
  kDeficitFair,
};

const char* to_string(DisseminationPolicy p);

class DisseminationScheduler {
 public:
  explicit DisseminationScheduler(DisseminationPolicy policy)
      : policy_(policy) {}

  // A vehicle asks for a content item.
  void request(VehicleId requester, FileId item, SimTime now);

  // One broadcast slot: picks an item per the policy, satisfies all its
  // pending requests. Returns the served item (invalid when idle).
  FileId serve_slot(SimTime now);

  [[nodiscard]] std::size_t served_requests() const { return served_; }
  [[nodiscard]] const Accumulator& wait_time() const { return wait_; }
  // Every served request's wait, in service order (for exact percentiles).
  [[nodiscard]] const std::vector<double>& waits() const { return waits_; }
  // Jain's fairness index over per-item mean waits (1.0 = perfectly fair).
  [[nodiscard]] double jain_fairness() const;

 private:
  struct Pending {
    VehicleId requester;
    SimTime at;
  };

  DisseminationPolicy policy_;
  std::unordered_map<std::uint64_t, std::deque<Pending>> queues_;  // per item
  std::unordered_map<std::uint64_t, double> deficit_;
  std::unordered_map<std::uint64_t, Accumulator> item_wait_;
  std::size_t served_ = 0;
  Accumulator wait_;
  std::vector<double> waits_;
};

}  // namespace vcl::net
