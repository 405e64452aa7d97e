// Hierarchical roadside cloudlets (after Yu et al. [45] in the survey):
// one transient VehicularCloud per RSU, plus a central cloud reachable over
// the wired backhaul.
//
// Moving vehicles "keep selecting new nearby roadside cloudlets" — the grid
// tracks each vehicle's current cloudlet and counts handoffs. Task
// submission prefers the requester's local cloudlet (cheap, close) and
// falls back to the central cloud (always available, but behind a WAN
// round-trip) when the vehicle is uncovered — the locality/availability
// trade the hierarchical architecture exists to make.
#pragma once

#include <memory>

#include "vcloud/cloud.h"

namespace vcl::vcloud {

struct CentralStats {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  Accumulator latency;
};

class CloudletGrid {
 public:
  CloudletGrid(net::Network& net, Rng rng);

  // Builds one cloud per (online) RSU and starts roaming checks.
  void attach();

  // The cloudlet covering the vehicle right now; nullptr when uncovered.
  [[nodiscard]] VehicularCloud* cloudlet_for(VehicleId v);
  [[nodiscard]] const std::vector<std::unique_ptr<VehicularCloud>>&
  cloudlets() const {
    return clouds_;
  }

  struct SubmitResult {
    bool to_central = false;
    TaskId id;          // valid for cloudlet submissions
    CloudId cloudlet;   // which cloudlet took it
  };
  // Submits on behalf of `requester`: local cloudlet when covered, central
  // cloud otherwise.
  SubmitResult submit(VehicleId requester, Task task);

  // Roaming bookkeeping.
  [[nodiscard]] std::size_t handoffs() const { return handoffs_; }
  // void -> covered transitions (re-entering coverage after a gap).
  [[nodiscard]] std::size_t attaches() const { return attaches_; }
  [[nodiscard]] const CentralStats& central() const { return central_; }

  void roam_check();  // public for tests

 private:
  net::Network& net_;
  Rng rng_;
  std::vector<std::unique_ptr<VehicularCloud>> clouds_;
  std::unordered_map<std::uint64_t, std::uint64_t> current_cloudlet_;
  std::size_t handoffs_ = 0;
  std::size_t attaches_ = 0;
  CentralStats central_;
  bool attached_ = false;
};

}  // namespace vcl::vcloud
