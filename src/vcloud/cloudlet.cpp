#include "vcloud/cloudlet.h"

namespace vcl::vcloud {
namespace {

constexpr double kCentralCompute = 200.0;  // work-units/s at the datacenter
constexpr SimTime kWanRtt = 80 * kMilliseconds;  // backhaul + WAN to central
constexpr SimTime kRoamCheckPeriod = 1.0;

}  // namespace

CloudletGrid::CloudletGrid(net::Network& net, Rng rng) : net_(net), rng_(rng) {}

void CloudletGrid::attach() {
  if (attached_) return;
  attached_ = true;
  for (const net::Rsu& rsu : net_.rsus().all()) {
    auto cloud = std::make_unique<VehicularCloud>(
        CloudId{rsu.id.value() + 1000}, net_,
        rsu_membership(net_, rsu.id), rsu_region(net_, rsu.id),
        std::make_unique<DwellAwareScheduler>(), CloudConfig{},
        rng_.fork(rsu.id.value()));
    cloud->attach();
    cloud->refresh();
    clouds_.push_back(std::move(cloud));
  }
  net_.simulator().schedule_every(kRoamCheckPeriod, [this] { roam_check(); });
}

VehicularCloud* CloudletGrid::cloudlet_for(VehicleId v) {
  const net::Rsu* rsu = net_.reachable_rsu(v);
  if (rsu == nullptr) return nullptr;
  const std::uint64_t cloud_id = rsu->id.value() + 1000;
  for (auto& c : clouds_) {
    if (c->id().value() == cloud_id) return c.get();
  }
  return nullptr;
}

void CloudletGrid::roam_check() {
  for (const auto& [vid, v] : net_.traffic().vehicles()) {
    const net::Rsu* rsu = net_.rsus().covering(v.pos);
    const std::uint64_t now_at =
        rsu == nullptr ? UINT64_MAX : rsu->id.value();
    auto it = current_cloudlet_.find(vid);
    if (it == current_cloudlet_.end()) {
      current_cloudlet_[vid] = now_at;
      continue;
    }
    if (it->second != now_at) {
      // Entering coverage from the void is an attach, not a handoff;
      // switching between two cloudlets is the handoff Yu et al. manage.
      if (it->second != UINT64_MAX && now_at != UINT64_MAX) {
        ++handoffs_;
      } else if (now_at != UINT64_MAX) {
        ++attaches_;
      }
      it->second = now_at;
    }
  }
  // Forget departed vehicles.
  for (auto it = current_cloudlet_.begin(); it != current_cloudlet_.end();) {
    if (net_.traffic().find(VehicleId{it->first}) == nullptr) {
      it = current_cloudlet_.erase(it);
    } else {
      ++it;
    }
  }
}

CloudletGrid::SubmitResult CloudletGrid::submit(VehicleId requester,
                                                Task task) {
  SubmitResult result;
  VehicularCloud* local = cloudlet_for(requester);
  if (local != nullptr) {
    result.cloudlet = local->id();
    result.id = local->submit(std::move(task));
    return result;
  }
  // Central fallback: WAN round trip + datacenter execution; the central
  // cloud has effectively unbounded parallelism, so no queueing is modeled.
  result.to_central = true;
  ++central_.submitted;
  const SimTime created = net_.simulator().now();
  const SimTime exec = task.work / kCentralCompute;
  const SimTime done_at = created + kWanRtt + exec;
  const SimTime deadline = task.deadline;
  net_.simulator().schedule_after(
      kWanRtt + exec, [this, created, done_at, deadline] {
        if (deadline > 0.0 && done_at > deadline) return;  // expired
        ++central_.completed;
        central_.latency.add(done_at - created);
      });
  return result;
}

}  // namespace vcl::vcloud
