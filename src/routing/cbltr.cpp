#include "routing/cbltr.h"

#include <algorithm>

namespace vcl::routing {
namespace {

constexpr double kMinProgress = 5.0;  // meters of required progress per hop

}  // namespace

void Cbltr::forward(VehicleId self, const net::Message& msg) {
  const VehicleId dst = msg.dst.as_vehicle();
  for (const net::NeighborEntry& n : net_.neighbors(self)) {
    if (n.id == dst) {
      if (send_to(self, msg.dst, msg)) return;
      break;
    }
  }
  if (!msg.has_dst_pos) {
    broadcast_from(self, msg);
    return;
  }
  const mobility::VehicleState* me = net_.traffic().find(self);
  if (me == nullptr) return;
  const double my_dist = geo::distance(me->pos, msg.dst_pos);
  const double range = net::Channel::kMaxRange;

  VehicleId best;
  double best_lifetime = -1.0;
  for (const net::NeighborEntry& n : net_.neighbors(self)) {
    const double progress = my_dist - geo::distance(n.pos, msg.dst_pos);
    if (progress < kMinProgress) continue;
    const double life =
        link_lifetime(me->pos, me->vel, n.pos, n.vel, range);
    if (life > best_lifetime) {
      best_lifetime = life;
      best = n.id;
    }
  }
  if (best.valid() && send_to(self, net::Address::vehicle(best), msg)) {
    return;
  }
  buffer_message(self, msg);
}

}  // namespace vcl::routing
