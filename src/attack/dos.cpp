#include "attack/dos.h"

namespace vcl::attack {
namespace {

constexpr std::size_t kJunkBytes = 1024;

}  // namespace

void DosFlooder::start() {
  if (active_) return;
  active_ = true;
  // Contention load: each junk message occupies roughly one slot; express
  // the rate as equivalent concurrent transmitters (empirically, rate/10
  // beacons-per-second-equivalents).
  const double load = messages_per_second_ / 10.0;
  for (const VehicleId v : roster_.members()) {
    net_.set_extra_load(v, load);
  }
  tick_handle_ = net_.simulator().schedule_every(1.0, [this] { tick(); });
}

void DosFlooder::stop() {
  if (!active_) return;
  active_ = false;
  for (const VehicleId v : roster_.members()) net_.set_extra_load(v, 0.0);
  net_.simulator().cancel(tick_handle_);
}

void DosFlooder::tick() {
  if (!active_) return;
  // One representative junk broadcast per flooder per tick keeps the event
  // count tractable; the *channel* effect is carried by the extra load.
  for (const VehicleId v : roster_.members()) {
    if (net_.traffic().find(v) == nullptr) continue;
    net::Message junk;
    junk.id = net_.next_message_id();
    junk.src = net::Address::vehicle(v);
    junk.dst = net::Address::broadcast();
    junk.kind = net::MessageKind::kData;
    junk.size_bytes = kJunkBytes;
    junk.created = net_.simulator().now();
    net_.broadcast(junk);
    ++junk_sent_;
  }
}

}  // namespace vcl::attack
