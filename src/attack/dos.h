// Denial-of-service flooding (paper §III: "attackers may send a large
// amount of junk messages so as to block the services").
//
// Flooder vehicles broadcast 1 KiB junk messages at a given rate. Two
// effects are modeled: (1) the junk transmissions consume air time — the
// flooder registers as extra contention load on the channel, eroding
// reception for everyone nearby; (2) victims burn verification budget
// rejecting junk.
#pragma once

#include "attack/adversary.h"
#include "net/network.h"

namespace vcl::attack {

class DosFlooder {
 public:
  // Every roster member floods at `messages_per_second`.
  DosFlooder(net::Network& net, const AdversaryRoster& roster,
             double messages_per_second)
      : net_(net),
        roster_(roster),
        messages_per_second_(messages_per_second) {}

  // Registers contention load and schedules the junk broadcasts.
  void start();
  void stop();

  [[nodiscard]] std::size_t junk_sent() const { return junk_sent_; }
  [[nodiscard]] bool active() const { return active_; }

 private:
  void tick();

  net::Network& net_;
  const AdversaryRoster& roster_;
  double messages_per_second_;
  bool active_ = false;
  std::size_t junk_sent_ = 0;
  sim::EventHandle tick_handle_;
};

}  // namespace vcl::attack
