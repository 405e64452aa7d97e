// Radio channel model for DSRC-class V2V/V2I links.
//
// Reception combines (1) a deterministic range cutoff, (2) log-distance path
// loss with log-normal shadowing mapped to a reception probability, and
// (3) a CSMA-style contention penalty that grows with local transmitter
// density. Per-hop delay is transmission time (size / data rate) plus a
// density-dependent channel-access backoff. This reproduces the phenomena
// the paper's challenges hinge on — lossy links, density collapse, hop
// latency — without a bit-level PHY (see DESIGN.md substitutions).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "geo/vec2.h"
#include "util/rng.h"
#include "util/time.h"

namespace vcl::net {

struct ReceptionResult {
  bool received = false;
  SimTime delay = 0.0;  // valid when received
};

// PHY-level tallies, kept by the channel itself so observability reaches
// below Network's accounting (a drop here distinguishes radio loss from
// there being no handler). Registered as gauges by the telemetry layer.
struct ChannelCounters {
  std::uint64_t attempts = 0;
  std::uint64_t delivered = 0;
  std::uint64_t blackout_drops = 0;  // attempts with an endpoint blacked out
};

// A circular region where radio reception is dead (jamming, tunnel, urban
// canyon, post-disaster partition). While active, any transmission with an
// endpoint inside the region fails.
struct BlackoutRegion {
  geo::Vec2 center;
  double radius = 0.0;

  friend bool operator==(const BlackoutRegion&, const BlackoutRegion&) = default;
};

class Channel {
 public:
  // The two ranges other layers size by: the hard reception cutoff
  // (DSRC-class) and the distance where path loss starts to bite, meters.
  static constexpr double kMaxRange = 300.0;
  static constexpr double kReferenceRange = 150.0;

  // Probability that a packet from `from` reaches `to` given `local_density`
  // concurrent transmitters in range (deterministic; no RNG).
  [[nodiscard]] double reception_probability(geo::Vec2 from, geo::Vec2 to,
                                             std::size_t local_density) const;

  // Samples one transmission attempt.
  [[nodiscard]] ReceptionResult attempt(geo::Vec2 from, geo::Vec2 to,
                                        std::size_t size_bytes,
                                        std::size_t local_density,
                                        Rng& rng) const;

  // Deterministic per-hop latency (used for expectation-style accounting).
  [[nodiscard]] SimTime hop_delay(std::size_t size_bytes,
                                  std::size_t local_density) const;

  // Radio blackout windows (fault injection): while any region covers
  // either endpoint, reception probability is forced to 0. Returns a token
  // for removal when the window ends.
  std::uint64_t add_blackout(BlackoutRegion region);
  void remove_blackout(std::uint64_t token);
  void clear_blackouts() { blackouts_.clear(); }
  [[nodiscard]] bool blacked_out(geo::Vec2 pos) const;
  [[nodiscard]] std::size_t blackout_count() const { return blackouts_.size(); }
  // Active regions with their tokens, in the order they were added.
  [[nodiscard]] const std::vector<std::pair<std::uint64_t, BlackoutRegion>>&
  blackouts() const {
    return blackouts_;
  }

  [[nodiscard]] const ChannelCounters& counters() const { return counters_; }

 private:
  std::vector<std::pair<std::uint64_t, BlackoutRegion>> blackouts_;
  std::uint64_t next_blackout_token_ = 1;
  // attempt() is logically const (sampling does not change the model);
  // the tallies are bookkeeping on the side.
  mutable ChannelCounters counters_;
};

}  // namespace vcl::net
