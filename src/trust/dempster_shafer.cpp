#include "trust/dempster_shafer.h"

#include <algorithm>

namespace vcl::trust {
namespace {

constexpr double kWitnessMass = 0.6;  // evidence mass of one report

}  // namespace

MassAssignment MassAssignment::combine(const MassAssignment& o) const {
  // Conflict: one source says Event, the other NoEvent.
  const double conflict = event * o.no_event + no_event * o.event;
  const double norm = 1.0 - conflict;
  MassAssignment out;
  if (norm <= 1e-12) {
    // Total conflict: fall back to complete ignorance.
    out.event = out.no_event = 0.0;
    out.theta = 1.0;
    return out;
  }
  out.event = (event * o.event + event * o.theta + theta * o.event) / norm;
  out.no_event =
      (no_event * o.no_event + no_event * o.theta + theta * o.no_event) / norm;
  out.theta = (theta * o.theta) / norm;
  return out;
}

TrustDecision DempsterShafer::evaluate(const EventCluster& c) const {
  MassAssignment acc;  // vacuous: all mass on theta
  for (const Report& r : c.reports) {
    MassAssignment m;
    if (r.positive) {
      m.event = kWitnessMass;
    } else {
      m.no_event = kWitnessMass;
    }
    m.theta = 1.0 - kWitnessMass;
    acc = acc.combine(m);
  }
  TrustDecision d;
  // Pignistic-style score: belief + half the ignorance.
  d.score = std::clamp(acc.event + 0.5 * acc.theta, 0.0, 1.0);
  d.accepted = d.score > 0.5;
  return d;
}

}  // namespace vcl::trust
