// Dempster-Shafer evidence combination (the technique Raya et al. [32]
// apply to data-centric trust in ephemeral networks).
//
// Frame of discernment {Event, NoEvent}. Each report contributes a basic
// mass assignment with `discount` mass left on the full frame (ignorance);
// Dempster's rule combines reports pairwise; the decision reads belief(Event)
// after normalization. Compared to Bayes, DS degrades more gracefully when
// witnesses are scarce — it does not force 0.5-prior overconfidence.
#pragma once

#include "trust/validators.h"

namespace vcl::trust {

struct MassAssignment {
  double event = 0.0;     // m({Event})
  double no_event = 0.0;  // m({NoEvent})
  double theta = 1.0;     // m({Event, NoEvent}) — ignorance

  // Dempster's rule of combination; returns the normalized combination.
  [[nodiscard]] MassAssignment combine(const MassAssignment& other) const;
  [[nodiscard]] double belief_event() const { return event; }
  [[nodiscard]] double plausibility_event() const { return event + theta; }
};

// A single report carries evidence mass 0.6; the rest is ignorance.
class DempsterShafer final : public Validator {
 public:
  [[nodiscard]] const char* name() const override { return "dempster_shafer"; }
  [[nodiscard]] TrustDecision evaluate(const EventCluster& c) const override;
};

}  // namespace vcl::trust
