#include "mobility/idm.h"

#include <algorithm>
#include <cmath>

namespace vcl::mobility {
namespace {

constexpr double kTimeHeadway = 1.5;   // T, s
constexpr double kMaxAccel = 1.5;      // a, m/s^2
constexpr double kComfortDecel = 2.0;  // b, m/s^2
constexpr double kMinGap = 2.0;        // s0, m
constexpr double kExponent = 4.0;      // delta

}  // namespace

double idm_acceleration(double speed, double approach_rate, double gap,
                        double desired_speed) {
  const double v0 = std::max(desired_speed, 0.1);
  const double free_term = 1.0 - std::pow(speed / v0, kExponent);
  double interaction = 0.0;
  if (std::isfinite(gap)) {
    const double safe_gap = std::max(gap, 0.01);
    const double s_star =
        kMinGap + std::max(0.0, speed * kTimeHeadway +
                                    speed * approach_rate /
                                        (2.0 * std::sqrt(kMaxAccel *
                                                         kComfortDecel)));
    interaction = (s_star / safe_gap) * (s_star / safe_gap);
  }
  // Clamp: IDM can command unbounded braking when the gap collapses; real
  // vehicles cannot exceed emergency deceleration.
  const double accel = kMaxAccel * (free_term - interaction);
  return std::clamp(accel, -3.0 * kComfortDecel, kMaxAccel);
}

}  // namespace vcl::mobility
