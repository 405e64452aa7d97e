// Intelligent Driver Model (Treiber et al.) car-following acceleration.
#pragma once

namespace vcl::mobility {

// Acceleration for a follower at `speed` with closing speed `approach_rate`
// (= follower speed - leader speed) and bumper-to-bumper `gap` to the leader,
// driving toward `desired_speed` (v0, m/s; floored at 0.1). Pass an infinite
// gap for a free road. The other IDM parameters are fixed in idm.cpp: time
// headway 1.5 s, maximum acceleration 1.5 m/s^2, comfortable deceleration
// 2 m/s^2, minimum gap 2 m, exponent 4.
double idm_acceleration(double speed, double approach_rate, double gap,
                        double desired_speed);

}  // namespace vcl::mobility
