#include "fault/chaos.h"

#include <algorithm>
#include <stdexcept>

#include "obs/json.h"

namespace vcl::fault {

namespace {

// Storm shapes: every storm of one kind has the same shape, only the rates
// in StormConfig (and the replay window and age) vary.
constexpr std::size_t kBurstSize = 4;  // mean crashes per burst (Poisson, >= 1)
constexpr SimTime kBurstWindow = 2.0;  // a burst's crashes land in [t, t + w]
constexpr int kFlapCycles = 4;         // outage/repair cycles of one RSU
constexpr SimTime kFlapPeriod = 3.0;   // one cycle every period
constexpr SimTime kFlapOutage = 1.0;   // each outage lasts this long
constexpr std::size_t kDagCrashes = 2;  // crashes per DAG storm, spread over
constexpr SimTime kDagWindow = 6.0;     // [t, t + window)
constexpr SimTime kCrlVisible = 2.0;  // revoke -> the first RSU holds the CRL
constexpr SimTime kCrlHorizon = 4.0;  // first RSU -> every RSU holds it
constexpr std::size_t kReplayCount = 3;  // captures re-injected per flood

// The blackout storms: a radio blackout of fixed duration from the storm's
// arrival, centered in the base box, with `events` events of one kind
// spaced strictly inside its window.
struct BlackoutStorm {
  SimTime duration;
  std::size_t events;
  FaultKind kind;
  std::uint64_t FaultEvent::*tag;  // where the events' tags go; null = none
  bool tag_per_event;              // else one tag shared by the storm
};
// Broker kills while the heartbeats that would elect a successor's
// worldview are already being eaten by the channel.
constexpr BlackoutStorm kCascade{10.0, 2, FaultKind::kBrokerCrash, nullptr,
                                 false};
// Crashes that all resolve against the SAME object's live holders, so the
// storm can eat a write quorum of one object while the blackout hides its
// lease renewals.
constexpr BlackoutStorm kStorage{8.0, 2, FaultKind::kVehicleCrash,
                                 &FaultEvent::storage_tag, false};
// Fabricated identities (distinct tags) that knock exactly while the
// channel is eating the beacons that would expose them.
constexpr BlackoutStorm kSybil{8.0, 3, FaultKind::kSybilJoin,
                               &FaultEvent::attack_tag, true};

// Homogeneous Poisson storm arrivals over [0, horizon].
std::vector<SimTime> storm_arrivals(double rate, SimTime horizon, Rng& rng) {
  std::vector<SimTime> times;
  if (rate <= 0.0 || horizon <= 0.0) return times;
  SimTime t = rng.exponential(rate);
  while (t < horizon) {
    times.push_back(t);
    t += rng.exponential(rate);
  }
  return times;
}

std::uint64_t draw_tag(Rng& rng) {
  return 1 + static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
}

// Appends one blackout storm arriving at `t`; every event joins `group`
// (0 = ungrouped). Draw order: center x, center y, then the tags.
void push_blackout_storm(FaultPlan& plan, const BlackoutStorm& shape,
                         const FaultPlanConfig& base, SimTime t,
                         std::uint64_t group, Rng& rng) {
  FaultEvent blackout;
  blackout.kind = FaultKind::kRadioBlackout;
  blackout.at = t;
  blackout.center = {rng.uniform(base.blackout_lo.x, base.blackout_hi.x),
                     rng.uniform(base.blackout_lo.y, base.blackout_hi.y)};
  blackout.radius = base.blackout_radius;
  blackout.duration = shape.duration;
  blackout.group = group;
  plan.push_back(blackout);
  const bool shared_tag = shape.tag != nullptr && !shape.tag_per_event;
  std::uint64_t tag = shared_tag ? draw_tag(rng) : 0;
  for (std::size_t i = 1; i <= shape.events; ++i) {
    FaultEvent e;
    e.kind = shape.kind;
    e.at = t + shape.duration * static_cast<double>(i) /
                   static_cast<double>(shape.events + 1);
    if (shape.tag_per_event) tag = draw_tag(rng);
    if (shape.tag != nullptr) e.*shape.tag = tag;
    e.group = group;
    plan.push_back(e);
  }
}

}  // namespace

std::string validate(const ChaosConfig& config) {
  if (std::string problem = validate(config.base); !problem.empty()) {
    return problem;
  }
  const StormConfig& s = config.storms;
  if (s.burst_rate < 0.0) return "burst_rate is negative";
  if (s.cascade_rate < 0.0) return "cascade_rate is negative";
  if (s.flap_rate < 0.0) return "flap_rate is negative";
  if (s.storage_rate < 0.0) return "storage_rate is negative";
  if (s.dag_rate < 0.0) return "dag_rate is negative";
  if (s.sybil_rate < 0.0) return "sybil_rate is negative";
  if (s.revoke_rate < 0.0) return "revoke_rate is negative";
  if (s.replay_rate < 0.0) return "replay_rate is negative";
  if (s.replay_rate > 0.0) {
    if (s.replay_window <= 0.0) return "replay_window must be positive";
    if (s.replay_age <= 0.0) return "replay_age must be positive";
  }
  // Blackout storms draw their centers from the base box even when the base
  // blackout rate is zero, so the box must be usable on its own.
  if (s.cascade_rate > 0.0 || s.storage_rate > 0.0 || s.sybil_rate > 0.0) {
    const FaultPlanConfig& b = config.base;
    if (b.blackout_lo.x > b.blackout_hi.x ||
        b.blackout_lo.y > b.blackout_hi.y) {
      return "blackout box is inverted (lo > hi)";
    }
    if (b.blackout_lo.x == 0.0 && b.blackout_lo.y == 0.0 &&
        b.blackout_hi.x == 0.0 && b.blackout_hi.y == 0.0) {
      return "a blackout storm (cascade, storage or sybil) is on but the "
             "blackout box was left at its all-zero default (set it from "
             "the road bounding box)";
    }
    if (b.blackout_radius < 0.0) return "blackout_radius is negative";
  }
  return {};
}

ChaosPlanner::ChaosPlanner(ChaosConfig config) : config_(std::move(config)) {
  if (const std::string problem = validate(config_); !problem.empty()) {
    throw std::invalid_argument("ChaosConfig: " + problem);
  }
}

FaultPlan ChaosPlanner::plan(std::uint64_t seed) const {
  const Rng root(seed);
  const FaultPlanConfig& base = config_.base;
  const SimTime horizon = base.horizon;
  const StormConfig& storms = config_.storms;

  // The background and each storm shape consume independent forked streams:
  // turning a storm knob never reshuffles the others' schedules.
  Rng base_rng = root.fork(1);
  FaultPlan plan = make_fault_plan(base, base_rng);

  Rng burst_rng = root.fork(2);
  for (const SimTime t :
       storm_arrivals(storms.burst_rate, horizon, burst_rng)) {
    // Poisson scatter around the burst size, never below one crash.
    const std::size_t size =
        1 + static_cast<std::size_t>(
                burst_rng.poisson(static_cast<double>(kBurstSize - 1)));
    for (std::size_t i = 0; i < size; ++i) {
      FaultEvent e;
      e.kind = FaultKind::kVehicleCrash;
      e.at = t + burst_rng.uniform(0.0, kBurstWindow);
      plan.push_back(e);  // victim picked from the live pool at fire time
    }
  }

  Rng cascade_rng = root.fork(3);
  for (const SimTime t :
       storm_arrivals(storms.cascade_rate, horizon, cascade_rng)) {
    push_blackout_storm(plan, kCascade, base, t, 0, cascade_rng);
  }

  Rng flap_rng = root.fork(4);
  for (const SimTime t :
       storm_arrivals(storms.flap_rate, horizon, flap_rng)) {
    // One explicit victim for the whole storm; the injector maps the id
    // into the deployed range (modulo), so every cycle hits the same RSU.
    const RsuId victim{static_cast<std::uint64_t>(
        flap_rng.uniform_int(0, 1024))};
    for (int i = 0; i < kFlapCycles; ++i) {
      FaultEvent e;
      e.kind = FaultKind::kRsuOutage;
      e.at = t + kFlapPeriod * static_cast<double>(i);
      e.rsu = victim;
      e.repair_after = kFlapOutage;
      plan.push_back(e);
    }
  }

  Rng storage_rng = root.fork(5);
  for (const SimTime t :
       storm_arrivals(storms.storage_rate, horizon, storage_rng)) {
    push_blackout_storm(plan, kStorage, base, t, 0, storage_rng);
  }

  Rng dag_rng = root.fork(6);
  for (const SimTime t : storm_arrivals(storms.dag_rate, horizon, dag_rng)) {
    // One tag for the whole storm: every crash re-resolves against the SAME
    // DAG run, so the storm chases that run's critical path from host to
    // host as the scheduler re-places the node after each kill.
    const std::uint64_t tag = draw_tag(dag_rng);
    for (std::size_t i = 0; i < kDagCrashes; ++i) {
      FaultEvent kill;
      kill.kind = FaultKind::kVehicleCrash;
      kill.at = t + kDagWindow * static_cast<double>(i) /
                        static_cast<double>(kDagCrashes);
      kill.dag_tag = tag;
      plan.push_back(kill);
    }
  }

  // Attack storms. Each compound storm stamps ONE fresh shrink group on its
  // events so the ddmin shrinker keeps causal pairs (revoke ↔ delivery,
  // blackout ↔ nested joins) atomic. Benign storms stay ungrouped — their
  // plans (and serialized repro files) are byte-identical to before.
  std::uint64_t next_group = 1;

  Rng sybil_rng = root.fork(7);
  for (const SimTime t :
       storm_arrivals(storms.sybil_rate, horizon, sybil_rng)) {
    push_blackout_storm(plan, kSybil, base, t, next_group++, sybil_rng);
  }

  Rng revoke_rng = root.fork(8);
  for (const SimTime t :
       storm_arrivals(storms.revoke_rate, horizon, revoke_rng)) {
    const std::uint64_t group = next_group++;
    // The victim is resolved at fire time (a busy member, so held work is
    // at stake); the delayed delivery finds it again through the group.
    FaultEvent revoke;
    revoke.kind = FaultKind::kRevokeIdentity;
    revoke.at = t;
    revoke.group = group;
    plan.push_back(revoke);
    FaultEvent deliver;
    deliver.kind = FaultKind::kCrlDeliver;
    deliver.at = t + kCrlVisible;
    deliver.crl_horizon_after = kCrlHorizon;
    deliver.group = group;
    plan.push_back(deliver);
  }

  Rng replay_rng = root.fork(9);
  for (const SimTime t :
       storm_arrivals(storms.replay_rate, horizon, replay_rng)) {
    const std::uint64_t group = next_group++;
    for (std::size_t i = 0; i < kReplayCount; ++i) {
      FaultEvent inject;
      inject.kind = FaultKind::kReplayInject;
      inject.at = t + storms.replay_window * static_cast<double>(i) /
                          static_cast<double>(kReplayCount);
      inject.attack_tag = draw_tag(replay_rng);
      inject.replay_age = storms.replay_age;
      inject.group = group;
      plan.push_back(inject);
    }
  }

  sort_fault_plan(plan);
  return plan;
}

// ---- plan (de)serialization -------------------------------------------------

double FaultPlanMeta::get(const std::string& key, double fallback) const {
  for (const auto& [k, v] : extra) {
    if (k == key) return v;
  }
  return fallback;
}

void FaultPlanMeta::set(const std::string& key, double value) {
  for (auto& [k, v] : extra) {
    if (k == key) {
      v = value;
      return;
    }
  }
  extra.emplace_back(key, value);
}

void write_fault_plan_jsonl(const FaultPlan& plan, const FaultPlanMeta& meta,
                            std::ostream& os) {
  {
    obs::JsonWriter w(os);
    w.begin_object()
        .key("meta").value("vcl-fault-plan-v1")
        .key("seed").value(static_cast<std::uint64_t>(meta.seed))
        .key("events").value(static_cast<std::uint64_t>(plan.size()));
    for (const auto& [key, value] : meta.extra) {
      w.key(key).value_raw(obs::exact_number(value));
    }
    w.end_object();
  }
  os << "\n";
  for (const FaultEvent& e : plan) {
    obs::JsonWriter w(os);
    w.begin_object()
        .key("kind").value(to_string(e.kind))
        .key("at").value_raw(obs::exact_number(e.at));
    switch (e.kind) {
      case FaultKind::kVehicleCrash:
        if (e.vehicle.valid()) {
          w.key("vehicle").value(static_cast<std::uint64_t>(e.vehicle.value()));
        }
        if (e.storage_tag != 0) {
          w.key("storage_tag").value(static_cast<std::uint64_t>(e.storage_tag));
        }
        if (e.dag_tag != 0) {
          w.key("dag_tag").value(static_cast<std::uint64_t>(e.dag_tag));
        }
        break;
      case FaultKind::kBrokerCrash:
        break;
      case FaultKind::kRsuOutage:
        if (e.rsu.valid()) {
          w.key("rsu").value(static_cast<std::uint64_t>(e.rsu.value()));
        }
        w.key("repair_after").value_raw(obs::exact_number(e.repair_after));
        break;
      case FaultKind::kRadioBlackout:
        w.key("x").value_raw(obs::exact_number(e.center.x));
        w.key("y").value_raw(obs::exact_number(e.center.y));
        w.key("radius").value_raw(obs::exact_number(e.radius));
        w.key("duration").value_raw(obs::exact_number(e.duration));
        break;
      case FaultKind::kSybilJoin:
        w.key("attack_tag").value(static_cast<std::uint64_t>(e.attack_tag));
        break;
      case FaultKind::kRevokeIdentity:
        if (e.vehicle.valid()) {
          w.key("vehicle").value(static_cast<std::uint64_t>(e.vehicle.value()));
        }
        break;
      case FaultKind::kCrlDeliver:
        w.key("horizon_after")
            .value_raw(obs::exact_number(e.crl_horizon_after));
        break;
      case FaultKind::kReplayInject:
        w.key("attack_tag").value(static_cast<std::uint64_t>(e.attack_tag));
        w.key("age").value_raw(obs::exact_number(e.replay_age));
        break;
    }
    if (e.group != 0) {
      w.key("group").value(static_cast<std::uint64_t>(e.group));
    }
    w.end_object();
    os << "\n";
  }
}

namespace {

bool parse_kind(const std::string& name, FaultKind& out) {
  if (name == "vehicle_crash") out = FaultKind::kVehicleCrash;
  else if (name == "broker_crash") out = FaultKind::kBrokerCrash;
  else if (name == "rsu_outage") out = FaultKind::kRsuOutage;
  else if (name == "radio_blackout") out = FaultKind::kRadioBlackout;
  else if (name == "sybil_join") out = FaultKind::kSybilJoin;
  else if (name == "revoke_identity") out = FaultKind::kRevokeIdentity;
  else if (name == "crl_deliver") out = FaultKind::kCrlDeliver;
  else if (name == "replay_inject") out = FaultKind::kReplayInject;
  else return false;
  return true;
}

}  // namespace

bool parse_fault_plan_jsonl(std::istream& is, FaultPlan& plan,
                            FaultPlanMeta& meta, std::string* error) {
  plan.clear();
  meta = FaultPlanMeta{};
  const auto record = [&](const obs::JsonValue& obj, std::size_t line,
                          std::string& why) {
    obs::JsonFields f(obj);
    if (obj.find("meta") != nullptr) {
      const std::string schema = f.str("meta");
      if (f.ok() && schema != "vcl-fault-plan-v1") {
        why = "unsupported schema '" + schema + "'";
        return false;
      }
      meta.line = line;
      meta.seed = f.u64("seed");
      // A null knob reads as absent (get's fallback, as in JsonFields).
      for (const auto& [key, value] : obj.members) {
        if (key != "meta" && key != "seed" && key != "events" &&
            value.kind != obs::JsonValue::Kind::kNull) {
          meta.extra.emplace_back(key, f.number(key));
        }
      }
      why = f.error();
      return f.ok();
    }
    if (obj.find("kind") == nullptr) {
      why = "missing \"kind\"";
      return false;
    }
    FaultEvent e;
    const std::string kind_name = f.str("kind");
    if (!parse_kind(kind_name, e.kind)) {
      why = f.ok() ? "unknown kind '" + kind_name + "'" : f.error();
      return false;
    }
    e.at = f.number("at");
    switch (e.kind) {
      case FaultKind::kVehicleCrash:
        e.vehicle = VehicleId{f.u64("vehicle", VehicleId::kInvalid)};
        e.storage_tag = f.u64("storage_tag");
        e.dag_tag = f.u64("dag_tag");
        break;
      case FaultKind::kBrokerCrash:
        break;
      case FaultKind::kRsuOutage:
        e.rsu = RsuId{f.u64("rsu", RsuId::kInvalid)};
        e.repair_after = f.number("repair_after");
        break;
      case FaultKind::kRadioBlackout:
        e.center = {f.number("x"), f.number("y")};
        e.radius = f.number("radius");
        e.duration = f.number("duration");
        break;
      case FaultKind::kSybilJoin:
        e.attack_tag = f.u64("attack_tag");
        break;
      case FaultKind::kRevokeIdentity:
        e.vehicle = VehicleId{f.u64("vehicle", VehicleId::kInvalid)};
        break;
      case FaultKind::kCrlDeliver:
        e.crl_horizon_after = f.number("horizon_after");
        break;
      case FaultKind::kReplayInject:
        e.attack_tag = f.u64("attack_tag");
        e.replay_age = f.number("age");
        break;
    }
    e.group = f.u64("group");
    why = f.error();
    if (f.ok()) plan.push_back(e);
    return f.ok();
  };
  if (!obs::read_jsonl(is, record, error)) return false;
  if (meta.line == 0) {
    if (error != nullptr) *error = "missing vcl-fault-plan-v1 meta record";
    return false;
  }
  return true;
}

// ---- shrinking --------------------------------------------------------------

FaultPlan shrink_fault_plan(
    FaultPlan plan, const std::function<bool(const FaultPlan&)>& still_fails) {
  if (plan.empty()) return plan;

  // Causal units: events sharing a non-zero `group` are one atom — a revoke
  // without its CRL delivery, or a sybil burst without the blackout that
  // covers it, is a different incident, so the shrinker removes or keeps
  // whole groups. Ungrouped events are singleton units, which makes the
  // loop below behave exactly like the old per-event ddmin on plans that
  // carry no groups.
  std::vector<std::size_t> unit_of(plan.size());
  std::size_t unit_count = 0;
  {
    std::vector<std::pair<std::uint64_t, std::size_t>> group_unit;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (plan[i].group == 0) {
        unit_of[i] = unit_count++;
        continue;
      }
      bool found = false;
      for (const auto& [g, u] : group_unit) {
        if (g == plan[i].group) {
          unit_of[i] = u;
          found = true;
          break;
        }
      }
      if (!found) {
        group_unit.emplace_back(plan[i].group, unit_count);
        unit_of[i] = unit_count++;
      }
    }
  }

  // ddmin over units. `live` holds the kept unit ids in first-appearance
  // order; a candidate materializes by walking the ORIGINAL plan and
  // emitting events whose unit survives, so interleaved background events
  // keep their relative order.
  std::vector<std::size_t> live(unit_count);
  for (std::size_t u = 0; u < unit_count; ++u) live[u] = u;
  const auto materialize = [&](const std::vector<std::size_t>& kept) {
    std::vector<char> keep(unit_count, 0);
    for (const std::size_t u : kept) keep[u] = 1;
    FaultPlan out;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (keep[unit_of[i]] != 0) out.push_back(plan[i]);
    }
    return out;
  };

  std::size_t chunk = std::max<std::size_t>(live.size() / 2, 1);
  while (true) {
    bool removed = false;
    std::size_t i = 0;
    while (i < live.size()) {
      const std::size_t len = std::min(chunk, live.size() - i);
      std::vector<std::size_t> candidate;
      candidate.reserve(live.size() - len);
      candidate.insert(candidate.end(), live.begin(),
                       live.begin() + static_cast<std::ptrdiff_t>(i));
      candidate.insert(candidate.end(),
                       live.begin() + static_cast<std::ptrdiff_t>(i + len),
                       live.end());
      if (still_fails(materialize(candidate))) {
        live = std::move(candidate);
        removed = true;  // the next chunk shifted into position i
      } else {
        i += len;
      }
      if (live.empty()) return {};
    }
    if (chunk > 1) chunk = std::max<std::size_t>(chunk / 2, 1);
    else if (!removed) break;  // single-unit fixpoint: 1-minimal per unit
  }
  return materialize(live);
}

}  // namespace vcl::fault
