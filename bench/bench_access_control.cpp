// E12 — Authorization latency under stringent time constraints (§III.C).
//
// Measures, as modeled OBU latency (crypto::total) and as measured
// wall-clock of the toy substrate:
//   * ABE encrypt/keygen/decrypt vs policy size;
//   * sticky-package end-to-end access overhead (ABE + envelope + audit);
//   * context-switch attribute churn (role changes when hopping clusters);
//   * emergency-grant latency vs the paper's "milliseconds" requirement.
#include <chrono>
#include <iostream>

#include "access/role_manager.h"
#include "access/sticky_package.h"
#include "obs/bench_output.h"
#include "util/table.h"

using namespace vcl;
using namespace vcl::access;

namespace {

double wall_us(const std::function<void()>& fn, int iters = 50) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count() / iters;
}

Policy and_policy(int leaves) {
  std::string text = "a0";
  for (int i = 1; i < leaves; ++i) text += " & a" + std::to_string(i);
  return *Policy::parse(text);
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("bench_access_control", argc, argv);

  std::cout << "E12: access control latency (paper §III.C)\n\n";
  AbeAuthority authority(99);
  crypto::Drbg drbg(std::uint64_t{1});

  Table abe_table("ABE cost vs policy size",
                  {"leaves", "enc_obu_ms", "dec_obu_ms", "enc_us(toy)",
                   "dec_us(toy)"});
  for (const int leaves : {1, 2, 4, 8, 16, 32}) {
    const Policy policy = and_policy(leaves);
    AttributeSet attrs;
    for (int i = 0; i < leaves; ++i) {
      attrs.add(std::string("a").append(std::to_string(i)));
    }
    const AbeUserKey key = authority.keygen(attrs);
    const std::uint64_t m = crypto::default_group().pow_g(7);

    crypto::OpCounts enc_ops;
    const auto ct = authority.encrypt(m, policy, drbg, enc_ops);
    crypto::OpCounts dec_ops;
    (void)AbeAuthority::decrypt(ct, key, attrs, dec_ops);

    const double enc_us = wall_us([&] {
      crypto::OpCounts ops;
      (void)authority.encrypt(m, policy, drbg, ops);
    });
    const double dec_us = wall_us([&] {
      crypto::OpCounts ops;
      (void)AbeAuthority::decrypt(ct, key, attrs, ops);
    });

    abe_table.add_row({std::to_string(leaves),
                       Table::num(crypto::total(enc_ops) / kMilliseconds, 2),
                       Table::num(crypto::total(dec_ops) / kMilliseconds, 2),
                       Table::num(enc_us, 1), Table::num(dec_us, 1)});
  }
  reporter.emit(abe_table);

  // ---- sticky package end-to-end ------------------------------------------------
  Table pkg_table("sticky package access (policy '(role:head & zone:z) | "
                  "2of(a,b,c)')",
                  {"operation", "obu_ms", "notes"});
  {
    const auto policy = Policy::parse("(role:head & zone:z) | 2of(a, b, c)");
    const crypto::Bytes owner_key = drbg.generate(32);
    crypto::OpCounts seal_ops;
    StickyPackage pkg(authority, drbg.generate(1024), policy->clone(),
                      owner_key, 1, drbg, seal_ops);
    pkg_table.add_row({"seal (owner, once)",
                       Table::num(crypto::total(seal_ops) / kMilliseconds, 2),
                       "ABE header + DEM + envelope MAC"});

    const AttributeSet attrs{"role:head", "zone:z"};
    const AbeUserKey key = authority.keygen(attrs);
    crypto::OpCounts access_ops;
    (void)pkg.access(key, attrs, 42, 0.0, access_ops);
    pkg_table.add_row({"authorized access",
                       Table::num(crypto::total(access_ops) / kMilliseconds, 2),
                       "decrypt + audit append"});

    const AttributeSet bad{"role:member"};
    const AbeUserKey bad_key = authority.keygen(bad);
    crypto::OpCounts deny_ops;
    (void)pkg.access(bad_key, bad, 43, 1.0, deny_ops);
    pkg_table.add_row({"denied access",
                       Table::num(crypto::total(deny_ops) / kMilliseconds, 2),
                       "fails at first unsatisfied gate; still audited"});
  }
  reporter.emit(pkg_table);

  // ---- context switches -----------------------------------------------------------
  RoleManager roles;
  Table ctx_table("context-switch attribute churn (role changes, §III.C)",
                  {"transition", "attrs_changed", "rekey_obu_ms"});
  struct Transition {
    const char* label;
    VehicleContext before;
    VehicleContext after;
  };
  std::vector<Transition> transitions;
  {
    Transition t1{"member -> cluster head", {}, {}};
    t1.after.is_cluster_head = true;
    transitions.push_back(t1);
    Transition t2{"zone a -> zone b", {}, {}};
    t2.before.zone = "a";
    t2.after.zone = "b";
    transitions.push_back(t2);
    Transition t3{"normal -> emergency", {}, {}};
    t3.after.emergency = true;
    transitions.push_back(t3);
    Transition t4{"highway -> parked buffer node", {}, {}};
    t4.before.speed = 33.0;
    t4.after.speed = 0.0;
    transitions.push_back(t4);
  }
  for (const Transition& t : transitions) {
    const std::size_t delta = roles.switch_delta(t.before, t.after);
    // Each changed attribute requires one fresh ABE key component.
    crypto::OpCounts ops;
    ops.abe_decrypt_leaves = delta;  // keygen ~ one exponentiation per attr
    ctx_table.add_row({t.label, std::to_string(delta),
                       Table::num(crypto::total(ops) / kMilliseconds, 2)});
  }
  reporter.emit(ctx_table);

  // ---- emergency grant latency ------------------------------------------------------
  // Paper: "additional permissions ... should be granted to another vehicle
  // in milliseconds." Model: grant = role-manager projection (free) + one
  // attribute key issuance + decrypt of a single-leaf emergency policy.
  {
    crypto::OpCounts ops;
    const auto policy = Policy::parse("can:read-safety-data");
    const std::uint64_t m = crypto::default_group().pow_g(3);
    const auto ct = authority.encrypt(m, *policy, drbg, ops);
    VehicleContext ctx;
    ctx.emergency = true;
    const AttributeSet attrs = roles.attributes_for(ctx);
    const AbeUserKey key = authority.keygen(attrs);
    crypto::OpCounts grant_ops;
    (void)AbeAuthority::decrypt(ct, key, attrs, grant_ops);
    const double ms = crypto::total(grant_ops) / kMilliseconds;
    std::cout << "emergency grant latency (modeled OBU): " << Table::num(ms, 2)
              << " ms  -> " << (ms < 10.0 ? "meets" : "MISSES")
              << " the paper's milliseconds budget\n";
  }
  return reporter.finish();
}
