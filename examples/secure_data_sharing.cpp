// Secure data sharing: sticky data-policy packages in a v-cloud (paper
// §V.C).
//
// A lender vehicle shares its lidar capture with the cloud under the policy
// "cluster heads in zone a3, or any two of {level-4 automation, lidar
// sensing, fleet membership}". The policy travels WITH the data: access is
// enforced by ABE decryption wherever the package goes, and every attempt
// lands on the package's tamper-evident audit log.
#include <iostream>

#include "access/role_manager.h"
#include "access/sticky_package.h"
#include "util/table.h"

int main() {
  using namespace vcl;
  using namespace vcl::access;

  AbeAuthority authority(2024);
  crypto::Drbg drbg(std::uint64_t{42});
  const crypto::Bytes owner_key = drbg.generate(32);

  // The shared data item.
  const crypto::Bytes lidar_frame = drbg.generate(2048);

  const auto policy = Policy::parse(
      "(role:head & zone:a3) | 2of(level:high, sensor:lidar, fleet:acme)");
  crypto::OpCounts ops;
  StickyPackage package(authority, lidar_frame, policy->clone(), owner_key,
                        /*object_id=*/7001, drbg, ops);
  std::cout << "Sealed lidar frame under policy:\n  " << package.policy_text()
            << "\n\n";

  // Requesters with different contexts (attributes derive from context via
  // the RoleManager — §III.C's context-dependent roles).
  RoleManager roles;
  struct Requester {
    const char* label;
    std::uint64_t credential;
    VehicleContext ctx;
    std::vector<Attribute> extra;
  };
  std::vector<Requester> requesters;
  {
    Requester head{"cluster head in a3", 9001, {}, {}};
    head.ctx.is_cluster_head = true;
    head.ctx.zone = "a3";
    requesters.push_back(head);

    Requester rich{"L4 vehicle with lidar", 9002, {}, {}};
    rich.ctx.automation = mobility::AutomationLevel::kHighAutomation;
    rich.extra.push_back("sensor:lidar");
    requesters.push_back(rich);

    Requester member{"ordinary member", 9003, {}, {}};
    member.ctx.zone = "b7";
    requesters.push_back(member);
  }

  Table table("access attempts", {"requester", "attributes", "granted"});
  for (const Requester& r : requesters) {
    AttributeSet attrs = roles.attributes_for(r.ctx);
    for (const Attribute& a : r.extra) attrs.add(a);
    const AbeUserKey key = authority.keygen(attrs);
    const auto data = package.access(key, attrs, r.credential, 10.0, ops);

    std::string attr_list;
    for (const auto& a : attrs.all()) attr_list += a + " ";
    table.add_row({r.label, attr_list, data.has_value() ? "YES" : "no"});

    if (data.has_value() && *data != lidar_frame) {
      std::cerr << "integrity failure!\n";
      return 1;
    }
  }
  table.print(std::cout);

  // The audit trail traveled with the package.
  Table log_table("package audit log (hash-chained)",
                  {"time", "credential", "granted"});
  for (const AuditRecord& rec : package.log().records()) {
    log_table.add_row({Table::num(rec.time, 1), std::to_string(rec.accessor),
                       rec.granted ? "yes" : "no"});
  }
  log_table.print(std::cout);
  std::cout << "audit chain verifies: "
            << (package.log().verify_chain() ? "yes" : "NO") << "\n";

  // Tampering with the policy text is detected by the owner's envelope MAC.
  package.tamper_policy_text("anyone");
  std::cout << "after policy tamper, envelope verifies: "
            << (package.verify_envelope(owner_key) ? "yes" : "NO (detected)")
            << "\n";
  return 0;
}
