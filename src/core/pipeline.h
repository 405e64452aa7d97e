// Secure message pipeline (paper Fig. 3 / E4): authenticate -> authorize ->
// validate trustworthiness, under a latency budget.
//
// The pipeline answers Fig. 3's four questions in order — does the sender
// have a valid identity? what may it access? is the action allowed on this
// data? does the content need (and pass) trust validation? — charging every
// cryptographic step at production rates through crypto::total, so the
// "stringent time constraints" of §III are measurable.
#pragma once

#include <optional>

#include "access/sticky_package.h"
#include "auth/group_auth.h"
#include "auth/hybrid_auth.h"
#include "trust/validators.h"

namespace vcl::core {

enum class AuthProtocolKind : std::uint8_t { kPseudonym, kGroup, kHybrid };

const char* to_string(AuthProtocolKind p);

struct PipelineConfig {
  SimTime budget = 100 * kMilliseconds;  // end-to-end deadline per message
};

struct PipelineResult {
  bool authenticated = false;
  bool authorized = false;
  bool trusted = false;        // content validation outcome (if run)
  bool accepted = false;       // all enabled stages passed
  SimTime latency = 0.0;       // modeled processing time
  bool within_budget = false;
  const char* rejected_at = "";  // stage name when !accepted
};

// One verifier-side pipeline instance. Stages are pluggable: the
// authenticator is chosen per message (tag + protocol), authorization runs
// against a sticky package, trust validation against the report cluster the
// message belongs to.
class SecurePipeline {
 public:
  explicit SecurePipeline(PipelineConfig config) : config_(config) {}

  struct AuthInput {
    AuthProtocolKind protocol = AuthProtocolKind::kPseudonym;
    const auth::TrustedAuthority* ta = nullptr;       // pseudonym
    const auth::GroupManager* manager = nullptr;      // group / hybrid
    crypto::Bytes payload;
    auth::AuthTag tag;
  };

  struct AuthzInput {
    access::StickyPackage* package = nullptr;  // nullptr = skip stage
    const access::AbeUserKey* key = nullptr;
    access::AttributeSet attrs;
    std::uint64_t accessor = 0;
  };

  struct TrustInput {
    const trust::Validator* validator = nullptr;  // nullptr = skip stage
    const trust::EventCluster* cluster = nullptr;
  };

  [[nodiscard]] PipelineResult process(const AuthInput& auth_in,
                                       const AuthzInput& authz_in,
                                       const TrustInput& trust_in,
                                       SimTime now);

 private:
  PipelineConfig config_;
};

}  // namespace vcl::core
