#include "core/pipeline.h"

namespace vcl::core {
namespace {

constexpr double kTrustThreshold = 0.5;  // validator score to accept

}  // namespace

const char* to_string(AuthProtocolKind p) {
  switch (p) {
    case AuthProtocolKind::kPseudonym: return "pseudonym";
    case AuthProtocolKind::kGroup: return "group";
    case AuthProtocolKind::kHybrid: return "hybrid";
  }
  return "unknown";
}

PipelineResult SecurePipeline::process(const AuthInput& auth_in,
                                       const AuthzInput& authz_in,
                                       const TrustInput& trust_in,
                                       SimTime now) {
  PipelineResult result;
  crypto::OpCounts ops;

  // Stage 1: authentication ("does the vehicle have a valid identity?").
  auth::VerifyOutcome verdict;
  switch (auth_in.protocol) {
    case AuthProtocolKind::kPseudonym:
      verdict = auth::PseudonymAuth::verify(*auth_in.ta, auth_in.payload,
                                            auth_in.tag);
      break;
    case AuthProtocolKind::kGroup:
      verdict = auth::GroupAuth::verify(*auth_in.manager, auth_in.payload,
                                        auth_in.tag);
      break;
    case AuthProtocolKind::kHybrid:
      verdict = auth::HybridAuth::verify(*auth_in.manager, auth_in.payload,
                                         auth_in.tag);
      break;
  }
  ops += verdict.ops;
  result.authenticated = verdict.ok;
  if (!verdict.ok) {
    result.rejected_at = "authentication";
    result.latency = crypto::total(ops);
    result.within_budget = result.latency <= config_.budget;
    return result;
  }

  // Stage 2: authorization ("what resources / actions are allowed?").
  if (authz_in.package != nullptr) {
    const auto plain = authz_in.package->access(
        *authz_in.key, authz_in.attrs, authz_in.accessor, now, ops);
    result.authorized = plain.has_value();
    if (!result.authorized) {
      result.rejected_at = "authorization";
      result.latency = crypto::total(ops);
      result.within_budget = result.latency <= config_.budget;
      return result;
    }
  } else {
    result.authorized = true;  // stage disabled
  }

  // Stage 3: trust validation ("do I need to verify data trustworthiness?").
  if (trust_in.validator != nullptr && trust_in.cluster != nullptr) {
    const trust::TrustDecision decision =
        trust_in.validator->evaluate(*trust_in.cluster);
    ops.hash += trust_in.cluster->reports.size();  // content checks
    result.trusted = decision.score > kTrustThreshold;
    if (!result.trusted) {
      result.rejected_at = "trust";
      result.latency = crypto::total(ops);
      result.within_budget = result.latency <= config_.budget;
      return result;
    }
  } else {
    result.trusted = true;
  }

  result.accepted = true;
  result.latency = crypto::total(ops);
  result.within_budget = result.latency <= config_.budget;
  return result;
}

}  // namespace vcl::core
