#include "core/consent.h"

#include <utility>

#include "common/coding.h"
#include "crypto/hmac.h"

namespace medvault::core {

const char* ConsentScopeName(ConsentScope scope) {
  switch (scope) {
    case ConsentScope::kRecord:
      return "record";
    case ConsentScope::kPatient:
      return "patient";
  }
  return "unknown";
}

namespace {

/// Every field but the signature, in wire order.
void PutUnsignedFields(const ConsentGrant& g, std::string* out) {
  PutLengthPrefixed(out, g.grant_id);
  PutLengthPrefixed(out, g.patient);
  PutLengthPrefixed(out, g.grantee);
  PutLengthPrefixed(out, g.record_id);
  PutVarint64(out, static_cast<uint64_t>(g.scope));
  PutLengthPrefixed(out, g.purpose);
  PutVarint64(out, static_cast<uint64_t>(g.issued_at));
  PutVarint64(out, static_cast<uint64_t>(g.expires_at));
}

}  // namespace

std::string ConsentGrant::SignedPayload() const {
  std::string payload("medvault-consent-v1");
  PutUnsignedFields(*this, &payload);
  return payload;
}

std::string ConsentGrant::Encode() const {
  std::string out;
  PutUnsignedFields(*this, &out);
  PutLengthPrefixed(&out, signature);
  return out;
}

Result<ConsentGrant> ConsentGrant::Decode(const Slice& data) {
  Slice in = data;
  ConsentGrant grant;
  uint64_t scope_raw = 0;
  uint64_t issued = 0;
  uint64_t expires = 0;
  if (!GetLengthPrefixedString(&in, &grant.grant_id) ||
      !GetLengthPrefixedString(&in, &grant.patient) ||
      !GetLengthPrefixedString(&in, &grant.grantee) ||
      !GetLengthPrefixedString(&in, &grant.record_id) ||
      !GetVarint64(&in, &scope_raw) ||
      !GetLengthPrefixedString(&in, &grant.purpose) ||
      !GetVarint64(&in, &issued) || !GetVarint64(&in, &expires) ||
      !GetLengthPrefixedString(&in, &grant.signature) || !in.empty()) {
    return Status::Corruption("bad consent grant encoding");
  }
  if (scope_raw != static_cast<uint64_t>(ConsentScope::kRecord) &&
      scope_raw != static_cast<uint64_t>(ConsentScope::kPatient)) {
    return Status::Corruption("bad consent scope");
  }
  grant.scope = static_cast<ConsentScope>(scope_raw);
  if ((grant.scope == ConsentScope::kRecord) == grant.record_id.empty()) {
    return Status::Corruption("consent scope disagrees with record id");
  }
  grant.issued_at = static_cast<Timestamp>(issued);
  grant.expires_at = static_cast<Timestamp>(expires);
  return grant;
}

void ConsentRegistry::Configure(std::string signing_root,
                                std::string id_prefix) {
  signing_root_ = std::move(signing_root);
  if (!id_prefix.empty()) grants_.set_prefix(std::move(id_prefix));
}

std::string ConsentRegistry::SigningKeyFor(const PrincipalId& patient) const {
  return crypto::HmacSha256(signing_root_, "consent-key:" + patient);
}

Result<ConsentGrant> ConsentRegistry::Grant(const PrincipalId& patient,
                                            const PrincipalId& grantee,
                                            const RecordId& record_id,
                                            const std::string& purpose,
                                            Timestamp now,
                                            Timestamp expires_at) {
  if (patient.empty() || grantee.empty()) {
    return Status::InvalidArgument("consent needs a patient and a grantee");
  }
  if (grantee == patient) {
    return Status::InvalidArgument(
        "patients already read their own records; no self-consent");
  }
  if (purpose.empty()) {
    return Status::InvalidArgument("consent requires a stated purpose");
  }
  if (expires_at <= now) {
    return Status::InvalidArgument("consent must be time-boxed in the future");
  }
  ConsentGrant grant;
  grant.grant_id = grants_.NextId();
  grant.patient = patient;
  grant.grantee = grantee;
  grant.record_id = record_id;
  grant.scope =
      record_id.empty() ? ConsentScope::kPatient : ConsentScope::kRecord;
  grant.purpose = purpose;
  grant.issued_at = now;
  grant.expires_at = expires_at;
  grant.signature =
      crypto::HmacSha256(SigningKeyFor(patient), grant.SignedPayload());
  grants_.Insert(grant, now);
  return grant;
}

Status ConsentRegistry::Revoke(const std::string& grant_id) {
  if (!grants_.Erase(grant_id)) {
    return Status::NotFound("no such consent grant: " + grant_id);
  }
  return Status::OK();
}

Result<ConsentGrant> ConsentRegistry::Get(const std::string& grant_id) const {
  const ConsentGrant* grant = grants_.Find(grant_id);
  if (grant == nullptr) {
    return Status::NotFound("no such consent grant: " + grant_id);
  }
  return *grant;
}

bool ConsentRegistry::HasActiveConsent(const PrincipalId& grantee,
                                       const PrincipalId& patient,
                                       const RecordId& record_id,
                                       Timestamp now,
                                       std::string* grant_id_out) const {
  const ConsentGrant* grant =
      grants_.FindLive(patient, grantee, now, [&](const ConsentGrant& g) {
        return g.scope == ConsentScope::kPatient || g.record_id == record_id;
      });
  if (grant == nullptr) return false;
  if (grant_id_out != nullptr) *grant_id_out = grant->grant_id;
  return true;
}

std::vector<ConsentGrant> ConsentRegistry::ListForPatient(
    const PrincipalId& patient, Timestamp now) const {
  std::vector<ConsentGrant> out = grants_.ForPatient(patient);
  std::erase_if(out, [now](const ConsentGrant& g) {
    return g.expires_at <= now;
  });
  return out;
}

std::vector<ConsentGrant> ConsentRegistry::RevokeAllForRecord(
    const PrincipalId& patient, const RecordId& record_id) {
  std::vector<ConsentGrant> revoked = grants_.ForPatient(patient);
  std::erase_if(revoked, [&](const ConsentGrant& g) {
    return g.scope != ConsentScope::kRecord || g.record_id != record_id;
  });
  for (const ConsentGrant& g : revoked) grants_.Erase(g.grant_id);
  return revoked;
}

std::vector<ConsentGrant> ConsentRegistry::Snapshot() const {
  return grants_.All();
}

Status ConsentRegistry::VerifySignature(const ConsentGrant& grant) const {
  const std::string expected =
      crypto::HmacSha256(SigningKeyFor(grant.patient), grant.SignedPayload());
  if (!crypto::ConstantTimeEqual(expected, grant.signature)) {
    return Status::TamperDetected("consent grant " + grant.grant_id +
                                  " signature mismatch");
  }
  return Status::OK();
}

Status ConsentRegistry::Restore(const ConsentGrant& grant, Timestamp now) {
  grants_.NoteId(grant.grant_id);
  grants_.Insert(grant, now);  // skips a grant dead on arrival
  return Status::OK();
}

Status ConsentRegistry::RestoreRevoke(const std::string& grant_id) {
  grants_.NoteId(grant_id);
  grants_.Erase(grant_id);
  return Status::OK();
}

size_t ConsentRegistry::ActiveCount(Timestamp now) const {
  return grants_.LiveCount(now);
}

}  // namespace medvault::core
