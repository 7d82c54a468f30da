#ifndef MEDVAULT_CORE_CONSENT_H_
#define MEDVAULT_CORE_CONSENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/slice.h"
#include "core/grant_table.h"
#include "core/record.h"

namespace medvault::core {

/// What a delegated grant covers: a single record, or every record the
/// granting patient owns (including ones created after the grant).
enum class ConsentScope : uint8_t {
  kRecord = 1,
  kPatient = 2,
};

const char* ConsentScopeName(ConsentScope scope);

/// A patient-signed, time-boxed capability: "I, `patient`, authorize
/// `grantee` to read (my record `record_id` | all my records) until
/// `expires_at`, for `purpose`". The signature is an HMAC-SHA256 under
/// a per-patient key derived from the vault's consent-signing root, so
/// a grant replayed from the state log that was tampered with on disk
/// fails verification instead of silently widening access.
struct ConsentGrant {
  std::string grant_id;
  PrincipalId patient;
  PrincipalId grantee;
  RecordId record_id;  ///< empty iff scope == kPatient
  ConsentScope scope = ConsentScope::kRecord;
  std::string purpose;
  Timestamp issued_at = 0;
  Timestamp expires_at = 0;
  std::string signature;

  /// The byte string that is signed (every field except the signature,
  /// under a domain-separation prefix).
  std::string SignedPayload() const;
  std::string Encode() const;
  static Result<ConsentGrant> Decode(const Slice& data);
};

/// Registry of delegated sharing grants (paper-adjacent: Health Access
/// Broker / S3PHER-style patient-driven sharing). The registry itself
/// is policy-free storage plus signing: the Vault validates roles and
/// record ownership, persists grants in the state log, and audits every
/// exercise; AccessController consults the registry on reads.
///
/// Thread safety: none of its own. The Vault calls the const lookups
/// under its shared lock and every mutation under its exclusive lock.
class ConsentRegistry {
 public:
  ConsentRegistry() = default;

  ConsentRegistry(const ConsentRegistry&) = delete;
  ConsentRegistry& operator=(const ConsentRegistry&) = delete;

  /// Installs the per-vault signing root (HKDF-derived by Vault::Init)
  /// and the grant-id prefix ("cg", or "s<k>-cg" inside shard k so ids
  /// route like record ids).
  void Configure(std::string signing_root, std::string id_prefix);

  /// Issues and signs a grant. Validates time-boxing (expires_at > now),
  /// a non-empty purpose, and grantee != patient; role and ownership
  /// checks are the Vault's job. Scope is kRecord when `record_id` is
  /// non-empty, kPatient otherwise.
  Result<ConsentGrant> Grant(const PrincipalId& patient,
                             const PrincipalId& grantee,
                             const RecordId& record_id,
                             const std::string& purpose, Timestamp now,
                             Timestamp expires_at);

  /// Removes a grant; kNotFound if absent (revoked, or expired and
  /// pruned).
  Status Revoke(const std::string& grant_id);

  Result<ConsentGrant> Get(const std::string& grant_id) const;

  /// True iff some live grant lets `grantee` read `record_id` belonging
  /// to `patient` strictly before its expiry (a grant exercised at
  /// exactly expires_at is refused, matching break-glass semantics).
  /// Fills `*grant_id_out` (if non-null) with the matching grant's id
  /// so the caller can name the basis in the audit trail.
  bool HasActiveConsent(const PrincipalId& grantee,
                        const PrincipalId& patient, const RecordId& record_id,
                        Timestamp now, std::string* grant_id_out) const;

  /// Live grants naming `patient` as the granting principal, in id
  /// order.
  std::vector<ConsentGrant> ListForPatient(const PrincipalId& patient,
                                           Timestamp now) const;

  /// Removes every record-scoped grant `patient` issued on `record_id`
  /// and returns them in id order (crypto-shredding kills outstanding
  /// record grants; the Vault persists and audits each revocation).
  /// Patient-scoped grants stay: they cover the patient's *other*
  /// records, and the shredded one is unreadable regardless once its
  /// key is destroyed.
  std::vector<ConsentGrant> RevokeAllForRecord(const PrincipalId& patient,
                                               const RecordId& record_id);

  /// Copy of the whole table (recovery reconciliation sweep).
  std::vector<ConsentGrant> Snapshot() const;

  /// Recomputes the grant's HMAC and compares in constant time.
  /// kTamperDetected on mismatch.
  Status VerifySignature(const ConsentGrant& grant) const;

  /// Re-installs a persisted grant under its original id (state-log
  /// replay on open). Keeps the id counter ahead of replayed ids;
  /// grants already expired at `now` are counted but not re-installed.
  /// The caller verifies the signature first (Vault::LoadState does) —
  /// like RestoreGrant, replay never re-validates policy.
  Status Restore(const ConsentGrant& grant, Timestamp now);

  /// Replays a persisted revocation; OK even if the grant is absent
  /// (it may have expired out of the table before the revoke landed).
  Status RestoreRevoke(const std::string& grant_id);

  /// Live grants, like AccessController::ActiveGrantCount.
  size_t ActiveCount(Timestamp now) const;

 private:
  std::string SigningKeyFor(const PrincipalId& patient) const;

  std::string signing_root_;
  GrantTable<ConsentGrant, &ConsentGrant::grantee> grants_{"cg"};
};

}  // namespace medvault::core

#endif  // MEDVAULT_CORE_CONSENT_H_
