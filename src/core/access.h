#ifndef MEDVAULT_CORE_ACCESS_H_
#define MEDVAULT_CORE_ACCESS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "common/clock.h"
#include "common/result.h"
#include "common/slice.h"
#include "core/consent.h"
#include "core/grant_table.h"
#include "core/record.h"

namespace medvault::core {

/// Clinical/administrative roles. The policy encodes HIPAA's "minimum
/// necessary" standard: administrators operate the system but cannot
/// read clinical content; auditors read trails but not records.
enum class Role : uint8_t {
  kPhysician = 1,
  kNurse = 2,
  kClerk = 3,
  kAuditor = 4,
  kPatient = 5,
  kAdmin = 6,
};

const char* RoleName(Role role);

struct Principal {
  PrincipalId id;
  Role role = Role::kClerk;
  std::string display_name;
};

/// Operations subject to access control.
enum class Operation : uint8_t {
  kCreateRecord = 1,
  kReadRecord = 2,
  kCorrectRecord = 3,
  kSearch = 4,
  kDispose = 5,
  kMigrate = 6,
  kBackup = 7,
  kReadAudit = 8,
  kManagePrincipals = 9,
};

const char* OperationName(Operation op);

/// Why an access check succeeded — threaded into the audit trail so a
/// disclosure report names HOW a reader got in (care relation vs
/// emergency override vs delegated consent), not just that they did.
struct AccessBasis {
  enum class Kind : uint8_t {
    kNone = 0,        ///< denied, or basis not applicable
    kRole = 1,        ///< role policy alone (clerk create, admin ops, ...)
    kOwner = 2,       ///< patient acting on their own records
    kCare = 3,        ///< treating relationship
    kBreakGlass = 4,  ///< emergency override grant
    kConsent = 5,     ///< delegated patient consent grant
  };
  Kind kind = Kind::kNone;
  std::string grant_id;  ///< set for kBreakGlass / kConsent
};

const char* AccessBasisName(AccessBasis::Kind kind);

/// An emergency override: `clinician` may read `patient`'s records
/// until `expires_at`. Persisted in the state log, so a reopen never
/// silently revokes access the audit trail says was granted.
struct BreakGlassGrant {
  std::string grant_id;
  PrincipalId clinician;
  PrincipalId patient;
  std::string justification;
  Timestamp expires_at = 0;

  std::string Encode() const;
  static Result<BreakGlassGrant> Decode(const Slice& data);
};

/// Role-based access control with treating-relationship scoping and
/// emergency break-glass (paper §3: "only authorized personnel should
/// have access"; availability requires an override that never blocks
/// care, provided it is irrevocably audited — the Vault logs every
/// break-glass grant).
///
/// Policy summary:
///  - Physician: create/read/correct/search for patients under their
///    care (or via break-glass).
///  - Nurse: create/read for patients under care (or break-glass).
///  - Clerk: create only (registration; cannot read clinical content).
///  - Patient: read their own records; request corrections to them.
///  - Auditor: read audit trails only.
///  - Admin: dispose/migrate/backup/manage; *no* clinical reads.
class AccessController {
 public:
  AccessController() = default;

  AccessController(const AccessController&) = delete;
  AccessController& operator=(const AccessController&) = delete;

  Status RegisterPrincipal(const Principal& principal);
  Result<Principal> GetPrincipal(const PrincipalId& id) const;

  /// Declares `clinician` as treating `patient` (admission/assignment).
  Status AssignCare(const PrincipalId& clinician,
                    const PrincipalId& patient);
  Status RevokeCare(const PrincipalId& clinician,
                    const PrincipalId& patient);
  bool InCare(const PrincipalId& clinician, const PrincipalId& patient) const;

  /// Makes delegated consent grants visible to CheckAccess (read-only
  /// borrow; the Vault owns the registry and outlives the controller).
  void AttachConsentRegistry(const ConsentRegistry* consents) {
    consents_ = consents;
  }

  /// Decides whether `actor` may perform `op` on a record belonging to
  /// `patient_id` (empty for non-record operations). OK or
  /// kPermissionDenied (kNotFound for unknown actors). Consults the
  /// consent registry too (a delegated grant authorizes kReadRecord
  /// only — sharing is read-only) and reports the basis of a
  /// successful check via `*basis` (may be null). `record_id` may be
  /// empty for patient-scoped decisions.
  Status CheckAccess(const PrincipalId& actor, Operation op,
                     const PrincipalId& patient_id, const RecordId& record_id,
                     Timestamp now, AccessBasis* basis) const;

  /// Emergency override: grants `clinician` read access to `patient`'s
  /// records until `expires_at`. The caller MUST audit this (Vault does)
  /// AND persist it (Vault appends a state-log entry, replayed via
  /// RestoreGrant on reopen) — a grant that exists only in memory
  /// silently revokes emergency access on crash while the audit trail
  /// claims it was active.
  Result<BreakGlassGrant> BreakGlass(const PrincipalId& clinician,
                                     const PrincipalId& patient,
                                     const std::string& justification,
                                     Timestamp now, Timestamp expires_at);

  /// Re-installs a persisted grant under its original id (state-log
  /// replay on open). Keeps the grant-id counter ahead of replayed ids
  /// so fresh grants never collide; grants already expired at `now` are
  /// counted but not re-installed. No role/justification re-validation:
  /// BreakGlass validated at grant time, and replay must never make a
  /// previously-open vault unopenable.
  void RestoreGrant(const BreakGlassGrant& grant, Timestamp now);

  /// Active break-glass grants (expired ones never count).
  size_t ActiveGrantCount(Timestamp now) const;

 private:
  std::map<PrincipalId, Principal> principals_;
  std::set<std::pair<PrincipalId, PrincipalId>> care_;  // (clinician, patient)
  GrantTable<BreakGlassGrant, &BreakGlassGrant::clinician> grants_{"bg"};
  /// Borrowed from the Vault; null until AttachConsentRegistry.
  const ConsentRegistry* consents_ = nullptr;
};

}  // namespace medvault::core

#endif  // MEDVAULT_CORE_ACCESS_H_
