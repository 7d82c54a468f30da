#include "core/access.h"

#include "common/coding.h"

namespace medvault::core {

const char* RoleName(Role role) {
  switch (role) {
    case Role::kPhysician: return "physician";
    case Role::kNurse: return "nurse";
    case Role::kClerk: return "clerk";
    case Role::kAuditor: return "auditor";
    case Role::kPatient: return "patient";
    case Role::kAdmin: return "admin";
  }
  return "unknown";
}

const char* OperationName(Operation op) {
  switch (op) {
    case Operation::kCreateRecord: return "create-record";
    case Operation::kReadRecord: return "read-record";
    case Operation::kCorrectRecord: return "correct-record";
    case Operation::kSearch: return "search";
    case Operation::kDispose: return "dispose";
    case Operation::kMigrate: return "migrate";
    case Operation::kBackup: return "backup";
    case Operation::kReadAudit: return "read-audit";
    case Operation::kManagePrincipals: return "manage-principals";
  }
  return "unknown";
}

const char* AccessBasisName(AccessBasis::Kind kind) {
  switch (kind) {
    case AccessBasis::Kind::kNone: return "none";
    case AccessBasis::Kind::kRole: return "role";
    case AccessBasis::Kind::kOwner: return "owner";
    case AccessBasis::Kind::kCare: return "care";
    case AccessBasis::Kind::kBreakGlass: return "break-glass";
    case AccessBasis::Kind::kConsent: return "consent";
  }
  return "unknown";
}

Status AccessController::RegisterPrincipal(const Principal& principal) {
  if (principal.id.empty()) {
    return Status::InvalidArgument("principal id must not be empty");
  }
  if (principals_.count(principal.id) > 0) {
    return Status::AlreadyExists("principal already registered");
  }
  principals_[principal.id] = principal;
  return Status::OK();
}

Result<Principal> AccessController::GetPrincipal(const PrincipalId& id) const {
  auto it = principals_.find(id);
  if (it == principals_.end()) return Status::NotFound("unknown principal");
  return it->second;
}

Status AccessController::AssignCare(const PrincipalId& clinician,
                                    const PrincipalId& patient) {
  MEDVAULT_ASSIGN_OR_RETURN(Principal p, GetPrincipal(clinician));
  if (p.role != Role::kPhysician && p.role != Role::kNurse) {
    return Status::InvalidArgument("care relations require a clinician");
  }
  care_.insert({clinician, patient});
  return Status::OK();
}

Status AccessController::RevokeCare(const PrincipalId& clinician,
                                    const PrincipalId& patient) {
  if (care_.erase({clinician, patient}) == 0) {
    return Status::NotFound("no such care relation");
  }
  return Status::OK();
}

bool AccessController::InCare(const PrincipalId& clinician,
                              const PrincipalId& patient) const {
  return care_.count({clinician, patient}) > 0;
}

Status AccessController::CheckAccess(const PrincipalId& actor, Operation op,
                                     const PrincipalId& patient_id,
                                     const RecordId& record_id, Timestamp now,
                                     AccessBasis* basis) const {
  if (basis != nullptr) *basis = AccessBasis{};
  auto it = principals_.find(actor);
  if (it == principals_.end()) return Status::NotFound("unknown principal");
  const Role role = it->second.role;

  auto deny = [&](const char* why) {
    return Status::PermissionDenied(std::string(RoleName(role)) + " may not " +
                                    OperationName(op) + ": " + why);
  };
  auto allow = [&](AccessBasis::Kind kind, std::string grant_id = "") {
    if (basis != nullptr) *basis = AccessBasis{kind, std::move(grant_id)};
    return Status::OK();
  };

  const bool clinician = (role == Role::kPhysician || role == Role::kNurse);
  const bool in_care = clinician && InCare(actor, patient_id);
  const BreakGlassGrant* bg_grant =
      clinician && !in_care
          ? grants_.FindLive(patient_id, actor, now,
                             [](const BreakGlassGrant&) { return true; })
          : nullptr;
  const bool via_grant = bg_grant != nullptr;
  const bool scoped_ok = in_care || via_grant;
  auto scoped_basis = [&]() {
    return in_care ? allow(AccessBasis::Kind::kCare)
                   : allow(AccessBasis::Kind::kBreakGlass, bg_grant->grant_id);
  };

  switch (op) {
    case Operation::kCreateRecord:
      if (role == Role::kClerk) return allow(AccessBasis::Kind::kRole);
      if (scoped_ok) return scoped_basis();
      return deny("requires clerk, or clinician with a care relation");
    case Operation::kReadRecord: {
      if (role == Role::kPatient && actor == patient_id) {
        return allow(AccessBasis::Kind::kOwner);
      }
      if (scoped_ok) return scoped_basis();
      // Delegated consent opens reads — and only reads — to any
      // registered principal the patient chose (specialist, insurer,
      // researcher), regardless of role or care relation.
      std::string consent_id;
      if (consents_ != nullptr &&
          consents_->HasActiveConsent(actor, patient_id, record_id, now,
                                      &consent_id)) {
        return allow(AccessBasis::Kind::kConsent, consent_id);
      }
      return deny("requires care relation, break-glass, consent, or "
                  "record owner");
    }
    case Operation::kCorrectRecord:
      if (role == Role::kPhysician && scoped_ok) return scoped_basis();
      if (role == Role::kPatient && actor == patient_id) {
        return allow(  // HIPAA right to request amendment
            AccessBasis::Kind::kOwner);
      }
      return deny("requires treating physician or the patient");
    case Operation::kSearch:
      if (in_care || via_grant) return scoped_basis();
      if (clinician) return allow(AccessBasis::Kind::kRole);
      return deny("requires a clinician");
    case Operation::kDispose:
    case Operation::kMigrate:
    case Operation::kBackup:
    case Operation::kManagePrincipals:
      if (role == Role::kAdmin) return allow(AccessBasis::Kind::kRole);
      return deny("requires admin");
    case Operation::kReadAudit:
      if (role == Role::kAuditor || role == Role::kAdmin) {
        return allow(AccessBasis::Kind::kRole);
      }
      return deny("requires auditor");
  }
  return deny("unmapped operation");
}

Result<BreakGlassGrant> AccessController::BreakGlass(
    const PrincipalId& clinician, const PrincipalId& patient,
    const std::string& justification, Timestamp now, Timestamp expires_at) {
  MEDVAULT_ASSIGN_OR_RETURN(Principal p, GetPrincipal(clinician));
  if (p.role != Role::kPhysician && p.role != Role::kNurse) {
    return Status::PermissionDenied("break-glass requires a clinician");
  }
  if (justification.empty()) {
    return Status::InvalidArgument("break-glass requires a justification");
  }
  if (expires_at <= now) {
    return Status::InvalidArgument("break-glass grant must expire in future");
  }
  BreakGlassGrant grant{grants_.NextId(), clinician, patient, justification,
                        expires_at};
  grants_.Insert(grant, now);
  return grant;
}

void AccessController::RestoreGrant(const BreakGlassGrant& grant,
                                    Timestamp now) {
  // Keep fresh ids ahead of every replayed one, including grants that
  // already expired — an id must never be issued twice.
  grants_.NoteId(grant.grant_id);
  grants_.Insert(grant, now);  // skips a grant dead on arrival
}

size_t AccessController::ActiveGrantCount(Timestamp now) const {
  return grants_.LiveCount(now);
}

std::string BreakGlassGrant::Encode() const {
  std::string out;
  PutLengthPrefixed(&out, grant_id);
  PutLengthPrefixed(&out, clinician);
  PutLengthPrefixed(&out, patient);
  PutLengthPrefixed(&out, justification);
  PutVarint64(&out, static_cast<uint64_t>(expires_at));
  return out;
}

Result<BreakGlassGrant> BreakGlassGrant::Decode(const Slice& data) {
  Slice in = data;
  BreakGlassGrant g;
  uint64_t expires = 0;
  if (!GetLengthPrefixedString(&in, &g.grant_id) ||
      !GetLengthPrefixedString(&in, &g.clinician) ||
      !GetLengthPrefixedString(&in, &g.patient) ||
      !GetLengthPrefixedString(&in, &g.justification) ||
      !GetVarint64(&in, &expires) || !in.empty() || g.grant_id.empty() ||
      g.clinician.empty() || g.patient.empty()) {
    return Status::Corruption("malformed grant entry");
  }
  g.expires_at = static_cast<Timestamp>(expires);
  return g;
}

}  // namespace medvault::core
