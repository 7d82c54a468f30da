#include "core/vault.h"

#include <algorithm>
#include <charconv>
#include <limits>

#include "common/coding.h"
#include "common/hex.h"
#include "crypto/aes.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "storage/log_reader.h"
#include "storage/log_recover.h"

namespace medvault::core {

namespace {

/// State-log entry kinds.
constexpr uint8_t kStateMeta = 1;
constexpr uint8_t kStateSigner = 2;
constexpr uint8_t kStatePrincipal = 3;
constexpr uint8_t kStateCareAssign = 4;
constexpr uint8_t kStateCareRevoke = 5;
constexpr uint8_t kStateGrant = 6;
constexpr uint8_t kStateConsent = 7;
constexpr uint8_t kStateConsentRevoke = 8;

/// signer.tree layout: version, height, the 2^height leaves, then an
/// HMAC-SHA256 tag over version || height || public seed || leaves.
constexpr uint8_t kSignerTreeVersion = 1;
constexpr size_t kSignerTreeHeader = 2;

std::string EncodeConsentRevoke(const std::string& grant_id) {
  std::string out;
  PutLengthPrefixed(&out, grant_id);
  return out;
}

std::string EncodePrincipal(const Principal& p) {
  std::string out;
  PutLengthPrefixed(&out, p.id);
  out.push_back(static_cast<char>(p.role));
  PutLengthPrefixed(&out, p.display_name);
  return out;
}

Result<Principal> DecodePrincipal(const Slice& data) {
  Slice in = data;
  Principal p;
  if (!GetLengthPrefixedString(&in, &p.id) || in.empty()) {
    return Status::Corruption("malformed principal entry");
  }
  p.role = static_cast<Role>(in[0]);
  in.RemovePrefix(1);
  if (!GetLengthPrefixedString(&in, &p.display_name) || !in.empty()) {
    return Status::Corruption("malformed principal entry");
  }
  return p;
}

std::string EncodeCare(const PrincipalId& clinician,
                       const PrincipalId& patient) {
  std::string out;
  PutLengthPrefixed(&out, clinician);
  PutLengthPrefixed(&out, patient);
  return out;
}

/// A grant's expiry, `now + duration`. Durations arrive from HTTP, so
/// a non-positive one, or one whose sum overflows, is refused.
Result<Timestamp> GrantExpiry(Timestamp now, Timestamp duration) {
  if (duration <= 0 ||
      now > std::numeric_limits<Timestamp>::max() - duration) {
    return Status::InvalidArgument(
        "grant duration must be positive and end before the clock's limit");
  }
  return now + duration;
}

/// Keyword terms never enter the audit log in cleartext; we log a short
/// blinded tag instead (the index already leaks only this much).
std::string SearchAuditDetail(const Slice& master_key,
                              const std::string& term) {
  std::string blind = crypto::HmacSha256(master_key, "audit-term:" + term);
  return "term-blind:" + HexEncode(Slice(blind.data(), 8));
}

/// Audit-details suffix naming how a grant-exercised read got in.
/// Empty for ordinary bases (owner/care/role), so existing details stay
/// byte-identical; for break-glass and consent it appends
/// " via=<basis> grant=<id>" — the §164.528 report needs the recipient
/// AND the authority they read under.
std::string BasisSuffix(const AccessBasis& basis) {
  if (basis.kind != AccessBasis::Kind::kBreakGlass &&
      basis.kind != AccessBasis::Kind::kConsent) {
    return "";
  }
  return std::string(" via=") + AccessBasisName(basis.kind) +
         " grant=" + basis.grant_id;
}

/// True iff `id` looks like a vault-assigned id, i.e. starts with
/// "<prefix>-" (the default prefix "r" gives the classic "r-<n>").
bool HasRecordNumberPrefix(const RecordId& id, const std::string& prefix) {
  return id.size() > prefix.size() + 1 &&
         id.compare(0, prefix.size(), prefix) == 0 &&
         id[prefix.size()] == '-';
}

/// Strict parse of the numeric suffix of a "<prefix>-<n>" id: every
/// character after the prefix must be a decimal digit and the value
/// must fit in uint64_t. (strtoull silently accepted trailing garbage
/// like "r-7x" and saturated on overflow, which could stall or collide
/// the id counter.)
bool ParseRecordNumber(const RecordId& id, const std::string& prefix,
                       uint64_t* n) {
  if (!HasRecordNumberPrefix(id, prefix)) return false;
  const char* first = id.data() + prefix.size() + 1;
  const char* last = id.data() + id.size();
  auto [ptr, ec] = std::from_chars(first, last, *n, 10);
  return ec == std::errc() && ptr == last;
}

}  // namespace

Vault::Vault(VaultOptions options) : options_(std::move(options)) {}

Result<std::unique_ptr<Vault>> Vault::Open(const VaultOptions& options) {
  if (options.env == nullptr || options.clock == nullptr) {
    return Status::InvalidArgument("Vault needs an Env and a Clock");
  }
  if (options.dir.empty()) {
    return Status::InvalidArgument("Vault needs a directory");
  }
  if (options.master_key.size() != crypto::kAes256KeySize) {
    return Status::InvalidArgument("master key must be 32 bytes");
  }
  if (options.entropy.empty()) {
    return Status::InvalidArgument("Vault needs an entropy seed");
  }
  if (options.signer_height < 2 || options.signer_height > 16) {
    return Status::InvalidArgument("signer height must be in [2,16]");
  }
  if (options.record_id_prefix.empty()) {
    return Status::InvalidArgument("record id prefix must not be empty");
  }
  std::unique_ptr<Vault> vault(new Vault(options));
  MEDVAULT_RETURN_IF_ERROR(vault->Init());
  return vault;
}

Status Vault::Init() {
  storage::Env* env = options_.env;
  const std::string& dir = options_.dir;

  // Resolve telemetry first: recovery (below) is already timed.
  metrics_ =
      options_.metrics != nullptr ? options_.metrics : obs::MetricsRegistry::Default();
  op_metrics_ = obs::VaultOpMetrics::For(metrics_, "vault");
  consent_granted_ = metrics_->GetCounter("consent.granted");
  consent_revoked_ = metrics_->GetCounter("consent.revoked");
  consent_exercised_ = metrics_->GetCounter("consent.exercised");

  MEDVAULT_RETURN_IF_ERROR(env->CreateDirIfMissing(dir));

  // Key derivation fan-out from master key / entropy.
  MEDVAULT_ASSIGN_OR_RETURN(
      std::string keystore_seed,
      crypto::HkdfSha256(options_.entropy, Slice(), "keystore-drbg", 32));
  // Derived from the long-term entropy seed (not the rotatable master
  // key) so existing postings stay searchable across key rotation.
  MEDVAULT_ASSIGN_OR_RETURN(
      std::string index_master,
      crypto::HkdfSha256(options_.entropy, Slice(), "index-master", 32));
  // Signer identity derives from the long-term entropy seed so that it
  // survives master-key rotation.
  MEDVAULT_ASSIGN_OR_RETURN(
      std::string signer_secret,
      crypto::HkdfSha256(options_.entropy, Slice(), "signer-secret", 32));
  MEDVAULT_ASSIGN_OR_RETURN(
      signer_public_seed_,
      crypto::HkdfSha256(options_.entropy, Slice(), "signer-public", 32));
  // Consent signatures derive from the long-term entropy seed too:
  // grants must keep verifying across master-key rotation.
  MEDVAULT_ASSIGN_OR_RETURN(
      std::string consent_root,
      crypto::HkdfSha256(options_.entropy, Slice(), "consent-signing", 32));
  consent_.Configure(std::move(consent_root), options_.consent_id_prefix);
  access_.AttachConsentRegistry(&consent_);

  // Each open phase records a "vault.open.<phase>" histogram, so a slow
  // restart names the layer it spent its time in.
  auto phase = [this](const char* op, auto&& fn) -> Status {
    obs::ScopedOpTimer timer(metrics_, metrics_->GetHistogram(op), op);
    return fn();
  };

  keystore_ = std::make_unique<KeyStore>(
      env, dir + "/keys.db", options_.master_key, keystore_seed, &records_);
  MEDVAULT_RETURN_IF_ERROR(
      phase("vault.open.keystore", [&] { return keystore_->Open(); }));

  versions_ = std::make_unique<VersionStore>(env, dir, keystore_.get());
  MEDVAULT_RETURN_IF_ERROR(
      phase("vault.open.versions", [&] { return versions_->Open(); }));

  index_ = std::make_unique<SecureIndex>(env, dir + "/index.log",
                                         index_master, keystore_.get());
  MEDVAULT_RETURN_IF_ERROR(
      phase("vault.open.index", [&] { return index_->Open(); }));

  audit_ = std::make_unique<AuditLog>(env, dir + "/audit.log", &records_);
  MEDVAULT_RETURN_IF_ERROR(
      phase("vault.open.audit", [&] { return audit_->Open(); }));

  provenance_ = std::make_unique<ProvenanceTracker>(
      env, dir + "/provenance.log", options_.system_id, &records_);
  MEDVAULT_RETURN_IF_ERROR(
      phase("vault.open.provenance", [&] { return provenance_->Open(); }));

  MEDVAULT_RETURN_IF_ERROR(phase("vault.open.signer", [&] {
    return LoadOrBuildSigner(signer_secret);
  }));

  MEDVAULT_RETURN_IF_ERROR(
      phase("vault.open.state", [&] { return LoadState(); }));
  return phase("vault.open.recover",
               [&] { return RecoverAfterUncleanShutdown(); });
}

Status Vault::LoadOrBuildSigner(const std::string& signer_secret) {
  // The leaves are public; the tag binds them to this vault's entropy
  // (so another shard's file, or a forged one, is refused) and to the
  // height, so a file that passes rebuilds exactly the keygen tree.
  MEDVAULT_ASSIGN_OR_RETURN(
      std::string tag_key,
      crypto::HkdfSha256(options_.entropy, Slice(), "signer-tree", 32));
  const int height = options_.signer_height;
  const size_t leaves_bytes = (size_t{1} << height) * crypto::Wots::kN;
  auto tag_of = [&](const Slice& header, const Slice& leaves) {
    std::string message = header.ToString();
    message.append(signer_public_seed_);
    message.append(leaves.data(), leaves.size());
    return crypto::HmacSha256(tag_key, message);
  };

  const std::string path = options_.dir + "/" + kSignerTreeFile;
  std::string file;
  if (storage::ReadFileToString(options_.env, path, &file).ok() &&
      file.size() == kSignerTreeHeader + leaves_bytes + crypto::kDigestSize &&
      static_cast<uint8_t>(file[0]) == kSignerTreeVersion &&
      static_cast<uint8_t>(file[1]) == height) {
    const Slice header(file.data(), kSignerTreeHeader);
    const Slice leaves(file.data() + kSignerTreeHeader, leaves_bytes);
    const Slice tag(file.data() + kSignerTreeHeader + leaves_bytes,
                    crypto::kDigestSize);
    if (crypto::ConstantTimeEqual(tag_of(header, leaves), tag)) {
      std::vector<std::string> leaf_list;
      leaf_list.reserve(size_t{1} << height);
      for (size_t off = 0; off < leaves_bytes; off += crypto::Wots::kN) {
        leaf_list.emplace_back(leaves.data() + off, crypto::Wots::kN);
      }
      signer_ = std::make_unique<crypto::XmssSigner>(
          signer_secret, signer_public_seed_, height, std::move(leaf_list));
      return Status::OK();
    }
  }

  // Missing, short, another height or a failed tag: run key generation
  // and write the file once. Its check is the tag, so it needs no log
  // framing, no tmp/rename, no place in the commit wave and no sync: a
  // file lost or torn by a crash fails the tag and is rebuilt.
  signer_ = std::make_unique<crypto::XmssSigner>(signer_secret,
                                                 signer_public_seed_, height);
  metrics_->GetCounter("vault.open.signer_rebuilt")->Increment();
  std::string out;
  out.reserve(kSignerTreeHeader + leaves_bytes + crypto::kDigestSize);
  out.push_back(static_cast<char>(kSignerTreeVersion));
  out.push_back(static_cast<char>(height));
  for (const std::string& leaf : signer_->leaves()) out.append(leaf);
  out.append(tag_of(Slice(out.data(), kSignerTreeHeader),
                    Slice(out.data() + kSignerTreeHeader, leaves_bytes)));
  (void)storage::WriteStringToFile(options_.env, out, path, /*sync=*/false);
  return Status::OK();
}

Status Vault::LoadState() {
  storage::Env* env = options_.env;
  const std::string state_path = options_.dir + "/state.log";
  uint64_t signer_used = 0;
  storage::log::LogOpenResult res;
  MEDVAULT_RETURN_IF_ERROR(storage::log::OpenLogForAppend(
      env, state_path,
      [this, &signer_used](const Slice& rec, uint64_t) -> Status {
        if (rec.empty()) return Status::Corruption("empty state entry");
        uint8_t kind = static_cast<uint8_t>(rec[0]);
        Slice payload(rec.data() + 1, rec.size() - 1);
        switch (kind) {
          case kStateMeta: {
            MEDVAULT_ASSIGN_OR_RETURN(RecordMeta meta,
                                      RecordMeta::Decode(payload));
            // Record ids are "<prefix>-<n>"; keep the counter ahead of
            // them. An unparsable suffix means the state log is damaged.
            if (HasRecordNumberPrefix(meta.record_id,
                                      options_.record_id_prefix)) {
              uint64_t n = 0;
              if (!ParseRecordNumber(meta.record_id,
                                     options_.record_id_prefix, &n)) {
                return Status::Corruption(
                    "malformed record id in state log: " + meta.record_id);
              }
              next_record_num_ = std::max(next_record_num_, n + 1);
            }
            StoreMetaLocked(meta);
            break;
          }
          case kStateSigner: {
            Slice in = payload;
            if (!GetVarint64(&in, &signer_used)) {
              return Status::Corruption("malformed signer state");
            }
            break;
          }
          case kStatePrincipal: {
            MEDVAULT_ASSIGN_OR_RETURN(Principal p, DecodePrincipal(payload));
            if (p.role == Role::kAdmin) has_admin_ = true;
            MEDVAULT_RETURN_IF_ERROR(access_.RegisterPrincipal(p));
            break;
          }
          case kStateGrant: {
            MEDVAULT_ASSIGN_OR_RETURN(BreakGlassGrant g,
                                      BreakGlassGrant::Decode(payload));
            access_.RestoreGrant(g, Now());
            break;
          }
          case kStateConsent: {
            MEDVAULT_ASSIGN_OR_RETURN(ConsentGrant g,
                                      ConsentGrant::Decode(payload));
            // A consent entry that fails signature verification is
            // tamper evidence, not a skippable oddity: refusing the
            // open beats silently widening (or narrowing) access.
            MEDVAULT_RETURN_IF_ERROR(consent_.VerifySignature(g));
            MEDVAULT_RETURN_IF_ERROR(consent_.Restore(g, Now()));
            break;
          }
          case kStateConsentRevoke: {
            Slice in = payload;
            std::string grant_id;
            if (!GetLengthPrefixedString(&in, &grant_id) || !in.empty()) {
              return Status::Corruption("malformed consent revoke entry");
            }
            MEDVAULT_RETURN_IF_ERROR(consent_.RestoreRevoke(grant_id));
            break;
          }
          case kStateCareAssign:
          case kStateCareRevoke: {
            Slice in = payload;
            std::string clinician, patient;
            if (!GetLengthPrefixedString(&in, &clinician) ||
                !GetLengthPrefixedString(&in, &patient) || !in.empty()) {
              return Status::Corruption("malformed care entry");
            }
            if (kind == kStateCareAssign) {
              MEDVAULT_RETURN_IF_ERROR(access_.AssignCare(clinician, patient));
            } else {
              MEDVAULT_RETURN_IF_ERROR(access_.RevokeCare(clinician, patient));
            }
            break;
          }
          default:
            return Status::Corruption("unknown state entry kind");
        }
        return Status::OK();
      },
      &res));
  state_writer_ = std::move(res.writer);
  return signer_->RestoreState(signer_used);
}

Status Vault::RecoverAfterUncleanShutdown() {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.recover, "vault.recover");
  // Init runs single-threaded, so the *Locked helpers are safe to call.
  // The state log is the commit point: everything else is reconciled
  // to agree with it. Metas, keys and catalog entries all sit at their
  // record's ordinal, so one loop over the record table pairs each
  // committed record with its key and its versions. An undisposed meta
  // without a key is key-lost (tombstoned below), so the catalog keeps
  // none of its versions: latest 0, in this same pass.
  using KeyStatus = KeyStore::KeyStatus;
  std::vector<VersionStore::CommittedRecord> committed(records_.size());
  // Keys created for records that never committed (crash mid-create).
  std::vector<RecordId> orphan_keys;
  for (uint32_t r = 0; r < records_.size(); ++r) {
    const KeyStatus key = keystore_->StatusAt(r);
    const MetaSlot* meta = MetaAt(r);
    if (meta == nullptr) {
      if (key != KeyStatus::kNone) orphan_keys.push_back(records_.id(r));
      continue;
    }
    const bool key_lost = key == KeyStatus::kNone && !meta->disposed;
    committed[r] = {true, key_lost ? 0 : meta->latest_version,
                    key == KeyStatus::kDestroyed};
  }

  uint64_t dropped_refs = 0;
  MEDVAULT_RETURN_IF_ERROR(
      versions_->ReconcileCatalog(&committed, &dropped_refs));

  std::vector<std::string> actions;
  if (dropped_refs > 0) {
    actions.push_back("catalog-refs-dropped=" + std::to_string(dropped_refs));
  }

  // (record, action) pairs, put in id order below with the state-log
  // entries of the records they change.
  std::vector<std::pair<uint32_t, std::string>> repairs;
  for (uint32_t r = 0; r < records_.size(); ++r) {
    const VersionStore::CommittedRecord& c = committed[r];
    if (!c.committed) continue;
    MetaSlot& meta = metas_[r];
    const RecordId& id = records_.id(r);
    const bool live_key = keystore_->StatusAt(r) == KeyStatus::kLive;
    const uint32_t actual = c.kept;
    if (!meta.disposed && c.shredded) {
      // Crash between DestroyKey and the meta flip: finish the disposal.
      meta.disposed = true;
      repairs.emplace_back(r, id + ":disposal-completed");
    }
    if (!meta.disposed && !live_key) {
      // A committed meta whose key never became durable. Possible only
      // for an UNACKED record under partial media (live-key appends are
      // deferred to the sync wave, which completes before the state
      // log's commit point — an acked record always has a durable key).
      // The ciphertext is undecryptable forever: tombstone it.
      meta.disposed = true;
      meta.latest_version = 0;
      repairs.emplace_back(r, id + ":key-lost");
    }
    if (!meta.disposed && actual == 0) {
      // A committed meta whose version bytes did not survive (possible
      // only when partial media kept the state tail but not the catalog
      // tail). The content is unrecoverable — burn the key and mark the
      // record disposed rather than serve a record with no data.
      MEDVAULT_RETURN_IF_ERROR(keystore_->DestroyKey(id));
      meta.disposed = true;
      // Zero the version count too, or the next open would "lower" it
      // and log a second kRecovery — recovery must converge in one pass.
      meta.latest_version = 0;
      repairs.emplace_back(r, id + ":versions-lost");
    } else if (actual < meta.latest_version) {
      meta.latest_version = actual;
      repairs.emplace_back(r, id + ":latest-lowered-to-" +
                                  std::to_string(actual));
    }
  }
  std::stable_sort(repairs.begin(), repairs.end(),
                   [this](const auto& a, const auto& b) {
                     return records_.id(a.first) < records_.id(b.first);
                   });
  for (size_t i = 0; i < repairs.size(); ++i) {
    const uint32_t r = repairs[i].first;
    actions.push_back(std::move(repairs[i].second));
    if (i > 0 && repairs[i - 1].first == r) continue;
    MEDVAULT_RETURN_IF_ERROR(
        AppendStateEntryLocked(kStateMeta, MetaOf(r).Encode()));
    if (options_.cache != nullptr && metas_[r].disposed) {
      options_.cache->PurgeRecord(records_.id(r));
    }
  }

  // Removing orphan keys also kills any orphan index postings and
  // audit-log references: their key-refs become unresolvable, exactly
  // as after a crypto-shred.
  if (!orphan_keys.empty()) {
    MEDVAULT_RETURN_IF_ERROR(keystore_->RemoveKeysForRecovery(orphan_keys));
    if (options_.cache != nullptr) {
      for (const RecordId& id : orphan_keys) options_.cache->PurgeRecord(id);
    }
    actions.push_back("orphan-keys-removed=" +
                      std::to_string(orphan_keys.size()));
  }

  // Record-scoped consent grants on records that are no longer live —
  // shredded before the crash, tombstoned by the reconciliation above,
  // or never committed. A crash between DestroyKey and the revoke
  // entries must never leave a live capability to a dead record.
  for (const ConsentGrant& g : consent_.Snapshot()) {
    if (g.scope != ConsentScope::kRecord) continue;
    const MetaSlot* meta = MetaAt(records_.Find(g.record_id));
    if (meta != nullptr && !meta->disposed) continue;
    (void)consent_.Revoke(g.grant_id);
    MEDVAULT_RETURN_IF_ERROR(AppendStateEntryLocked(
        kStateConsentRevoke, EncodeConsentRevoke(g.grant_id)));
    if (options_.cache != nullptr) options_.cache->PurgeRecord(g.record_id);
    actions.push_back(g.grant_id + ":consent-revoked");
  }

  if (actions.empty()) return Status::OK();
  std::string details = "crash-recovery:";
  for (const std::string& a : actions) details += " " + a;
  MEDVAULT_RETURN_IF_ERROR(
      audit_->Append("system", AuditAction::kRecovery, "", details, Now())
          .status());
  // Make the reconciled state durable so a crash during/after recovery
  // replays to the same result.
  return SyncAllLocked();
}

Status Vault::SyncAll() {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.sync, "vault.sync");
  std::unique_lock lock(mu_);
  return SyncAllLocked();
}

Status Vault::WithQuiescedStore(const std::function<Status()>& fn) {
  // With the exclusive lock held nothing can append, rewrite, or
  // reclaim, so `fn` observes a durable frozen store.
  std::unique_lock lock(mu_);
  MEDVAULT_RETURN_IF_ERROR(SyncAllLocked());
  return fn();
}

Status Vault::SyncAllLocked() {
  // Commit-point ordering: every side log becomes durable BEFORE the
  // state log. A durable meta therefore implies durable version bytes,
  // catalog entry, key, postings, and audit/custody events. The side
  // logs carry no ordering among themselves; only the catalog must
  // trail its segment bytes, and the state log lands strictly last.
  // The side logs sync through their files, not their owners: a Sync()
  // on AuditLog would hold its mutex across the fsync and stall the
  // transparency/witness calls that take it without the vault lock.
  storage::WritableFile* const side_logs[] = {
      versions_->SegmentSyncTarget(), index_->sync_target(),
      audit_->sync_target(),          provenance_->sync_target(),
      keystore_->sync_target(),
  };
  for (storage::WritableFile* file : side_logs) {
    if (file != nullptr) MEDVAULT_RETURN_IF_ERROR(file->Sync());
  }
  MEDVAULT_RETURN_IF_ERROR(versions_->SyncCatalog());
  return state_writer_->Sync();
}

Status Vault::AppendStateEntryLocked(uint8_t kind, const Slice& payload) {
  std::string record;
  record.push_back(static_cast<char>(kind));
  record.append(payload.data(), payload.size());
  return state_writer_->AddRecord(record);
}

Status Vault::AppendStateEntriesLocked(
    const std::vector<std::string>& records) {
  std::vector<Slice> slices(records.begin(), records.end());
  return state_writer_->AddRecords(slices.data(), slices.size());
}

Status Vault::ReserveSignerLeafLocked() {
  // Reserve-then-sign: the spent-leaf count is durable BEFORE the
  // signature exists, so a crash can waste the reserved leaf but never
  // let the next open re-sign with it (XMSS leaves are one-time; reuse
  // forfeits the scheme's security). On a clean run the signature that
  // follows makes the reservation exact.
  std::string payload;
  PutVarint64(&payload, signer_->SignaturesUsed() + 1);
  MEDVAULT_RETURN_IF_ERROR(AppendStateEntryLocked(kStateSigner, payload));
  return state_writer_->Sync();
}

const std::string& Vault::SignerPublicKey() const {
  // Immutable after Init; safe to hand out by reference.
  return signer_->public_key();
}

const std::string& Vault::SignerPublicSeed() const {
  return signer_public_seed_;
}

Status Vault::AuditLocked(const PrincipalId& actor, AuditAction action,
                          const RecordId& record_id,
                          const std::string& details) const {
  // AuditLog serializes internally; mu_ (shared or exclusive) only
  // guards the vault state consulted before getting here.
  return audit_->Append(actor, action, record_id, details, Now()).status();
}

Status Vault::Audit(const PrincipalId& actor, AuditAction action,
                    const RecordId& record_id, const std::string& details) {
  std::shared_lock lock(mu_);
  return AuditLocked(actor, action, record_id, details);
}

Result<std::string> Vault::SignStatement(const Slice& payload) {
  std::unique_lock lock(mu_);
  MEDVAULT_RETURN_IF_ERROR(ReserveSignerLeafLocked());
  MEDVAULT_ASSIGN_OR_RETURN(crypto::XmssSignature sig,
                            signer_->Sign(payload));
  return sig.Encode();
}

Result<RecordMeta> Vault::RequireLiveMetaLocked(
    const RecordId& record_id) const {
  const uint32_t r = records_.Find(record_id);
  if (MetaAt(r) == nullptr) return Status::NotFound("unknown record");
  return MetaOf(r);
}

const Vault::MetaSlot* Vault::MetaAt(uint32_t r) const {
  return r < metas_.size() && metas_[r].patient != RecordTable::kNone
             ? &metas_[r]
             : nullptr;
}

RecordMeta Vault::MetaOf(uint32_t r) const {
  const MetaSlot& slot = metas_[r];
  RecordMeta meta;
  meta.record_id = records_.id(r);
  meta.patient_id = patients_.id(slot.patient);
  meta.created_at = slot.created_at;
  meta.retention_until = slot.retention_until;
  meta.retention_policy = policies_.id(slot.policy);
  meta.latest_version = slot.latest_version;
  meta.disposed = slot.disposed;
  meta.legal_hold = slot.legal_hold;
  return meta;
}

std::vector<uint32_t> Vault::MetaOrdinalsById() const {
  return records_.ById(metas_.size(),
                       [this](uint32_t r) { return MetaAt(r) != nullptr; });
}

Status Vault::CheckAndAuditLocked(const PrincipalId& actor, Operation op,
                                  const RecordId& record_id,
                                  const PrincipalId& patient_id,
                                  AccessBasis* basis) const {
  Status s =
      access_.CheckAccess(actor, op, patient_id, record_id, Now(), basis);
  if (!s.ok()) {
    // Denials are themselves auditable events (HIPAA audit controls).
    (void)AuditLocked(actor, AuditAction::kAccessDenied, record_id,
                      std::string(OperationName(op)) + ": " + s.message());
  }
  return s;
}

// ---- Administration ----------------------------------------------------

Status Vault::RegisterPrincipal(const PrincipalId& actor,
                                const Principal& principal) {
  std::unique_lock lock(mu_);
  if (has_admin_) {
    MEDVAULT_RETURN_IF_ERROR(
        CheckAndAuditLocked(actor, Operation::kManagePrincipals, "", ""));
  }
  MEDVAULT_RETURN_IF_ERROR(access_.RegisterPrincipal(principal));
  if (principal.role == Role::kAdmin) has_admin_ = true;
  MEDVAULT_RETURN_IF_ERROR(
      AppendStateEntryLocked(kStatePrincipal, EncodePrincipal(principal)));
  return AuditLocked(actor, AuditAction::kPolicyChange, "",
                     "register-principal " + principal.id + " role=" +
                         RoleName(principal.role));
}

Status Vault::CheckAccess(const PrincipalId& actor, Operation op) const {
  std::shared_lock lock(mu_);
  return access_.CheckAccess(actor, op, "", "", Now(), nullptr);
}

Result<Principal> Vault::GetPrincipal(const PrincipalId& id) const {
  std::shared_lock lock(mu_);
  return access_.GetPrincipal(id);
}

Status Vault::AssignCare(const PrincipalId& actor,
                         const PrincipalId& clinician,
                         const PrincipalId& patient) {
  std::unique_lock lock(mu_);
  MEDVAULT_RETURN_IF_ERROR(
      CheckAndAuditLocked(actor, Operation::kManagePrincipals, "", ""));
  MEDVAULT_RETURN_IF_ERROR(access_.AssignCare(clinician, patient));
  MEDVAULT_RETURN_IF_ERROR(AppendStateEntryLocked(
      kStateCareAssign, EncodeCare(clinician, patient)));
  return AuditLocked(actor, AuditAction::kPolicyChange, "",
                     "assign-care " + clinician + " -> " + patient);
}

Result<std::string> Vault::BreakGlass(const PrincipalId& clinician,
                                      const PrincipalId& patient,
                                      const std::string& justification,
                                      Timestamp duration) {
  std::unique_lock lock(mu_);
  Timestamp now = Now();
  MEDVAULT_ASSIGN_OR_RETURN(Timestamp expires_at, GrantExpiry(now, duration));
  MEDVAULT_ASSIGN_OR_RETURN(
      BreakGlassGrant grant,
      access_.BreakGlass(clinician, patient, justification, now, expires_at));
  // The grant is vault *state*, not just an audit fact: without a
  // state-log entry a crash/reopen silently revoked active emergency
  // access while the audit trail still claimed it was in force.
  MEDVAULT_RETURN_IF_ERROR(
      AppendStateEntryLocked(kStateGrant, grant.Encode()));
  // Break-glass is the one path that must never be silent.
  MEDVAULT_RETURN_IF_ERROR(
      AuditLocked(clinician, AuditAction::kBreakGlass, "",
                  "patient=" + patient + " grant=" + grant.grant_id +
                      " justification=" + justification));
  return grant.grant_id;
}

// ---- Patient-driven sharing ----------------------------------------------

Result<ConsentGrant> Vault::GrantConsent(const PrincipalId& actor,
                                         const PrincipalId& grantee,
                                         const RecordId& record_id,
                                         const std::string& purpose,
                                         Timestamp duration) {
  std::unique_lock lock(mu_);
  Timestamp now = Now();
  MEDVAULT_ASSIGN_OR_RETURN(Principal granter, access_.GetPrincipal(actor));
  if (granter.role != Role::kPatient) {
    (void)AuditLocked(actor, AuditAction::kAccessDenied, record_id,
                      "consent-grant: only patients may delegate");
    return Status::PermissionDenied(
        "only the patient may delegate access to their records");
  }
  // The grantee must be a registered principal — consent delegates to a
  // known identity the audit trail can name, never to a bare string.
  MEDVAULT_RETURN_IF_ERROR(access_.GetPrincipal(grantee).status());
  if (!record_id.empty()) {
    MEDVAULT_ASSIGN_OR_RETURN(RecordMeta meta,
                              RequireLiveMetaLocked(record_id));
    if (meta.patient_id != actor) {
      (void)AuditLocked(actor, AuditAction::kAccessDenied, record_id,
                        "consent-grant: not the record owner");
      return Status::PermissionDenied(
          "patients may share only their own records");
    }
    if (meta.disposed) {
      return Status::KeyDestroyed("record was disposed of");
    }
  }
  MEDVAULT_ASSIGN_OR_RETURN(Timestamp expires_at, GrantExpiry(now, duration));
  MEDVAULT_ASSIGN_OR_RETURN(
      ConsentGrant grant,
      consent_.Grant(actor, grantee, record_id, purpose, now, expires_at));
  // Like break-glass, the grant is vault *state*: persisted before the
  // audit entry, replayed (signature-verified) on reopen.
  MEDVAULT_RETURN_IF_ERROR(
      AppendStateEntryLocked(kStateConsent, grant.Encode()));
  MEDVAULT_RETURN_IF_ERROR(AuditLocked(
      actor, AuditAction::kConsentGrant, record_id,
      "patient=" + actor + " grantee=" + grantee + " grant=" +
          grant.grant_id + " scope=" + ConsentScopeName(grant.scope) +
          " purpose=" + purpose));
  consent_granted_->Increment();
  return grant;
}

Status Vault::RevokeConsent(const PrincipalId& actor,
                            const std::string& grant_id) {
  std::unique_lock lock(mu_);
  MEDVAULT_ASSIGN_OR_RETURN(ConsentGrant grant, consent_.Get(grant_id));
  MEDVAULT_ASSIGN_OR_RETURN(Principal revoker, access_.GetPrincipal(actor));
  if (actor != grant.patient && revoker.role != Role::kAdmin) {
    (void)AuditLocked(actor, AuditAction::kAccessDenied, grant.record_id,
                      "consent-revoke: not the granting patient or admin");
    return Status::PermissionDenied(
        "only the granting patient or an admin may revoke consent");
  }
  MEDVAULT_RETURN_IF_ERROR(consent_.Revoke(grant_id));
  // Revocation is total: under the exclusive lock no read is in flight,
  // and the cache drops every plaintext the grant could reach before
  // the revoke is acknowledged.
  if (options_.cache != nullptr) {
    if (grant.scope == ConsentScope::kRecord) {
      options_.cache->PurgeRecord(grant.record_id);
    } else {
      const uint32_t patient = patients_.Find(grant.patient);
      if (patient < records_by_patient_.size()) {
        for (uint32_t r : records_by_patient_[patient]) {
          options_.cache->PurgeRecord(records_.id(r));
        }
      }
    }
  }
  MEDVAULT_RETURN_IF_ERROR(AppendStateEntryLocked(
      kStateConsentRevoke, EncodeConsentRevoke(grant_id)));
  MEDVAULT_RETURN_IF_ERROR(AuditLocked(
      actor, AuditAction::kConsentRevoke, grant.record_id,
      "patient=" + grant.patient + " grantee=" + grant.grantee +
          " grant=" + grant_id + " by=" + actor));
  consent_revoked_->Increment();
  return Status::OK();
}

Result<std::vector<ConsentGrant>> Vault::ListConsents(
    const PrincipalId& actor, const PrincipalId& patient) {
  std::shared_lock lock(mu_);
  // Patients list their own delegations; otherwise audit-read authority.
  if (actor != patient) {
    MEDVAULT_RETURN_IF_ERROR(
        CheckAndAuditLocked(actor, Operation::kReadAudit, "", ""));
  }
  return consent_.ListForPatient(patient, Now());
}

size_t Vault::ActiveConsentCount() const {
  std::shared_lock lock(mu_);
  return consent_.ActiveCount(Now());
}

// ---- Record lifecycle ----------------------------------------------------

Result<RecordId> Vault::CreateRecord(
    const PrincipalId& actor, const PrincipalId& patient_id,
    const std::string& content_type, const Slice& plaintext,
    const std::vector<std::string>& keywords,
    const std::string& retention_policy) {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.create, "vault.create");
  std::unique_lock lock(mu_);
  MEDVAULT_ASSIGN_OR_RETURN(
      std::vector<RecordId> ids,
      CreateRecordsLocked(actor, {NewRecord{patient_id, content_type,
                                            plaintext.ToString(), keywords,
                                            retention_policy}}));
  return std::move(ids.front());
}

Result<std::vector<RecordId>> Vault::CreateRecordsBatch(
    const PrincipalId& actor, const std::vector<NewRecord>& batch) {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.batch_ingest,
                           "vault.batch_ingest");
  std::unique_lock lock(mu_);
  return CreateRecordsLocked(actor, batch);
}

Result<std::vector<RecordId>> Vault::CreateRecordsLocked(
    const PrincipalId& actor, const std::vector<NewRecord>& batch) {
  std::vector<RecordId> ids;
  if (batch.empty()) return ids;

  // Validate the whole batch before creating anything: access for every
  // patient and every retention policy.
  Timestamp now = Now();
  std::vector<Timestamp> retention_until(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    MEDVAULT_RETURN_IF_ERROR(CheckAndAuditLocked(
        actor, Operation::kCreateRecord, "", batch[i].patient_id));
    MEDVAULT_ASSIGN_OR_RETURN(
        retention_until[i],
        retention_.RetentionUntil(batch[i].retention_policy, now));
  }

  ids.reserve(batch.size());
  std::vector<SecureIndex::PostingBatch> postings;
  std::vector<std::string> state_records;
  std::vector<PendingAuditEvent> audit_events;
  postings.reserve(batch.size());
  state_records.reserve(batch.size());
  audit_events.reserve(batch.size());

  for (size_t i = 0; i < batch.size(); ++i) {
    const NewRecord& r = batch[i];
    RecordId record_id =
        options_.record_id_prefix + "-" + std::to_string(next_record_num_++);
    MEDVAULT_RETURN_IF_ERROR(keystore_->CreateKey(record_id));
    MEDVAULT_ASSIGN_OR_RETURN(
        VersionHeader header,
        versions_->AppendVersion(record_id, actor, r.content_type, "",
                                 r.plaintext, now));
    (void)header;

    RecordMeta meta;
    meta.record_id = record_id;
    meta.patient_id = r.patient_id;
    meta.created_at = now;
    meta.retention_until = retention_until[i];
    meta.retention_policy = r.retention_policy;
    meta.latest_version = 1;
    StoreMetaLocked(meta);

    std::string state_record;
    state_record.push_back(static_cast<char>(kStateMeta));
    state_record.append(meta.Encode());
    state_records.push_back(std::move(state_record));

    postings.push_back(SecureIndex::PostingBatch{record_id, r.keywords});
    audit_events.push_back(PendingAuditEvent{
        actor, AuditAction::kCreate, record_id,
        "patient=" + r.patient_id + " policy=" + r.retention_policy});
    ids.push_back(std::move(record_id));
  }

  // Coalesced bookkeeping: one index append, one state-log flush, and
  // one audit append for the whole batch.
  MEDVAULT_RETURN_IF_ERROR(index_->AddPostingsBatch(postings));
  MEDVAULT_RETURN_IF_ERROR(AppendStateEntriesLocked(state_records));
  MEDVAULT_RETURN_IF_ERROR(audit_->AppendBatch(audit_events, now).status());
  for (size_t i = 0; i < batch.size(); ++i) {
    MEDVAULT_RETURN_IF_ERROR(
        provenance_
            ->RecordEvent(ids[i], CustodyEventType::kCreated, actor,
                          "patient=" + batch[i].patient_id, now)
            .status());
  }
  return ids;
}

Status Vault::PutRecordMetaLocked(const RecordMeta& meta) {
  if (HasRecordNumberPrefix(meta.record_id, options_.record_id_prefix)) {
    uint64_t n = 0;
    if (!ParseRecordNumber(meta.record_id, options_.record_id_prefix, &n)) {
      return Status::InvalidArgument("malformed record id: " +
                                     meta.record_id);
    }
    next_record_num_ = std::max(next_record_num_, n + 1);
  }
  StoreMetaLocked(meta);
  return AppendStateEntryLocked(kStateMeta, meta.Encode());
}

void Vault::StoreMetaLocked(const RecordMeta& meta) {
  const uint32_t r = records_.Intern(meta.record_id);
  MetaSlot& slot = SlotAt(&metas_, r);
  const uint32_t patient = patients_.Intern(meta.patient_id);
  if (slot.patient == RecordTable::kNone) {
    SlotAt(&records_by_patient_, patient).push_back(r);
  }
  slot = MetaSlot{meta.created_at,
                  meta.retention_until,
                  patient,
                  policies_.Intern(meta.retention_policy),
                  meta.latest_version,
                  meta.disposed,
                  meta.legal_hold};
}

Status Vault::PutRecordMeta(const RecordMeta& meta) {
  std::unique_lock lock(mu_);
  return PutRecordMetaLocked(meta);
}

Result<RecordVersion> Vault::ReadRecordAt(const PrincipalId& actor,
                                          const RecordId& record_id,
                                          std::optional<uint32_t> version) {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.read, "vault.read");
  std::shared_lock lock(mu_);
  MEDVAULT_ASSIGN_OR_RETURN(RecordMeta meta,
                            RequireLiveMetaLocked(record_id));
  AccessBasis basis;
  MEDVAULT_RETURN_IF_ERROR(CheckAndAuditLocked(
      actor, Operation::kReadRecord, record_id, meta.patient_id, &basis));
  if (meta.disposed) {
    MEDVAULT_RETURN_IF_ERROR(AuditLocked(actor, AuditAction::kRead, record_id,
                                         "disposed" + BasisSuffix(basis)));
    return Status::KeyDestroyed("record was disposed of");
  }
  auto result =
      ReadVersionCachedLocked(record_id, version.value_or(meta.latest_version));
  // "ok" / "<status>" for the latest, "v<N> ok" / "v<N> <status>" pinned.
  std::string details = version ? "v" + std::to_string(*version) + " " : "";
  details += result.ok() ? "ok" : result.status().ToString();
  details += BasisSuffix(basis);
  MEDVAULT_RETURN_IF_ERROR(
      AuditLocked(actor, AuditAction::kRead, record_id, details));
  if (result.ok() && basis.kind == AccessBasis::Kind::kConsent) {
    consent_exercised_->Increment();
  }
  return result;
}

Result<RecordVersion> Vault::ReadVersionCachedLocked(
    const RecordId& record_id, uint32_t version) const {
  RecordCache* cache = options_.cache;
  if (cache == nullptr) return versions_->ReadVersion(record_id, version);
  // Authenticated serve: a hit counts only if the cached entry was
  // stored under exactly the entry hash the catalog vouches for now.
  auto expected = versions_->EntryHash(record_id, version);
  if (expected.ok()) {
    if (auto hit = cache->Get(record_id, version, *expected)) {
      return std::move(*hit);
    }
  }
  auto result = versions_->ReadVersion(record_id, version);
  if (result.ok() && expected.ok()) {
    cache->Put(record_id, version, *expected, *result);
  }
  return result;
}

Result<VersionHeader> Vault::CorrectRecord(
    const PrincipalId& actor, const RecordId& record_id,
    const Slice& new_plaintext, const std::string& reason,
    const std::vector<std::string>& keywords) {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.correct, "vault.correct");
  std::unique_lock lock(mu_);
  if (reason.empty()) {
    return Status::InvalidArgument("corrections require a reason");
  }
  MEDVAULT_ASSIGN_OR_RETURN(RecordMeta meta,
                            RequireLiveMetaLocked(record_id));
  if (meta.disposed) {
    return Status::KeyDestroyed("record was disposed; cannot correct");
  }
  MEDVAULT_RETURN_IF_ERROR(CheckAndAuditLocked(
      actor, Operation::kCorrectRecord, record_id, meta.patient_id));
  Timestamp now = Now();
  MEDVAULT_ASSIGN_OR_RETURN(
      VersionHeader header,
      versions_->AppendVersion(record_id, actor, "text/plain", reason,
                               new_plaintext, now));
  MEDVAULT_RETURN_IF_ERROR(index_->AddPostings(record_id, keywords));
  meta.latest_version = header.version;
  MEDVAULT_RETURN_IF_ERROR(PutRecordMetaLocked(meta));
  // A corrected record must never be served from pre-correction cache
  // state (readers key "latest" off the meta, but purge anyway so the
  // cache holds nothing for a record whose content was contested).
  if (options_.cache != nullptr) options_.cache->PurgeRecord(record_id);
  MEDVAULT_RETURN_IF_ERROR(
      AuditLocked(actor, AuditAction::kCorrect, record_id,
                  "v" + std::to_string(header.version) +
                      " reason=" + reason));
  MEDVAULT_RETURN_IF_ERROR(
      provenance_
          ->RecordEvent(record_id, CustodyEventType::kCorrected, actor,
                        "v" + std::to_string(header.version), now)
          .status());
  return header;
}

Result<std::vector<RecordId>> Vault::SearchKeyword(const PrincipalId& actor,
                                                   const std::string& term) {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.search, "vault.search");
  std::shared_lock lock(mu_);
  MEDVAULT_RETURN_IF_ERROR(
      CheckAndAuditLocked(actor, Operation::kSearch, "", ""));
  MEDVAULT_ASSIGN_OR_RETURN(std::vector<RecordId> hits, index_->Search(term));

  // Minimum necessary: only return records the actor could read.
  std::vector<RecordId> visible;
  Timestamp now = Now();
  for (const RecordId& id : hits) {
    auto meta = RequireLiveMetaLocked(id);
    if (!meta.ok()) continue;
    // Record-aware check so a clinician holding a per-record consent
    // grant sees exactly the records it covers.
    if (access_
            .CheckAccess(actor, Operation::kReadRecord, meta->patient_id, id,
                         now, nullptr)
            .ok()) {
      visible.push_back(id);
    }
  }
  MEDVAULT_RETURN_IF_ERROR(
      AuditLocked(actor, AuditAction::kSearch, "",
                  SearchAuditDetail(options_.entropy, term) + " hits=" +
                      std::to_string(visible.size())));
  return visible;
}

Result<std::vector<RecordId>> Vault::SearchKeywordsAll(
    const PrincipalId& actor, const std::vector<std::string>& terms) {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.search, "vault.search");
  std::shared_lock lock(mu_);
  MEDVAULT_RETURN_IF_ERROR(
      CheckAndAuditLocked(actor, Operation::kSearch, "", ""));
  MEDVAULT_ASSIGN_OR_RETURN(std::vector<RecordId> hits,
                            index_->SearchAll(terms));
  std::vector<RecordId> visible;
  Timestamp now = Now();
  for (const RecordId& id : hits) {
    auto meta = RequireLiveMetaLocked(id);
    if (!meta.ok()) continue;
    if (access_
            .CheckAccess(actor, Operation::kReadRecord, meta->patient_id, id,
                         now, nullptr)
            .ok()) {
      visible.push_back(id);
    }
  }
  std::string blinds;
  for (const std::string& term : terms) {
    if (!blinds.empty()) blinds += ",";
    blinds += SearchAuditDetail(options_.entropy, term);
  }
  MEDVAULT_RETURN_IF_ERROR(
      AuditLocked(actor, AuditAction::kSearch, "",
                  blinds + " hits=" + std::to_string(visible.size())));
  return visible;
}

Result<std::vector<VersionHeader>> Vault::RecordHistory(
    const PrincipalId& actor, const RecordId& record_id) {
  std::shared_lock lock(mu_);
  MEDVAULT_ASSIGN_OR_RETURN(RecordMeta meta,
                            RequireLiveMetaLocked(record_id));
  AccessBasis basis;
  MEDVAULT_RETURN_IF_ERROR(CheckAndAuditLocked(
      actor, Operation::kReadRecord, record_id, meta.patient_id, &basis));
  MEDVAULT_RETURN_IF_ERROR(AuditLocked(actor, AuditAction::kRead, record_id,
                                       "history" + BasisSuffix(basis)));
  return versions_->History(record_id);
}

Result<DisposalCertificate> Vault::ExecuteDisposalLocked(
    const PrincipalId& actor, RecordMeta meta,
    const std::string& authorizers) {
  const RecordId& record_id = meta.record_id;
  Timestamp now = Now();
  // Custody first: the disposal event becomes part of the chain the
  // certificate commits to.
  MEDVAULT_ASSIGN_OR_RETURN(
      std::string custody_head,
      provenance_->RecordEvent(record_id, CustodyEventType::kDisposed,
                               authorizers,
                               "policy=" + meta.retention_policy, now));
  MEDVAULT_RETURN_IF_ERROR(ReserveSignerLeafLocked());
  MEDVAULT_ASSIGN_OR_RETURN(
      DisposalCertificate cert,
      retention_.IssueCertificate(meta, authorizers, custody_head, now,
                                  signer_.get()));

  MEDVAULT_RETURN_IF_ERROR(keystore_->DestroyKey(record_id));
  // Secure deletion includes memory: purge every cached plaintext of
  // the record synchronously, before the disposal is acknowledged.
  if (options_.cache != nullptr) options_.cache->PurgeRecord(record_id);
  // Crypto-shredding also kills every outstanding record-scoped consent
  // on the record, synchronously — revoked, persisted, and audited
  // before the disposal is acknowledged. (Patient-scoped grants stay:
  // they cover the patient's other records, and this one is unreadable
  // without its key regardless.)
  for (const ConsentGrant& g :
       consent_.RevokeAllForRecord(meta.patient_id, record_id)) {
    MEDVAULT_RETURN_IF_ERROR(AppendStateEntryLocked(
        kStateConsentRevoke, EncodeConsentRevoke(g.grant_id)));
    MEDVAULT_RETURN_IF_ERROR(
        AuditLocked(actor, AuditAction::kConsentRevoke, record_id,
                    "patient=" + g.patient + " grantee=" + g.grantee +
                        " grant=" + g.grant_id + " reason=crypto-shred"));
    consent_revoked_->Increment();
  }
  meta.disposed = true;
  MEDVAULT_RETURN_IF_ERROR(PutRecordMetaLocked(meta));

  MEDVAULT_RETURN_IF_ERROR(
      AuditLocked(actor, AuditAction::kDispose, record_id,
                  "by=" + authorizers + " cert=" +
                      HexEncode(Slice(
                          crypto::Sha256Digest(cert.Encode()).data(), 8))));
  return cert;
}

Result<DisposalCertificate> Vault::DisposeRecord(const PrincipalId& actor,
                                                 const RecordId& record_id) {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.dispose, "vault.dispose");
  std::unique_lock lock(mu_);
  if (options_.require_dual_disposal) {
    return Status::FailedPrecondition(
        "this vault requires two-person disposal: use RequestDisposal + "
        "ApproveDisposal");
  }
  MEDVAULT_ASSIGN_OR_RETURN(RecordMeta meta,
                            RequireLiveMetaLocked(record_id));
  MEDVAULT_RETURN_IF_ERROR(CheckAndAuditLocked(actor, Operation::kDispose,
                                               record_id, meta.patient_id));
  MEDVAULT_RETURN_IF_ERROR(retention_.CheckDisposalAllowed(meta, Now()));
  return ExecuteDisposalLocked(actor, std::move(meta), actor);
}

Result<std::vector<RecordMeta>> Vault::ListExpiredRecords(
    const PrincipalId& actor) {
  std::shared_lock lock(mu_);
  MEDVAULT_RETURN_IF_ERROR(
      CheckAndAuditLocked(actor, Operation::kReadAudit, "", ""));
  std::vector<RecordMeta> expired;
  Timestamp now = Now();
  for (uint32_t r : MetaOrdinalsById()) {
    RecordMeta meta = MetaOf(r);
    if (retention_.CheckDisposalAllowed(meta, now).ok()) {
      expired.push_back(std::move(meta));
    }
  }
  return expired;
}

Result<int> Vault::ReclaimDisposedMedia(const PrincipalId& actor) {
  std::unique_lock lock(mu_);
  MEDVAULT_RETURN_IF_ERROR(
      CheckAndAuditLocked(actor, Operation::kDispose, "", ""));
  std::vector<uint64_t> segments = versions_->FullyDisposedSegments();
  MEDVAULT_ASSIGN_OR_RETURN(int dropped,
                            versions_->ReclaimSegments(segments));
  MEDVAULT_RETURN_IF_ERROR(AuditLocked(actor, AuditAction::kDispose, "",
                                       "media-reclaim segments=" +
                                           std::to_string(dropped)));
  return dropped;
}

Status Vault::PlaceLegalHold(const PrincipalId& actor,
                             const RecordId& record_id,
                             const std::string& reason) {
  std::unique_lock lock(mu_);
  if (reason.empty()) {
    return Status::InvalidArgument("legal holds require a reason");
  }
  MEDVAULT_ASSIGN_OR_RETURN(RecordMeta meta,
                            RequireLiveMetaLocked(record_id));
  MEDVAULT_RETURN_IF_ERROR(CheckAndAuditLocked(actor, Operation::kDispose,
                                               record_id, meta.patient_id));
  if (meta.disposed) {
    return Status::FailedPrecondition("record already disposed");
  }
  if (meta.legal_hold) {
    return Status::AlreadyExists("record already under legal hold");
  }
  meta.legal_hold = true;
  MEDVAULT_RETURN_IF_ERROR(PutRecordMetaLocked(meta));
  return AuditLocked(actor, AuditAction::kPolicyChange, record_id,
                     "legal-hold placed: " + reason);
}

Status Vault::ReleaseLegalHold(const PrincipalId& actor,
                               const RecordId& record_id,
                               const std::string& reason) {
  std::unique_lock lock(mu_);
  if (reason.empty()) {
    return Status::InvalidArgument("hold releases require a reason");
  }
  MEDVAULT_ASSIGN_OR_RETURN(RecordMeta meta,
                            RequireLiveMetaLocked(record_id));
  MEDVAULT_RETURN_IF_ERROR(CheckAndAuditLocked(actor, Operation::kDispose,
                                               record_id, meta.patient_id));
  if (!meta.legal_hold) {
    return Status::FailedPrecondition("record is not under legal hold");
  }
  meta.legal_hold = false;
  MEDVAULT_RETURN_IF_ERROR(PutRecordMetaLocked(meta));
  return AuditLocked(actor, AuditAction::kPolicyChange, record_id,
                     "legal-hold released: " + reason);
}

Result<std::string> Vault::RequestDisposal(const PrincipalId& actor,
                                           const RecordId& record_id) {
  std::unique_lock lock(mu_);
  MEDVAULT_ASSIGN_OR_RETURN(RecordMeta meta,
                            RequireLiveMetaLocked(record_id));
  MEDVAULT_RETURN_IF_ERROR(CheckAndAuditLocked(actor, Operation::kDispose,
                                               record_id, meta.patient_id));
  MEDVAULT_RETURN_IF_ERROR(retention_.CheckDisposalAllowed(meta, Now()));

  std::string request_id = "dr-" + std::to_string(next_disposal_request_++);
  disposal_requests_[request_id] = DisposalRequest{record_id, actor};
  MEDVAULT_RETURN_IF_ERROR(AuditLocked(actor, AuditAction::kDispose,
                                       record_id,
                                       "requested " + request_id));
  return request_id;
}

Result<DisposalCertificate> Vault::ApproveDisposal(
    const PrincipalId& actor, const std::string& request_id) {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.dispose, "vault.dispose");
  std::unique_lock lock(mu_);
  auto it = disposal_requests_.find(request_id);
  if (it == disposal_requests_.end()) {
    return Status::NotFound("no such disposal request");
  }
  const DisposalRequest request = it->second;
  MEDVAULT_ASSIGN_OR_RETURN(RecordMeta meta,
                            RequireLiveMetaLocked(request.record_id));
  MEDVAULT_RETURN_IF_ERROR(CheckAndAuditLocked(actor, Operation::kDispose,
                                               request.record_id,
                                               meta.patient_id));
  if (actor == request.requester) {
    (void)AuditLocked(actor, AuditAction::kAccessDenied, request.record_id,
                      "self-approval of " + request_id + " refused");
    return Status::PermissionDenied(
        "two-person disposal requires a different approving admin");
  }
  // Retention is re-checked at approval time: a request made in error
  // cannot be approved into an early disposal.
  MEDVAULT_RETURN_IF_ERROR(retention_.CheckDisposalAllowed(meta, Now()));
  disposal_requests_.erase(it);
  return ExecuteDisposalLocked(actor, std::move(meta),
                               request.requester + "+" + actor);
}

// ---- Audit & custody -----------------------------------------------------

Result<SignedCheckpoint> Vault::CheckpointAudit() {
  std::unique_lock lock(mu_);
  MEDVAULT_RETURN_IF_ERROR(ReserveSignerLeafLocked());
  MEDVAULT_ASSIGN_OR_RETURN(SignedCheckpoint c,
                            audit_->Checkpoint(signer_.get(), Now()));
  return c;
}

Status Vault::VerifyAudit() const {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.verify, "vault.verify");
  // Exclusive: VerifyAll re-reads the log file from disk, so in-flight
  // appends (even from shared-lock read paths) must be excluded.
  std::unique_lock lock(mu_);
  return audit_->VerifyAll(signer_->public_key(), signer_public_seed_,
                           options_.signer_height);
}

Status Vault::VerifyAuditAgainstTrusted(
    const SignedCheckpoint& trusted) const {
  std::shared_lock lock(mu_);
  return audit_->VerifyAgainstTrusted(trusted);
}

Result<std::vector<AuditEvent>> Vault::ReadAuditTrail(
    const PrincipalId& actor, const RecordId& record_id) {
  if (record_id.empty()) return ReadAuditRange(actor, 0, ~uint64_t{0});
  std::shared_lock lock(mu_);
  MEDVAULT_RETURN_IF_ERROR(
      CheckAndAuditLocked(actor, Operation::kReadAudit, record_id, ""));
  std::vector<AuditEvent> out;
  MEDVAULT_RETURN_IF_ERROR(
      ReadAuditEvents(audit_->SeqsForRecord(record_id), &out));
  return out;
}

Result<std::vector<AuditEvent>> Vault::ReadAuditRange(const PrincipalId& actor,
                                                      uint64_t begin,
                                                      uint64_t max_events) {
  std::shared_lock lock(mu_);
  MEDVAULT_RETURN_IF_ERROR(
      CheckAndAuditLocked(actor, Operation::kReadAudit, "", ""));
  std::vector<AuditEvent> out;
  MEDVAULT_RETURN_IF_ERROR(
      audit_->ForEachEvent(begin, max_events, [&](const AuditEvent& e) {
        out.push_back(e);
        return Status::OK();
      }));
  return out;
}

Result<std::vector<CustodyEvent>> Vault::GetCustodyChain(
    const PrincipalId& actor, const RecordId& record_id) {
  std::shared_lock lock(mu_);
  MEDVAULT_RETURN_IF_ERROR(
      CheckAndAuditLocked(actor, Operation::kReadAudit, record_id, ""));
  return provenance_->GetChain(record_id);
}

Result<std::vector<AuditEvent>> Vault::AccountingOfDisclosures(
    const PrincipalId& actor, const PrincipalId& patient_id) {
  std::shared_lock lock(mu_);
  // Patients are entitled to their own accounting; otherwise this is an
  // audit-read operation.
  if (actor != patient_id) {
    MEDVAULT_RETURN_IF_ERROR(
        CheckAndAuditLocked(actor, Operation::kReadAudit, "", ""));
  }
  // O(per-patient), not O(log): gather the seqs of the patient's
  // records plus their break-glass grants via the audit log's
  // incremental indexes, merge the ascending lists, and read the events
  // back — a full-log scan at population scale would make the one
  // report patients are entitled to the most expensive query we serve.
  // Consent grants disclose too: each names the third party the patient
  // authorized (the exercises themselves are kRead events on the
  // patient's records, gathered with via=consent details).
  std::vector<uint64_t> granted = audit_->BreakGlassSeqsForPatient(patient_id);
  std::vector<uint64_t> cg = audit_->ConsentSeqsForPatient(patient_id);
  granted.insert(granted.end(), cg.begin(), cg.end());
  std::sort(granted.begin(), granted.end());
  std::vector<uint64_t> seqs = granted;
  const uint32_t patient = patients_.Find(patient_id);
  if (patient < records_by_patient_.size()) {
    for (uint32_t r : records_by_patient_[patient]) {
      std::vector<uint64_t> s = audit_->SeqsForRecord(records_.id(r));
      seqs.insert(seqs.end(), s.begin(), s.end());
    }
  }
  std::sort(seqs.begin(), seqs.end());
  seqs.erase(std::unique(seqs.begin(), seqs.end()), seqs.end());
  std::vector<AuditEvent> out;
  MEDVAULT_RETURN_IF_ERROR(ReadAuditEvents(seqs, &out));
  // Of a record's trail only the reads are disclosures.
  out.erase(std::remove_if(out.begin(), out.end(),
                           [&](const AuditEvent& e) {
                             return e.action != AuditAction::kRead &&
                                    !std::binary_search(granted.begin(),
                                                        granted.end(), e.seq);
                           }),
            out.end());
  MEDVAULT_RETURN_IF_ERROR(AuditLocked(actor, AuditAction::kSearch, "",
                                       "accounting-of-disclosures events=" +
                                           std::to_string(out.size())));
  return out;
}

Status Vault::CheckAuditAccess(const PrincipalId& actor) const {
  std::shared_lock lock(mu_);
  return CheckAndAuditLocked(actor, Operation::kReadAudit, "", "");
}

Result<std::vector<AuditEvent>> Vault::ListBreakGlassEvents(
    const PrincipalId& actor) {
  std::shared_lock lock(mu_);
  MEDVAULT_RETURN_IF_ERROR(
      CheckAndAuditLocked(actor, Operation::kReadAudit, "", ""));
  std::vector<AuditEvent> out;
  MEDVAULT_RETURN_IF_ERROR(ReadAuditEvents(audit_->BreakGlassSeqs(), &out));
  return out;
}

Status Vault::ReadAuditEvents(const std::vector<uint64_t>& seqs,
                              std::vector<AuditEvent>* out) const {
  out->reserve(out->size() + seqs.size());
  for (uint64_t seq : seqs) {
    MEDVAULT_ASSIGN_OR_RETURN(AuditEvent e, audit_->EventAt(seq));
    out->push_back(std::move(e));
  }
  return Status::OK();
}

// ---- Verification ---------------------------------------------------------

Status Vault::VerifyRecord(const RecordId& record_id) const {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.verify, "vault.verify");
  std::shared_lock lock(mu_);
  return versions_->VerifyRecord(record_id);
}

Status Vault::VerifyEverything() const {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.verify, "vault.verify");
  std::unique_lock lock(mu_);
  return VerifyDeepLocked();
}

Status Vault::VerifyDeepLocked() const {
  MEDVAULT_RETURN_IF_ERROR(versions_->VerifyAllRecords());
  MEDVAULT_RETURN_IF_ERROR(audit_->VerifyAll(
      signer_->public_key(), signer_public_seed_, options_.signer_height));
  MEDVAULT_RETURN_IF_ERROR(index_->VerifyIntegrity());
  return provenance_->VerifyAllChains();
}

Result<ScrubReport> Vault::Scrub() {
  obs::ScopedOpTimer timer(metrics_, op_metrics_.verify, "vault.scrub");
  std::unique_lock lock(mu_);
  MEDVAULT_ASSIGN_OR_RETURN(
      ScrubReport report,
      Scrubber::ScrubVaultDir(options_.env, options_.dir, Now()));
  // Structural damage usually fails the deep pass too; the structural
  // scan above is what localizes it to byte ranges.
  report.deep_status = VerifyDeepLocked();

  last_scrub_ =
      ScrubStats{true,
                 report.scrubbed_at,
                 report.files_scanned,
                 report.corrupt_files,
                 report.orphan_files,
                 report.clean()};
  metrics_->GetCounter("vault.scrub.runs")->Increment();
  metrics_->GetCounter("vault.scrub.bytes")->Increment(report.bytes_scanned);
  if (!report.clean()) {
    metrics_->GetCounter("vault.scrub.dirty")->Increment();
  }
  return report;
}

Vault::ScrubStats Vault::LastScrub() const {
  std::shared_lock lock(mu_);
  return last_scrub_;
}

std::string Vault::ContentRoot() const {
  std::shared_lock lock(mu_);
  crypto::MerkleTree tree;
  for (const std::string& hash : versions_->AllVersionHashes()) {
    tree.Append(hash);
  }
  return tree.Root();
}

Result<RecordMeta> Vault::GetRecordMeta(const RecordId& record_id) const {
  std::shared_lock lock(mu_);
  return RequireLiveMetaLocked(record_id);
}

std::vector<RecordId> Vault::ListRecordIds() const {
  std::shared_lock lock(mu_);
  std::vector<RecordId> ids;
  for (uint32_t r : MetaOrdinalsById()) ids.push_back(records_.id(r));
  return ids;
}

Vault::HealthStats Vault::CollectHealthStats() const {
  std::shared_lock lock(mu_);
  HealthStats stats;
  const Timestamp now = Now();
  for (uint32_t r = 0; r < metas_.size(); ++r) {
    const MetaSlot* meta = MetaAt(r);
    if (meta == nullptr) continue;
    if (meta->disposed) {
      stats.disposed++;
      continue;
    }
    stats.records++;
    if (meta->legal_hold) stats.legal_holds++;
    // Backlog = disposal the retention schedule already allows but that
    // nobody has executed yet (the paper's "assured destruction" debt).
    if (retention_.CheckDisposalAllowed(MetaOf(r), now).ok()) {
      stats.retention_backlog++;
    }
  }
  stats.signer_leaves_used = signer_->SignaturesUsed();
  stats.signer_leaves_remaining = signer_->SignaturesRemaining();
  return stats;
}

Status Vault::RotateMasterKey(const PrincipalId& actor,
                              const Slice& new_master_key) {
  std::unique_lock lock(mu_);
  MEDVAULT_RETURN_IF_ERROR(
      CheckAndAuditLocked(actor, Operation::kManagePrincipals, "", ""));
  if (new_master_key.size() != crypto::kAes256KeySize) {
    return Status::InvalidArgument("master key must be 32 bytes");
  }
  MEDVAULT_RETURN_IF_ERROR(keystore_->RotateMasterKey(new_master_key));
  options_.master_key = new_master_key.ToString();
  return AuditLocked(actor, AuditAction::kKeyRotation, "",
                     "master-key rotated");
}

}  // namespace medvault::core
