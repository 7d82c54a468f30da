#include "core/backup.h"

#include <algorithm>
#include <map>

#include "common/coding.h"
#include "core/scrub.h"

namespace medvault::core {

std::string BackupManifest::SignedPayload() const {
  std::string out = "medvault-backup-v2";
  PutLengthPrefixed(&out, backup_id);
  PutLengthPrefixed(&out, system_id);
  PutFixed64(&out, static_cast<uint64_t>(created_at));
  PutLengthPrefixed(&out, base_backup_id);
  PutVarint32(&out, static_cast<uint32_t>(files.size()));
  for (const auto& [path, hash] : files) {
    PutLengthPrefixed(&out, path);
    PutLengthPrefixed(&out, hash);
  }
  PutVarint32(&out, static_cast<uint32_t>(deleted.size()));
  for (const std::string& path : deleted) {
    PutLengthPrefixed(&out, path);
  }
  return out;
}

std::string BackupManifest::Encode() const {
  std::string out = SignedPayload();
  PutLengthPrefixed(&out, signature);
  return out;
}

Result<BackupManifest> BackupManifest::Decode(const Slice& data) {
  Slice in = data;
  BackupManifest m;
  if (in.size() < 18) return Status::Corruption("manifest too short");
  std::string magic(in.data(), 18);
  in.RemovePrefix(18);
  if (magic != "medvault-backup-v2") {
    return Status::Corruption("bad manifest magic");
  }
  uint64_t ts = 0;
  uint32_t count = 0, deleted_count = 0;
  if (!GetLengthPrefixedString(&in, &m.backup_id) ||
      !GetLengthPrefixedString(&in, &m.system_id) || !GetFixed64(&in, &ts) ||
      !GetLengthPrefixedString(&in, &m.base_backup_id) ||
      !GetVarint32(&in, &count)) {
    return Status::Corruption("malformed manifest");
  }
  m.created_at = static_cast<Timestamp>(ts);
  m.files.reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    std::string path, hash;
    if (!GetLengthPrefixedString(&in, &path) ||
        !GetLengthPrefixedString(&in, &hash)) {
      return Status::Corruption("malformed manifest file entry");
    }
    m.files.emplace_back(std::move(path), std::move(hash));
  }
  if (!GetVarint32(&in, &deleted_count)) {
    return Status::Corruption("malformed manifest deleted list");
  }
  for (uint32_t i = 0; i < deleted_count; i++) {
    std::string path;
    if (!GetLengthPrefixedString(&in, &path)) {
      return Status::Corruption("malformed manifest deleted entry");
    }
    m.deleted.push_back(std::move(path));
  }
  if (!GetLengthPrefixedString(&in, &m.signature) || !in.empty()) {
    return Status::Corruption("malformed manifest signature");
  }
  return m;
}

namespace {

// The files a chain restores: the newest mention of each path wins,
// and a later `deleted` entry erases earlier mentions. rel -> (offsite
// dir holding it, SHA-256).
std::map<std::string, std::pair<std::string, std::string>> EffectiveState(
    const BackupChain& chain) {
  std::map<std::string, std::pair<std::string, std::string>> effective;
  for (const auto& [dir, manifest] : chain) {
    for (const auto& [rel, hash] : manifest.files) effective[rel] = {dir, hash};
    for (const std::string& rel : manifest.deleted) effective.erase(rel);
  }
  return effective;
}

// Chain-structure validation shared by RestoreChain/VerifyChain/Repair:
// the first link must be a full backup and every later link must build
// on its predecessor. Violations are kBackupChainBroken — distinct from
// per-file TamperDetected so callers can tell "your chain is unusable
// (e.g. a mid-chain incremental was deleted)" from "a backup file was
// modified".
Status ValidateChainLinkage(const BackupChain& chain) {
  if (chain.empty()) {
    return Status::InvalidArgument("restore chain is empty");
  }
  for (size_t i = 0; i < chain.size(); i++) {
    const BackupManifest& m = chain[i].second;
    if (i == 0 && !m.base_backup_id.empty()) {
      return Status::BackupChainBroken(
          "chain must start with a full backup; " + m.backup_id +
          " builds on missing base " + m.base_backup_id);
    }
    if (i > 0 && m.base_backup_id != chain[i - 1].second.backup_id) {
      return Status::BackupChainBroken(
          m.backup_id + " builds on " +
          (m.base_backup_id.empty() ? std::string("<none: full backup>")
                                    : m.base_backup_id) +
          " but follows " + chain[i - 1].second.backup_id);
    }
  }
  return Status::OK();
}

}  // namespace

Result<BackupManifest> BackupManager::Backup(Vault* vault,
                                             const PrincipalId& actor,
                                             storage::Env* offsite_env,
                                             const std::string& offsite_dir) {
  return BackupIncremental(vault, actor, offsite_env, offsite_dir, {});
}

Result<BackupManifest> BackupManager::BackupIncremental(
    Vault* vault, const PrincipalId& actor, storage::Env* offsite_env,
    const std::string& offsite_dir, const BackupChain& base) {
  MEDVAULT_RETURN_IF_ERROR(vault->CheckAccess(actor, Operation::kBackup));
  if (!base.empty()) MEDVAULT_RETURN_IF_ERROR(ValidateChainLinkage(base));

  storage::Env* src_env = vault->options().env;
  const std::string& src_dir = vault->options().dir;
  MEDVAULT_RETURN_IF_ERROR(offsite_env->CreateDirIfMissing(offsite_dir));

  // What restoring the base chain yields: path -> (dir, hash). Diffing
  // against the newest link alone would miss a file that an earlier
  // link holds and the vault has since deleted.
  const auto base_state = EffectiveState(base);
  const std::string base_id =
      base.empty() ? std::string() : base.back().second.backup_id;

  BackupManifest manifest;
  manifest.backup_id =
      "bk-" + std::to_string(static_cast<uint64_t>(vault->Now()));
  manifest.system_id = vault->options().system_id;
  manifest.created_at = vault->Now();
  manifest.base_backup_id = base_id;

  // The vault's artifacts, plus its signer.tree so a restored vault
  // opens without key generation. Sorted.
  MEDVAULT_ASSIGN_OR_RETURN(std::vector<std::string> files,
                            Scrubber::ArtifactFiles(src_env, src_dir));
  if (src_env->FileExists(src_dir + "/" + kSignerTreeFile)) {
    files.insert(std::upper_bound(files.begin(), files.end(), kSignerTreeFile),
                 kSignerTreeFile);
  }
  for (const std::string& rel : files) {
    auto it = base_state.find(rel);
    if (it != base_state.end()) {
      crypto::Sha256 sha;
      MEDVAULT_RETURN_IF_ERROR(
          storage::HashFile(src_env, src_dir + "/" + rel, &sha).status());
      if (sha.Finish() == it->second.second) continue;  // unchanged
    }
    MEDVAULT_ASSIGN_OR_RETURN(
        std::string hash,
        storage::CopyFile(src_env, src_dir + "/" + rel, offsite_env,
                          offsite_dir + "/" + rel, /*sync=*/true));
    manifest.files.emplace_back(rel, std::move(hash));
  }
  for (const auto& [rel, from] : base_state) {
    if (!std::binary_search(files.begin(), files.end(), rel)) {
      manifest.deleted.push_back(rel);
    }
  }

  MEDVAULT_ASSIGN_OR_RETURN(
      manifest.signature, vault->SignStatement(manifest.SignedPayload()));
  MEDVAULT_RETURN_IF_ERROR(storage::WriteStringToFile(
      offsite_env, manifest.Encode(), offsite_dir + "/MANIFEST", true));
  const std::string details =
      base_id.empty()
          ? " files=" + std::to_string(manifest.files.size())
          : " incremental-of=" + base_id +
                " changed=" + std::to_string(manifest.files.size()) +
                " deleted=" + std::to_string(manifest.deleted.size());
  MEDVAULT_RETURN_IF_ERROR(vault->Audit(actor, AuditAction::kBackup, "",
                                        manifest.backup_id + details));
  return manifest;
}

Result<BackupChain> BackupManager::LoadChain(
    storage::Env* offsite_env, const std::vector<std::string>& dirs) {
  BackupChain chain;
  chain.reserve(dirs.size());
  for (const std::string& dir : dirs) {
    Result<BackupManifest> m = LoadManifest(offsite_env, dir);
    if (!m.ok()) {
      if (m.status().IsNotFound()) {
        return Status::BackupChainBroken("backup " + dir +
                                         " has no manifest (deleted?)");
      }
      if (m.status().IsCorruption()) {
        // A manifest that exists but does not parse — e.g. truncated
        // mid-file — breaks the chain exactly like a deleted link: no
        // later link can be validated against it.
        return Status::BackupChainBroken("backup " + dir +
                                         " has an unreadable manifest: " +
                                         m.status().message());
      }
      return m.status();
    }
    chain.emplace_back(dir, std::move(m).value());
  }
  MEDVAULT_RETURN_IF_ERROR(ValidateChainLinkage(chain));
  return chain;
}

Status BackupManager::VerifyChain(storage::Env* offsite_env,
                                  const BackupChain& chain) {
  MEDVAULT_RETURN_IF_ERROR(ValidateChainLinkage(chain));
  for (const auto& [dir, manifest] : chain) {
    MEDVAULT_RETURN_IF_ERROR(Verify(offsite_env, dir, manifest));
  }
  return Status::OK();
}

Status BackupManager::RestoreChain(storage::Env* offsite_env,
                                   const BackupChain& chain,
                                   storage::Env* dest_env,
                                   const std::string& dest_dir) {
  // Validate linkage and verify every link before touching the dest;
  // each copy is checked again as it is made.
  MEDVAULT_RETURN_IF_ERROR(VerifyChain(offsite_env, chain));
  MEDVAULT_RETURN_IF_ERROR(dest_env->CreateDirIfMissing(dest_dir));
  const auto effective = EffectiveState(chain);
  for (const auto& [rel, from] : effective) {
    MEDVAULT_RETURN_IF_ERROR(
        storage::CopyFile(offsite_env, from.first + "/" + rel, dest_env,
                          dest_dir + "/" + rel, /*sync=*/true, from.second)
            .status());
  }
  for (const auto& [dir, manifest] : chain) {
    for (const std::string& rel : manifest.deleted) {
      if (effective.count(rel) != 0) continue;  // brought back later
      Status s = dest_env->RemoveFile(dest_dir + "/" + rel);
      if (!s.ok() && !s.IsNotFound()) return s;
    }
  }
  return Status::OK();
}

Status BackupManager::Verify(storage::Env* offsite_env,
                             const std::string& offsite_dir,
                             const BackupManifest& manifest) {
  for (const auto& [rel, expected_hash] : manifest.files) {
    crypto::Sha256 sha;
    if (!storage::HashFile(offsite_env, offsite_dir + "/" + rel, &sha).ok()) {
      return Status::TamperDetected("backup file missing: " + rel);
    }
    if (sha.Finish() != expected_hash) {
      return Status::TamperDetected("backup file hash mismatch: " + rel);
    }
  }
  return Status::OK();
}

Status BackupManager::Restore(storage::Env* offsite_env,
                              const std::string& offsite_dir,
                              const BackupManifest& manifest,
                              storage::Env* dest_env,
                              const std::string& dest_dir) {
  return RestoreChain(offsite_env, {{offsite_dir, manifest}}, dest_env,
                      dest_dir);
}

Result<BackupManager::RepairSummary> BackupManager::Repair(
    storage::Env* offsite_env, const BackupChain& chain,
    storage::Env* dest_env, const std::string& dest_dir,
    const ScrubReport& report) {
  MEDVAULT_RETURN_IF_ERROR(ValidateChainLinkage(chain));
  const auto effective = EffectiveState(chain);

  RepairSummary summary;
  for (const std::string& rel : report.DamagedFiles()) {
    auto it = effective.find(rel);
    if (it == effective.end()) {
      summary.unrepairable.push_back(rel);
      continue;
    }
    const auto& [src_dir, expected_hash] = it->second;
    Result<std::string> copied =
        storage::CopyFile(offsite_env, src_dir + "/" + rel, dest_env,
                          dest_dir + "/" + rel, /*sync=*/true, expected_hash);
    if (copied.status().IsNotFound()) {
      return Status::TamperDetected("backup file missing during repair: " +
                                    rel);
    }
    MEDVAULT_RETURN_IF_ERROR(copied.status());
    summary.restored.push_back(rel);
  }

  // Crash-leftover temp files and other unclaimed clutter flagged by
  // the scrub: sweep them so the repaired directory is exactly a vault.
  for (const std::string& rel : report.OrphanFiles()) {
    Status s = dest_env->RemoveFile(dest_dir + "/" + rel);
    if (!s.ok() && !s.IsNotFound()) return s;
    summary.removed_orphans.push_back(rel);
  }

  // Re-scrub structurally: the damage we restored over must be gone.
  // (The caller runs the deep verification after reopening the vault.)
  MEDVAULT_ASSIGN_OR_RETURN(
      ScrubReport after,
      Scrubber::ScrubVaultDir(dest_env, dest_dir, report.scrubbed_at));
  summary.verified_clean =
      after.structurally_clean() && summary.unrepairable.empty();
  return summary;
}

Status BackupManager::AuditRepair(Vault* vault, const PrincipalId& actor,
                                  const RepairSummary& summary) {
  MEDVAULT_RETURN_IF_ERROR(vault->CheckAccess(actor, Operation::kBackup));
  return vault->Audit(
      actor, AuditAction::kRestore, "",
      "repair restored=" + std::to_string(summary.restored.size()) +
          " orphans-removed=" +
          std::to_string(summary.removed_orphans.size()) +
          " unrepairable=" + std::to_string(summary.unrepairable.size()) +
          (summary.verified_clean ? " verified=clean" : " verified=dirty"));
}

Result<BackupManifest> BackupManager::LoadManifest(
    storage::Env* offsite_env, const std::string& offsite_dir) {
  // The manifest is the one file decoded whole.
  std::string contents;
  MEDVAULT_RETURN_IF_ERROR(storage::StreamFile(
      offsite_env, offsite_dir + "/MANIFEST", [&](const Slice& piece) {
        contents.append(piece.data(), piece.size());
        return Status::OK();
      }));
  return BackupManifest::Decode(contents);
}

Status BackupManager::VerifyManifestSignature(const BackupManifest& manifest,
                                              const Slice& public_key,
                                              const Slice& public_seed,
                                              int height) {
  MEDVAULT_ASSIGN_OR_RETURN(crypto::XmssSignature sig,
                            crypto::XmssSignature::Decode(manifest.signature));
  return crypto::XmssSigner::Verify(manifest.SignedPayload(), sig,
                                    public_key, public_seed, height);
}

}  // namespace medvault::core
