#include "core/backup.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/coding.h"
#include "common/hex.h"
#include "core/scrub.h"
#include "crypto/sha256.h"

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

Result<std::vector<std::string>> BackupManager::VaultFiles(
    storage::Env* env, const std::string& dir) {
  std::vector<std::string> files;
  std::vector<std::string> top;
  MEDVAULT_RETURN_IF_ERROR(env->GetChildren(dir, &top));
  for (const std::string& name : top) {
    // Probe whether the child is a file; directories fail GetFileSize on
    // MemEnv (no entry) and succeed on POSIX — so also try listing it.
    std::vector<std::string> sub;
    if (env->GetChildren(dir + "/" + name, &sub).ok() && !sub.empty()) {
      for (const std::string& inner : sub) {
        files.push_back(name + "/" + inner);
      }
      continue;
    }
    uint64_t size = 0;
    if (env->GetFileSize(dir + "/" + name, &size).ok()) {
      files.push_back(name);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

Result<BackupManifest> BackupManager::Backup(Vault* vault,
                                             const PrincipalId& actor,
                                             storage::Env* offsite_env,
                                             const std::string& offsite_dir) {
  MEDVAULT_RETURN_IF_ERROR(vault->CheckAccess(actor, Operation::kBackup));

  storage::Env* src_env = vault->options().env;
  const std::string& src_dir = vault->options().dir;

  MEDVAULT_RETURN_IF_ERROR(offsite_env->CreateDirIfMissing(offsite_dir));

  BackupManifest manifest;
  manifest.backup_id =
      "bk-" + std::to_string(static_cast<uint64_t>(vault->Now()));
  manifest.system_id = vault->options().system_id;
  manifest.created_at = vault->Now();

  MEDVAULT_ASSIGN_OR_RETURN(std::vector<std::string> files,
                            VaultFiles(src_env, src_dir));
  for (const std::string& rel : files) {
    std::string contents;
    MEDVAULT_RETURN_IF_ERROR(
        storage::ReadFileToString(src_env, src_dir + "/" + rel, &contents));
    // Create intermediate directory for nested paths.
    auto slash = rel.find('/');
    if (slash != std::string::npos) {
      MEDVAULT_RETURN_IF_ERROR(offsite_env->CreateDirIfMissing(
          offsite_dir + "/" + rel.substr(0, slash)));
    }
    MEDVAULT_RETURN_IF_ERROR(storage::WriteStringToFile(
        offsite_env, contents, offsite_dir + "/" + rel, true));
    manifest.files.emplace_back(rel, crypto::Sha256Digest(contents));
  }

  MEDVAULT_ASSIGN_OR_RETURN(
      manifest.signature, vault->SignStatement(manifest.SignedPayload()));
  MEDVAULT_RETURN_IF_ERROR(storage::WriteStringToFile(
      offsite_env, manifest.Encode(), offsite_dir + "/MANIFEST", true));

  MEDVAULT_RETURN_IF_ERROR(
      vault->Audit(actor, AuditAction::kBackup, "",
                   manifest.backup_id + " files=" +
                       std::to_string(manifest.files.size())));
  return manifest;
}

Result<BackupManifest> BackupManager::BackupIncremental(
    Vault* vault, const PrincipalId& actor, storage::Env* offsite_env,
    const std::string& offsite_dir, const BackupManifest& base) {
  MEDVAULT_RETURN_IF_ERROR(vault->CheckAccess(actor, Operation::kBackup));

  storage::Env* src_env = vault->options().env;
  const std::string& src_dir = vault->options().dir;
  MEDVAULT_RETURN_IF_ERROR(offsite_env->CreateDirIfMissing(offsite_dir));

  // Effective state of the base chain: path -> hash.
  std::map<std::string, std::string> base_state(base.files.begin(),
                                                base.files.end());

  BackupManifest manifest;
  manifest.backup_id =
      "bk-" + std::to_string(static_cast<uint64_t>(vault->Now()));
  manifest.system_id = vault->options().system_id;
  manifest.created_at = vault->Now();
  manifest.base_backup_id = base.backup_id;

  MEDVAULT_ASSIGN_OR_RETURN(std::vector<std::string> files,
                            VaultFiles(src_env, src_dir));
  std::set<std::string> current(files.begin(), files.end());
  for (const std::string& rel : files) {
    std::string contents;
    MEDVAULT_RETURN_IF_ERROR(
        storage::ReadFileToString(src_env, src_dir + "/" + rel, &contents));
    std::string hash = crypto::Sha256Digest(contents);
    auto it = base_state.find(rel);
    if (it != base_state.end() && it->second == hash) continue;  // unchanged
    auto slash = rel.find('/');
    if (slash != std::string::npos) {
      MEDVAULT_RETURN_IF_ERROR(offsite_env->CreateDirIfMissing(
          offsite_dir + "/" + rel.substr(0, slash)));
    }
    MEDVAULT_RETURN_IF_ERROR(storage::WriteStringToFile(
        offsite_env, contents, offsite_dir + "/" + rel, true));
    manifest.files.emplace_back(rel, std::move(hash));
  }
  for (const auto& [rel, hash] : base_state) {
    if (current.count(rel) == 0) manifest.deleted.push_back(rel);
  }

  MEDVAULT_ASSIGN_OR_RETURN(
      manifest.signature, vault->SignStatement(manifest.SignedPayload()));
  MEDVAULT_RETURN_IF_ERROR(storage::WriteStringToFile(
      offsite_env, manifest.Encode(), offsite_dir + "/MANIFEST", true));
  MEDVAULT_RETURN_IF_ERROR(vault->Audit(
      actor, AuditAction::kBackup, "",
      manifest.backup_id + " incremental-of=" + base.backup_id +
          " changed=" + std::to_string(manifest.files.size()) +
          " deleted=" + std::to_string(manifest.deleted.size())));
  return manifest;
}

namespace {

// Chain-structure validation shared by RestoreChain/VerifyChain/Repair:
// the first link must be a full backup and every later link must build
// on its predecessor. Violations are kBackupChainBroken — distinct from
// per-file TamperDetected so callers can tell "your chain is unusable
// (e.g. a mid-chain incremental was deleted)" from "a backup file was
// modified".
Status ValidateChainLinkage(
    const std::vector<std::pair<std::string, BackupManifest>>& chain) {
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

Result<std::vector<std::pair<std::string, BackupManifest>>>
BackupManager::LoadChain(storage::Env* offsite_env,
                         const std::vector<std::string>& dirs) {
  std::vector<std::pair<std::string, BackupManifest>> chain;
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

Status BackupManager::VerifyChain(
    storage::Env* offsite_env,
    const std::vector<std::pair<std::string, BackupManifest>>& chain) {
  MEDVAULT_RETURN_IF_ERROR(ValidateChainLinkage(chain));
  for (const auto& [dir, manifest] : chain) {
    MEDVAULT_RETURN_IF_ERROR(Verify(offsite_env, dir, manifest));
  }
  return Status::OK();
}

Status BackupManager::RestoreChain(
    storage::Env* offsite_env,
    const std::vector<std::pair<std::string, BackupManifest>>& chain,
    storage::Env* dest_env, const std::string& dest_dir) {
  // Validate linkage and verify every link before touching the dest.
  MEDVAULT_RETURN_IF_ERROR(VerifyChain(offsite_env, chain));
  MEDVAULT_RETURN_IF_ERROR(dest_env->CreateDirIfMissing(dest_dir));
  for (const auto& [dir, manifest] : chain) {
    for (const auto& [rel, hash] : manifest.files) {
      std::string contents;
      MEDVAULT_RETURN_IF_ERROR(storage::ReadFileToString(
          offsite_env, dir + "/" + rel, &contents));
      auto slash = rel.find('/');
      if (slash != std::string::npos) {
        MEDVAULT_RETURN_IF_ERROR(dest_env->CreateDirIfMissing(
            dest_dir + "/" + rel.substr(0, slash)));
      }
      MEDVAULT_RETURN_IF_ERROR(storage::WriteStringToFile(
          dest_env, contents, dest_dir + "/" + rel, true));
    }
    for (const std::string& rel : manifest.deleted) {
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
    std::string contents;
    Status s = storage::ReadFileToString(offsite_env,
                                         offsite_dir + "/" + rel, &contents);
    if (!s.ok()) {
      return Status::TamperDetected("backup file missing: " + rel);
    }
    if (crypto::Sha256Digest(contents) != expected_hash) {
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
  MEDVAULT_RETURN_IF_ERROR(Verify(offsite_env, offsite_dir, manifest));
  MEDVAULT_RETURN_IF_ERROR(dest_env->CreateDirIfMissing(dest_dir));
  for (const auto& [rel, hash] : manifest.files) {
    std::string contents;
    MEDVAULT_RETURN_IF_ERROR(storage::ReadFileToString(
        offsite_env, offsite_dir + "/" + rel, &contents));
    auto slash = rel.find('/');
    if (slash != std::string::npos) {
      MEDVAULT_RETURN_IF_ERROR(dest_env->CreateDirIfMissing(
          dest_dir + "/" + rel.substr(0, slash)));
    }
    MEDVAULT_RETURN_IF_ERROR(storage::WriteStringToFile(
        dest_env, contents, dest_dir + "/" + rel, true));
  }
  return Status::OK();
}

Result<BackupManager::RepairSummary> BackupManager::Repair(
    storage::Env* offsite_env,
    const std::vector<std::pair<std::string, BackupManifest>>& chain,
    storage::Env* dest_env, const std::string& dest_dir,
    const ScrubReport& report) {
  MEDVAULT_RETURN_IF_ERROR(ValidateChainLinkage(chain));

  // Effective state of the chain: newest mention of each path wins,
  // and a later `deleted` entry erases earlier mentions.
  std::map<std::string, std::pair<std::string, std::string>>
      effective;  // rel -> (offsite dir holding it, sha256)
  for (const auto& [dir, manifest] : chain) {
    for (const auto& [rel, hash] : manifest.files) {
      effective[rel] = {dir, hash};
    }
    for (const std::string& rel : manifest.deleted) {
      effective.erase(rel);
    }
  }

  RepairSummary summary;
  for (const std::string& rel : report.DamagedFiles()) {
    auto it = effective.find(rel);
    if (it == effective.end()) {
      summary.unrepairable.push_back(rel);
      continue;
    }
    const auto& [src_dir, expected_hash] = it->second;
    std::string contents;
    Status s = storage::ReadFileToString(offsite_env, src_dir + "/" + rel,
                                         &contents);
    if (!s.ok()) {
      return Status::TamperDetected("backup file missing during repair: " +
                                    rel);
    }
    if (crypto::Sha256Digest(contents) != expected_hash) {
      return Status::TamperDetected("backup file hash mismatch during repair: " +
                                    rel);
    }
    auto slash = rel.find('/');
    if (slash != std::string::npos) {
      MEDVAULT_RETURN_IF_ERROR(dest_env->CreateDirIfMissing(
          dest_dir + "/" + rel.substr(0, slash)));
    }
    MEDVAULT_RETURN_IF_ERROR(storage::WriteStringToFile(
        dest_env, contents, dest_dir + "/" + rel, true));
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
  std::string contents;
  MEDVAULT_RETURN_IF_ERROR(storage::ReadFileToString(
      offsite_env, offsite_dir + "/MANIFEST", &contents));
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
