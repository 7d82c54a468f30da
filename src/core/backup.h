#ifndef MEDVAULT_CORE_BACKUP_H_
#define MEDVAULT_CORE_BACKUP_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/vault.h"
#include "storage/env.h"

namespace medvault::core {

/// Signed inventory of a backup: every vault file with its SHA-256.
/// HIPAA §164.310(d)(2)(iv): "create a retrievable, exact copy of
/// electronic protected health information"; paper §3: off-site backup.
struct BackupManifest {
  std::string backup_id;
  std::string system_id;
  Timestamp created_at = 0;
  /// Empty for a full backup; for an incremental backup, the id of the
  /// backup this one builds on. `files` then lists only changed/new
  /// files and `deleted` the files that vanished since the base (e.g.
  /// reclaimed segments).
  std::string base_backup_id;
  std::vector<std::pair<std::string, std::string>> files;  // path -> sha256
  std::vector<std::string> deleted;
  std::string signature;  ///< vault XMSS signature over SignedPayload()

  std::string SignedPayload() const;
  std::string Encode() const;
  static Result<BackupManifest> Decode(const Slice& data);
};

/// A backup chain, oldest first: (offsite_dir, manifest) per link.
using BackupChain = std::vector<std::pair<std::string, BackupManifest>>;

/// Copies a vault to an off-site Env (a second MemEnv in tests, a
/// different mount in production) and verifies/restores it.
class BackupManager {
 public:
  /// Full backup of `vault` into `offsite_env:offsite_dir`: an
  /// incremental backup over an empty base. Copies the vault's artifacts
  /// (Scrubber::ArtifactFiles) and signer.tree with storage::CopyFile,
  /// never crash leftovers; writes the manifest alongside as
  /// "<offsite_dir>/MANIFEST" and audits it. `actor` needs kBackup.
  static Result<BackupManifest> Backup(Vault* vault,
                                       const PrincipalId& actor,
                                       storage::Env* offsite_env,
                                       const std::string& offsite_dir);

  /// Incremental backup over `base`, the chain so far (oldest first;
  /// empty for a full backup): copies only files that are new or
  /// changed relative to the chain's effective state, and records as
  /// deleted every file that state holds and the vault no longer does.
  /// Restore needs `base` plus the new link.
  static Result<BackupManifest> BackupIncremental(
      Vault* vault, const PrincipalId& actor, storage::Env* offsite_env,
      const std::string& offsite_dir, const BackupChain& base);

  /// Re-hashes every off-site file against the manifest.
  static Status Verify(storage::Env* offsite_env,
                       const std::string& offsite_dir,
                       const BackupManifest& manifest);

  /// Loads the manifests of `dirs` (oldest first) and validates their
  /// linkage: the first must be a full backup and every later one must
  /// reference the previous backup_id as its base. A missing manifest
  /// or mismatched base yields kBackupChainBroken — the distinct signal
  /// that the *chain* (not the data) is unusable, e.g. because a
  /// mid-chain incremental was lost.
  static Result<BackupChain> LoadChain(storage::Env* offsite_env,
                                       const std::vector<std::string>& dirs);

  /// Verify() on every link of an already-loaded chain, after
  /// re-validating its linkage.
  static Status VerifyChain(storage::Env* offsite_env,
                            const BackupChain& chain);

  /// Restores a full-then-incrementals chain, oldest first. Every link
  /// is verified first; then the chain's effective state is copied (the
  /// newest copy of each file, `deleted` lists honored), each copy
  /// hashed against its manifest as it is made. A copy whose bytes
  /// differ is kTamperDetected and leaves its destination file absent.
  static Status RestoreChain(storage::Env* offsite_env,
                             const BackupChain& chain, storage::Env* dest_env,
                             const std::string& dest_dir);

  /// RestoreChain of the one-link chain {offsite_dir, manifest}: an
  /// incremental manifest alone is kBackupChainBroken. The restored
  /// directory can then be opened as a Vault.
  static Status Restore(storage::Env* offsite_env,
                        const std::string& offsite_dir,
                        const BackupManifest& manifest,
                        storage::Env* dest_env, const std::string& dest_dir);

  /// What a Repair() did, for audit trails and operator output.
  struct RepairSummary {
    std::vector<std::string> restored;         ///< damaged files restored
    std::vector<std::string> removed_orphans;  ///< crash leftovers deleted
    /// Damaged files the chain does not cover — manual intervention.
    std::vector<std::string> unrepairable;
    /// Post-repair structural re-scrub came back clean.
    bool verified_clean = false;
  };

  /// Read-repair from backup: restores ONLY the files a scrub flagged
  /// as damaged (kCorrupt/kMissing) from the chain's effective state,
  /// verifying each restored file's SHA-256 against its manifest,
  /// removes the scrub's orphaned crash leftovers, then re-scrubs the
  /// directory structurally. Undamaged files are never touched. The
  /// chain must reflect the vault's current committed state (take a
  /// fresh incremental before repairing a live vault); restoring a
  /// stale artifact next to newer peers is exactly what the post-repair
  /// deep verification exists to catch. The vault at `dest_dir` must be
  /// closed. Record the repair with AuditRepair once the vault reopens.
  static Result<RepairSummary> Repair(storage::Env* offsite_env,
                                      const BackupChain& chain,
                                      storage::Env* dest_env,
                                      const std::string& dest_dir,
                                      const ScrubReport& report);

  /// Appends the single kRestore audit event for a completed Repair —
  /// called on the reopened vault, since the vault was necessarily
  /// closed (possibly unopenable) while its files were being replaced.
  /// `actor` needs kBackup.
  static Status AuditRepair(Vault* vault, const PrincipalId& actor,
                            const RepairSummary& summary);

  /// Loads the manifest stored with a backup.
  static Result<BackupManifest> LoadManifest(storage::Env* offsite_env,
                                             const std::string& offsite_dir);

  /// Verifies the manifest signature against a vault's signer identity.
  static Status VerifyManifestSignature(const BackupManifest& manifest,
                                        const Slice& public_key,
                                        const Slice& public_seed, int height);
};

}  // namespace medvault::core

#endif  // MEDVAULT_CORE_BACKUP_H_
