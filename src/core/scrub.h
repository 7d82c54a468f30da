#ifndef MEDVAULT_CORE_SCRUB_H_
#define MEDVAULT_CORE_SCRUB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/slice.h"
#include "storage/env.h"

namespace medvault::core {

/// The per-directory file holding the vault signer's XMSS leaves under
/// an entropy-keyed tag. It is derived: Vault::Open rebuilds it when it
/// is absent or fails its tag, so a scrub reports it neither missing
/// nor orphaned, and replication never ships it.
inline constexpr char kSignerTreeFile[] = "signer.tree";

/// Per-file outcome of a media scrub.
enum class ScrubVerdict {
  kClean = 0,    // every frame/record checks out (torn tails excluded)
  kCorrupt = 1,  // CRC32C framing violations, or the file is unreadable
  kMissing = 2,  // an expected core artifact is absent
  kOrphan = 3,   // a file no vault artifact class claims (temp leftovers)
};

const char* ScrubVerdictName(ScrubVerdict v);

/// Half-open byte range [offset, offset+length) that failed validation.
struct CorruptRange {
  uint64_t offset = 0;
  uint64_t length = 0;
};

struct FileScrubResult {
  /// Path relative to the scrubbed vault directory, e.g.
  /// "audit.log" or "segments/seg-00000001".
  std::string path;
  ScrubVerdict verdict = ScrubVerdict::kClean;
  /// On-disk size in bytes (0 for missing files).
  uint64_t bytes = 0;
  /// Damaged byte ranges, in file order. Empty unless kCorrupt. A
  /// range's length may extend to EOF when resynchronization failed.
  std::vector<CorruptRange> corrupt_ranges;
  /// Human-oriented note ("frame crc mismatch", "torn tail", ...).
  std::string detail;
};

/// Structured result of walking every on-disk artifact of one vault
/// directory. `deep_status` is only populated by Vault::Scrub (which
/// can chase Merkle/hash bindings through the open catalog); the
/// offline structural scan leaves it OK.
struct ScrubReport {
  std::string dir;
  Timestamp scrubbed_at = 0;
  uint64_t files_scanned = 0;
  uint64_t bytes_scanned = 0;
  uint64_t corrupt_files = 0;  // verdict kCorrupt or kMissing
  uint64_t orphan_files = 0;
  Status deep_status;
  std::vector<FileScrubResult> files;

  /// No framing damage and no missing artifacts (orphans tolerated).
  bool structurally_clean() const { return corrupt_files == 0; }
  /// Structurally clean AND the deep content verification (when run)
  /// passed.
  bool clean() const { return corrupt_files == 0 && deep_status.ok(); }

  /// Relative paths that need restoring from backup (corrupt/missing).
  std::vector<std::string> DamagedFiles() const;
  /// Relative paths of files no artifact class claims.
  std::vector<std::string> OrphanFiles() const;
  const FileScrubResult* Find(const std::string& path) const;
  /// One-line-per-problem text rendering for operator tooling.
  std::string Summary() const;
};

/// Offline structural scrubber. Verifies the CRC32C framing of every
/// record log and segment frame in a vault directory WITHOUT opening
/// the vault, so it works on a vault too damaged to open. Trailing torn
/// records — the tail crash recovery would truncate — are reported in
/// `detail` but are NOT corruption; a torn tail in a *sealed* segment
/// is, because sealed segments were closed behind a durability barrier.
class Scrubber {
 public:
  /// Scans `dir`. Returns NotFound if the directory itself is absent;
  /// an existing-but-empty directory yields an empty clean report.
  /// Expected core artifacts (state/catalog/index/audit/provenance
  /// logs, keys.db) are reported kMissing only when the directory holds
  /// at least one recognized artifact — i.e. the vault was initialized.
  static Result<ScrubReport> ScrubVaultDir(storage::Env* env,
                                           const std::string& dir,
                                           Timestamp now);

  /// Frame-scans one segment image: `crc32c | length | payload` frames.
  /// `is_active` marks the highest-numbered segment, whose torn tail is
  /// legal. Fills verdict/corrupt_ranges/detail on `out`.
  static void ScrubSegmentData(const Slice& data, bool is_active,
                               FileScrubResult* out);

  /// Block-scans one record-log image (32KB blocks of CRC'd physical
  /// records, LevelDB WAL discipline). A torn record at EOF is legal;
  /// any mid-file violation is corruption.
  static void ScrubLogData(const Slice& data, FileScrubResult* out);

  /// The relative paths every initialized vault must have.
  static const std::vector<std::string>& ExpectedArtifacts();

  /// The artifacts `dir` holds, sorted: the expected ones present plus
  /// every segment (none if `dir` is absent); never orphans or the
  /// derived signer.tree. Replication ships them; backup copies them.
  static Result<std::vector<std::string>> ArtifactFiles(
      storage::Env* env, const std::string& dir);
};

}  // namespace medvault::core

#endif  // MEDVAULT_CORE_SCRUB_H_
