#ifndef MEDVAULT_SIM_ADVERSARY_H_
#define MEDVAULT_SIM_ADVERSARY_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "storage/env.h"

namespace medvault::sim {

/// The paper's adversary (§3/§4): a *malicious insider with direct disk
/// access*. They bypass every software API and mutate raw bytes through
/// Env::UnsafeOverwrite / UnsafeTruncate — exactly what a rogue DBA or
/// storage admin can do. The tamper-detection experiments measure which
/// storage models notice.
class InsiderAdversary {
 public:
  InsiderAdversary(storage::Env* env, uint64_t seed)
      : env_(env), rng_(seed) {}

  InsiderAdversary(const InsiderAdversary&) = delete;
  InsiderAdversary& operator=(const InsiderAdversary&) = delete;

  /// Flips `count` random bytes spread over the given files
  /// (skips zero-length files). Returns how many flips were applied.
  Result<int> TamperRandomBytes(const std::vector<std::string>& files,
                                int count);

  /// Cuts the last `bytes` off a file (log-truncation attack).
  Status Truncate(const std::string& file, uint64_t bytes);

  /// A *sophisticated* insider: rewrites the payload byte at `offset`
  /// inside the segment-store entry frame starting at `frame_offset` in
  /// `file`, then recomputes the frame's CRC32C so checksum-only
  /// defenses pass. Models an attacker who knows the on-disk format.
  Status SmartTamperSegmentEntry(const std::string& file,
                                 uint64_t frame_offset,
                                 uint64_t payload_byte, char new_value);

  /// Scans raw file bytes for a plaintext keyword — the "mere existence
  /// of a word in a document can leak information" attack (§3). Returns
  /// true if the keyword is visible anywhere.
  Result<bool> ScanForKeyword(const std::vector<std::string>& files,
                              const std::string& keyword);

 private:
  storage::Env* env_;
  Random rng_;
};

}  // namespace medvault::sim

#endif  // MEDVAULT_SIM_ADVERSARY_H_
