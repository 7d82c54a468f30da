#include "core/shard_router.h"

#include <charconv>
#include <string_view>

#include "crypto/hkdf.h"

namespace medvault::core {

namespace {

constexpr char kManifestName[] = "/shards.meta";
constexpr char kManifestMagic[] = "medvault-shards v1\n";

/// The one parser of shard-qualified ids: "s<digits><spine>...". On a
/// match stores the digits in `*shard` and returns the offset just past
/// the spine; returns 0 otherwise. Demanding the spine keeps arbitrary
/// "s..." strings and the unsharded spellings ("r-<n>", "cg-<n>") from
/// being misrouted.
size_t ParseShardQualified(std::string_view id, std::string_view spine,
                           uint32_t* shard) {
  if (id.empty() || id[0] != 's') return 0;
  const char* first = id.data() + 1;
  const char* last = id.data() + id.size();
  uint32_t k = 0;
  auto [ptr, ec] = std::from_chars(first, last, k, 10);
  if (ec != std::errc() || ptr == first) return 0;
  if (std::string_view(ptr, last - ptr).substr(0, spine.size()) != spine) {
    return 0;
  }
  *shard = k;
  return static_cast<size_t>(ptr - id.data()) + spine.size();
}

std::string ShardQualified(uint32_t shard, const char* suffix) {
  std::string id = "s";
  id += std::to_string(shard);
  id += suffix;
  return id;
}

/// Every per-shard secret is HKDF-SHA256 of a root secret under
/// "medvault-shard-<kind>-<k>". The labels are on-disk identity: a
/// different label derives different keys and orphans existing vaults.
Result<std::string> DeriveShardSecret(const Slice& root, const char* kind,
                                      uint32_t shard, size_t length) {
  return crypto::HkdfSha256(
      root, Slice(),
      std::string("medvault-shard-") + kind + "-" + std::to_string(shard),
      length);
}

Status WriteManifest(storage::Env* env, const std::string& root,
                     uint32_t num_shards) {
  std::string contents = kManifestMagic;
  contents += "count=" + std::to_string(num_shards) + "\n";
  // Write-new-then-rename: a power cut during the write leaves at worst
  // a torn .tmp that no reader ever opens — the manifest itself is
  // either absent (rewritten on next open) or complete. A torn manifest
  // must never wedge the vault.
  const std::string path = root + kManifestName;
  const std::string tmp = path + ".tmp";
  MEDVAULT_RETURN_IF_ERROR(
      storage::WriteStringToFile(env, contents, tmp, /*sync=*/true));
  return env->RenameFile(tmp, path);
}

/// The persisted shard count; NotFound if no manifest exists.
Result<uint32_t> ReadManifest(storage::Env* env, const std::string& root) {
  const std::string path = root + kManifestName;
  if (!env->FileExists(path)) {
    return Status::NotFound("no shard manifest at " + path);
  }
  std::string contents;
  MEDVAULT_RETURN_IF_ERROR(storage::ReadFileToString(env, path, &contents));
  const std::string magic = kManifestMagic;
  if (contents.compare(0, magic.size(), magic) != 0) {
    return Status::Corruption("bad shard manifest magic in " + path);
  }
  const std::string key = "count=";
  size_t pos = contents.find(key, magic.size());
  if (pos == std::string::npos) {
    return Status::Corruption("shard manifest missing count in " + path);
  }
  const char* first = contents.data() + pos + key.size();
  const char* last = contents.data() + contents.size();
  uint32_t count = 0;
  auto [ptr, ec] = std::from_chars(first, last, count, 10);
  if (ec != std::errc() || ptr == first || count == 0) {
    return Status::Corruption("malformed shard count in " + path);
  }
  return count;
}

}  // namespace

uint64_t ShardRouter::Fingerprint(const std::string& id) {
  // FNV-1a, 64-bit: offset basis / prime per the published spec.
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : id) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string ShardRouter::ShardDir(const std::string& root, uint32_t shard) {
  return root + "/shard-" + std::to_string(shard);
}

std::string ShardRouter::RecordIdPrefix(uint32_t shard) {
  return ShardQualified(shard, "-r");
}

bool ShardRouter::ShardOfRecordId(const RecordId& record_id,
                                  uint32_t* shard) {
  return ParseShardQualified(record_id, "-r-", shard) != 0;
}

std::string ShardRouter::ConsentIdPrefix(uint32_t shard) {
  return ShardQualified(shard, "-cg");
}

bool ShardRouter::ShardOfConsentId(const std::string& grant_id,
                                   uint32_t* shard) {
  return ParseShardQualified(grant_id, "-cg-", shard) != 0;
}

std::string ShardRouter::QualifyDisposalRequest(uint32_t shard,
                                                const std::string& request_id) {
  return ShardQualified(shard, ":") + request_id;
}

bool ShardRouter::ShardOfDisposalRequest(const std::string& qualified,
                                         uint32_t* shard,
                                         std::string* local_id) {
  // The spine's "dr-" belongs to the shard-local id, so keep it.
  const size_t end = ParseShardQualified(qualified, ":dr-", shard);
  if (end == 0) return false;
  *local_id = qualified.substr(end - 3);
  return true;
}

Result<std::string> ShardRouter::ShardMasterKey(const Slice& master_key,
                                                uint32_t shard) {
  return DeriveShardSecret(master_key, "master", shard, 32);
}

Result<std::string> ShardRouter::ShardEntropy(const Slice& entropy,
                                              uint32_t shard) {
  return DeriveShardSecret(entropy, "entropy", shard, 64);
}

Status ShardRouter::CheckOrCreateManifest(storage::Env* env,
                                          const std::string& root,
                                          uint32_t num_shards) {
  MEDVAULT_RETURN_IF_ERROR(env->CreateDirIfMissing(root));
  // The shard count is part of the vault's identity: both the placement
  // hash and the id prefixes bake it in.
  Result<uint32_t> persisted = ReadManifest(env, root);
  if (persisted.status().IsNotFound()) {
    return WriteManifest(env, root, num_shards);
  }
  MEDVAULT_RETURN_IF_ERROR(persisted.status());
  if (*persisted != num_shards) {
    return Status::InvalidArgument(
        "shard-count mismatch: vault at '" + root + "' was created with " +
        std::to_string(*persisted) + " shards but open requested " +
        std::to_string(num_shards) +
        "; resharding requires migration, not reopening");
  }
  return Status::OK();
}

}  // namespace medvault::core
