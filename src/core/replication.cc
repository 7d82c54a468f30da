#include "core/replication.h"

#include <algorithm>
#include <utility>

#include "common/coding.h"
#include "core/scrub.h"
#include "core/shard_router.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"

namespace medvault::core {

namespace {

constexpr char kCursorMagic[] = "medvault-replcur-v1";
constexpr char kBatchMagic[] = "medvault-replbatch-v1";
constexpr char kAuthInfo[] = "medvault-repl-auth";
constexpr size_t kHashSize = 32;
/// Cut boundaries remembered per file; a cursor older than the window
/// falls back to verified full-file replacement.
constexpr size_t kMaxBoundaries = 64;

}  // namespace

// ---------------------------------------------------------------------------
// Wire structures
// ---------------------------------------------------------------------------

std::string ReplicationCursor::SignedPayload() const {
  std::string out;
  PutLengthPrefixed(&out, kCursorMagic);
  PutVarint64(&out, files.size());
  for (const auto& [path, state] : files) {
    PutLengthPrefixed(&out, path);
    PutVarint64(&out, state.size);
    PutLengthPrefixed(&out, state.prefix_hash);
  }
  return out;
}

std::string ReplicationCursor::Encode() const {
  std::string out = SignedPayload();
  PutLengthPrefixed(&out, auth);
  return out;
}

Result<ReplicationCursor> ReplicationCursor::Decode(const Slice& data) {
  ReplicationCursor cur;
  Slice input = data;
  std::string magic;
  if (!GetLengthPrefixedString(&input, &magic) || magic != kCursorMagic) {
    return Status::Corruption("bad replication cursor magic");
  }
  uint64_t count = 0;
  if (!GetVarint64(&input, &count)) {
    return Status::Corruption("bad replication cursor file count");
  }
  for (uint64_t i = 0; i < count; i++) {
    std::string path;
    FileState state;
    if (!GetLengthPrefixedString(&input, &path) ||
        !GetVarint64(&input, &state.size) ||
        !GetLengthPrefixedString(&input, &state.prefix_hash) ||
        state.prefix_hash.size() != kHashSize) {
      return Status::Corruption("bad replication cursor file entry");
    }
    cur.files[path] = std::move(state);
  }
  if (!GetLengthPrefixedString(&input, &cur.auth) || !input.empty()) {
    return Status::Corruption("bad replication cursor trailer");
  }
  return cur;
}

uint64_t ReplicationCursor::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& [path, state] : files) total += state.size;
  return total;
}

std::string FileChunk::Encode() const {
  std::string out;
  out.push_back(static_cast<char>(kind));
  PutLengthPrefixed(&out, path);
  PutVarint64(&out, offset);
  PutLengthPrefixed(&out, data);
  return out;
}

Result<FileChunk> FileChunk::Decode(const Slice& data) {
  FileChunk chunk;
  Slice input = data;
  if (input.empty()) return Status::Corruption("empty file chunk");
  chunk.kind = static_cast<uint8_t>(input[0]);
  input.RemovePrefix(1);
  if (chunk.kind != kAppend && chunk.kind != kReplace &&
      chunk.kind != kRemove) {
    return Status::Corruption("unknown file chunk kind");
  }
  if (!GetLengthPrefixedString(&input, &chunk.path) ||
      !GetVarint64(&input, &chunk.offset) ||
      !GetLengthPrefixedString(&input, &chunk.data) || !input.empty()) {
    return Status::Corruption("bad file chunk encoding");
  }
  return chunk;
}

std::string ShippedBatch::SignedHeader() const {
  std::string out;
  PutLengthPrefixed(&out, kBatchMagic);
  PutVarint64(&out, seq);
  PutLengthPrefixed(&out, source_system);
  PutVarint64(&out, static_cast<uint64_t>(created_at));
  PutVarint64(&out, source_bytes);
  PutVarint64(&out, lag_at_cut);
  PutVarint64(&out, audit_size);
  PutLengthPrefixed(&out, audit_root);
  PutLengthPrefixed(&out, chunks_root);
  PutVarint64(&out, chunks.size());
  return out;
}

std::string ShippedBatch::Encode() const {
  std::string out = SignedHeader();
  PutLengthPrefixed(&out, auth);
  for (const std::string& h : leaf_hashes) PutLengthPrefixed(&out, h);
  for (const FileChunk& chunk : chunks) {
    PutLengthPrefixed(&out, chunk.Encode());
  }
  return out;
}

Result<ShippedBatch> ShippedBatch::Decode(const Slice& data) {
  ShippedBatch batch;
  Slice input = data;
  std::string magic;
  uint64_t created = 0;
  uint64_t chunk_count = 0;
  if (!GetLengthPrefixedString(&input, &magic) || magic != kBatchMagic ||
      !GetVarint64(&input, &batch.seq) ||
      !GetLengthPrefixedString(&input, &batch.source_system) ||
      !GetVarint64(&input, &created) ||
      !GetVarint64(&input, &batch.source_bytes) ||
      !GetVarint64(&input, &batch.lag_at_cut) ||
      !GetVarint64(&input, &batch.audit_size) ||
      !GetLengthPrefixedString(&input, &batch.audit_root) ||
      !GetLengthPrefixedString(&input, &batch.chunks_root) ||
      !GetVarint64(&input, &chunk_count) ||
      !GetLengthPrefixedString(&input, &batch.auth)) {
    return Status::Corruption("bad shipped batch header");
  }
  batch.created_at = static_cast<Timestamp>(created);
  for (uint64_t i = 0; i < chunk_count; i++) {
    std::string h;
    if (!GetLengthPrefixedString(&input, &h) || h.size() != kHashSize) {
      return Status::Corruption("bad shipped batch leaf hash");
    }
    batch.leaf_hashes.push_back(std::move(h));
  }
  for (uint64_t i = 0; i < chunk_count; i++) {
    Slice encoded;
    if (!GetLengthPrefixed(&input, &encoded)) {
      return Status::Corruption("bad shipped batch chunk framing");
    }
    MEDVAULT_ASSIGN_OR_RETURN(FileChunk chunk, FileChunk::Decode(encoded));
    batch.chunks.push_back(std::move(chunk));
  }
  if (!input.empty()) {
    return Status::Corruption("trailing bytes after shipped batch");
  }
  return batch;
}

uint64_t ShippedBatch::PayloadBytes() const {
  uint64_t total = 0;
  for (const FileChunk& chunk : chunks) total += chunk.data.size();
  return total;
}

std::string DeriveReplicationAuthKey(const Slice& entropy) {
  return crypto::HkdfSha256(entropy, Slice(), kAuthInfo, kHashSize)
      .ValueOr(std::string());
}

Result<ReplicationCursor> CursorForVaultDir(storage::Env* env,
                                            const std::string& dir,
                                            const Slice& auth_key) {
  ReplicationCursor cur;
  MEDVAULT_ASSIGN_OR_RETURN(std::vector<std::string> files,
                            Scrubber::ArtifactFiles(env, dir));
  for (const std::string& rel : files) {
    ReplicationCursor::FileState& state = cur.files[rel];
    crypto::Sha256 sha;
    MEDVAULT_ASSIGN_OR_RETURN(state.size,
                              storage::HashFile(env, dir + "/" + rel, &sha));
    state.prefix_hash = sha.Finish();
  }
  cur.auth = crypto::HmacSha256(auth_key, cur.SignedPayload());
  return cur;
}

// ---------------------------------------------------------------------------
// ReplicationSource
// ---------------------------------------------------------------------------

ReplicationSource::ReplicationSource(Vault* vault)
    : vault_(vault),
      auth_key_(DeriveReplicationAuthKey(vault->options().entropy)),
      metrics_(vault->metrics_registry()),
      ship_batches_(metrics_->GetCounter("repl.ship.batches")),
      ship_bytes_(metrics_->GetCounter("repl.ship.bytes")),
      ship_lag_(metrics_->GetGauge("repl.ship.lag")) {}

Result<ShippedBatch> ReplicationSource::CutBatch(
    const ReplicationCursor& cursor) {
  std::lock_guard<std::mutex> lock(mu_);
  ShippedBatch batch;
  MEDVAULT_RETURN_IF_ERROR(vault_->WithQuiescedStore(
      [&]() -> Status { return CutLocked(cursor, &batch); }));
  ship_batches_->Increment();
  ship_bytes_->Increment(batch.PayloadBytes());
  ship_lag_->Set(static_cast<int64_t>(batch.lag_at_cut));
  return batch;
}

Result<std::string> ReplicationSource::HandleCutRequest(
    const Slice& encoded_cursor) {
  auto decoded = ReplicationCursor::Decode(encoded_cursor);
  if (!decoded.ok()) {
    return Status::InvalidArgument("undecodable replication cursor: " +
                                   decoded.status().message());
  }
  // The cursor is self-authenticating: only a holder of the shared
  // replication secret can form a valid one, so the endpoint needs no
  // session state — and never leaks vault bytes to anyone else.
  std::string want =
      crypto::HmacSha256(auth_key_, decoded.value().SignedPayload());
  if (!crypto::ConstantTimeEqual(want, decoded.value().auth)) {
    return Status::PermissionDenied("replication cursor not authenticated");
  }
  MEDVAULT_ASSIGN_OR_RETURN(ShippedBatch batch, CutBatch(decoded.value()));
  return batch.Encode();
}

Status ReplicationSource::ExtendTracked(const std::string& rel,
                                        uint64_t target_size,
                                        TrackedFile* t) {
  if (t->boundaries.empty()) t->boundaries[0] = crypto::Sha256Digest(Slice());
  if (t->hashed == target_size) return Status::OK();
  MEDVAULT_RETURN_IF_ERROR(
      storage::HashFile(vault_->options().env,
                        vault_->options().dir + "/" + rel, &t->ctx, t->hashed,
                        target_size - t->hashed)
          .status());
  t->hashed = target_size;
  return Status::OK();
}

Result<std::string> ReplicationSource::ReadRange(const std::string& rel,
                                                 uint64_t offset,
                                                 uint64_t length) const {
  std::string data;
  data.reserve(length);
  MEDVAULT_RETURN_IF_ERROR(storage::StreamFile(
      vault_->options().env, vault_->options().dir + "/" + rel,
      [&](const Slice& piece) {
        data.append(piece.data(), piece.size());
        return Status::OK();
      },
      offset, length));
  return data;
}

Status ReplicationSource::CutLocked(const ReplicationCursor& cursor,
                                    ShippedBatch* out) {
  storage::Env* env = vault_->options().env;
  const std::string& dir = vault_->options().dir;

  // A rewritten file voids its running prefix hash: drop the tracked
  // state so the file re-reads below and ships as a replacement.
  uint64_t key_gen = vault_->keystore()->rewrite_generation();
  uint64_t cat_gen = vault_->versions()->catalog_rewrite_generation();
  if (key_gen != last_keystore_generation_) {
    tracked_.erase("keys.db");
    last_keystore_generation_ = key_gen;
  }
  if (cat_gen != last_catalog_generation_) {
    tracked_.erase("catalog.log");
    last_catalog_generation_ = cat_gen;
  }

  MEDVAULT_ASSIGN_OR_RETURN(std::vector<std::string> files,
                            Scrubber::ArtifactFiles(env, dir));
  uint64_t total = 0;
  for (const std::string& rel : files) {
    uint64_t size = 0;
    MEDVAULT_RETURN_IF_ERROR(env->GetFileSize(dir + "/" + rel, &size));
    total += size;

    TrackedFile& t = tracked_[rel];
    // Shrunk without a generation bump (shouldn't happen, but a stale
    // hash must never ship): start over.
    if (t.hashed > size) t = TrackedFile();
    MEDVAULT_RETURN_IF_ERROR(ExtendTracked(rel, size, &t));

    // Verify the replica's claimed prefix against a known cut boundary;
    // only a verified prefix earns an append delta.
    auto claimed = cursor.files.find(rel);
    uint64_t have = 0;
    bool verified = true;
    if (claimed != cursor.files.end()) {
      have = claimed->second.size;
      if (have == size) {
        crypto::Sha256 ctx = t.ctx;
        verified = (ctx.Finish() == claimed->second.prefix_hash);
      } else {
        auto boundary = t.boundaries.find(have);
        verified = (boundary != t.boundaries.end() &&
                    boundary->second == claimed->second.prefix_hash);
      }
    }

    if (verified) {
      if (have < size) {
        FileChunk chunk;
        chunk.kind = FileChunk::kAppend;
        chunk.path = rel;
        chunk.offset = have;
        MEDVAULT_ASSIGN_OR_RETURN(chunk.data,
                                  ReadRange(rel, have, size - have));
        out->chunks.push_back(std::move(chunk));
      } else if (claimed == cursor.files.end()) {
        // Zero-byte artifact the replica does not hold at all (a fresh
        // vault's still-empty logs): an append of nothing would never
        // materialize the file, so ship an explicit empty replacement —
        // byte equality includes file existence.
        FileChunk chunk;
        chunk.kind = FileChunk::kReplace;
        chunk.path = rel;
        out->chunks.push_back(std::move(chunk));
      }
    } else {
      // Unverifiable prefix (torn replica tail, pre-rewrite bytes, or a
      // cursor older than the boundary window): replace the file whole.
      FileChunk chunk;
      chunk.kind = FileChunk::kReplace;
      chunk.path = rel;
      MEDVAULT_ASSIGN_OR_RETURN(chunk.data, ReadRange(rel, 0, size));
      out->chunks.push_back(std::move(chunk));
    }

    // Record this cut boundary, bounding the remembered window.
    crypto::Sha256 ctx = t.ctx;
    t.boundaries[size] = ctx.Finish();
    while (t.boundaries.size() > kMaxBoundaries) {
      t.boundaries.erase(t.boundaries.begin());
    }
  }

  // Files the replica holds but the primary no longer does (segment
  // reclamation after crypto-shredding).
  for (const auto& [rel, state] : cursor.files) {
    if (!std::binary_search(files.begin(), files.end(), rel)) {
      FileChunk chunk;
      chunk.kind = FileChunk::kRemove;
      chunk.path = rel;
      out->chunks.push_back(std::move(chunk));
      tracked_.erase(rel);
    }
  }

  out->seq = next_seq_++;
  out->source_system = vault_->options().system_id;
  out->created_at = vault_->Now();
  out->source_bytes = total;
  out->lag_at_cut = out->PayloadBytes();
  out->audit_size = vault_->audit()->size();
  out->audit_root = vault_->audit()->Root();

  crypto::MerkleTree tree;
  for (const FileChunk& chunk : out->chunks) {
    out->leaf_hashes.push_back(*tree.LeafHash(tree.Append(chunk.Encode())));
  }
  out->chunks_root = tree.Root();
  out->auth = crypto::HmacSha256(auth_key_, out->SignedHeader());
  return Status::OK();
}

uint64_t ReplicationSource::batches_shipped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ - 1;
}

uint64_t ReplicationSource::bytes_shipped() const {
  return ship_bytes_->Value();
}

uint64_t ReplicationSource::last_lag_bytes() const {
  int64_t v = ship_lag_->Value();
  return v > 0 ? static_cast<uint64_t>(v) : 0;
}

// ---------------------------------------------------------------------------
// ReplicaApplier
// ---------------------------------------------------------------------------

ReplicaApplier::ReplicaApplier(Options options)
    : options_(std::move(options)),
      auth_key_(DeriveReplicationAuthKey(options_.entropy)),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : obs::MetricsRegistry::Default()),
      apply_batches_(metrics_->GetCounter("repl.apply.batches")),
      apply_bytes_(metrics_->GetCounter("repl.apply.bytes")),
      apply_refused_(metrics_->GetCounter("repl.apply.refused")),
      lag_gauge_(metrics_->GetGauge("repl.lag")),
      quarantined_gauge_(metrics_->GetGauge("repl.quarantined")) {}

Result<std::unique_ptr<ReplicaApplier>> ReplicaApplier::Open(
    const Options& options) {
  if (options.env == nullptr || options.dir.empty()) {
    return Status::InvalidArgument("replica applier needs env and dir");
  }
  if (options.entropy.empty()) {
    return Status::InvalidArgument(
        "replica applier needs the primary's entropy");
  }
  std::unique_ptr<ReplicaApplier> applier(new ReplicaApplier(options));
  MEDVAULT_RETURN_IF_ERROR(applier->Init());
  return applier;
}

Status ReplicaApplier::Init() {
  MEDVAULT_RETURN_IF_ERROR(options_.env->CreateDirIfMissing(options_.dir));
  MEDVAULT_RETURN_IF_ERROR(
      options_.env->CreateDirIfMissing(options_.dir + "/segments"));
  return ScanExisting();
}

Status ReplicaApplier::ScanExisting() {
  // The directory is the cursor: whatever a previous process (or a
  // crash) left behind is re-hashed, and the source ships from there.
  MEDVAULT_ASSIGN_OR_RETURN(
      std::vector<std::string> existing,
      Scrubber::ArtifactFiles(options_.env, options_.dir));
  for (const std::string& rel : existing) {
    MEDVAULT_RETURN_IF_ERROR(ReprobeFile(rel));
  }
  return Status::OK();
}

std::string ReplicaApplier::AbsPath(const std::string& rel) const {
  return options_.dir + "/" + rel;
}

Status ReplicaApplier::ReprobeFile(const std::string& rel) {
  files_.erase(rel);
  if (!options_.env->FileExists(AbsPath(rel))) return Status::OK();
  AppliedFile af;
  MEDVAULT_ASSIGN_OR_RETURN(af.size,
                            storage::HashFile(options_.env, AbsPath(rel),
                                              &af.ctx));
  files_[rel] = std::move(af);
  return Status::OK();
}

Result<ReplicationCursor> ReplicaApplier::Cursor() const {
  std::lock_guard<std::mutex> lock(mu_);
  ReplicationCursor cur;
  for (const auto& [rel, af] : files_) {
    ReplicationCursor::FileState state;
    state.size = af.size;
    crypto::Sha256 ctx = af.ctx;
    state.prefix_hash = ctx.Finish();
    cur.files[rel] = std::move(state);
  }
  cur.auth = crypto::HmacSha256(auth_key_, cur.SignedPayload());
  return cur;
}

Status ReplicaApplier::VerifyBatch(const ShippedBatch& batch) const {
  // 1. The header must authenticate: roots, sizes and sequence are only
  //    meaningful under the shared replication secret.
  std::string want = crypto::HmacSha256(auth_key_, batch.SignedHeader());
  if (!crypto::ConstantTimeEqual(want, batch.auth)) {
    return Status::TamperDetected(
        "shipped batch header failed authentication");
  }
  // 2. The recomputed Merkle root over the shipped leaf hashes must
  //    equal the root the primary authenticated into the header.
  if (batch.leaf_hashes.size() != batch.chunks.size()) {
    return Status::TamperDetected("shipped batch leaf/chunk count mismatch");
  }
  crypto::MerkleTree tree;
  for (const std::string& h : batch.leaf_hashes) {
    if (!tree.AppendLeafHash(h).ok()) {
      return Status::TamperDetected("shipped batch leaf hash is not 32 bytes");
    }
  }
  if (tree.Root() != batch.chunks_root) {
    return Status::TamperDetected(
        "shipped batch Merkle root mismatch: chunks do not match the root "
        "the primary authenticated");
  }
  // 3. Every chunk's bytes must hash to its shipped leaf — pinpointing
  //    exactly which chunk an adversary touched.
  for (size_t i = 0; i < batch.chunks.size(); i++) {
    if (crypto::MerkleTree::HashLeaf(batch.chunks[i].Encode()) !=
        batch.leaf_hashes[i]) {
      return Status::TamperDetected(
          "shipped chunk " + std::to_string(i) + " (" +
          batch.chunks[i].path + ") does not match its Merkle leaf");
    }
  }
  return Status::OK();
}

Status ReplicaApplier::Apply(const ShippedBatch& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (quarantined_) {
    apply_refused_->Increment();
    return Status::FailedPrecondition("replica quarantined: " +
                                      quarantine_reason_);
  }
  if (promoted_) {
    apply_refused_->Increment();
    return Status::FailedPrecondition(
        "replica was promoted; it no longer applies shipped batches");
  }

  Status verdict = VerifyBatch(batch);
  if (!verdict.ok()) {
    apply_refused_->Increment();
    QuarantineLocked(verdict.message());
    return verdict;
  }

  // Pre-check every chunk's position against the applied-offset cursor
  // BEFORE touching the disk, so a detectable inconsistency never
  // half-applies.
  for (const FileChunk& chunk : batch.chunks) {
    if (chunk.kind != FileChunk::kAppend) continue;
    auto it = files_.find(chunk.path);
    uint64_t size = (it == files_.end()) ? 0 : it->second.size;
    if (size < chunk.offset) {
      apply_refused_->Increment();
      return Status::FailedPrecondition(
          "shipped batch leaves a gap in " + chunk.path +
          ": re-cut against a fresh cursor");
    }
    if (size > chunk.offset + chunk.data.size()) {
      // The replica holds bytes the primary never shipped — divergence,
      // not lag. Serving from it could expose unverifiable records.
      apply_refused_->Increment();
      Status diverged = Status::TamperDetected(
          "replica ahead of the shipped stream for " + chunk.path +
          " — divergent replica");
      QuarantineLocked(diverged.message());
      return diverged;
    }
  }

  std::vector<std::string> touched;
  for (const FileChunk& chunk : batch.chunks) {
    Status s = ApplyChunk(chunk, &touched);
    if (!s.ok()) {
      // The applied-offset cursor must reflect the disk, never the
      // intent: drop what we believed about this file and re-read it.
      (void)ReprobeFile(chunk.path);
      return s;
    }
  }
  // Durability before acknowledgement, same as the primary's commit
  // point: the cursor only advances over synced bytes.
  for (const std::string& rel : touched) {
    auto it = files_.find(rel);
    if (it == files_.end() || it->second.writer == nullptr) continue;
    Status s = it->second.writer->Sync();
    if (!s.ok()) {
      (void)ReprobeFile(rel);
      return s;
    }
  }

  applied_batches_++;
  applied_bytes_ += batch.PayloadBytes();
  last_applied_seq_ = std::max(last_applied_seq_, batch.seq);
  last_audit_root_ = batch.audit_root;
  last_audit_size_ = batch.audit_size;
  uint64_t held = 0;
  for (const auto& [rel, af] : files_) held += af.size;
  lag_bytes_ = batch.source_bytes > held ? batch.source_bytes - held : 0;
  apply_batches_->Increment();
  apply_bytes_->Increment(batch.PayloadBytes());
  lag_gauge_->Set(static_cast<int64_t>(lag_bytes_));
  return Status::OK();
}

Status ReplicaApplier::ApplyEncoded(const Slice& encoded) {
  auto decoded = ShippedBatch::Decode(encoded);
  if (!decoded.ok()) {
    // A batch that does not even parse is torn or tampered transport —
    // the same trust posture as a failed root check.
    std::lock_guard<std::mutex> lock(mu_);
    apply_refused_->Increment();
    Status refused = Status::TamperDetected(
        "undecodable shipped batch (torn or tampered): " +
        decoded.status().message());
    QuarantineLocked(refused.message());
    return refused;
  }
  return Apply(decoded.value());
}

Status ReplicaApplier::ApplyChunk(const FileChunk& chunk,
                                  std::vector<std::string>* touched) {
  storage::Env* env = options_.env;
  switch (chunk.kind) {
    case FileChunk::kAppend: {
      AppliedFile& af = files_[chunk.path];
      // Idempotent resume: skip the prefix already on disk (a previous
      // torn apply), append only the missing suffix.
      uint64_t skip = af.size - chunk.offset;
      if (skip >= chunk.data.size()) return Status::OK();
      Slice suffix(chunk.data.data() + skip, chunk.data.size() - skip);
      if (af.writer == nullptr) {
        MEDVAULT_RETURN_IF_ERROR(
            env->NewAppendableFile(AbsPath(chunk.path), &af.writer));
      }
      Status s = af.writer->Append(suffix);
      if (!s.ok()) {
        af.writer.reset();
        return s;
      }
      af.size += suffix.size();
      af.ctx.Update(suffix);
      touched->push_back(chunk.path);
      return Status::OK();
    }
    case FileChunk::kReplace: {
      files_.erase(chunk.path);  // closes any cached writer
      const std::string tmp = AbsPath(chunk.path) + ".repltmp";
      MEDVAULT_RETURN_IF_ERROR(
          storage::WriteStringToFile(env, chunk.data, tmp, /*sync=*/true));
      MEDVAULT_RETURN_IF_ERROR(env->RenameFile(tmp, AbsPath(chunk.path)));
      AppliedFile& af = files_[chunk.path];
      af.size = chunk.data.size();
      af.ctx.Update(chunk.data);
      return Status::OK();
    }
    case FileChunk::kRemove: {
      files_.erase(chunk.path);
      Status s = env->RemoveFile(AbsPath(chunk.path));
      if (s.IsNotFound()) return Status::OK();
      return s;
    }
  }
  return Status::InvalidArgument("unknown chunk kind");
}

void ReplicaApplier::QuarantineLocked(const std::string& reason) {
  quarantined_ = true;
  quarantine_reason_ = reason;
  quarantined_gauge_->Set(1);
}

void ReplicaApplier::Quarantine(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  QuarantineLocked(reason);
}

bool ReplicaApplier::quarantined() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantined_;
}

std::string ReplicaApplier::quarantine_reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantine_reason_;
}

void ReplicaApplier::ClearQuarantine() {
  std::lock_guard<std::mutex> lock(mu_);
  quarantined_ = false;
  quarantine_reason_.clear();
  quarantined_gauge_->Set(0);
}

uint64_t ReplicaApplier::applied_batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return applied_batches_;
}

uint64_t ReplicaApplier::applied_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return applied_bytes_;
}

uint64_t ReplicaApplier::lag_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lag_bytes_;
}

uint64_t ReplicaApplier::last_applied_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_applied_seq_;
}

std::string ReplicaApplier::last_audit_root() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_audit_root_;
}

uint64_t ReplicaApplier::last_audit_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_audit_size_;
}

Result<std::unique_ptr<Vault>> ReplicaApplier::OpenReadView(
    const VaultOptions& base, const std::string& view_dir) {
  // Copy, then open the copy: Vault::Open appends recovery/audit state,
  // and read-path operations append mandatory audit events — neither
  // may diverge the byte-exact replica from the shipped stream.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (quarantined_) {
      return Status::FailedPrecondition(
          "replica quarantined, refusing to serve reads: " +
          quarantine_reason_);
    }
    MEDVAULT_RETURN_IF_ERROR(options_.env->CreateDirIfMissing(view_dir));
    for (const auto& [rel, af] : files_) {
      MEDVAULT_RETURN_IF_ERROR(storage::CopyFile(options_.env, AbsPath(rel),
                                                 options_.env,
                                                 view_dir + "/" + rel,
                                                 /*sync=*/false)
                                   .status());
    }
    view_count_++;
  }
  VaultOptions view = base;
  view.env = options_.env;
  view.dir = view_dir;
  return Vault::Open(view);
}

Result<std::unique_ptr<Vault>> ReplicaApplier::Promote(
    const VaultOptions& base) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (quarantined_) {
      return Status::FailedPrecondition(
          "quarantined replica is not eligible for promotion: " +
          quarantine_reason_);
    }
    if (files_.empty()) {
      return Status::FailedPrecondition(
          "replica holds no shipped state; nothing to promote");
    }
    // The scrub gate: a structurally damaged replica quarantines
    // instead of promoting, exactly like a bad shard.
    Timestamp now = base.clock != nullptr ? base.clock->Now() : 0;
    MEDVAULT_ASSIGN_OR_RETURN(
        ScrubReport report,
        Scrubber::ScrubVaultDir(options_.env, options_.dir, now));
    if (!report.structurally_clean()) {
      apply_refused_->Increment();
      QuarantineLocked("failed promotion scrub gate: " + report.Summary());
      return Status::FailedPrecondition(
          "replica failed promotion scrub gate: " + report.Summary());
    }
    // Hand the files over: the promoted vault owns them now.
    for (auto& [rel, af] : files_) af.writer.reset();
    promoted_ = true;
  }
  // The ordinary crash-recovery open IS the promotion: the replica holds
  // a crash-consistent prefix of the primary, so recovery reconciles it
  // like any post-crash primary (at most one kRecovery event).
  VaultOptions promo = base;
  promo.env = options_.env;
  promo.dir = options_.dir;
  return Vault::Open(promo);
}

// ---------------------------------------------------------------------------
// Sharded fan-out
// ---------------------------------------------------------------------------

ShardedReplicationSource::ShardedReplicationSource(ShardedVault* vault)
    : vault_(vault) {
  for (uint32_t k = 0; k < vault_->num_shards(); k++) {
    Vault* shard = vault_->shard(k);
    // Quarantined shards have no vault to cut from; their slot stays
    // null and CutAll skips them (the replica keeps its last state).
    sources_.push_back(shard != nullptr
                           ? std::make_unique<ReplicationSource>(shard)
                           : nullptr);
  }
}

Result<std::vector<ShippedBatch>> ShardedReplicationSource::CutAll(
    const std::vector<ReplicationCursor>& cursors) {
  if (cursors.size() != sources_.size()) {
    return Status::InvalidArgument("one cursor per shard required");
  }
  std::vector<ShippedBatch> batches(sources_.size());
  MEDVAULT_RETURN_IF_ERROR(
      vault_->pool()->RunEach(sources_.size(), [&](size_t k) -> Status {
        if (sources_[k] == nullptr) return Status::OK();
        MEDVAULT_ASSIGN_OR_RETURN(batches[k],
                                  sources_[k]->CutBatch(cursors[k]));
        return Status::OK();
      }));
  return batches;
}

Result<std::string> ShardedReplicationSource::HandleCutRequest(
    uint32_t shard, const Slice& encoded_cursor) {
  if (shard >= sources_.size()) {
    return Status::NotFound("no such shard");
  }
  if (sources_[shard] == nullptr) {
    return Status::Unavailable("shard quarantined; stream paused");
  }
  return sources_[shard]->HandleCutRequest(encoded_cursor);
}

uint64_t ShardedReplicationSource::batches_shipped() const {
  uint64_t total = 0;
  for (const auto& s : sources_) {
    if (s != nullptr) total += s->batches_shipped();
  }
  return total;
}

uint64_t ShardedReplicationSource::bytes_shipped() const {
  uint64_t total = 0;
  for (const auto& s : sources_) {
    if (s != nullptr) total += s->bytes_shipped();
  }
  return total;
}

uint64_t ShardedReplicationSource::lag_bytes() const {
  uint64_t total = 0;
  for (const auto& s : sources_) {
    if (s != nullptr) total += s->last_lag_bytes();
  }
  return total;
}

ShardedReplicaApplier::ShardedReplicaApplier(Options options)
    : options_(std::move(options)) {}

Result<std::unique_ptr<ShardedReplicaApplier>> ShardedReplicaApplier::Open(
    const Options& options) {
  if (options.env == nullptr || options.dir.empty() ||
      options.entropy.empty() || options.num_shards == 0) {
    return Status::InvalidArgument(
        "sharded replica applier needs env, dir, entropy and a shard count");
  }
  std::unique_ptr<ShardedReplicaApplier> applier(
      new ShardedReplicaApplier(options));
  // The shard count is on-disk identity for the replica exactly as for
  // the primary: persist it on first open, refuse a mismatch after.
  MEDVAULT_RETURN_IF_ERROR(ShardRouter::CheckOrCreateManifest(
      options.env, options.dir, options.num_shards));
  for (uint32_t k = 0; k < options.num_shards; k++) {
    // The same per-shard entropy the primary derives, so each shard
    // stream authenticates under its own key.
    ReplicaApplier::Options shard_options;
    MEDVAULT_ASSIGN_OR_RETURN(shard_options.entropy,
                              ShardRouter::ShardEntropy(options.entropy, k));
    shard_options.env = options.env;
    shard_options.dir = ShardRouter::ShardDir(options.dir, k);
    shard_options.metrics = options.metrics;
    MEDVAULT_ASSIGN_OR_RETURN(std::unique_ptr<ReplicaApplier> shard,
                              ReplicaApplier::Open(shard_options));
    applier->appliers_.push_back(std::move(shard));
  }
  applier->pool_ =
      WorkerPool::ForFanOut(options.apply_threads, options.num_shards);
  return applier;
}

Result<std::vector<ReplicationCursor>> ShardedReplicaApplier::Cursors()
    const {
  std::vector<ReplicationCursor> cursors;
  for (const auto& applier : appliers_) {
    MEDVAULT_ASSIGN_OR_RETURN(ReplicationCursor cur, applier->Cursor());
    cursors.push_back(std::move(cur));
  }
  return cursors;
}

Status ShardedReplicaApplier::ApplyAll(
    const std::vector<ShippedBatch>& batches) {
  if (batches.size() != appliers_.size()) {
    return Status::InvalidArgument("one batch per shard required");
  }
  return pool_->RunEach(appliers_.size(), [&](size_t k) {
    // seq 0 marks a skipped (quarantined-at-source) shard slot.
    if (batches[k].seq == 0) return Status::OK();
    return appliers_[k]->Apply(batches[k]);
  });
}

bool ShardedReplicaApplier::any_quarantined() const {
  return quarantined_shards() > 0;
}

uint32_t ShardedReplicaApplier::quarantined_shards() const {
  uint32_t count = 0;
  for (const auto& applier : appliers_) {
    if (applier->quarantined()) count++;
  }
  return count;
}

uint64_t ShardedReplicaApplier::lag_bytes() const {
  uint64_t total = 0;
  for (const auto& applier : appliers_) total += applier->lag_bytes();
  return total;
}

uint64_t ShardedReplicaApplier::applied_batches() const {
  uint64_t total = 0;
  for (const auto& applier : appliers_) total += applier->applied_batches();
  return total;
}

Result<std::unique_ptr<ShardedVault>> ShardedReplicaApplier::Promote(
    const ShardedVaultOptions& base) {
  // Per-shard scrub gate first: a structurally damaged shard replica
  // quarantines here AND under the degraded open below, so promotion
  // proceeds with the healthy shards — the same availability posture
  // as a degraded primary open.
  for (uint32_t k = 0; k < appliers_.size(); k++) {
    ReplicaApplier* applier = appliers_[k].get();
    if (applier->quarantined()) continue;  // already sidelined
    Timestamp now = base.clock != nullptr ? base.clock->Now() : 0;
    auto report =
        Scrubber::ScrubVaultDir(options_.env, applier->dir(), now);
    if (report.ok() && !report.value().structurally_clean()) {
      applier->Quarantine("failed promotion scrub gate: " +
                          report.value().Summary());
    }
  }
  ShardedVaultOptions promo = base;
  promo.env = options_.env;
  promo.dir = options_.dir;
  promo.num_shards = options_.num_shards;
  promo.open_mode = OpenMode::kDegraded;
  return ShardedVault::Open(promo);
}

}  // namespace medvault::core
