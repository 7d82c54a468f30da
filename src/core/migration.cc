#include "core/migration.h"

#include "common/coding.h"
#include "common/hex.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"

namespace medvault::core {

std::string MigrationReceipt::SignedPayload() const {
  std::string out = "medvault-migration-v1";
  PutLengthPrefixed(&out, source_system);
  PutLengthPrefixed(&out, target_system);
  PutVarint64(&out, record_count);
  PutVarint64(&out, version_count);
  PutLengthPrefixed(&out, content_root);
  PutFixed64(&out, static_cast<uint64_t>(completed_at));
  return out;
}

std::string MigrationReceipt::Encode() const {
  std::string out = SignedPayload();
  PutLengthPrefixed(&out, source_signature);
  PutLengthPrefixed(&out, target_signature);
  return out;
}

Result<MigrationReceipt> MigrationReceipt::Decode(const Slice& data) {
  Slice in = data;
  MigrationReceipt r;
  uint64_t ts = 0;
  std::string magic(21, '\0');
  if (in.size() < 21) return Status::Corruption("malformed receipt");
  magic.assign(in.data(), 21);
  in.RemovePrefix(21);
  if (magic != "medvault-migration-v1") {
    return Status::Corruption("bad receipt magic");
  }
  if (!GetLengthPrefixedString(&in, &r.source_system) ||
      !GetLengthPrefixedString(&in, &r.target_system) ||
      !GetVarint64(&in, &r.record_count) ||
      !GetVarint64(&in, &r.version_count) ||
      !GetLengthPrefixedString(&in, &r.content_root) ||
      !GetFixed64(&in, &ts) ||
      !GetLengthPrefixedString(&in, &r.source_signature) ||
      !GetLengthPrefixedString(&in, &r.target_signature) || !in.empty()) {
    return Status::Corruption("malformed receipt");
  }
  r.completed_at = static_cast<Timestamp>(ts);
  return r;
}

Result<MigrationReceipt> Migrator::Migrate(Vault* source, Vault* target,
                                           const PrincipalId& actor) {
  // Timed against the source's registry: migration drains the source,
  // so that is where an operator watching op latency will look.
  obs::ScopedOpTimer timer(
      source->metrics_registry(),
      source->metrics_registry()->GetHistogram("vault.migrate"),
      "vault.migrate");
  // Both sides must authorize the movement.
  MEDVAULT_RETURN_IF_ERROR(source->CheckAccess(actor, Operation::kMigrate));
  MEDVAULT_RETURN_IF_ERROR(target->CheckAccess(actor, Operation::kMigrate));

  Timestamp now = source->Now();
  crypto::MerkleTree source_tree;
  crypto::MerkleTree target_tree;
  uint64_t version_count = 0;

  std::vector<RecordId> record_ids = source->ListRecordIds();
  for (const RecordId& record_id : record_ids) {
    MEDVAULT_ASSIGN_OR_RETURN(RecordMeta meta,
                              source->GetRecordMeta(record_id));

    // 1. Key custody transfer (tombstones carry over for shredded keys).
    auto key = source->keystore()->GetKey(record_id);
    if (key.ok()) {
      MEDVAULT_RETURN_IF_ERROR(
          target->keystore()->ImportKey(record_id, *key, false));
    } else if (key.status().IsKeyDestroyed()) {
      MEDVAULT_RETURN_IF_ERROR(
          target->keystore()->ImportKey(record_id, Slice(), true));
    } else {
      return key.status();
    }

    // 2. Exact copy of every (still-encrypted) version entry. Records
    // whose media was reclaimed after crypto-shredding have no bytes to
    // copy: only their metadata and custody chain move. The source
    // contributes its catalog hash; the target re-hashes the bytes it
    // actually stored — the Merkle roots only match if every byte made
    // it across intact.
    const bool reclaimed = source->versions()->IsReclaimed(record_id);
    if (!reclaimed) {
      MEDVAULT_RETURN_IF_ERROR(source->versions()->ForEachRawVersion(
          record_id,
          [&](uint32_t version, const Slice& raw_entry,
              const std::string& entry_hash) -> Status {
            source_tree.Append(entry_hash);
            MEDVAULT_RETURN_IF_ERROR(
                target->versions()->ImportRawVersion(record_id, raw_entry));
            version_count++;
            return Status::OK();
          }));
      MEDVAULT_RETURN_IF_ERROR(target->versions()->ForEachRawVersion(
          record_id,
          [&](uint32_t version, const Slice& raw_entry,
              const std::string& entry_hash) -> Status {
            target_tree.Append(crypto::Sha256Digest(raw_entry));
            return Status::OK();
          }));
    }

    // 3. Chain of custody moves with the record. The hand-off event is
    // recorded at the source *first* so it travels inside the exported
    // chain; the target then appends its matching migrated-in event.
    MEDVAULT_RETURN_IF_ERROR(
        source->provenance()
            ->RecordEvent(record_id, CustodyEventType::kMigratedOut, actor,
                          "to=" + target->options().system_id, now)
            .status());
    MEDVAULT_ASSIGN_OR_RETURN(std::string chain,
                              source->provenance()->ExportChain(record_id));
    MEDVAULT_RETURN_IF_ERROR(
        target->provenance()->ImportChain(record_id, chain));
    MEDVAULT_RETURN_IF_ERROR(
        target->provenance()
            ->RecordEvent(record_id, CustodyEventType::kMigratedIn, actor,
                          "from=" + source->options().system_id,
                          target->Now())
            .status());

    // 4. Metadata (retention clock continues unchanged).
    MEDVAULT_RETURN_IF_ERROR(target->PutRecordMeta(meta));
  }

  // 5. Cryptographic copy verification.
  std::string source_root = source_tree.Root();
  std::string target_root = target_tree.Root();
  if (!crypto::ConstantTimeEqual(source_root, target_root)) {
    return Status::TamperDetected(
        "migration verification failed: content roots differ");
  }

  // 6. Dual-signed receipt.
  MigrationReceipt receipt;
  receipt.source_system = source->options().system_id;
  receipt.target_system = target->options().system_id;
  receipt.record_count = record_ids.size();
  receipt.version_count = version_count;
  receipt.content_root = source_root;
  receipt.completed_at = now;
  MEDVAULT_ASSIGN_OR_RETURN(receipt.source_signature,
                            source->SignStatement(receipt.SignedPayload()));
  MEDVAULT_ASSIGN_OR_RETURN(receipt.target_signature,
                            target->SignStatement(receipt.SignedPayload()));

  std::string detail =
      "records=" + std::to_string(receipt.record_count) +
      " versions=" + std::to_string(receipt.version_count) + " root=" +
      HexEncode(Slice(source_root.data(), 8));
  MEDVAULT_RETURN_IF_ERROR(source->Audit(actor, AuditAction::kMigrateOut,
                                         "", detail));
  MEDVAULT_RETURN_IF_ERROR(
      target->Audit(actor, AuditAction::kMigrateIn, "", detail));
  return receipt;
}

Status Migrator::VerifyReceipt(const MigrationReceipt& receipt,
                               Vault* source, Vault* target) {
  MEDVAULT_ASSIGN_OR_RETURN(
      crypto::XmssSignature source_sig,
      crypto::XmssSignature::Decode(receipt.source_signature));
  MEDVAULT_RETURN_IF_ERROR(crypto::XmssSigner::Verify(
      receipt.SignedPayload(), source_sig, source->SignerPublicKey(),
      source->SignerPublicSeed(), source->SignerHeight()));
  MEDVAULT_ASSIGN_OR_RETURN(
      crypto::XmssSignature target_sig,
      crypto::XmssSignature::Decode(receipt.target_signature));
  MEDVAULT_RETURN_IF_ERROR(crypto::XmssSigner::Verify(
      receipt.SignedPayload(), target_sig, target->SignerPublicKey(),
      target->SignerPublicSeed(), target->SignerHeight()));

  // The target must still hold exactly what was signed for. Records
  // migrated as reclaimed tombstones contributed nothing to the signed
  // root and hold no versions here; skip them. (Removing a record that
  // WAS included still changes the recomputed root — caught below.)
  crypto::MerkleTree tree;
  for (const RecordId& record_id : target->ListRecordIds()) {
    if (!target->versions()->LatestVersion(record_id).ok()) continue;
    MEDVAULT_RETURN_IF_ERROR(target->versions()->ForEachRawVersion(
        record_id,
        [&](uint32_t version, const Slice& raw_entry,
            const std::string& entry_hash) -> Status {
          tree.Append(crypto::Sha256Digest(raw_entry));
          return Status::OK();
        }));
  }
  if (!crypto::ConstantTimeEqual(tree.Root(), receipt.content_root)) {
    return Status::TamperDetected(
        "target content no longer matches migration receipt");
  }
  return Status::OK();
}

Result<std::vector<MigrationReceipt>> Migrator::MigrateSharded(
    ShardedVault* source, ShardedVault* target, const PrincipalId& actor) {
  if (source->num_shards() != target->num_shards()) {
    return Status::InvalidArgument(
        "sharded migration requires equal shard counts (source has " +
        std::to_string(source->num_shards()) + ", target has " +
        std::to_string(target->num_shards()) +
        "); reshard via a dedicated re-placement migration instead");
  }
  std::vector<MigrationReceipt> receipts;
  receipts.reserve(source->num_shards());
  for (uint32_t k = 0; k < source->num_shards(); ++k) {
    MEDVAULT_ASSIGN_OR_RETURN(
        MigrationReceipt receipt,
        Migrate(source->shard(k), target->shard(k), actor));
    receipts.push_back(std::move(receipt));
  }
  return receipts;
}

}  // namespace medvault::core
