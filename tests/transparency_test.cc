// Audit-transparency tests: the machinery that lets parties OUTSIDE
// the vault's trust boundary hold it honest. The stale-root proof
// contract (a proof for an old event must verify against the
// checkpoint the verifier actually pinned, not whatever the tree grew
// to since), witnessed checkpoints with sticky tamper evidence on
// forks, forged-proof rejection, the O(per-patient) disclosure
// accounting checked against a brute-force full-log-scan oracle, and
// the public /v1/transparency/* endpoints verified end to end over
// HTTP with nothing but the JSON responses.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hex.h"
#include "core/sharded_vault.h"
#include "core/transparency.h"
#include "crypto/hkdf.h"
#include "crypto/merkle.h"
#include "crypto/xmss.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "server/http_client.h"
#include "server/server.h"
#include "storage/mem_env.h"

namespace medvault::core {
namespace {

using obs::json::Value;
using server::ClientResponse;
using server::HttpClient;
using server::MedVaultServer;
using server::ServerOptions;

constexpr char kSecret[] = "transparency-test-secret";

/// Every event of `log`, read back from disk.
std::vector<AuditEvent> AllEvents(const AuditLog& log) {
  std::vector<AuditEvent> out;
  Status s = log.ForEachEvent(0, log.size(), [&](const AuditEvent& e) {
    out.push_back(e);
    return Status::OK();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

class TransparencyTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (server_) server_->Stop();
    server_.reset();
    service_.reset();
    vault_.reset();
  }

  ShardedVaultOptions VaultOpts(uint32_t shards) {
    ShardedVaultOptions options;
    options.env = &env_;
    options.dir = "transparent";
    options.clock = &clock_;
    options.master_key = std::string(32, 'T');
    options.entropy = "transparency-test-entropy";
    options.num_shards = shards;
    options.signer_height = 8;
    options.metrics = &registry_;
    return options;
  }

  void OpenVault(uint32_t shards = 1) {
    auto opened = ShardedVault::Open(VaultOpts(shards));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    vault_ = std::move(*opened);
    num_shards_ = shards;
  }

  void Bootstrap() {
    auto ok = [](const Status& s) { ASSERT_TRUE(s.ok()) << s.ToString(); };
    ok(vault_->RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"}));
    ok(vault_->RegisterPrincipal("admin", {"dr", Role::kPhysician, "D"}));
    ok(vault_->RegisterPrincipal("admin", {"dr2", Role::kPhysician, "E"}));
    ok(vault_->RegisterPrincipal("admin", {"aud", Role::kAuditor, "X"}));
    ok(vault_->RegisterPrincipal("admin", {"pat", Role::kPatient, "P"}));
    ok(vault_->RegisterPrincipal("admin", {"lone", Role::kPatient, "L"}));
    ok(vault_->AssignCare("admin", "dr", "pat"));
    ok(vault_->AssignCare("admin", "dr2", "lone"));
  }

  void MakeService(uint64_t interval = 4) {
    ShardedTransparencyService::Options options;
    options.checkpoint_interval = interval;
    options.witness_height = 6;
    service_ =
        std::make_unique<ShardedTransparencyService>(vault_.get(), options);
  }

  RecordId Create(const std::string& patient, const std::string& text) {
    auto id = vault_->CreateRecord("dr", patient, "text/plain", text, {},
                                   "hipaa-6y");
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() ? *id : "";
  }

  /// (shard, seq) of the first event matching action+record — lets
  /// tests aim proof requests without assuming the shard layout.
  std::pair<uint32_t, uint64_t> FindEvent(AuditAction action,
                                          const RecordId& record_id) {
    for (uint32_t k = 0; k < num_shards_; ++k) {
      Vault* shard = vault_->shard(k);
      if (shard == nullptr) continue;
      for (const AuditEvent& e : AllEvents(*shard->audit())) {
        if (e.action == action && e.record_id == record_id) return {k, e.seq};
      }
    }
    ADD_FAILURE() << "no event for record " << record_id;
    return {0, 0};
  }

  /// The witness AddWitness should build for shard `k`, made by hand
  /// from the per-shard HKDF labels at MakeService's witness height.
  std::unique_ptr<Witness> HandBuiltWitness(uint32_t k, const std::string& id,
                                            const std::string& secret_seed,
                                            const std::string& public_seed) {
    const std::string shard = std::to_string(k);
    Witness::Options wopts;
    wopts.id = id;
    wopts.secret_seed = *crypto::HkdfSha256(
        secret_seed, Slice(), "witness-" + id + "-secret-" + shard, 32);
    wopts.public_seed = *crypto::HkdfSha256(
        public_seed, Slice(), "witness-" + id + "-public-" + shard, 32);
    wopts.height = 6;
    Vault* log = vault_->shard(k);
    return std::make_unique<Witness>(
        wopts, LogIdentity{log->SignerPublicKey(), log->SignerPublicSeed(),
                           log->SignerHeight()});
  }

  /// Publishes on every healthy shard and checks that shard k's only
  /// cosignature verifies under HandBuiltWitness(k) and under no other
  /// shard's key.
  void ExpectCosignedByHandBuiltKeys(const std::string& id,
                                     const std::string& secret_seed,
                                     const std::string& public_seed) {
    ASSERT_TRUE(service_->PublishAll().ok());
    for (uint32_t k = 0; k < num_shards_; ++k) {
      if (vault_->shard(k) == nullptr) continue;
      auto cosigned = service_->LatestCosigned(k);
      ASSERT_TRUE(cosigned.ok()) << cosigned.status().ToString();
      ASSERT_EQ(cosigned->cosignatures.size(), 1u) << "shard " << k;
      for (uint32_t j = 0; j < num_shards_; ++j) {
        if (vault_->shard(j) == nullptr) continue;
        auto key = HandBuiltWitness(j, id, secret_seed, public_seed);
        EXPECT_EQ(Witness::VerifyCosignature(
                      cosigned->checkpoint, cosigned->cosignatures[0],
                      key->public_key(), key->public_seed(), key->height())
                      .ok(),
                  j == k)
            << "cosignature of shard " << k << " under key of shard " << j;
      }
    }
  }

  // ---- HTTP plumbing (mirrors server_test) ---------------------------

  void StartServer() {
    ServerOptions options;
    options.port = 0;
    options.worker_threads = 3;
    options.api_secret = kSecret;
    options.session_entropy = "transparency-session-entropy";
    options.clock = &clock_;
    options.transparency = service_.get();
    auto started = MedVaultServer::Start(vault_.get(), options);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    server_ = std::move(*started);
  }

  static Value Parsed(const ClientResponse& response) {
    auto v = Value::Parse(response.body);
    EXPECT_TRUE(v.ok()) << response.body;
    return v.ok() ? *v : Value();
  }

  std::string Login(HttpClient* client, const std::string& principal) {
    Value::Object o;
    o["principal"] = Value(principal);
    o["secret"] = Value(std::string(kSecret));
    auto r = client->Do("POST", "/v1/login", Value(std::move(o)).Dump());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return "";
    EXPECT_EQ(r->status, 200) << r->body;
    Value v = Parsed(*r);
    return v.is_object() ? v.as_object().at("token").as_string() : "";
  }

  HttpClient MakeClient() {
    HttpClient client;
    EXPECT_TRUE(client.Connect(server_->port()).ok());
    return client;
  }

  static std::string Unhex(const Value& v) {
    auto bytes = HexDecode(v.as_string());
    EXPECT_TRUE(bytes.ok()) << v.as_string();
    return bytes.ok() ? *bytes : "";
  }

  /// Rebuilds a core EventProof from a /v1/transparency/proof response
  /// — the client-side half of the protocol, using only the JSON.
  static EventProof ProofFromJson(const Value::Object& o) {
    EventProof proof;
    proof.tree_size = o.at("tree_size").as_uint();
    for (const Value& node : o.at("path").as_array()) {
      proof.path.push_back(Unhex(node));
    }
    const Value::Object& e = o.at("event").as_object();
    proof.event.seq = e.at("seq").as_uint();
    proof.event.timestamp = e.at("timestamp").as_int();
    proof.event.actor = e.at("actor").as_string();
    proof.event.record_id = e.at("record_id").as_string();
    proof.event.details = e.at("details").as_string();
    proof.event.prev_hash = Unhex(e.at("prev_hash"));
    const std::string action = e.at("action").as_string();
    bool mapped = false;
    for (int a = 1; a <= 15; ++a) {
      if (AuditActionName(static_cast<AuditAction>(a)) == action) {
        proof.event.action = static_cast<AuditAction>(a);
        mapped = true;
        break;
      }
    }
    EXPECT_TRUE(mapped) << "unknown action name " << action;
    return proof;
  }

  storage::MemEnv env_;
  ManualClock clock_{1000000};
  obs::MetricsRegistry registry_;
  std::unique_ptr<ShardedVault> vault_;
  std::unique_ptr<ShardedTransparencyService> service_;
  std::unique_ptr<MedVaultServer> server_;
  uint32_t num_shards_ = 1;
};

// ---- The stale-root proof contract (the headline bugfix) -----------------
//
// Regression: ProveEvent used to prove only against the CURRENT tree
// head, so a verifier who pinned a published checkpoint and came back
// after the log grew could never verify anything — the proof's root no
// longer matched the signed root they held. ProveEventAt(seq, n) must
// produce a proof for any event under ANY published size n > seq.
TEST_F(TransparencyTest, ProofVerifiesAgainstPinnedStaleCheckpoint) {
  OpenVault(1);
  Bootstrap();
  MakeService();

  RecordId early = Create("pat", "episode-1");
  auto pinned = service_->LatestCosigned(0);
  ASSERT_FALSE(pinned.ok());  // nothing published yet
  auto published = service_->log(0);
  ASSERT_TRUE(published.ok());
  auto cp1 = (*published)->PublishCheckpoint();
  ASSERT_TRUE(cp1.ok()) << cp1.status().ToString();
  const SignedCheckpoint pin = cp1->checkpoint;
  ASSERT_GT(pin.tree_size, 0u);

  // The log grows well past the pinned checkpoint.
  for (int i = 0; i < 6; ++i) Create("pat", "episode-" + std::to_string(i));
  auto cp2 = (*published)->PublishCheckpoint();
  ASSERT_TRUE(cp2.ok());
  const SignedCheckpoint head = cp2->checkpoint;
  ASSERT_GT(head.tree_size, pin.tree_size);

  auto [shard, seq] = FindEvent(AuditAction::kCreate, early);
  ASSERT_LT(seq, pin.tree_size);

  // Old event, old pinned root: must verify.
  auto stale = service_->ProveEventAt(shard, seq, pin.tree_size);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_EQ(stale->tree_size, pin.tree_size);
  EXPECT_TRUE(AuditLog::VerifyEventProof(*stale, pin.root).ok());

  // Same event under the newer checkpoint: also fine.
  auto fresh = service_->ProveEventAt(shard, seq, head.tree_size);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(AuditLog::VerifyEventProof(*fresh, head.root).ok());

  // The bug being regressed: a head proof does NOT verify against the
  // pinned root (and the stale proof does not verify against head).
  EXPECT_FALSE(AuditLog::VerifyEventProof(*fresh, pin.root).ok());
  EXPECT_FALSE(AuditLog::VerifyEventProof(*stale, head.root).ok());

  // Consistency proof links the two published checkpoints.
  auto link = service_->ConsistencyBetween(0, pin.tree_size, head.tree_size);
  ASSERT_TRUE(link.ok()) << link.status().ToString();
  EXPECT_TRUE(crypto::MerkleTree::VerifyConsistency(
                  pin.tree_size, pin.root, head.tree_size, head.root,
                  link->proof)
                  .ok());

  // Contract edges: unpublished size, unknown seq, event newer than
  // the checkpoint — distinct, deterministic errors (the HTTP layer
  // maps them to 404/404/400, never 500).
  EXPECT_TRUE(
      service_->ProveEventAt(0, seq, pin.tree_size + 1).status().IsNotFound());
  EXPECT_TRUE(service_->ProveEventAt(0, 1u << 20, head.tree_size)
                  .status()
                  .IsNotFound());
  uint64_t late_seq = head.tree_size - 1;
  if (late_seq >= pin.tree_size) {
    EXPECT_TRUE(service_->ProveEventAt(0, late_seq, pin.tree_size)
                    .status()
                    .IsInvalidArgument());
  }
}

// ---- Witnessed checkpoints -----------------------------------------------

TEST_F(TransparencyTest, WitnessCosignsAndCosignatureVerifies) {
  OpenVault(1);
  Bootstrap();
  MakeService();
  ASSERT_TRUE(service_
                  ->AddWitness("w1", std::string(32, 'a'),
                               std::string(32, 'b'))
                  .ok());
  Create("pat", "note");
  ASSERT_TRUE(service_->PublishAll().ok());
  auto cosigned = service_->LatestCosigned(0);
  ASSERT_TRUE(cosigned.ok()) << cosigned.status().ToString();
  ASSERT_EQ(cosigned->cosignatures.size(), 1u);
  EXPECT_EQ(cosigned->cosignatures[0].witness_id, "w1");

  // Growth: the witness verifies consistency from its last-seen
  // checkpoint before countersigning again.
  for (int i = 0; i < 5; ++i) Create("pat", "note-" + std::to_string(i));
  ASSERT_TRUE(service_->PublishAll().ok());
  auto later = service_->LatestCosigned(0);
  ASSERT_TRUE(later.ok());
  ASSERT_EQ(later->cosignatures.size(), 1u);
  EXPECT_GT(later->checkpoint.tree_size, cosigned->checkpoint.tree_size);

  auto stats = service_->CollectStats();
  EXPECT_EQ(stats.checkpoints_published, 2u);
  EXPECT_EQ(stats.cosigns, 2u);
  EXPECT_EQ(stats.refusals, 0u);
  EXPECT_EQ(stats.tampered_witnesses, 0u);
}

TEST_F(TransparencyTest, WitnessVerifiesEndToEndWithOwnKey) {
  OpenVault(1);
  Bootstrap();
  Vault* shard = vault_->shard(0);
  TransparencyLog log(shard, {});
  Witness::Options wopts;
  wopts.id = "external";
  wopts.secret_seed = std::string(32, 'w');
  wopts.public_seed = std::string(32, 'p');
  wopts.height = 6;
  Witness witness(wopts, LogIdentity{shard->SignerPublicKey(),
                                     shard->SignerPublicSeed(),
                                     shard->SignerHeight()});
  log.RegisterWitness(&witness);

  Create("pat", "note");
  auto cosigned = log.PublishCheckpoint();
  ASSERT_TRUE(cosigned.ok()) << cosigned.status().ToString();
  ASSERT_EQ(cosigned->cosignatures.size(), 1u);

  // Anyone holding the witness's public identity can check the
  // countersignature offline.
  EXPECT_TRUE(Witness::VerifyCosignature(
                  cosigned->checkpoint, cosigned->cosignatures[0],
                  witness.public_key(), witness.public_seed(),
                  witness.height())
                  .ok());
  // ...and it does not verify for a different checkpoint (binding).
  SignedCheckpoint other = cosigned->checkpoint;
  other.tree_size += 1;
  EXPECT_FALSE(Witness::VerifyCosignature(
                   other, cosigned->cosignatures[0], witness.public_key(),
                   witness.public_seed(), witness.height())
                   .ok());
}

// AddWitness builds each shard's witness key as one pool task. The keys
// are the ones the HKDF labels name, whether the pool runs the tasks
// inline in shard order (ingest_threads = 1) or in parallel.
TEST_F(TransparencyTest, PerShardWitnessKeysMatchHkdfLabels) {
  const std::string secret(32, 's');
  const std::string pub(32, 'p');
  for (unsigned threads : {1u, 0u}) {
    SCOPED_TRACE("ingest_threads=" + std::to_string(threads));
    service_.reset();
    vault_.reset();
    ShardedVaultOptions options = VaultOpts(4);
    options.dir = "witness-keys-" + std::to_string(threads);
    options.ingest_threads = threads;
    auto opened = ShardedVault::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    vault_ = std::move(*opened);
    num_shards_ = 4;
    Bootstrap();
    MakeService();
    ASSERT_TRUE(service_->AddWitness("w1", secret, pub).ok());
    EXPECT_EQ(service_->witness_count(), 4u);
    ExpectCosignedByHandBuiltKeys("w1", secret, pub);
  }
}

// A quarantined shard has no log, so it gets no witness key; the
// healthy shards still get theirs.
TEST_F(TransparencyTest, QuarantinedShardGetsNoWitness) {
  OpenVault(4);
  Bootstrap();
  ASSERT_TRUE(vault_->SyncAll().ok());
  vault_.reset();
  ASSERT_TRUE(
      env_.RemoveFile(ShardRouter::ShardDir("transparent", 2) + "/audit.log")
          .ok());
  ShardedVaultOptions options = VaultOpts(4);
  options.open_mode = OpenMode::kDegraded;
  auto opened = ShardedVault::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  vault_ = std::move(*opened);
  ASSERT_EQ(vault_->QuarantinedShards(), std::vector<uint32_t>{2});

  MakeService();
  const std::string secret(32, 'q');
  const std::string pub(32, 'r');
  ASSERT_TRUE(service_->AddWitness("w1", secret, pub).ok());
  EXPECT_EQ(service_->witness_count(), 3u);
  EXPECT_TRUE(service_->log(2).status().IsUnavailable());
  ExpectCosignedByHandBuiltKeys("w1", secret, pub);
}

TEST_F(TransparencyTest, WitnessRefusesForkAndStaysTainted) {
  // A standalone "log" signer lets the test present the witness with a
  // fork: two signed checkpoints that are NOT consistent extensions.
  crypto::XmssSigner log_signer(std::string(32, 'L'), std::string(32, 'M'), 6);
  Witness::Options wopts;
  wopts.id = "w-fork";
  wopts.secret_seed = std::string(32, 'w');
  wopts.public_seed = std::string(32, 'p');
  wopts.height = 6;
  Witness witness(wopts, LogIdentity{log_signer.public_key(),
                                     log_signer.public_seed(), 6});

  auto sign = [&](uint64_t size, const std::string& root) {
    SignedCheckpoint cp;
    cp.tree_size = size;
    cp.root = root;
    cp.timestamp = 42;
    auto sig = log_signer.Sign(cp.SignedPayload());
    EXPECT_TRUE(sig.ok());
    cp.signature = sig->Encode();
    return cp;
  };

  // First checkpoint: anything extends the empty tree, no proof needed.
  SignedCheckpoint cp1 = sign(1, std::string(32, 'A'));
  ASSERT_TRUE(witness.Cosign(cp1, {}).ok());
  EXPECT_EQ(witness.last_size(), 1u);

  // Fork: a larger checkpoint with no valid consistency proof from the
  // witness's last-seen root. Refusal must be tamper evidence.
  SignedCheckpoint cp2 = sign(2, std::string(32, 'B'));
  auto refused = witness.Cosign(cp2, {});
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsTamperDetected())
      << refused.status().ToString();
  EXPECT_TRUE(witness.tampered());
  EXPECT_FALSE(witness.tamper_evidence().empty());

  // Sticky: even re-presenting the previously accepted checkpoint
  // (trivially consistent with itself) is refused from now on.
  auto still_refused = witness.Cosign(cp1, {});
  EXPECT_TRUE(still_refused.status().IsTamperDetected());
  EXPECT_TRUE(witness.tampered());

  // A shrinking log is likewise a fork.
  Witness fresh(wopts, LogIdentity{log_signer.public_key(),
                                   log_signer.public_seed(), 6});
  ASSERT_TRUE(fresh.Cosign(sign(4, std::string(32, 'C')), {}).ok());
  EXPECT_TRUE(
      fresh.Cosign(sign(2, std::string(32, 'D')), {}).status()
          .IsTamperDetected());

  // And a checkpoint whose log signature is bogus never reaches the
  // consistency check at all.
  Witness fresh2(wopts, LogIdentity{log_signer.public_key(),
                                    log_signer.public_seed(), 6});
  SignedCheckpoint forged = sign(1, std::string(32, 'E'));
  forged.root[0] ^= 1;  // signature no longer covers this root
  EXPECT_TRUE(fresh2.Cosign(forged, {}).status().IsTamperDetected());
}

TEST_F(TransparencyTest, ForgedProofsAreRejected) {
  OpenVault(1);
  Bootstrap();
  MakeService();
  RecordId id = Create("pat", "target");
  auto log = service_->log(0);
  ASSERT_TRUE(log.ok());
  auto cp = (*log)->PublishCheckpoint();
  ASSERT_TRUE(cp.ok());
  auto [shard, seq] = FindEvent(AuditAction::kCreate, id);
  auto proof = service_->ProveEventAt(shard, seq, cp->checkpoint.tree_size);
  ASSERT_TRUE(proof.ok());
  ASSERT_TRUE(AuditLog::VerifyEventProof(*proof, cp->checkpoint.root).ok());

  // Tampered event contents.
  EventProof bad_event = *proof;
  bad_event.event.details += " [redacted]";
  EXPECT_FALSE(
      AuditLog::VerifyEventProof(bad_event, cp->checkpoint.root).ok());

  // Tampered path node.
  if (!proof->path.empty()) {
    EventProof bad_path = *proof;
    bad_path.path[0][0] ^= 1;
    EXPECT_FALSE(
        AuditLog::VerifyEventProof(bad_path, cp->checkpoint.root).ok());
  }

  // Proof replayed for a different position.
  EventProof bad_seq = *proof;
  bad_seq.event.seq += 1;
  EXPECT_FALSE(AuditLog::VerifyEventProof(bad_seq, cp->checkpoint.root).ok());

  // Right proof, wrong root.
  std::string wrong_root = cp->checkpoint.root;
  wrong_root[0] ^= 1;
  EXPECT_FALSE(AuditLog::VerifyEventProof(*proof, wrong_root).ok());
}

// ---- Persistence ---------------------------------------------------------

TEST_F(TransparencyTest, PublishedCheckpointsSurviveReopen) {
  OpenVault(1);
  Bootstrap();
  MakeService();
  RecordId id = Create("pat", "durable");
  auto log = service_->log(0);
  ASSERT_TRUE(log.ok());
  auto cp1 = (*log)->PublishCheckpoint();
  ASSERT_TRUE(cp1.ok());
  for (int i = 0; i < 3; ++i) Create("pat", "more-" + std::to_string(i));
  auto cp2 = (*log)->PublishCheckpoint();
  ASSERT_TRUE(cp2.ok());
  const SignedCheckpoint pin1 = cp1->checkpoint;
  const SignedCheckpoint pin2 = cp2->checkpoint;
  auto [shard, seq] = FindEvent(AuditAction::kCreate, id);
  ASSERT_TRUE(vault_->SyncAll().ok());

  // Full restart: close everything, replay from the same MemEnv.
  service_.reset();
  vault_.reset();
  OpenVault(1);
  MakeService();

  // Both published checkpoints are restorable (log replay), and the
  // service picks the latest up as its own.
  auto latest = service_->LatestCosigned(0);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->checkpoint.tree_size, pin2.tree_size);
  EXPECT_EQ(latest->checkpoint.root, pin2.root);
  EXPECT_EQ(latest->checkpoint.signature, pin2.signature);

  // Proofs against BOTH persisted checkpoint sizes still work.
  for (const SignedCheckpoint& pin : {pin1, pin2}) {
    auto proof = service_->ProveEventAt(shard, seq, pin.tree_size);
    ASSERT_TRUE(proof.ok()) << proof.status().ToString();
    EXPECT_TRUE(AuditLog::VerifyEventProof(*proof, pin.root).ok());
  }

  // And the reopened log is an append-only extension of the pins
  // (VerifyAgainstTrusted — the auditor's offline check).
  EXPECT_TRUE(vault_->shard(0)->audit()->VerifyAgainstTrusted(pin1).ok());
  EXPECT_TRUE(vault_->shard(0)->audit()->VerifyAgainstTrusted(pin2).ok());
}

// ---- Disclosure accounting vs the full-scan oracle -----------------------

TEST_F(TransparencyTest, DisclosureReportMatchesFullScanOracle) {
  OpenVault(2);
  Bootstrap();

  // Workload: records for two patients, reads by clinicians and the
  // patients themselves, a break-glass grant, and non-disclosure noise
  // (searches, corrections, denied accesses).
  std::vector<RecordId> pat_records, lone_records;
  for (int i = 0; i < 4; ++i) {
    pat_records.push_back(Create("pat", "pat-ep-" + std::to_string(i)));
  }
  for (int i = 0; i < 3; ++i) {
    auto id = vault_->CreateRecord("dr2", "lone", "text/plain",
                                   "lone-ep-" + std::to_string(i), {},
                                   "hipaa-6y");
    ASSERT_TRUE(id.ok());
    lone_records.push_back(*id);
  }
  for (const RecordId& id : pat_records) {
    ASSERT_TRUE(vault_->ReadRecord("dr", id).ok());
  }
  ASSERT_TRUE(vault_->ReadRecord("pat", pat_records[0]).ok());
  ASSERT_TRUE(vault_->ReadRecord("dr2", lone_records[0]).ok());
  // dr has no care relation with lone: break-glass, then read.
  auto grant = vault_->BreakGlass("dr", "lone", "er-admission",
                                  3600ll * 1000 * 1000);
  ASSERT_TRUE(grant.ok()) << grant.status().ToString();
  ASSERT_TRUE(vault_->ReadRecord("dr", lone_records[1]).ok());
  // Noise that must NOT appear in anyone's accounting.
  ASSERT_FALSE(vault_->ReadRecord("dr2", pat_records[0]).ok());

  // Brute-force oracle: scan EVERY shard's full audit log and apply
  // the §164.528 rules directly — kRead of a record whose meta names
  // the patient, plus break-glass grants naming the patient.
  auto oracle = [&](const PrincipalId& patient) {
    std::vector<std::pair<uint32_t, uint64_t>> seqs;
    for (uint32_t k = 0; k < num_shards_; ++k) {
      Vault* shard = vault_->shard(k);
      if (shard == nullptr) continue;
      for (const AuditEvent& e : AllEvents(*shard->audit())) {
        if (e.action == AuditAction::kRead && !e.record_id.empty()) {
          auto meta = vault_->GetRecordMeta(e.record_id);
          if (meta.ok() && meta->patient_id == patient) {
            seqs.emplace_back(k, e.seq);
          }
        } else if (e.action == AuditAction::kBreakGlass &&
                   e.details.rfind("patient=" + patient + " ", 0) == 0) {
          seqs.emplace_back(k, e.seq);
        }
      }
    }
    return seqs;
  };
  auto reported = [&](const PrincipalId& actor, const PrincipalId& patient) {
    auto events = vault_->AccountingOfDisclosures(actor, patient);
    EXPECT_TRUE(events.ok()) << events.status().ToString();
    std::vector<std::pair<uint32_t, uint64_t>> seqs;
    if (events.ok()) {
      for (const AuditEvent& e : *events) {
        // All of a patient's disclosures live on one shard (routing);
        // recover the shard from the record / details for comparison.
        auto [k, seq] = e.record_id.empty()
                            ? FindEvent(AuditAction::kBreakGlass, "")
                            : FindEvent(AuditAction::kRead, e.record_id);
        (void)seq;
        seqs.emplace_back(k, e.seq);
      }
    }
    return seqs;
  };

  // Patients pull their own; the auditor pulls anyone's. Reports must
  // equal the oracle EXACTLY (same events, ascending seq).
  for (const PrincipalId& patient : {std::string("pat"), std::string("lone")}) {
    auto expect = oracle(patient);
    ASSERT_FALSE(expect.empty());
    EXPECT_EQ(reported(patient, patient), expect) << "patient " << patient;
    EXPECT_EQ(reported("aud", patient), expect) << "auditor for " << patient;
  }
  EXPECT_EQ(oracle("pat").size(), 5u);   // 4 dr reads + pat's own read
  EXPECT_EQ(oracle("lone").size(), 3u);  // 2 reads + 1 break-glass grant

  // RBAC: one patient cannot pull another's accounting.
  EXPECT_TRUE(vault_->AccountingOfDisclosures("pat", "lone")
                  .status()
                  .IsPermissionDenied());

  // The report is itself audited (a kSearch entry), so repeated pulls
  // grow the log — but never the disclosure set (kSearch is indexed by
  // neither rule). Idempotence check:
  auto again = oracle("pat");
  EXPECT_EQ(reported("aud", "pat"), again);
}

// ---- Concurrency (TSan target) -------------------------------------------

TEST_F(TransparencyTest, ConcurrentAppendPublishProve) {
  OpenVault(2);
  Bootstrap();
  MakeService(/*interval=*/8);
  ASSERT_TRUE(service_
                  ->AddWitness("w1", std::string(32, 'x'),
                               std::string(32, 'y'))
                  .ok());
  Create("pat", "seed");
  ASSERT_TRUE(service_->PublishAll().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> proved{0};

  std::thread writer([&] {
    for (int i = 0; i < 60; ++i) {
      Create("pat", "w-" + std::to_string(i));
      if (i % 10 == 9) {
        ASSERT_TRUE(service_->MaybeCheckpointAll().ok());
      }
    }
    stop.store(true);
  });
  std::vector<std::thread> provers;
  for (int t = 0; t < 3; ++t) {
    provers.emplace_back([&] {
      // At least one full pass even if the writer wins the race to
      // the finish line; every pass races appends on a live log.
      while (!stop.load() || proved.load() == 0) {
        for (uint32_t k = 0; k < num_shards_; ++k) {
          auto latest = service_->LatestCosigned(k);
          if (!latest.ok()) continue;
          const SignedCheckpoint cp = latest->checkpoint;
          if (cp.tree_size == 0) continue;
          auto proof = service_->ProveEventAt(k, cp.tree_size - 1,
                                              cp.tree_size);
          ASSERT_TRUE(proof.ok()) << proof.status().ToString();
          ASSERT_TRUE(AuditLog::VerifyEventProof(*proof, cp.root).ok());
          proved.fetch_add(1);
        }
        service_->CollectStats();
      }
    });
  }
  writer.join();
  for (std::thread& t : provers) t.join();
  EXPECT_GT(proved.load(), 0);

  // Everything still verifies after the melee.
  ASSERT_TRUE(service_->PublishAll().ok());
  EXPECT_TRUE(vault_->VerifyAudit().ok());
  auto stats = service_->CollectStats();
  EXPECT_EQ(stats.refusals, 0u);
  EXPECT_EQ(stats.tampered_witnesses, 0u);
}

// ---- The public HTTP surface, end to end ---------------------------------

TEST_F(TransparencyTest, HttpProofsVerifyAgainstAnyPublishedCheckpoint) {
  OpenVault(1);
  Bootstrap();
  MakeService();
  ASSERT_TRUE(service_
                  ->AddWitness("w1", std::string(32, 'h'),
                               std::string(32, 'i'))
                  .ok());
  StartServer();
  HttpClient client = MakeClient();
  std::string dr = Login(&client, "dr");
  std::string aud = Login(&client, "aud");
  ASSERT_FALSE(dr.empty());
  ASSERT_FALSE(aud.empty());

  // Epoch 1: some activity, then a published checkpoint the client
  // pins from the PUBLIC endpoint (no session).
  Value::Object create;
  create["patient_id"] = Value(std::string("pat"));
  create["content"] = Value(std::string("over-http"));
  auto created = client.Do("POST", "/v1/records",
                           Value(Value::Object(create)).Dump(), dr);
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created->status, 201) << created->body;
  const RecordId early_record =
      Parsed(*created).as_object().at("record_id").as_string();

  ASSERT_TRUE(service_->PublishAll().ok());
  auto pin_resp = client.Do("GET", "/v1/transparency/checkpoint?shard=0");
  ASSERT_TRUE(pin_resp.ok());
  ASSERT_EQ(pin_resp->status, 200) << pin_resp->body;
  const Value::Object pin = Parsed(*pin_resp).as_object();
  const uint64_t pin_size = pin.at("tree_size").as_uint();
  const std::string pin_root = Unhex(pin.at("root"));
  ASSERT_EQ(pin.at("cosignatures").as_array().size(), 1u);

  // Epoch 2: the log grows; a later checkpoint supersedes the pin.
  for (int i = 0; i < 5; ++i) {
    auto more = client.Do("POST", "/v1/records",
                          Value(Value::Object(create)).Dump(), dr);
    ASSERT_TRUE(more.ok());
    ASSERT_EQ(more->status, 201);
  }
  ASSERT_TRUE(service_->PublishAll().ok());
  auto head_resp = client.Do("GET", "/v1/transparency/checkpoint?shard=0");
  ASSERT_TRUE(head_resp.ok());
  const Value::Object head = Parsed(*head_resp).as_object();
  const uint64_t head_size = head.at("tree_size").as_uint();
  const std::string head_root = Unhex(head.at("root"));
  ASSERT_GT(head_size, pin_size);

  // The unauthenticated posture endpoint reflects both.
  auto posture = client.Do("GET", "/v1/transparency");
  ASSERT_TRUE(posture.ok());
  ASSERT_EQ(posture->status, 200);
  EXPECT_EQ(Parsed(*posture).as_object().at("witnesses").as_uint(), 1u);

  // Inclusion proof for the EARLY event against the STALE pinned
  // checkpoint — the whole point of the proof-contract fix, over HTTP,
  // verified from nothing but the JSON.
  auto [shard, early_seq] = FindEvent(AuditAction::kCreate, early_record);
  ASSERT_LT(early_seq, pin_size);
  const std::string proof_path = "/v1/transparency/proof?shard=0&seq=" +
                                 std::to_string(early_seq);
  auto stale = client.Do("GET", proof_path + "&size=" +
                         std::to_string(pin_size), "", aud);
  ASSERT_TRUE(stale.ok());
  ASSERT_EQ(stale->status, 200) << stale->body;
  const Value::Object stale_obj = Parsed(*stale).as_object();
  EventProof stale_proof = ProofFromJson(stale_obj);
  EXPECT_EQ(stale_proof.tree_size, pin_size);
  EXPECT_TRUE(AuditLog::VerifyEventProof(stale_proof, pin_root).ok());
  // The response ships the matching signed checkpoint too.
  EXPECT_EQ(Unhex(stale_obj.at("checkpoint").as_object().at("root")),
            pin_root);

  // The same event under the LATEST checkpoint (size defaulted).
  auto fresh = client.Do("GET", proof_path, "", aud);
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(fresh->status, 200) << fresh->body;
  EventProof fresh_proof = ProofFromJson(Parsed(*fresh).as_object());
  EXPECT_EQ(fresh_proof.tree_size, head_size);
  EXPECT_TRUE(AuditLog::VerifyEventProof(fresh_proof, head_root).ok());
  EXPECT_FALSE(AuditLog::VerifyEventProof(fresh_proof, pin_root).ok());

  // Consistency proof between the two published checkpoints, public.
  auto link = client.Do("GET", "/v1/transparency/consistency?shard=0&from=" +
                        std::to_string(pin_size) + "&to=" +
                        std::to_string(head_size));
  ASSERT_TRUE(link.ok());
  ASSERT_EQ(link->status, 200) << link->body;
  std::vector<std::string> link_proof;
  const Value::Object link_obj = Parsed(*link).as_object();
  for (const Value& node : link_obj.at("proof").as_array()) {
    link_proof.push_back(Unhex(node));
  }
  EXPECT_TRUE(crypto::MerkleTree::VerifyConsistency(
                  pin_size, pin_root, head_size, head_root, link_proof)
                  .ok());

  // Deterministic error mapping: unknown seq -> 404 (not 500),
  // unpublished size -> 404, event newer than checkpoint -> 400,
  // garbage -> 400, proofs without a session -> 401.
  auto unknown = client.Do(
      "GET", "/v1/transparency/proof?shard=0&seq=999999", "", aud);
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->status, 404) << unknown->body;
  auto unpub = client.Do("GET", proof_path + "&size=" +
                         std::to_string(head_size + 1), "", aud);
  ASSERT_TRUE(unpub.ok());
  EXPECT_EQ(unpub->status, 404);
  auto newer = client.Do(
      "GET", "/v1/transparency/proof?shard=0&seq=" +
      std::to_string(head_size - 1) + "&size=" + std::to_string(pin_size),
      "", aud);
  ASSERT_TRUE(newer.ok());
  EXPECT_EQ(newer->status, 400) << newer->body;
  auto garbage = client.Do("GET", "/v1/transparency/proof?shard=0&seq=abc",
                           "", aud);
  ASSERT_TRUE(garbage.ok());
  EXPECT_EQ(garbage->status, 400);
  auto noauth = client.Do("GET", proof_path);
  ASSERT_TRUE(noauth.ok());
  EXPECT_EQ(noauth->status, 401);

  // Query numbers parse strictly into their real width: a shard index
  // past 2^32 must not wrap around to shard 0, the largest uint64 size
  // is a number (merely unpublished), and 2^64 is out of range.
  auto wrapped =
      client.Do("GET", "/v1/transparency/checkpoint?shard=4294967296");
  ASSERT_TRUE(wrapped.ok());
  EXPECT_EQ(wrapped->status, 400) << wrapped->body;
  for (const char* bad : {"-1", "0x", "+0"}) {
    auto r = client.Do(
        "GET", std::string("/v1/transparency/checkpoint?shard=") + bad);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, 400) << bad << ": " << r->body;
  }
  auto max_size =
      client.Do("GET", proof_path + "&size=18446744073709551615", "", aud);
  ASSERT_TRUE(max_size.ok());
  EXPECT_EQ(max_size->status, 404) << max_size->body;
  EXPECT_EQ(max_size->body.find("decimal integer"), std::string::npos)
      << max_size->body;
  auto past_max = client.Do("GET",
                            "/v1/transparency/consistency?shard=0&from=" +
                                std::to_string(pin_size) +
                                "&to=18446744073709551616");
  ASSERT_TRUE(past_max.ok());
  EXPECT_EQ(past_max->status, 400) << past_max->body;

  // /v1/health now carries the transparency posture.
  auto health = client.Do("GET", "/v1/health");
  ASSERT_TRUE(health.ok());
  const Value::Object report = Parsed(*health).as_object();
  ASSERT_TRUE(report.count("transparency"));
  const Value::Object& tp = report.at("transparency").as_object();
  EXPECT_EQ(tp.at("checkpoints").as_uint(), 2u);
  EXPECT_EQ(tp.at("cosigns").as_uint(), 2u);
  EXPECT_EQ(tp.at("tampered_witnesses").as_uint(), 0u);
}

TEST_F(TransparencyTest, HttpDisclosuresAndProofRbac) {
  OpenVault(2);
  Bootstrap();
  MakeService();
  StartServer();
  HttpClient client = MakeClient();
  std::string dr = Login(&client, "dr");

  // dr treats pat: create + read = disclosures for pat. dr2 creates a
  // record for lone that pat must not be able to prove or report on.
  RecordId pat_record = Create("pat", "mine");
  ASSERT_TRUE(vault_->ReadRecord("dr", pat_record).ok());
  auto lone_id = vault_->CreateRecord("dr2", "lone", "text/plain", "theirs",
                                      {}, "hipaa-6y");
  ASSERT_TRUE(lone_id.ok());
  ASSERT_TRUE(service_->PublishAll().ok());

  std::string pat = Login(&client, "pat");
  std::string aud = Login(&client, "aud");
  ASSERT_FALSE(pat.empty());

  // A patient's own disclosure report, over HTTP, equals the embedded
  // API's answer.
  auto own = client.Do("GET", "/v1/transparency/disclosures", "", pat);
  ASSERT_TRUE(own.ok());
  ASSERT_EQ(own->status, 200) << own->body;
  const Value::Object own_obj = Parsed(*own).as_object();
  EXPECT_EQ(own_obj.at("patient").as_string(), "pat");
  auto embedded = vault_->AccountingOfDisclosures("aud", "pat");
  ASSERT_TRUE(embedded.ok());
  const auto& events = own_obj.at("events").as_array();
  ASSERT_EQ(events.size(), embedded->size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].as_object().at("seq").as_uint(), (*embedded)[i].seq);
  }

  // Patients see ONLY their own: another patient's report is 403, the
  // auditor's pull of anyone's is 200.
  auto other = client.Do("GET", "/v1/transparency/disclosures?patient=lone",
                         "", pat);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->status, 403) << other->body;
  auto aud_pull = client.Do(
      "GET", "/v1/transparency/disclosures?patient=lone", "", aud);
  ASSERT_TRUE(aud_pull.ok());
  EXPECT_EQ(aud_pull->status, 200);

  // Proof RBAC: a patient can prove events about their own record...
  auto [own_shard, own_seq] = FindEvent(AuditAction::kCreate, pat_record);
  auto own_proof = client.Do(
      "GET", "/v1/transparency/proof?shard=" + std::to_string(own_shard) +
      "&seq=" + std::to_string(own_seq), "", pat);
  ASSERT_TRUE(own_proof.ok());
  EXPECT_EQ(own_proof->status, 200) << own_proof->body;
  // ...but not someone else's (403 via the audited role gate), while
  // the auditor can prove anything.
  auto [lone_shard, lone_seq] = FindEvent(AuditAction::kCreate, *lone_id);
  const std::string lone_path =
      "/v1/transparency/proof?shard=" + std::to_string(lone_shard) +
      "&seq=" + std::to_string(lone_seq);
  auto denied = client.Do("GET", lone_path, "", pat);
  ASSERT_TRUE(denied.ok());
  EXPECT_EQ(denied->status, 403) << denied->body;
  auto allowed = client.Do("GET", lone_path, "", aud);
  ASSERT_TRUE(allowed.ok());
  EXPECT_EQ(allowed->status, 200) << allowed->body;

  // The denial itself became an audit event (kAccessDenied) — the
  // transparency surface rides the same audit discipline as the rest.
  bool denial_logged = false;
  for (uint32_t k = 0; k < num_shards_; ++k) {
    for (const AuditEvent& e : AllEvents(*vault_->shard(k)->audit())) {
      if (e.action == AuditAction::kAccessDenied && e.actor == "pat") {
        denial_logged = true;
      }
    }
  }
  EXPECT_TRUE(denial_logged);
}

}  // namespace
}  // namespace medvault::core
