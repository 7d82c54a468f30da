// Known-answer pin for record creation: a fixed ManualClock sequence of
// CreateRecord calls (two patients, keywords, one denied create) on a
// MemEnv vault, with the SHA-256 of every file the vault wrote pinned.
// Any change to how a create reaches the key store, version segments,
// index, state log, audit log or provenance log must leave every byte
// on disk unchanged.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/hex.h"
#include "core/vault.h"
#include "crypto/sha256.h"
#include "storage/mem_env.h"

namespace medvault::core {
namespace {

/// Path -> hex SHA-256 of every file under `dir`, recursively.
void HashTree(storage::MemEnv* env, const std::string& dir,
              std::map<std::string, std::string>* out) {
  std::vector<std::string> children;
  ASSERT_TRUE(env->GetChildren(dir, &children).ok());
  for (const std::string& name : children) {
    const std::string path = dir + "/" + name;
    if (!env->FileExists(path)) {
      HashTree(env, path, out);
      continue;
    }
    std::string bytes;
    ASSERT_TRUE(storage::ReadFileToString(env, path, &bytes).ok());
    (*out)[path] = HexEncode(crypto::Sha256Digest(bytes));
  }
}

TEST(CreatePinTest, VaultFilesAfterFixedCreateSequence) {
  storage::MemEnv env;
  ManualClock clock(1000000);
  VaultOptions options;
  options.env = &env;
  options.dir = "vault";
  options.clock = &clock;
  options.master_key = std::string(32, 'M');
  options.entropy = "create-pin-entropy";
  options.signer_height = 4;
  auto opened = Vault::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Vault> vault = std::move(opened).value();

  ASSERT_TRUE(
      vault->RegisterPrincipal("boot", {"admin-r", Role::kAdmin, "Root"})
          .ok());
  ASSERT_TRUE(vault
                  ->RegisterPrincipal("admin-r",
                                      {"dr-a", Role::kPhysician, "Dr A"})
                  .ok());
  ASSERT_TRUE(vault
                  ->RegisterPrincipal("admin-r",
                                      {"dr-b", Role::kPhysician, "Dr B"})
                  .ok());
  ASSERT_TRUE(
      vault->RegisterPrincipal("admin-r", {"pat-p", Role::kPatient, "P"})
          .ok());
  ASSERT_TRUE(
      vault->RegisterPrincipal("admin-r", {"pat-q", Role::kPatient, "Q"})
          .ok());
  ASSERT_TRUE(vault->AssignCare("admin-r", "dr-a", "pat-p").ok());
  ASSERT_TRUE(vault->AssignCare("admin-r", "dr-a", "pat-q").ok());

  struct Create {
    const char* patient;
    const char* text;
    std::vector<std::string> keywords;
    const char* policy;
  };
  const Create creates[] = {
      {"pat-p", "admission note: chest pain", {"cardiology", "chest-pain"},
       "hipaa-6y"},
      {"pat-q", "progress note: stable", {"oncology"}, "osha-30y"},
      {"pat-p", "discharge summary", {}, "short-1y"},
      {"pat-q", "lab result: HbA1c 6.1%", {"diabetes", "lab", "oncology"},
       "hipaa-6y"},
  };
  std::vector<RecordId> ids;
  for (const Create& c : creates) {
    clock.Advance(1500);
    auto id = vault->CreateRecord("dr-a", c.patient, "text/plain", c.text,
                                  c.keywords, c.policy);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  EXPECT_EQ(ids, (std::vector<RecordId>{"r-1", "r-2", "r-3", "r-4"}));

  // dr-b has no care relationship with pat-q: denied and audited.
  clock.Advance(1500);
  EXPECT_TRUE(vault
                  ->CreateRecord("dr-b", "pat-q", "text/plain", "denied",
                                 {"oncology"}, "hipaa-6y")
                  .status()
                  .IsPermissionDenied());

  std::map<std::string, std::string> hashes;
  HashTree(&env, "vault", &hashes);
  const std::map<std::string, std::string> kPinned = {
      {"vault/audit.log",
       "3a1ee7f30f3ab8b09c8dd6dd6ab18abdd74770011b7b22c196fa422c6f7ade66"},
      {"vault/catalog.log",
       "03d72b41a16476cb8536fd31307638383fb5d1b5f096b99169717414de3eea17"},
      {"vault/index.log",
       "cb594866729baa6bfc4455ace8906617eb9e2ea172d10e9769359d3e31f97bd5"},
      {"vault/keys.db",
       "37c45831356c06a9fbaa0eba8d59f56493d9d734de3fef7a3af9e00687f68687"},
      {"vault/provenance.log",
       "4a9ea7ebbe027a641994fac82e5d31f3847aaba3be5e2381874d2cedf92e534e"},
      {"vault/segments/seg-00000001",
       "6eee7023a8b89f78c3637df29c3c32b68fecfa8812906c7f79dbf0aaf47f5212"},
      // The signer's leaves under their entropy-keyed tag, written by
      // the first open; it pins the file layout and the tag label.
      {"vault/signer.tree",
       "9911927e4cb3dd38395cf6f87a97a5753bdb5c1817e4c3849f1c51f4638947ae"},
      {"vault/state.log",
       "d17c3b4b4646d416672df6683c0d381114f7747aa77933019e3443ef36acbf91"},
  };
  EXPECT_EQ(hashes, kPinned);
}

}  // namespace
}  // namespace medvault::core
