// Record table tests: interning is idempotent and dense, any id maps
// (foreign-prefix ids included), a replay rebuilds the same id/ordinal
// pairs, and an id-ordered walk is the order of a std::map on the ids.

#include "core/record_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/vault.h"
#include "storage/mem_env.h"

namespace medvault::core {
namespace {

std::vector<std::string> Pairs(const RecordTable& table) {
  std::vector<std::string> ids;
  for (uint32_t r = 0; r < table.size(); ++r) ids.push_back(table.id(r));
  return ids;
}

TEST(RecordTableTest, InterningIsIdempotentAndOrdinalsAreDense) {
  RecordTable table;
  EXPECT_EQ(table.Find("r-1"), RecordTable::kNone);
  EXPECT_EQ(table.Intern("r-1"), 0u);
  EXPECT_EQ(table.Intern("r-2"), 1u);
  EXPECT_EQ(table.Intern("r-1"), 0u);
  EXPECT_EQ(table.size(), 2u);
  // Enough ids to grow the slot array several times.
  for (int i = 0; i < 5000; ++i) {
    const std::string id = "s" + std::to_string(i % 4) + "-r-" +
                           std::to_string(i);
    EXPECT_EQ(table.Intern(id), static_cast<uint32_t>(i + 2));
  }
  EXPECT_EQ(table.size(), 5002u);
  for (uint32_t r = 0; r < table.size(); ++r) {
    EXPECT_EQ(table.Find(table.id(r)), r);
    EXPECT_EQ(table.Intern(table.id(r)), r);
  }
  EXPECT_EQ(table.size(), 5002u);
  EXPECT_EQ(table.Find("r-5003"), RecordTable::kNone);
}

TEST(RecordTableTest, AnyIdMaps) {
  RecordTable table;
  const std::vector<std::string> ids = {
      "legacy-ehr/MRN:000123",  // a foreign prefix
      "r-x7",                   // the vault's prefix, not its number
      "",
      std::string("a\0b", 3),
      "\xff\xfe",
      std::string(200, 'q'),  // past the short-string buffer
  };
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(table.Intern(ids[i]), i);
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(table.Find(ids[i]), i);
    EXPECT_EQ(table.id(static_cast<uint32_t>(i)), ids[i]);
  }
  EXPECT_EQ(table.Find(std::string("a\0c", 3)), RecordTable::kNone);
}

TEST(RecordTableTest, IdOrderedWalkMatchesStdMapOrder) {
  const std::vector<std::string> ids = {
      "r-9",  "r-10", "r-1",  "r-100", "r-2", "s1-r-3", "s0-r-12",
      "R-1",  "r-",   "r-09", "\xff",  "r-11", "a",     ""};
  RecordTable table;
  std::map<std::string, int> by_map;
  for (const std::string& id : ids) {
    table.Intern(id);
    by_map[id] = 0;
  }
  std::vector<uint32_t> order(table.size());
  for (uint32_t r = 0; r < table.size(); ++r) order[r] = r;
  std::reverse(order.begin(), order.end());
  table.SortById(&order);
  std::vector<std::string> walked;
  for (uint32_t r : order) walked.push_back(table.id(r));
  std::vector<std::string> expected;
  for (const auto& [id, unused] : by_map) expected.push_back(id);
  EXPECT_EQ(walked, expected);
  // "r-10" sorts before "r-9", as in a map keyed by the ids.
  EXPECT_LT(std::find(walked.begin(), walked.end(), "r-10"),
            std::find(walked.begin(), walked.end(), "r-9"));
}

class VaultRecordTableTest : public ::testing::Test {
 protected:
  std::unique_ptr<Vault> Open() {
    VaultOptions options;
    options.env = &env_;
    options.dir = "vault";
    options.clock = &clock_;
    options.master_key = std::string(32, 'M');
    options.entropy = "record-table-test-entropy";
    options.signer_height = 4;
    auto vault = Vault::Open(options);
    EXPECT_TRUE(vault.ok()) << vault.status().ToString();
    return vault.ok() ? std::move(vault).value() : nullptr;
  }

  void Populate(Vault* v) {
    ASSERT_TRUE(
        v->RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"}).ok());
    ASSERT_TRUE(
        v->RegisterPrincipal("admin", {"dr", Role::kPhysician, "D"}).ok());
    ASSERT_TRUE(
        v->RegisterPrincipal("admin", {"pat", Role::kPatient, "P"}).ok());
    ASSERT_TRUE(v->AssignCare("admin", "dr", "pat").ok());
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(v->CreateRecord("dr", "pat", "text/plain",
                                  "note " + std::to_string(i), {"k"},
                                  "short-1y")
                      .ok());
    }
    ASSERT_TRUE(v->CorrectRecord("dr", "r-3", "note 3b", "typo", {}).ok());
    // A shredded record imported under a foreign prefix, as migration
    // carries one over: a key tombstone and a disposed meta.
    ASSERT_TRUE(v->keystore()->ImportKey(kForeign, Slice(), true).ok());
    RecordMeta meta;
    meta.record_id = kForeign;
    meta.patient_id = "pat";
    meta.created_at = clock_.Now();
    meta.retention_until = clock_.Now() + 1;
    meta.retention_policy = "short-1y";
    meta.latest_version = 0;
    meta.disposed = true;
    ASSERT_TRUE(v->PutRecordMeta(meta).ok());
    ASSERT_TRUE(v->SyncAll().ok());
  }

  static constexpr char kForeign[] = "legacy-ehr/MRN:000123";
  storage::MemEnv env_;
  ManualClock clock_{1000000};
};

TEST_F(VaultRecordTableTest, ReplayRebuildsTheSamePairs) {
  std::vector<std::string> live;
  {
    auto v = Open();
    ASSERT_NE(v, nullptr);
    Populate(v.get());
    live = Pairs(*v->keystore()->records());
  }
  ASSERT_EQ(live.size(), 13u);
  std::vector<std::string> replayed;
  {
    auto v = Open();
    ASSERT_NE(v, nullptr);
    replayed = Pairs(*v->keystore()->records());
    auto meta = v->GetRecordMeta(kForeign);
    ASSERT_TRUE(meta.ok()) << meta.status().ToString();
    EXPECT_EQ(meta->patient_id, "pat");
    // A shred rewrites keys.db in id order, so the next replay meets
    // the ids in another order than they were created in.
    clock_.AdvanceYears(2);
    ASSERT_TRUE(v->DisposeRecord("admin", "r-5").ok());
  }
  EXPECT_EQ(replayed, live);
  std::vector<std::string> first, second;
  for (std::vector<std::string>* pairs : {&first, &second}) {
    auto v = Open();
    ASSERT_NE(v, nullptr);
    *pairs = Pairs(*v->keystore()->records());
    EXPECT_TRUE(v->keystore()->IsDestroyed("r-5"));
  }
  EXPECT_EQ(first, second);
  std::vector<std::string> sorted_live = live;
  std::sort(sorted_live.begin(), sorted_live.end());
  std::vector<std::string> sorted_first = first;
  std::sort(sorted_first.begin(), sorted_first.end());
  EXPECT_EQ(sorted_first, sorted_live);
}

TEST_F(VaultRecordTableTest, ListingsKeepIdOrder) {
  auto v = Open();
  ASSERT_NE(v, nullptr);
  Populate(v.get());
  const std::vector<std::string> expected = {
      "legacy-ehr/MRN:000123", "r-1", "r-10", "r-11", "r-12", "r-2", "r-3",
      "r-4", "r-5", "r-6", "r-7", "r-8", "r-9"};
  EXPECT_EQ(v->ListRecordIds(), expected);
  v.reset();
  v = Open();
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->ListRecordIds(), expected);
  // The catalog lists the records it holds versions of, in id order too.
  std::vector<std::string> versioned(expected.begin() + 1, expected.end());
  EXPECT_EQ(v->versions()->RecordIds(), versioned);
}

}  // namespace
}  // namespace medvault::core
