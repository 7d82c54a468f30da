// Decoder-robustness sweeps ("poor man's fuzzing"): every on-disk
// structure's Decode, and the HTTP request parser, must handle arbitrary
// bytes without crashing — returning an error or a well-formed value,
// never UB. Compliance storage parses attacker-reachable bytes by
// definition.

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "common/coding.h"
#include "common/random.h"
#include "core/audit.h"
#include "core/backup.h"
#include "core/migration.h"
#include "core/provenance.h"
#include "core/record.h"
#include "core/retention.h"
#include "crypto/xmss.h"
#include "server/http.h"
#include "storage/log_reader.h"
#include "storage/mem_env.h"
#include "storage/segment.h"

namespace medvault {
namespace {

std::string RandomBytes(Random* rng, size_t max_len) {
  size_t len = rng->Uniform(max_len + 1);
  std::string out(len, '\0');
  for (size_t i = 0; i < len; i++) {
    out[i] = static_cast<char>(rng->Uniform(256));
  }
  return out;
}

class DecoderFuzz : public ::testing::TestWithParam<uint64_t> {
 protected:
  static constexpr int kIterations = 300;
};

TEST_P(DecoderFuzz, AllDecodersSurviveRandomBytes) {
  Random rng(GetParam());
  for (int i = 0; i < kIterations; i++) {
    std::string bytes = RandomBytes(&rng, 300);
    // Each of these must return (not crash); value vs error is free.
    (void)core::VersionHeader::Decode(bytes);
    (void)core::RecordMeta::Decode(bytes);
    (void)core::AuditEvent::Decode(bytes);
    (void)core::SignedCheckpoint::Decode(bytes);
    (void)core::CustodyEvent::Decode(bytes);
    (void)core::DisposalCertificate::Decode(bytes);
    (void)core::MigrationReceipt::Decode(bytes);
    (void)core::BackupManifest::Decode(bytes);
    (void)core::ParseVersionEntry(bytes);
    (void)crypto::XmssSignature::Decode(bytes);
    (void)storage::EntryHandle::Decode(bytes);
  }
}

TEST_P(DecoderFuzz, MutatedValidEncodingsNeverCrash) {
  Random rng(GetParam());

  core::AuditEvent event;
  event.seq = 5;
  event.timestamp = 123;
  event.actor = "dr-a";
  event.action = core::AuditAction::kRead;
  event.record_id = "r-1";
  event.details = "details";
  event.prev_hash = std::string(32, 'h');
  std::string valid_event = event.Encode();

  core::CustodyEvent custody;
  custody.record_id = "r-1";
  custody.actor = "dr-a";
  custody.system_id = "sys";
  custody.prev_hash = std::string(32, 'h');
  std::string valid_custody = custody.Encode();

  for (int i = 0; i < kIterations; i++) {
    for (const std::string* base : {&valid_event, &valid_custody}) {
      std::string mutated = *base;
      // 1-3 random mutations: flip, truncate, or extend.
      int mutations = 1 + rng.Uniform(3);
      for (int m = 0; m < mutations; m++) {
        switch (rng.Uniform(3)) {
          case 0:
            if (!mutated.empty()) {
              mutated[rng.Uniform(mutated.size())] ^=
                  static_cast<char>(1 + rng.Uniform(255));
            }
            break;
          case 1:
            mutated.resize(rng.Uniform(mutated.size() + 1));
            break;
          case 2:
            mutated += RandomBytes(&rng, 16);
            break;
        }
      }
      (void)core::AuditEvent::Decode(mutated);
      (void)core::CustodyEvent::Decode(mutated);
    }
  }
}

TEST_P(DecoderFuzz, LogReaderSurvivesRandomFiles) {
  Random rng(GetParam());
  storage::MemEnv env;
  for (int i = 0; i < 30; i++) {
    std::string name = "fuzz-" + std::to_string(i);
    ASSERT_TRUE(storage::WriteStringToFile(&env, RandomBytes(&rng, 2000),
                                           name, false)
                    .ok());
    std::unique_ptr<storage::SequentialFile> src;
    ASSERT_TRUE(env.NewSequentialFile(name, &src).ok());
    storage::log::Reader reader(std::move(src));
    std::string record;
    int guard = 0;
    while (reader.ReadRecord(&record) && guard++ < 10000) {
    }
    // Whatever happened, the reader terminated with a definite status.
    (void)reader.status();
  }
}

TEST_P(DecoderFuzz, SegmentStoreSurvivesGarbageSegments) {
  Random rng(GetParam());
  storage::MemEnv env;
  // Pre-plant a garbage segment whose first frame is structurally
  // complete (length field fits) but whose CRC is random garbage. Open
  // may cut a structurally torn tail behind it, but the complete bad
  // frame is tamper evidence and must surface as corruption — cleanly,
  // not as a crash.
  std::string garbage(500, '\0');
  for (char& c : garbage) c = static_cast<char>(rng.Uniform(256));
  EncodeFixed32(&garbage[4], 100);
  ASSERT_TRUE(
      storage::WriteStringToFile(&env, garbage, "seg/seg-00000001", false)
          .ok());
  storage::SegmentStore store(&env, "seg", {});
  ASSERT_TRUE(store.Open().ok());
  Status s = store.ForEachEntry(
      [](const storage::EntryHandle&, const Slice&) { return true; });
  EXPECT_FALSE(s.ok());
}

TEST_P(DecoderFuzz, SegmentStoreRecoversStructurallyTornTail) {
  Random rng(GetParam());
  storage::MemEnv env;
  // A file that parses as an incomplete frame from byte 0 is
  // indistinguishable from a torn append of a large payload: Open
  // recovers by truncating it, and iteration sees an empty store.
  std::string garbage(500, '\0');
  for (char& c : garbage) c = static_cast<char>(rng.Uniform(256));
  EncodeFixed32(&garbage[4], 1u << 30);  // length field overruns the file
  ASSERT_TRUE(
      storage::WriteStringToFile(&env, garbage, "seg/seg-00000001", false)
          .ok());
  storage::SegmentStore store(&env, "seg", {});
  ASSERT_TRUE(store.Open().ok());
  int entries = 0;
  Status s = store.ForEachEntry(
      [&](const storage::EntryHandle&, const Slice&) {
        entries++;
        return true;
      });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(entries, 0);
}

// One parse of `wire` by the request parser. A kOk must have consumed
// exactly head + CRLFCRLF + Content-Length bytes, the body among them,
// and left no transfer-encoding field and no name with an upper-case
// letter; any other outcome leaves the buffer as it was.
void CheckHttpParse(std::string wire) {
  const size_t header_end = wire.find("\r\n\r\n");
  if (header_end == std::string::npos) return;
  const std::string before = wire;
  server::HttpRequest request;
  const server::ReadOutcome rc =
      server::ParseHttpRequest(&wire, header_end, server::HttpLimits{},
                               &request);
  if (rc != server::ReadOutcome::kOk) {
    EXPECT_EQ(wire, before);
    return;
  }
  size_t content_length = 0;
  auto cl = request.headers.find("content-length");
  if (cl != request.headers.end()) content_length = std::stoull(cl->second);
  const size_t frame = header_end + 4 + content_length;
  ASSERT_EQ(before.size() - wire.size(), frame);
  EXPECT_EQ(wire, before.substr(frame));
  EXPECT_EQ(request.body, before.substr(header_end + 4, content_length));
  EXPECT_EQ(request.headers.count("transfer-encoding"), 0u);
  for (const auto& [name, value] : request.headers) {
    EXPECT_FALSE(name.empty());
    for (char c : name) {
      EXPECT_FALSE(std::isupper(static_cast<unsigned char>(c))) << name;
    }
  }
}

TEST_P(DecoderFuzz, HttpRequestParserFramesOrRefuses) {
  Random rng(GetParam());
  // Random bytes, with a head terminator planted so the parser runs.
  for (int i = 0; i < kIterations; i++) {
    std::string bytes = RandomBytes(&rng, 300);
    bytes.insert(rng.Uniform(bytes.size() + 1), "\r\n\r\n");
    CheckHttpParse(bytes);
  }
  // Mutated canonical requests: byte flips, cuts, random tails and
  // spliced framing tokens.
  const std::string bases[] = {
      "GET /v1/records/r-1?v=2 HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Authorization: Bearer abc\r\n\r\n",
      "POST /v1/search HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Type: application/json\r\nContent-Length: 15\r\n\r\n"
      "{\"terms\":[\"x\"]}GET / HTTP/1.1\r\n\r\n",
  };
  const char* tokens[] = {"\r\n", "\r\n\r\n", ":", " ", "\t", "\n", "\r",
                          "0", "9", "Content-Length: 3\r\n",
                          "Transfer-Encoding: chunked\r\n",
                          "content-LENGTH:"};
  for (int i = 0; i < kIterations; i++) {
    for (const std::string& base : bases) {
      std::string mutated = base;
      const int mutations = 1 + rng.Uniform(3);
      for (int m = 0; m < mutations; m++) {
        switch (rng.Uniform(4)) {
          case 0:
            mutated[rng.Uniform(mutated.size())] ^=
                static_cast<char>(1 + rng.Uniform(255));
            break;
          case 1:
            mutated.resize(rng.Uniform(mutated.size() + 1));
            break;
          case 2:
            mutated += RandomBytes(&rng, 16);
            break;
          case 3:
            mutated.insert(rng.Uniform(mutated.size() + 1),
                           tokens[rng.Uniform(std::size(tokens))]);
            break;
        }
        if (mutated.empty()) mutated = base;
      }
      CheckHttpParse(mutated);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz,
                         ::testing::Values(0xf00d, 0xbeef, 0xcafe, 0xd00d));

}  // namespace
}  // namespace medvault
