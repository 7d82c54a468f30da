// HTTP front-door tests: the REST surface must add *nothing* to the
// trust story — every endpoint rides the vault's own access control
// and audit (401 without a session, 403 from RBAC, the same audit
// events as the embedded API), admission control sheds overload with
// prompt 503s instead of hanging, and break-glass grants made over
// HTTP survive a server restart exactly like embedded ones (the
// state-log persistence bugfix, observed end to end).

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_vault.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "server/admission.h"
#include "server/http.h"
#include "server/http_client.h"
#include "server/server.h"
#include "storage/mem_env.h"

namespace medvault::server {
namespace {

using core::Role;
using core::ShardedVault;
using core::ShardedVaultOptions;
using obs::json::Value;

constexpr char kSecret[] = "server-test-secret";

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override { OpenVault(); }

  void TearDown() override {
    if (server_) server_->Stop();
    server_.reset();
    vault_.reset();
  }

  ShardedVaultOptions VaultOpts() {
    ShardedVaultOptions options;
    options.env = &env_;
    options.dir = "served";
    options.clock = &clock_;
    options.master_key = std::string(32, 'S');
    options.entropy = "server-test-entropy";
    options.num_shards = 2;
    options.signer_height = 6;
    options.metrics = &registry_;
    return options;
  }

  void OpenVault() {
    auto opened = ShardedVault::Open(VaultOpts());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    vault_ = std::move(*opened);
  }

  void Bootstrap() {
    auto ok = [](const Status& s) {
      ASSERT_TRUE(s.ok()) << s.ToString();
    };
    ok(vault_->RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"}));
    ok(vault_->RegisterPrincipal("admin", {"clerk", Role::kClerk, "C"}));
    ok(vault_->RegisterPrincipal("admin", {"dr", Role::kPhysician, "D"}));
    ok(vault_->RegisterPrincipal("admin", {"dr2", Role::kPhysician, "E"}));
    ok(vault_->RegisterPrincipal("admin", {"aud", Role::kAuditor, "X"}));
    ok(vault_->RegisterPrincipal("admin", {"pat", Role::kPatient, "P"}));
    ok(vault_->RegisterPrincipal("admin", {"lone", Role::kPatient, "L"}));
    ok(vault_->AssignCare("admin", "dr", "pat"));
    // "lone" deliberately has NO treating clinician: reaching their
    // records requires break-glass.
    ok(vault_->SyncAll());
  }

  ServerOptions BaseServerOpts() {
    ServerOptions options;
    options.port = 0;  // ephemeral
    options.worker_threads = 3;
    options.api_secret = kSecret;
    options.session_entropy = "server-test-session-entropy";
    options.clock = &clock_;
    options.idle_timeout_micros = 10ull * 1000 * 1000;
    return options;
  }

  void StartServer(const ServerOptions& options) {
    auto started = MedVaultServer::Start(vault_.get(), options);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    server_ = std::move(*started);
  }

  void StartServer() { StartServer(BaseServerOpts()); }

  /// Stops the server, closes and reopens the vault from the same
  /// MemEnv (state-log replay), and starts a fresh server on it —
  /// a full process restart as far as persistence is concerned.
  void RestartEverything() {
    server_->Stop();
    server_.reset();
    vault_.reset();
    OpenVault();
    StartServer();
  }

  static std::string Obj(std::initializer_list<
                         std::pair<std::string, Value>> fields) {
    Value::Object o;
    for (const auto& [k, v] : fields) o[k] = v;
    return Value(std::move(o)).Dump();
  }

  static Value Parsed(const ClientResponse& response) {
    auto v = Value::Parse(response.body);
    EXPECT_TRUE(v.ok()) << response.body;
    return v.ok() ? *v : Value();
  }

  std::string Login(HttpClient* client, const std::string& principal) {
    auto r = client->Do("POST", "/v1/login",
                        Obj({{"principal", Value(principal)},
                             {"secret", Value(kSecret)}}));
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

  storage::MemEnv env_;
  ManualClock clock_{1000000};
  obs::MetricsRegistry registry_;
  std::unique_ptr<ShardedVault> vault_;
  std::unique_ptr<MedVaultServer> server_;
};

TEST_F(ServerTest, AuthRequiredOnEveryEndpoint) {
  Bootstrap();
  StartServer();
  HttpClient client = MakeClient();

  struct Endpoint {
    const char* method;
    const char* target;
  };
  const Endpoint kProtected[] = {
      {"POST", "/v1/logout"},
      {"POST", "/v1/records"},
      {"GET", "/v1/records/s0-r-1"},
      {"POST", "/v1/records/s0-r-1/correct"},
      {"GET", "/v1/records/s0-r-1/history"},
      {"POST", "/v1/records/s0-r-1/dispose"},
      {"GET", "/v1/records/s0-r-1/audit"},
      {"POST", "/v1/search"},
      {"GET", "/v1/audit"},
      {"POST", "/v1/audit/checkpoint"},
      {"POST", "/v1/break-glass"},
      {"POST", "/v1/consent"},
      {"GET", "/v1/consent"},
      {"POST", "/v1/consent/revoke"},
  };
  for (const Endpoint& e : kProtected) {
    auto bare = client.Do(e.method, e.target, "{}");
    ASSERT_TRUE(bare.ok()) << bare.status().ToString();
    EXPECT_EQ(bare->status, 401) << e.method << " " << e.target;
    auto forged = client.Do(e.method, e.target, "{}", "not-a-real-token");
    ASSERT_TRUE(forged.ok());
    EXPECT_EQ(forged->status, 401) << e.method << " " << e.target;
  }

  // Health is the one deliberate exception (load balancers probe it).
  auto health = client.Do("GET", "/v1/health");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
  EXPECT_TRUE(Parsed(*health).is_object());

  // Wrong secret and unknown principal both fail identically.
  auto bad_secret = client.Do(
      "POST", "/v1/login",
      Obj({{"principal", Value("dr")}, {"secret", Value("nope")}}));
  ASSERT_TRUE(bad_secret.ok());
  EXPECT_EQ(bad_secret->status, 403);
  auto bad_user = client.Do(
      "POST", "/v1/login",
      Obj({{"principal", Value("ghost")}, {"secret", Value(kSecret)}}));
  ASSERT_TRUE(bad_user.ok());
  EXPECT_EQ(bad_user->status, 403);
}

TEST_F(ServerTest, RecordLifecycleOverHttp) {
  Bootstrap();
  StartServer();
  HttpClient client = MakeClient();
  const std::string dr = Login(&client, "dr");
  ASSERT_FALSE(dr.empty());

  // Create.
  auto created = client.Do(
      "POST", "/v1/records",
      Obj({{"patient_id", Value("pat")},
           {"content", Value("bp 120/80, routine visit")},
           {"keywords", Value(Value::Array{Value("bp"), Value("routine")})},
           {"retention_policy", Value("hipaa-6y")}}),
      dr);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_EQ(created->status, 201) << created->body;
  const std::string id =
      Parsed(*created).as_object().at("record_id").as_string();

  // Read.
  auto read = client.Do("GET", "/v1/records/" + id, "", dr);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->status, 200) << read->body;
  Value body = Parsed(*read);
  EXPECT_EQ(body.as_object().at("content").as_string(),
            "bp 120/80, routine visit");
  EXPECT_EQ(body.as_object().at("version").as_uint(), 1u);

  // Correct, then read both versions.
  auto corrected = client.Do(
      "POST", "/v1/records/" + id + "/correct",
      Obj({{"content", Value("bp 130/85, transcription corrected")},
           {"reason", Value("transcription error")},
           {"keywords", Value(Value::Array{Value("bp")})}}),
      dr);
  ASSERT_TRUE(corrected.ok());
  ASSERT_EQ(corrected->status, 200) << corrected->body;
  EXPECT_EQ(Parsed(*corrected).as_object().at("version").as_uint(), 2u);

  auto v1 = client.Do("GET", "/v1/records/" + id + "?version=1", "", dr);
  ASSERT_TRUE(v1.ok());
  ASSERT_EQ(v1->status, 200);
  EXPECT_EQ(Parsed(*v1).as_object().at("content").as_string(),
            "bp 120/80, routine visit");

  // Versions parse strictly: 2^32 + 1 must not wrap around to version 1,
  // and trailing junk or a sign is a 400, not a silent read.
  for (const char* bad : {"4294967297", "1x", "-1"}) {
    auto r = client.Do("GET", "/v1/records/" + id + "?version=" + bad, "", dr);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, 400) << bad << ": " << r->body;
  }

  auto history = client.Do("GET", "/v1/records/" + id + "/history", "", dr);
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->status, 200);
  EXPECT_EQ(Parsed(*history).as_object().at("versions").as_array().size(),
            2u);

  // Search.
  auto hits = client.Do("POST", "/v1/search",
                        Obj({{"terms", Value(Value::Array{Value("bp")})}}),
                        dr);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->status, 200);
  Value hit_body = Parsed(*hits);
  const Value::Array& ids = hit_body.as_object().at("record_ids").as_array();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0].as_string(), id);

  // RBAC through the server: a physician may not read audit trails or
  // dispose; the auditor reads the trail; disposal before retention
  // expiry is a 409 even for the admin.
  auto denied_audit = client.Do("GET", "/v1/audit", "", dr);
  ASSERT_TRUE(denied_audit.ok());
  EXPECT_EQ(denied_audit->status, 403);
  auto denied_dispose =
      client.Do("POST", "/v1/records/" + id + "/dispose", "", dr);
  ASSERT_TRUE(denied_dispose.ok());
  EXPECT_EQ(denied_dispose->status, 403);

  const std::string aud = Login(&client, "aud");
  auto trail = client.Do("GET", "/v1/records/" + id + "/audit", "", aud);
  ASSERT_TRUE(trail.ok());
  ASSERT_EQ(trail->status, 200);
  EXPECT_GE(Parsed(*trail).as_object().at("events").as_array().size(), 2u);

  const std::string admin = Login(&client, "admin");
  auto early = client.Do("POST", "/v1/records/" + id + "/dispose", "", admin);
  ASSERT_TRUE(early.ok());
  EXPECT_EQ(early->status, 409) << early->body;  // retention violation

  // Missing records are 404, crypto-shredded ones 410.
  auto missing = client.Do("GET", "/v1/records/s0-r-999", "", dr);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);

  // Jumping past retention also jumps past the session TTL; all three
  // tokens are now dead and everyone logs in again.
  clock_.AdvanceYears(7);
  const std::string admin2 = Login(&client, "admin");
  const std::string dr2 = Login(&client, "dr");
  const std::string aud2 = Login(&client, "aud");
  auto disposed =
      client.Do("POST", "/v1/records/" + id + "/dispose", "", admin2);
  ASSERT_TRUE(disposed.ok());
  ASSERT_EQ(disposed->status, 200) << disposed->body;
  EXPECT_FALSE(
      Parsed(*disposed).as_object().at("signature").as_string().empty());
  auto shredded = client.Do("GET", "/v1/records/" + id, "", dr2);
  ASSERT_TRUE(shredded.ok());
  EXPECT_EQ(shredded->status, 410);

  // Checkpoint: auditor signs one checkpoint per shard.
  auto checkpoint = client.Do("POST", "/v1/audit/checkpoint", "", aud2);
  ASSERT_TRUE(checkpoint.ok());
  ASSERT_EQ(checkpoint->status, 200) << checkpoint->body;
  EXPECT_EQ(
      Parsed(*checkpoint).as_object().at("checkpoints").as_array().size(),
      2u);

  // Logout kills the session.
  auto out = client.Do("POST", "/v1/logout", "", dr2);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->status, 200);
  auto after = client.Do("GET", "/v1/records/" + id, "", dr2);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->status, 401);
}

TEST_F(ServerTest, MalformedAndOversizedInputsRejected) {
  Bootstrap();
  StartServer();
  HttpClient client = MakeClient();
  const std::string dr = Login(&client, "dr");

  // Body that is not JSON at all, and JSON that is not an object.
  auto garbage = client.Do("POST", "/v1/search", "][not json", dr);
  ASSERT_TRUE(garbage.ok());
  EXPECT_EQ(garbage->status, 400);
  auto scalar = client.Do("POST", "/v1/search", "42", dr);
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ(scalar->status, 400);
  auto missing_field = client.Do("POST", "/v1/break-glass", "{}", dr);
  ASSERT_TRUE(missing_field.ok());
  EXPECT_EQ(missing_field->status, 400);

  // Unparsable request line -> 400 and the connection is closed.
  {
    HttpClient raw = MakeClient();
    ASSERT_TRUE(raw.SendRaw("THIS IS NOT HTTP\r\n\r\n").ok());
    auto r = raw.ReadResponse();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 400);
  }

  // A well-formed version other than 1.0 and 1.1 -> 505.
  {
    HttpClient raw = MakeClient();
    ASSERT_TRUE(raw.SendRaw("GET /v1/health HTTP/2.0\r\n\r\n").ok());
    auto r = raw.ReadResponse();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 505);
  }

  // Declared body over the cap -> 413 without buffering the body.
  {
    HttpClient raw = MakeClient();
    ASSERT_TRUE(raw.SendRaw("POST /v1/search HTTP/1.1\r\n"
                            "Content-Length: 99999999\r\n\r\n")
                    .ok());
    auto r = raw.ReadResponse();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 413);
  }

  // Header block over the cap -> 431.
  {
    HttpClient raw = MakeClient();
    std::string huge = "GET /v1/health HTTP/1.1\r\n";
    huge += "X-Filler: " + std::string(64 * 1024, 'x') + "\r\n\r\n";
    ASSERT_TRUE(raw.SendRaw(huge).ok());
    auto r = raw.ReadResponse();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 431);
  }

  // Unknown endpoint and wrong method map deterministically.
  auto nowhere = client.Do("GET", "/v2/nope", "", dr);
  ASSERT_TRUE(nowhere.ok());
  EXPECT_EQ(nowhere->status, 404);
  auto wrong_method = client.Do("GET", "/v1/search", "", dr);
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status, 405);
}

TEST_F(ServerTest, OverloadShedsWith503InsteadOfHanging) {
  Bootstrap();
  ServerOptions options = BaseServerOpts();
  options.worker_threads = 1;     // one connection in service
  options.admission.max_queue = 1;  // one connection waiting
  StartServer(options);

  // Park connection A in the single worker: send half a request and
  // stop. The worker blocks reading the rest.
  HttpClient a = MakeClient();
  ASSERT_TRUE(a.SendRaw("GET /v1/health HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Connection: close\r\n")
                  .ok());
  // Let the worker dequeue A before filling the queue behind it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // B fills the one queue slot.
  HttpClient b = MakeClient();
  ASSERT_TRUE(b.SendRaw("GET /v1/health HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Connection: close\r\n")
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // C must be shed promptly by the acceptor — 503 with Retry-After,
  // not a hang behind the busy worker.
  HttpClient c = MakeClient();
  auto shed_start = std::chrono::steady_clock::now();
  auto shed = c.Do("GET", "/v1/health");
  auto shed_elapsed = std::chrono::steady_clock::now() - shed_start;
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->status, 503);
  EXPECT_EQ(shed->headers.count("retry-after"), 1u);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                shed_elapsed)
                .count(),
            2000);

  // Unblock A; both parked connections then complete normally.
  ASSERT_TRUE(a.SendRaw("\r\n").ok());
  auto ra = a.ReadResponse();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  EXPECT_EQ(ra->status, 200);
  ASSERT_TRUE(b.SendRaw("\r\n").ok());
  auto rb = b.ReadResponse();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_EQ(rb->status, 200);

  // The shed shows up in telemetry.
  auto snapshot = registry_.TakeSnapshot();
  EXPECT_GE(snapshot.counters["server.shed"], 1u);
  EXPECT_GE(snapshot.counters["server.accepted"], 2u);
}

// The admission queue's fixed 2 s wait limit: a connection that waited
// past it reaches its worker `timed_out` (answered 503, not served) and
// is counted in server.shed_timeout; one dequeued promptly is served.
class AdmissionWaitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    ::close(fds_[0]);
    ::close(fds_[1]);
  }

  /// Queues one end of the pair, waits `wait`, and dequeues it again.
  AdmissionController::Ticket QueueFor(std::chrono::milliseconds wait) {
    AdmissionController admission(AdmissionOptions{}, &registry_);
    EXPECT_TRUE(admission.Offer(fds_[0]));
    std::this_thread::sleep_for(wait);
    AdmissionController::Ticket ticket;
    EXPECT_TRUE(admission.Dequeue(&ticket));
    EXPECT_EQ(ticket.fd, fds_[0]);
    return ticket;
  }

  uint64_t ShedTimeouts() {
    return registry_.TakeSnapshot().counters["server.shed_timeout"];
  }

  int fds_[2] = {-1, -1};
  obs::MetricsRegistry registry_;
};

TEST_F(AdmissionWaitTest, WaitPastTheLimitIsTimedOutAndShed) {
  AdmissionController::Ticket ticket =
      QueueFor(std::chrono::milliseconds(2100));
  EXPECT_TRUE(ticket.timed_out);
  EXPECT_GT(ticket.waited_micros, 2000000u);
  EXPECT_EQ(ShedTimeouts(), 1u);
}

TEST_F(AdmissionWaitTest, PromptDequeueIsNotTimedOut) {
  AdmissionController::Ticket ticket = QueueFor(std::chrono::milliseconds(0));
  EXPECT_FALSE(ticket.timed_out);
  EXPECT_LT(ticket.waited_micros, 2000000u);
  EXPECT_EQ(ShedTimeouts(), 0u);
}

// GET /v1/audit is paged: at most 1,000 events per response however
// large `limit` is, and a walk that follows `next` returns every shard's
// trail exactly once, in seq order. A malformed cursor is a 400.
TEST_F(ServerTest, AuditTrailIsPagedWithACursor) {
  Bootstrap();
  auto record =
      vault_->CreateRecord("dr", "pat", "text/plain", "note", {}, "hipaa-6y");
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  for (int i = 0; i < 1100; i++) {
    ASSERT_TRUE(vault_->ReadRecord("dr", *record).ok());
  }
  StartServer();
  HttpClient client = MakeClient();
  const std::string aud = Login(&client, "aud");

  auto EventsOf = [&](const ClientResponse& r) {
    return Parsed(r).as_object().at("events").as_array();
  };
  for (const char* target : {"/v1/audit", "/v1/audit?limit=5000"}) {
    auto page = client.Do("GET", target, "", aud);
    ASSERT_TRUE(page.ok());
    ASSERT_EQ(page->status, 200) << page->body;
    EXPECT_EQ(EventsOf(*page).size(), 1000u) << target;
    EXPECT_EQ(Parsed(*page).as_object().count("next"), 1u) << target;
  }

  std::vector<std::vector<uint64_t>> walked(vault_->num_shards());
  std::string query = "limit=250";
  int pages = 0;
  for (; pages < 100; ++pages) {
    auto page = client.Do("GET", "/v1/audit?" + query, "", aud);
    ASSERT_TRUE(page.ok());
    ASSERT_EQ(page->status, 200) << query << ": " << page->body;
    Value body = Parsed(*page);
    const Value::Array& events = body.as_object().at("events").as_array();
    EXPECT_LE(events.size(), 250u);
    for (const Value& e : events) {
      const uint64_t shard = e.as_object().at("shard").as_uint();
      ASSERT_LT(shard, walked.size());
      walked[shard].push_back(e.as_object().at("seq").as_uint());
    }
    auto next = body.as_object().find("next");
    if (next == body.as_object().end()) break;
    query = next->second.as_string() + "&limit=250";
  }
  EXPECT_GE(pages, 4);
  for (uint32_t k = 0; k < vault_->num_shards(); ++k) {
    const uint64_t size = vault_->shard(k)->audit()->size();
    ASSERT_EQ(walked[k].size(), size) << "shard " << k;
    for (uint64_t seq = 0; seq < size; ++seq) {
      EXPECT_EQ(walked[k][seq], seq) << "shard " << k;
    }
  }

  for (const char* bad :
       {"/v1/audit?after=abc", "/v1/audit?after=-1", "/v1/audit?shard=zz",
        "/v1/audit?shard=99", "/v1/audit?limit=ten",
        "/v1/audit?shard=0&after=18446744073709551615",
        "/v1/audit?after=99999999999999999999"}) {
    auto r = client.Do("GET", bad, "", aud);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, 400) << bad << ": " << r->body;
  }
}

TEST_F(ServerTest, BreakGlassAuditedOnceAndSurvivesRestart) {
  Bootstrap();
  // Seed a record for the unassigned patient (clerks may create).
  auto sealed = vault_->CreateRecord("clerk", "lone", "text/plain",
                                     "sealed emergency chart", {"sealed"},
                                     "hipaa-6y");
  ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
  ASSERT_TRUE(vault_->SyncAll().ok());
  const std::string record_id = *sealed;
  StartServer();

  HttpClient client = MakeClient();
  std::string dr2 = Login(&client, "dr2");

  // Without a grant: denied (and the denial is itself audited).
  auto denied = client.Do("GET", "/v1/records/" + record_id, "", dr2);
  ASSERT_TRUE(denied.ok());
  EXPECT_EQ(denied->status, 403);

  // Break glass over HTTP: two-hour emergency access.
  const int64_t duration = 2ll * 3600 * 1000 * 1000;
  auto grant = client.Do(
      "POST", "/v1/break-glass",
      Obj({{"patient_id", Value("lone")},
           {"justification", Value("unconscious in ER, no consent possible")},
           {"duration_micros", Value(duration)}}),
      dr2);
  ASSERT_TRUE(grant.ok()) << grant.status().ToString();
  ASSERT_EQ(grant->status, 200) << grant->body;
  const std::string grant_id =
      Parsed(*grant).as_object().at("grant_id").as_string();
  EXPECT_FALSE(grant_id.empty());

  // Exactly one kBreakGlass event in the merged audit trail.
  std::string aud = Login(&client, "aud");
  auto CountBreakGlass = [&](const std::string& token) {
    auto trail = client.Do("GET", "/v1/audit", "", token);
    EXPECT_TRUE(trail.ok());
    EXPECT_EQ(trail->status, 200);
    size_t n = 0;
    Value trail_body = Parsed(*trail);
    for (const Value& e : trail_body.as_object().at("events").as_array()) {
      if (e.as_object().at("action").as_string() == "break-glass") n++;
    }
    return n;
  };
  EXPECT_EQ(CountBreakGlass(aud), 1u);

  // The grant works...
  auto read = client.Do("GET", "/v1/records/" + record_id, "", dr2);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->status, 200) << read->body;

  // ...and SURVIVES a full restart: this is the state-log persistence
  // fix observed end to end. Before it, the grant existed only in
  // memory — the audit trail claimed emergency access was active while
  // a crash had silently revoked it.
  RestartEverything();
  HttpClient client2 = MakeClient();
  dr2 = Login(&client2, "dr2");
  auto after = client2.Do("GET", "/v1/records/" + record_id, "", dr2);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->status, 200) << after->body;

  // Still exactly one break-glass audit event (replay must not re-audit
  // the grant), and exactly one active grant.
  client = std::move(client2);
  aud = Login(&client, "aud");
  EXPECT_EQ(CountBreakGlass(aud), 1u);
  size_t active = 0;
  for (uint32_t k = 0; k < vault_->num_shards(); ++k) {
    active += vault_->shard(k)->access()->ActiveGrantCount(clock_.Now());
  }
  EXPECT_EQ(active, 1u);

  // The restart preserved the ORIGINAL expiry: advance past it and the
  // emergency access lapses — and the grant table is pruned back to
  // empty (expired grants must not accumulate over a 30-year horizon).
  clock_.Advance(duration + 1);
  auto expired = client.Do("GET", "/v1/records/" + record_id, "",
                           Login(&client, "dr2"));
  ASSERT_TRUE(expired.ok());
  EXPECT_EQ(expired->status, 403);
  active = 0;
  for (uint32_t k = 0; k < vault_->num_shards(); ++k) {
    active += vault_->shard(k)->access()->ActiveGrantCount(clock_.Now());
  }
  EXPECT_EQ(active, 0u);
}

TEST_F(ServerTest, ExpiredGrantsDoNotAccumulateAndIdsNeverRecycle) {
  Bootstrap();

  // Issue a pile of short grants directly against the vault, expire
  // them, and check the table actually shrinks (the pruning fix: the
  // old code only ever inserted).
  for (int i = 0; i < 8; ++i) {
    auto g = vault_->BreakGlass("dr2", "lone", "episode " + std::to_string(i),
                                1000000);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    clock_.Advance(2000000);  // each grant dies before the next
  }
  size_t active = 0;
  for (uint32_t k = 0; k < vault_->num_shards(); ++k) {
    active += vault_->shard(k)->access()->ActiveGrantCount(clock_.Now());
  }
  EXPECT_EQ(active, 0u);

  // Reopen: replay restores nothing (all expired) but must keep the id
  // counter ahead of every replayed grant — an id is never issued twice
  // even across restarts, or two different emergencies would be
  // indistinguishable in the audit record.
  ASSERT_TRUE(vault_->SyncAll().ok());
  vault_.reset();
  OpenVault();
  active = 0;
  for (uint32_t k = 0; k < vault_->num_shards(); ++k) {
    active += vault_->shard(k)->access()->ActiveGrantCount(clock_.Now());
  }
  EXPECT_EQ(active, 0u);
  auto fresh = vault_->BreakGlass("dr2", "lone", "fresh episode", 1000000);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(*fresh, "bg-9");  // 8 replayed ids stay burned
}

TEST_F(ServerTest, OverflowingGrantDurationsAreRefused) {
  Bootstrap();
  StartServer();
  HttpClient client = MakeClient();
  const std::string dr2 = Login(&client, "dr2");
  const std::string pat = Login(&client, "pat");

  // INT64_MAX overflows `now + duration`; UINT64_MAX is above INT64_MAX
  // and reads back as a negative duration. Both are client errors, and
  // neither leaves a grant behind.
  const Value durations[] = {
      Value(std::numeric_limits<int64_t>::max()),
      Value(std::numeric_limits<uint64_t>::max()),
  };
  for (const Value& duration : durations) {
    auto bg = client.Do("POST", "/v1/break-glass",
                        Obj({{"patient_id", Value("lone")},
                             {"justification", Value("ER")},
                             {"duration_micros", duration}}),
                        dr2);
    ASSERT_TRUE(bg.ok()) << bg.status().ToString();
    EXPECT_EQ(bg->status, 400) << bg->body;
    auto consent = client.Do("POST", "/v1/consent",
                             Obj({{"grantee", Value("dr2")},
                                  {"purpose", Value("referral")},
                                  {"duration_micros", duration}}),
                             pat);
    ASSERT_TRUE(consent.ok()) << consent.status().ToString();
    EXPECT_EQ(consent->status, 400) << consent->body;
  }
  size_t active = 0;
  for (uint32_t k = 0; k < vault_->num_shards(); ++k) {
    active += vault_->shard(k)->access()->ActiveGrantCount(clock_.Now());
  }
  EXPECT_EQ(active, 0u);
  EXPECT_EQ(vault_->ActiveConsentCount(), 0u);
}

TEST_F(ServerTest, ConsentLifecycleOverHttpSurvivesRestart) {
  Bootstrap();
  // dr treats pat; dr2 has no care relation with pat at all.
  auto created = vault_->CreateRecord("dr", "pat", "text/plain",
                                      "shared consult notes", {"consult"},
                                      "hipaa-6y");
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_TRUE(vault_->SyncAll().ok());
  const std::string record_id = *created;
  StartServer();

  HttpClient client = MakeClient();
  std::string dr2 = Login(&client, "dr2");
  const std::string pat = Login(&client, "pat");

  // Without consent: RBAC refuses the stranger.
  auto denied = client.Do("GET", "/v1/records/" + record_id, "", dr2);
  ASSERT_TRUE(denied.ok());
  EXPECT_EQ(denied->status, 403);

  // Only the patient may delegate — the treating physician cannot
  // re-share the chart.
  const int64_t duration = 2ll * 3600 * 1000 * 1000;
  auto reshare = client.Do(
      "POST", "/v1/consent",
      Obj({{"grantee", Value("dr2")},
           {"record_id", Value(record_id)},
           {"purpose", Value("specialist referral")},
           {"duration_micros", Value(duration)}}),
      Login(&client, "dr"));
  ASSERT_TRUE(reshare.ok());
  EXPECT_EQ(reshare->status, 403) << reshare->body;

  // The patient grants a record-scoped consent: 201 with the grant id.
  auto granted = client.Do(
      "POST", "/v1/consent",
      Obj({{"grantee", Value("dr2")},
           {"record_id", Value(record_id)},
           {"purpose", Value("specialist referral")},
           {"duration_micros", Value(duration)}}),
      pat);
  ASSERT_TRUE(granted.ok()) << granted.status().ToString();
  ASSERT_EQ(granted->status, 201) << granted->body;
  Value grant_body = Parsed(*granted);
  const std::string g1 = grant_body.as_object().at("grant_id").as_string();
  EXPECT_FALSE(g1.empty());
  EXPECT_EQ(grant_body.as_object().at("scope").as_string(), "record");

  // The grantee now reads, and the patient sees the grant listed.
  auto read = client.Do("GET", "/v1/records/" + record_id, "", dr2);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->status, 200) << read->body;
  auto listed = client.Do("GET", "/v1/consent", "", pat);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->status, 200) << listed->body;
  {
    Value list_body = Parsed(*listed);
    const Value::Array& grants =
        list_body.as_object().at("grants").as_array();
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].as_object().at("grant_id").as_string(), g1);
    EXPECT_EQ(grants[0].as_object().at("grantee").as_string(), "dr2");
  }

  // The consent read is attributed to its basis in the audit trail.
  const std::string aud = Login(&client, "aud");
  auto trail = client.Do("GET", "/v1/records/" + record_id + "/audit", "",
                         aud);
  ASSERT_TRUE(trail.ok());
  ASSERT_EQ(trail->status, 200);
  bool saw_consent_read = false;
  Value trail_body = Parsed(*trail);
  for (const Value& e : trail_body.as_object().at("events").as_array()) {
    if (e.as_object().at("actor").as_string() == "dr2" &&
        e.as_object().at("details").as_string().find("via=consent") !=
            std::string::npos) {
      saw_consent_read = true;
    }
  }
  EXPECT_TRUE(saw_consent_read);

  // Revocation over HTTP cuts access on the very next request.
  auto revoked = client.Do("POST", "/v1/consent/revoke",
                           Obj({{"grant_id", Value(g1)}}), pat);
  ASSERT_TRUE(revoked.ok());
  ASSERT_EQ(revoked->status, 200) << revoked->body;
  auto after_revoke = client.Do("GET", "/v1/records/" + record_id, "", dr2);
  ASSERT_TRUE(after_revoke.ok());
  EXPECT_EQ(after_revoke->status, 403);

  // A patient-wide grant re-opens the door (covers future records too).
  auto broad = client.Do(
      "POST", "/v1/consent",
      Obj({{"grantee", Value("dr2")},
           {"purpose", Value("care transfer")},
           {"duration_micros", Value(duration)}}),
      pat);
  ASSERT_TRUE(broad.ok());
  ASSERT_EQ(broad->status, 201) << broad->body;
  const std::string g2 =
      Parsed(*broad).as_object().at("grant_id").as_string();
  EXPECT_EQ(Parsed(*broad).as_object().at("scope").as_string(), "patient");

  // Restart: the surviving grant still works, the revocation still
  // holds, and the listing shows exactly the live grant.
  RestartEverything();
  HttpClient client2 = MakeClient();
  dr2 = Login(&client2, "dr2");
  auto after_restart =
      client2.Do("GET", "/v1/records/" + record_id, "", dr2);
  ASSERT_TRUE(after_restart.ok());
  EXPECT_EQ(after_restart->status, 200) << after_restart->body;
  auto relisted =
      client2.Do("GET", "/v1/consent", "", Login(&client2, "pat"));
  ASSERT_TRUE(relisted.ok());
  ASSERT_EQ(relisted->status, 200) << relisted->body;
  {
    Value relist_body = Parsed(*relisted);
    const Value::Array& grants =
        relist_body.as_object().at("grants").as_array();
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].as_object().at("grant_id").as_string(), g2);
    EXPECT_EQ(grants[0].as_object().at("scope").as_string(), "patient");
  }

  // The restart preserved the original expiry: past it, access lapses.
  clock_.Advance(duration + 1);
  auto lapsed = client2.Do("GET", "/v1/records/" + record_id, "",
                           Login(&client2, "dr2"));
  ASSERT_TRUE(lapsed.ok());
  EXPECT_EQ(lapsed->status, 403);
}

TEST_F(ServerTest, SmuggledFramingRejectedBeforeDispatch) {
  Bootstrap();
  StartServer();

  // Two Content-Length headers, even agreeing ones: a front proxy and
  // this server could pick different copies, so the request never
  // reaches routing.
  {
    HttpClient raw = MakeClient();
    ASSERT_TRUE(raw.SendRaw("POST /v1/search HTTP/1.1\r\n"
                            "Content-Length: 5\r\n"
                            "Content-Length: 5\r\n\r\nhello")
                    .ok());
    auto r = raw.ReadResponse();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 400);
  }
  // Conflicting copies, same refusal.
  {
    HttpClient raw = MakeClient();
    ASSERT_TRUE(raw.SendRaw("POST /v1/search HTTP/1.1\r\n"
                            "Content-Length: 5\r\n"
                            "Content-Length: 6\r\n\r\nhello!")
                    .ok());
    auto r = raw.ReadResponse();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 400);
  }
  // Transfer-Encoding alongside Content-Length — the classic CL.TE /
  // TE.CL desync pair — is refused outright.
  {
    HttpClient raw = MakeClient();
    ASSERT_TRUE(raw.SendRaw("POST /v1/search HTTP/1.1\r\n"
                            "Transfer-Encoding: chunked\r\n"
                            "Content-Length: 5\r\n\r\nhello")
                    .ok());
    auto r = raw.ReadResponse();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 400);
  }
  {
    HttpClient raw = MakeClient();
    ASSERT_TRUE(raw.SendRaw("POST /v1/search HTTP/1.1\r\n"
                            "Content-Length: 5\r\n"
                            "Transfer-Encoding: chunked\r\n\r\nhello")
                    .ok());
    auto r = raw.ReadResponse();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 400);
  }

  // A single well-formed Content-Length still works on a fresh
  // connection — the hardening rejects duplicates, not bodies.
  HttpClient client = MakeClient();
  const std::string dr = Login(&client, "dr");
  auto fine = client.Do("POST", "/v1/search",
                        Obj({{"terms", Value(Value::Array{Value("x")})}}),
                        dr);
  ASSERT_TRUE(fine.ok());
  EXPECT_EQ(fine->status, 200) << fine->body;
}

// The header cap holds however the block arrives: a 9 KiB block sent in
// one write is refused, not only one the reader had to wait for.
TEST_F(ServerTest, HeaderBlockOverTheCapInOneWriteIs431) {
  Bootstrap();
  StartServer();
  HttpClient raw = MakeClient();
  std::string head = "GET /v1/health HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  head += "X-Filler: " + std::string(9 * 1024, 'x') + "\r\n\r\n";
  ASSERT_TRUE(raw.SendRaw(head).ok());
  auto r = raw.ReadResponse();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->status, 431);
}

// Field lines another parser could frame differently are refused, and
// the verdict does not depend on whether the body shares the head's
// segment.
TEST_F(ServerTest, AmbiguousFieldLinesAre400HoweverTheBodyArrives) {
  Bootstrap();
  StartServer();
  const std::string heads[] = {
      // Whitespace between the field name and the colon.
      "POST /v1/search HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Length : 5\r\n\r\n",
      // An obs-fold line carrying the Content-Length.
      "POST /v1/search HTTP/1.1\r\nHost: 127.0.0.1\r\nX-Pad: a\r\n"
      " Content-Length: 5\r\n\r\n",
  };
  for (const std::string& head : heads) {
    for (const bool body_later : {false, true}) {
      SCOPED_TRACE(head + (body_later ? " + body later" : " + body"));
      HttpClient raw = MakeClient();
      if (body_later) {
        ASSERT_TRUE(raw.SendRaw(head).ok());
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        (void)raw.SendRaw("hello");  // the server may have closed already
      } else {
        ASSERT_TRUE(raw.SendRaw(head + "hello").ok());
      }
      auto r = raw.ReadResponse();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->status, 400);
    }
  }
}

TEST_F(ServerTest, LogoutLeavesNoDistinguishableTrace) {
  Bootstrap();
  StartServer();
  HttpClient client = MakeClient();
  const std::string dr = Login(&client, "dr");

  // The token works, then logout invalidates it on the very next
  // request — no grace window.
  auto live = client.Do("GET", "/v1/health", "", dr);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live->status, 200);
  auto out = client.Do("POST", "/v1/logout", "", dr);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->status, 200);

  // A replayed logged-out token and a token the server never issued
  // must be indistinguishable: same status, same body, same challenge.
  auto replayed = client.Do("GET", "/v1/audit", "", dr);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->status, 401);
  auto forged = client.Do("GET", "/v1/audit", "",
                          "0123456789abcdef0123456789abcdef");
  ASSERT_TRUE(forged.ok());
  EXPECT_EQ(forged->status, 401);
  EXPECT_EQ(replayed->body, forged->body);
  EXPECT_EQ(replayed->headers.count("www-authenticate"),
            forged->headers.count("www-authenticate"));

  // Logging out twice does not reveal whether the token ever existed.
  auto relogout = client.Do("POST", "/v1/logout", "", dr);
  ASSERT_TRUE(relogout.ok());
  EXPECT_EQ(relogout->status, 401);
  EXPECT_EQ(relogout->body, forged->body);
}

// Logins look principals up while an admin registers new ones: the
// lookup must take the shard's lock, or the principal table is read
// while it is rebalanced (a data race ThreadSanitizer reports).
TEST_F(ServerTest, LoginsRaceRegistrations) {
  Bootstrap();
  StartServer();
  constexpr int kRegistrations = 150;
  std::thread admin([&] {
    for (int i = 0; i < kRegistrations; ++i) {
      const std::string id = "new-" + std::to_string(i);
      Status s = vault_->RegisterPrincipal("admin",
                                           {id, Role::kPatient, "N"});
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  });
  HttpClient client = MakeClient();
  for (int i = 0; i < kRegistrations; ++i) {
    // A settled principal always logs in; a new one once registered.
    EXPECT_FALSE(Login(&client, "dr").empty());
    auto r = client.Do("POST", "/v1/login",
                       Obj({{"principal", Value("new-" + std::to_string(i))},
                            {"secret", Value(kSecret)}}));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->status == 200 || r->status == 403) << r->body;
  }
  admin.join();
  EXPECT_FALSE(Login(&client, "new-" + std::to_string(kRegistrations - 1))
                   .empty());
}

TEST_F(ServerTest, KeepAliveServesPipelinedSequentialRequests) {
  Bootstrap();
  StartServer();
  HttpClient client = MakeClient();
  const std::string dr = Login(&client, "dr");
  // Several requests on one connection — all on the same socket, all
  // answered in order.
  for (int i = 0; i < 5; ++i) {
    auto health = client.Do("GET", "/v1/health", "", dr);
    ASSERT_TRUE(health.ok()) << health.status().ToString();
    EXPECT_EQ(health->status, 200);
  }
  auto snapshot = registry_.TakeSnapshot();
  // One connection, many requests: request count outruns accepts.
  EXPECT_GE(snapshot.counters["server.requests"], 6u);
  auto hist = snapshot.histograms.find("server.req.health");
  ASSERT_NE(hist, snapshot.histograms.end());
  EXPECT_GE(hist->second.count, 5u);
}

TEST_F(ServerTest, Http11RequestWithoutHostIs400) {
  Bootstrap();
  StartServer();
  // RFC 9112 §3.2: an HTTP/1.1 request must carry Host.
  {
    HttpClient raw = MakeClient();
    ASSERT_TRUE(raw.SendRaw("GET /v1/health HTTP/1.1\r\n\r\n").ok());
    auto r = raw.ReadResponse();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 400);
  }
  // The same request with Host is served.
  {
    HttpClient raw = MakeClient();
    ASSERT_TRUE(
        raw.SendRaw("GET /v1/health HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")
            .ok());
    auto r = raw.ReadResponse();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 200);
  }
}


/// Fixture helpers for driving Handle() directly, without sockets.
class ServerRoutingTest : public ServerTest {
 protected:
  HttpResponse Call(const std::string& method, const std::string& target,
                    const std::string& body = "",
                    const std::string& token = "") {
    HttpRequest request;
    request.method = method;
    request.target = target;
    request.version = "HTTP/1.1";
    request.body = body;
    if (!token.empty()) request.headers["authorization"] = "Bearer " + token;
    return server_->Handle(request);
  }

  static std::string ErrorText(const HttpResponse& response) {
    auto v = Value::Parse(response.body);
    if (!v.ok() || !v->is_object()) return "<unparsable body>";
    auto it = v->as_object().find("error");
    return it == v->as_object().end() ? "" : it->second.as_string();
  }

  /// Sample counts of every "server.req.<route>" histogram, by route.
  std::map<std::string, uint64_t> RouteCounts() {
    std::map<std::string, uint64_t> out;
    const std::string prefix = "server.req.";
    for (const auto& [name, h] : registry_.TakeSnapshot().histograms) {
      if (name.rfind(prefix, 0) == 0) out[name.substr(prefix.size())] = h.count;
    }
    return out;
  }

  uint64_t SyncCount() {
    auto snapshot = registry_.TakeSnapshot();
    auto it = snapshot.histograms.find("sharded.sync");
    return it == snapshot.histograms.end() ? 0 : it->second.count;
  }
};

// Pins the wire behaviour of every route: status and error text for the
// right and a wrong method, with and without a live session, plus the
// latency histogram each routed request lands in. Public routes check
// the method before any authentication; authenticated routes answer 401
// before they look at the method.
TEST_F(ServerRoutingTest, RoutingMatrixPinsStatusErrorAndHistogram) {
  Bootstrap();
  auto created = vault_->CreateRecord("dr", "pat", "text/plain", "chart",
                                      {"chart"}, "hipaa-6y");
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  const std::string rec = "/v1/records/" + *created;
  StartServer();

  const char* const kNotAuditor =
      "PermissionDenied: physician may not read-audit: requires auditor";
  struct Row {
    const char* route;  // histogram suffix; "" when no handler runs
    const char* method;
    std::string target;
    const char* body;
    bool auth;
    int status;         // right method, live session
    const char* error;  // its error text ("" = success body)
    const char* allow;  // 405 text for a wrong method
  };
  const Row kRows[] = {
      {"health", "GET", "/v1/health", "", false, 200, "", "use GET"},
      {"login", "POST", "/v1/login", "{}", false, 400,
       "InvalidArgument: missing string field \"principal\"", "use POST"},
      {"replication", "GET", "/v1/replication", "", false, 404,
       "replication not configured", "use GET"},
      {"repl_cut", "POST", "/v1/replication/cut/0", "", false, 404,
       "this endpoint does not ship batches", "use POST"},
      {"transparency", "GET", "/v1/transparency", "", false, 404,
       "transparency not configured", "use GET"},
      {"transparency_checkpoint", "GET", "/v1/transparency/checkpoint", "",
       false, 404, "transparency not configured", "use GET"},
      {"transparency_consistency", "GET", "/v1/transparency/consistency", "",
       false, 404, "transparency not configured", "use GET"},
      {"logout", "POST", "/v1/logout", "", true, 200, "", "use POST"},
      {"create_record", "POST", "/v1/records", "{}", true, 400,
       "InvalidArgument: missing string field \"patient_id\"", "use POST"},
      {"search", "POST", "/v1/search", "{}", true, 400,
       "search requires at least one term", "use POST"},
      {"audit", "GET", "/v1/audit", "", true, 403, kNotAuditor, "use GET"},
      {"checkpoint", "POST", "/v1/audit/checkpoint", "", true, 403,
       kNotAuditor, "use POST"},
      {"break_glass", "POST", "/v1/break-glass", "{}", true, 400,
       "InvalidArgument: missing string field \"patient_id\"", "use POST"},
      {"consent_grant", "POST", "/v1/consent", "{}", true, 400,
       "InvalidArgument: missing string field \"grantee\"", "use POST or GET"},
      {"consent_list", "GET", "/v1/consent", "", true, 200, "",
       "use POST or GET"},
      {"consent_revoke", "POST", "/v1/consent/revoke", "{}", true, 400,
       "InvalidArgument: missing string field \"grant_id\"", "use POST"},
      {"transparency_proof", "GET", "/v1/transparency/proof", "", true, 404,
       "transparency not configured", "use GET"},
      {"disclosures", "GET", "/v1/transparency/disclosures", "", true, 200,
       "", "use GET"},
      {"correct", "POST", rec + "/correct", "{}", true, 400,
       "InvalidArgument: missing string field \"content\"", "use POST"},
      {"history", "GET", rec + "/history", "", true, 200, "", "use GET"},
      {"dispose", "POST", rec + "/dispose", "", true, 403,
       "PermissionDenied: physician may not dispose: requires admin",
       "use POST"},
      {"record_audit", "GET", rec + "/audit", "", true, 403, kNotAuditor,
       "use GET"},
      {"read_record", "GET", rec, "", true, 200, "", "use GET"},
      // Unknown sub-resources fall through to a read of the whole rest.
      {"read_record", "GET", "/v1/records/s0-r-1/frob", "", true, 404,
       "NotFound: unknown record", "use GET"},
  };

  auto expect = [&](const std::string& what, const HttpResponse& response,
                    int status, const std::string& error,
                    const std::string& route,
                    const std::map<std::string, uint64_t>& before) {
    EXPECT_EQ(response.status, status) << what << ": " << response.body;
    EXPECT_EQ(ErrorText(response), error) << what;
    std::map<std::string, uint64_t> want = before;
    if (!route.empty()) want[route] += 1;
    EXPECT_EQ(RouteCounts(), want) << what;
    if (status == 401) {
      EXPECT_EQ(response.headers.count("WWW-Authenticate"), 1u) << what;
    }
  };

  for (const Row& row : kRows) {
    // Swap GET and POST, except where the path accepts both.
    const std::string wrong = row.target == "/v1/consent" ? "PUT"
                              : std::string(row.method) == "GET" ? "POST"
                                                                 : "GET";
    const std::string name = std::string(row.method) + " " + row.target;
    const std::string wrong_name = wrong + " " + row.target;
    {
      auto before = RouteCounts();
      HttpResponse r = Call(row.method, row.target, row.body,
                            server_->sessions()->Issue("dr"));
      expect(name + " (token)", r, row.status, row.error, row.route, before);
    }
    {
      auto before = RouteCounts();
      HttpResponse r = Call(row.method, row.target, row.body);
      if (row.auth) {
        expect(name + " (no token)", r, 401, "missing bearer token", "",
               before);
      } else {
        expect(name + " (no token)", r, row.status, row.error, row.route,
               before);
      }
    }
    {
      auto before = RouteCounts();
      HttpResponse r = Call(wrong, row.target, row.body,
                            server_->sessions()->Issue("dr"));
      expect(wrong_name + " (token)", r, 405, row.allow, "", before);
    }
    {
      auto before = RouteCounts();
      HttpResponse r = Call(wrong, row.target, row.body);
      if (row.auth) {
        expect(wrong_name + " (no token)", r, 401, "missing bearer token", "",
               before);
      } else {
        expect(wrong_name + " (no token)", r, 405, row.allow, "", before);
      }
    }
  }

  // An unknown path needs a session before it is called unknown.
  const std::string dr = server_->sessions()->Issue("dr");
  auto before = RouteCounts();
  expect("GET /v2/nope (no token)", Call("GET", "/v2/nope"), 401,
         "missing bearer token", "", before);
  expect("GET /v2/nope (forged)", Call("GET", "/v2/nope", "", "forged"), 401,
         "PermissionDenied: invalid or expired session", "", before);
  expect("GET /v2/nope (token)", Call("GET", "/v2/nope", "", dr), 404,
         "no such endpoint: /v2/nope", "", before);
  expect("PUT /v1/consent", Call("PUT", "/v1/consent", "", dr), 405,
         "use POST or GET", "", before);
  expect("DELETE /v1/consent", Call("DELETE", "/v1/consent", "", dr), 405,
         "use POST or GET", "", before);
  expect("POST /v1/health (no token)", Call("POST", "/v1/health"), 405,
         "use GET", "", before);
  expect("PUT /v1/replication/cut/x (no token)",
         Call("PUT", "/v1/replication/cut/x"), 405, "use POST", "", before);
}

// Every acknowledged mutation rides exactly one group-commit barrier
// before the client sees its 2xx; denied mutations and read-only routes
// never wait for one.
TEST_F(ServerRoutingTest, DurableRoutesSyncOncePerAcknowledgedMutation) {
  Bootstrap();
  auto expiring = vault_->CreateRecord("dr", "pat", "text/plain", "old",
                                       {"old"}, "short-1y");
  ASSERT_TRUE(expiring.ok()) << expiring.status().ToString();
  ServerOptions options = BaseServerOpts();
  options.durable_writes = true;
  StartServer(options);

  SessionManager* sessions = server_->sessions();
  const std::string dr = sessions->Issue("dr");
  const std::string dr2 = sessions->Issue("dr2");
  const std::string pat = sessions->Issue("pat");
  const std::string aud = sessions->Issue("aud");
  const int64_t hour = 3600ll * 1000 * 1000;

  auto syncs = [&](const std::string& what, const HttpResponse& response,
                   int status, uint64_t want_syncs, uint64_t before) {
    EXPECT_EQ(response.status, status) << what << ": " << response.body;
    EXPECT_EQ(SyncCount() - before, want_syncs) << what;
    return response;
  };

  uint64_t n = SyncCount();
  HttpResponse created = syncs(
      "create",
      Call("POST", "/v1/records",
           Obj({{"patient_id", Value("pat")},
                {"content", Value("v1")},
                {"keywords", Value(Value::Array{Value("kw")})}}),
           dr),
      201, 1, n);
  auto body = Value::Parse(created.body);
  ASSERT_TRUE(body.ok());
  const std::string rec =
      "/v1/records/" + body->as_object().at("record_id").as_string();

  n = SyncCount();
  syncs("correct",
        Call("POST", rec + "/correct",
             Obj({{"content", Value("v2")}, {"reason", Value("typo")}}), dr),
        200, 1, n);
  n = SyncCount();
  syncs("break-glass",
        Call("POST", "/v1/break-glass",
             Obj({{"patient_id", Value("lone")},
                  {"justification", Value("unconscious in ER")},
                  {"duration_micros", Value(hour)}}),
             dr2),
        200, 1, n);
  n = SyncCount();
  HttpResponse grant = syncs(
      "consent grant",
      Call("POST", "/v1/consent",
           Obj({{"grantee", Value("dr2")},
                {"purpose", Value("second opinion")},
                {"duration_micros", Value(hour)}}),
           pat),
      201, 1, n);
  auto grant_body = Value::Parse(grant.body);
  ASSERT_TRUE(grant_body.ok());
  const std::string grant_id =
      grant_body->as_object().at("grant_id").as_string();
  n = SyncCount();
  syncs("consent revoke",
        Call("POST", "/v1/consent/revoke",
             Obj({{"grant_id", Value(grant_id)}}), pat),
        200, 1, n);
  n = SyncCount();
  syncs("checkpoint", Call("POST", "/v1/audit/checkpoint", "", aud), 200, 1,
        n);

  // Denied mutations: RBAC refuses before anything is written to ack.
  n = SyncCount();
  syncs("denied dispose", Call("POST", rec + "/dispose", "", dr), 403, 0, n);
  n = SyncCount();
  syncs("denied checkpoint", Call("POST", "/v1/audit/checkpoint", "", dr),
        403, 0, n);

  // Read-only routes never wait on the barrier.
  struct ReadOnly {
    const char* method;
    std::string target;
    std::string body;
    std::string token;
    int status;
  };
  const ReadOnly kReads[] = {
      {"GET", "/v1/health", "", "", 200},
      {"GET", "/v1/replication", "", "", 404},
      {"POST", "/v1/replication/cut/0", "", "", 404},
      {"GET", "/v1/transparency", "", "", 404},
      {"GET", "/v1/transparency/checkpoint", "", "", 404},
      {"GET", "/v1/transparency/consistency", "", "", 404},
      {"GET", "/v1/transparency/proof", "", aud, 404},
      {"POST", "/v1/login",
       Obj({{"principal", Value("dr")}, {"secret", Value(kSecret)}}), "",
       200},
      {"GET", rec, "", dr, 200},
      {"GET", rec + "?version=1", "", dr, 200},
      {"GET", rec + "/history", "", dr, 200},
      {"GET", rec + "/audit", "", aud, 200},
      {"POST", "/v1/search",
       Obj({{"terms", Value(Value::Array{Value("kw")})}}), dr, 200},
      {"GET", "/v1/audit", "", aud, 200},
      {"GET", "/v1/consent", "", pat, 200},
      {"GET", "/v1/transparency/disclosures", "", pat, 200},
      {"POST", "/v1/logout", "", sessions->Issue("dr"), 200},
  };
  for (const ReadOnly& r : kReads) {
    n = SyncCount();
    syncs(std::string(r.method) + " " + r.target,
          Call(r.method, r.target, r.body, r.token), r.status, 0, n);
  }

  // Disposal after retention: the last durable route.
  clock_.AdvanceYears(2);
  const std::string admin = sessions->Issue("admin");
  n = SyncCount();
  syncs("dispose", Call("POST", "/v1/records/" + *expiring + "/dispose", "",
                        admin),
        200, 1, n);
}

// A quarantined shard is a temporary outage: its requests answer 503 so
// clients retry once the shard rejoins. A request that can never succeed
// as sent, like disposing a record twice, is a 409 conflict instead.
TEST_F(ServerRoutingTest, QuarantinedShardIs503AndRepeatedDisposeIs409) {
  Bootstrap();
  // One expiring record on each of the two shards.
  std::map<uint32_t, std::string> record_on_shard;
  for (int i = 0; record_on_shard.size() < 2; ++i) {
    ASSERT_LT(i, 64) << "no patient placed on every shard";
    const std::string patient = "ward-" + std::to_string(i);
    const uint32_t k = vault_->router().ShardOf(patient);
    if (record_on_shard.count(k) != 0) continue;
    ASSERT_TRUE(vault_
                    ->RegisterPrincipal("admin",
                                        {patient, Role::kPatient, patient})
                    .ok());
    ASSERT_TRUE(vault_->AssignCare("admin", "dr", patient).ok());
    auto id = vault_->CreateRecord("dr", patient, "text/plain", "note", {},
                                   "short-1y");
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    record_on_shard[k] = *id;
  }
  ASSERT_TRUE(vault_->SyncAll().ok());
  const uint32_t sick = 0;
  const std::string sick_dir = vault_->ShardDirPath(sick);
  vault_.reset();

  // Bit rot in shard 0's state log: a degraded open quarantines it.
  const std::string state_log = sick_dir + "/state.log";
  std::string data;
  ASSERT_TRUE(storage::ReadFileToString(&env_, state_log, &data).ok());
  ASSERT_GT(data.size(), 10u);
  const char flipped = static_cast<char>(data[10] ^ 0x40);
  ASSERT_TRUE(env_.UnsafeOverwrite(state_log, 10, Slice(&flipped, 1)).ok());
  ShardedVaultOptions options = VaultOpts();
  options.open_mode = core::OpenMode::kDegraded;
  auto opened = ShardedVault::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  vault_ = std::move(*opened);
  ASSERT_TRUE(vault_->IsQuarantined(sick));
  StartServer();

  clock_.AdvanceYears(2);
  SessionManager* sessions = server_->sessions();
  const std::string dr = sessions->Issue("dr");
  const std::string admin = sessions->Issue("admin");

  HttpResponse sick_read =
      Call("GET", "/v1/records/" + record_on_shard[sick], "", dr);
  EXPECT_EQ(sick_read.status, 503) << sick_read.body;
  EXPECT_NE(ErrorText(sick_read).find("quarantined"), std::string::npos)
      << sick_read.body;

  const std::string healthy = "/v1/records/" + record_on_shard[1];
  HttpResponse first = Call("POST", healthy + "/dispose", "", admin);
  EXPECT_EQ(first.status, 200) << first.body;
  HttpResponse again = Call("POST", healthy + "/dispose", "", admin);
  EXPECT_EQ(again.status, 409) << again.body;
  EXPECT_EQ(ErrorText(again), "FailedPrecondition: record already disposed");
}

// ---- One framing verdict on both paths ---------------------------------

/// What a framing path made of one message: its outcome and, for kOk,
/// the fields the router reads.
struct FramingVerdict {
  ReadOutcome outcome;
  std::string method, target, body;
  bool keep_alive = false;

  bool operator==(const FramingVerdict& o) const {
    return outcome == o.outcome && method == o.method &&
           target == o.target && body == o.body && keep_alive == o.keep_alive;
  }
};

std::ostream& operator<<(std::ostream& os, const FramingVerdict& v) {
  return os << "{outcome=" << static_cast<int>(v.outcome) << " " << v.method
            << " " << v.target << " body=" << v.body.size()
            << "B keep_alive=" << v.keep_alive << "}";
}

FramingVerdict VerdictOf(ReadOutcome outcome, const HttpRequest& request) {
  if (outcome != ReadOutcome::kOk) return {outcome, "", "", "", false};
  return {outcome, request.method, request.target, request.body,
          request.KeepAlive()};
}

/// Every message of `wire` through ParseHttpRequest, up to the first
/// refusal or the last complete head.
std::vector<FramingVerdict> ParseInMemory(std::string wire) {
  const HttpLimits limits;
  std::vector<FramingVerdict> out;
  for (size_t end = wire.find("\r\n\r\n"); end != std::string::npos;
       end = wire.find("\r\n\r\n")) {
    HttpRequest request;
    const ReadOutcome rc = ParseHttpRequest(&wire, end, limits, &request);
    out.push_back(VerdictOf(rc, request));
    if (rc != ReadOutcome::kOk) break;
  }
  return out;
}

/// Every message of `wire`, written in one piece into a socketpair that
/// is then half-closed, through ReadHttpRequest on one carry-over buffer.
std::vector<FramingVerdict> ReadFromSocket(const std::string& wire) {
  const HttpLimits limits;
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  timeval tv{2, 0};
  ::setsockopt(fds[0], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  EXPECT_TRUE(WriteAll(fds[1], wire));
  ::shutdown(fds[1], SHUT_WR);
  std::vector<FramingVerdict> out;
  std::string leftover;
  while (true) {
    HttpRequest request;
    const ReadOutcome rc = ReadHttpRequest(fds[0], limits, &leftover, &request);
    if (rc == ReadOutcome::kEof) break;
    out.push_back(VerdictOf(rc, request));
    if (rc != ReadOutcome::kOk) break;
  }
  ::close(fds[0]);
  ::close(fds[1]);
  return out;
}

// Requests the socket reader and the in-memory parser must frame alike:
// each row's expected verdicts hold for both paths.
TEST(HttpFramingTest, VerdictTableHoldsOnBothPaths) {
  const std::string post_body = R"({"terms":["x"]})";
  const std::string post =
      "POST /v1/search HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Type: application/json\r\nContent-Length: " +
      std::to_string(post_body.size()) + "\r\n\r\n" + post_body;
  const std::string get_close =
      "GET /v1/health HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Connection: close\r\n\r\n";
  const auto ok = [](const char* method, const char* target,
                     std::string body, bool keep_alive) {
    return FramingVerdict{ReadOutcome::kOk, method, target, std::move(body),
                          keep_alive};
  };
  const FramingVerdict malformed{ReadOutcome::kMalformed, "", "", "", false};
  const FramingVerdict too_large{ReadOutcome::kBodyTooLarge, "", "", "",
                                 false};
  const FramingVerdict unsupported{ReadOutcome::kVersionNotSupported, "", "",
                                   "", false};

  const struct {
    const char* name;
    std::string wire;
    std::vector<FramingVerdict> verdicts;
  } kCases[] = {
      {"canonical GET",
       "GET /v1/records/r-1?v=2 HTTP/1.1\r\nHost: 127.0.0.1\r\n"
       "Authorization: Bearer abc\r\n\r\n",
       {ok("GET", "/v1/records/r-1?v=2", "", true)}},
      {"canonical POST", post, {ok("POST", "/v1/search", post_body, true)}},
      {"two pipelined requests",
       post + get_close,
       {ok("POST", "/v1/search", post_body, true),
        ok("GET", "/v1/health", "", false)}},
      {"duplicate Content-Length",
       "POST /v1/search HTTP/1.1\r\nContent-Length: 5\r\n"
       "Content-Length: 5\r\n\r\nhello",
       {malformed}},
      {"conflicting Content-Length",
       "POST /v1/search HTTP/1.1\r\nContent-Length: 5\r\n"
       "Content-Length: 6\r\n\r\nhello!",
       {malformed}},
      {"Transfer-Encoding then Content-Length",
       "POST /v1/search HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
       "Content-Length: 5\r\n\r\nhello",
       {malformed}},
      {"Content-Length then Transfer-Encoding",
       "POST /v1/search HTTP/1.1\r\nContent-Length: 5\r\n"
       "Transfer-Encoding: chunked\r\n\r\nhello",
       {malformed}},
      {"lone Transfer-Encoding",
       "POST /v1/search HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
       "5\r\nhello\r\n0\r\n\r\n",
       {malformed}},
      {"Content-Length 5abc",
       "POST /v1/search HTTP/1.1\r\nContent-Length: 5abc\r\n\r\nhello",
       {malformed}},
      {"Content-Length +5",
       "POST /v1/search HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
       {malformed}},
      {"body over the cap",
       "POST /v1/search HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
       {too_large}},
      {"request line without a version",
       "GET /v1/health\r\nHost: 127.0.0.1\r\n\r\n",
       {malformed}},
      {"HTTP/1.0 keep-alive",
       "GET /v1/health HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
       {ok("GET", "/v1/health", "", true)}},
      {"HTTP/1.0 without keep-alive",
       "GET /v1/health HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n",
       {ok("GET", "/v1/health", "", false)}},
      {"HTTP/2.0", "GET /v1/health HTTP/2.0\r\nHost: 127.0.0.1\r\n\r\n",
       {unsupported}},
      {"HTTP/0.9", "GET /v1/health HTTP/0.9\r\nHost: 127.0.0.1\r\n\r\n",
       {unsupported}},
      {"HTTP/1.1 then HTTP/1.2",
       "GET /v1/health HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
       "GET /v1/health HTTP/1.2\r\n\r\n",
       {ok("GET", "/v1/health", "", true), unsupported}},
      {"HTTP/1.1x", "GET /v1/health HTTP/1.1x\r\nHost: 127.0.0.1\r\n\r\n",
       {malformed}},
      {"HTTP/11", "GET /v1/health HTTP/11\r\nHost: 127.0.0.1\r\n\r\n",
       {malformed}},
      {"HTTP/1.", "GET /v1/health HTTP/1.\r\nHost: 127.0.0.1\r\n\r\n",
       {malformed}},
      {"lower-case http/1.1",
       "GET /v1/health http/1.1\r\nHost: 127.0.0.1\r\n\r\n",
       {malformed}},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(ParseInMemory(c.wire), c.verdicts);
    EXPECT_EQ(ReadFromSocket(c.wire), c.verdicts);
  }
}

}  // namespace
}  // namespace medvault::server
