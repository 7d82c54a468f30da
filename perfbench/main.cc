// medvault_bench — the MedVault service benchmark.
//
//   medvault_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --work-dir <dir> [--rate <req/s>]
//
// --rate overrides the workload's open-loop rate; --rate 0 runs it as a
// closed loop, which is how the clinic_mix rate was calibrated.
//
// Hosts a MedVaultServer in-process, configured as medvaultd configures
// it (PosixEnv on a fresh directory, 4 shards, degraded open, 500 us
// commit window, durable writes, transparency service with a 1 s
// checkpoint tick), and drives it over loopback HTTP from 4 client
// threads, one keep-alive connection each. See README.md for the
// workloads and the metrics.
//
// --trace 0 reports the end-to-end metrics. --trace 1 opens the vault
// through a timing Env decorator, runs the measured phase once untraced
// and once traced, replays a sample of the request stream through the
// parse / Handle / serialize / ShardedVault calls without sockets, and
// reports the per-layer metrics. Either way the run fails unless every
// output check passes. The last stdout line is the JSON result.

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/replication.h"
#include "core/sharded_vault.h"
#include "core/transparency.h"
#include "crypto/aead.h"
#include "harness.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "server/http.h"
#include "server/http_client.h"
#include "server/server.h"
#include "storage/posix_env.h"
#include "timing_env.h"
#include "workload.h"

namespace perfbench {
namespace {

using medvault::Result;
using medvault::Slice;
using medvault::Status;
using medvault::core::Role;
using medvault::core::ShardedVault;
using medvault::core::ShardedVaultOptions;
using medvault::server::HttpClient;
using medvault::server::MedVaultServer;
using medvault::server::ServerOptions;
namespace json = medvault::obs::json;

constexpr int kPhysicians = 4;
constexpr char kApiSecret[] = "perfbench-api-secret";
/// Replayed requests per class in a traced run: enough for a p99 with
/// ten samples beyond it for reads and writes; queries report a p50.
constexpr std::array<size_t, kNumClasses> kReplayPerClass = {1000, 1000, 200};
constexpr size_t kMicroIterations = 2000;
/// Setups per run; setup_s is their median.
constexpr int kSetups = 3;

/// End-to-end metrics (--trace 0) and per-layer metrics (--trace 1), as
/// declared in BENCHMARK.json. The latency metrics (read/write/query p50
/// and p99) are printed too but not declared: on the host the benchmark
/// was built on they did not repeat within a bound, because they follow
/// the shared disk's fsync time. failed_frac is printed; the result line
/// carries it as attempted/failed (README.md).
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"setup_s", "s"},
      {"throughput_ops_s", "ops/s"},
      {"bytes_per_user_byte", "ratio"},
      {"peak_rss_mb", "MiB"},
      {"reopen_s", "s"},
  };
  return m;
}

std::vector<std::pair<std::string, std::string>> PerLayerMetrics() {
  std::vector<std::pair<std::string, std::string>> m = {
      {"http.wire_us.read", "us"},
      {"http.wire_us.write", "us"},
      {"http.wire_us.query", "us"},
      {"http.parse_us", "us"},
      {"http.serialize_us", "us"},
      {"session.lookup_us", "us"},
      {"session.live", "count"},
      {"admission.queued", "count"},
      {"admission.shed", "count"},
      {"server.self_us.read", "us"},
      {"server.self_us.write", "us"},
      {"server.self_us.query", "us"},
      {"vault.read_us.p50", "us"},
      {"vault.read_us.p99", "us"},
      {"vault.write_us.p50", "us"},
      {"vault.write_us.p99", "us"},
      {"vault.query_us.p50", "us"},
      {"vault.sync_us.p50", "us"},
      {"vault.sync_us.p99", "us"},
      {"cache.hit_ratio", "ratio"},
      {"cache.hits", "count"},
      {"cache.misses", "count"},
      {"cache.evictions", "count"},
      {"crypto.aead_open_us", "us"},
      {"crypto.aead_seal_us", "us"},
      {"audit.events_per_op", "ratio"},
      {"audit.bytes_per_op", "B/op"},
      {"audit.append_us", "us/op"},
      {"commit.ops_per_wave", "ratio"},
      {"commit.coalesced", "count"},
      {"storage.fsyncs_per_write", "ratio"},
  };
  for (int k = 0; k < static_cast<int>(LogKind::kOther); k++) {
    const std::string log = LogKindName(static_cast<LogKind>(k));
    m.push_back({"storage.sync_us." + log + ".p50", "us"});
    m.push_back({"storage.sync_us." + log + ".p99", "us"});
  }
  for (const auto& extra : std::vector<std::pair<std::string, std::string>>{
           {"storage.write_bytes_per_user_byte", "ratio"},
           {"storage.read_bytes_per_read", "B/op"},
           {"storage.reads_per_read", "ratio"},
           {"storage.replay_read_bytes", "B"},
           {"gen.lag_p99_us", "us"},
           {"trace.overhead_frac", "ratio"},
       }) {
    m.push_back(extra);
  }
  for (const char* cls : {"read", "write", "query"}) {
    for (const char* row : {"http_wire", "http_parse", "http_serialize",
                            "session_lookup", "server", "vault", "storage"}) {
      m.push_back({std::string("self.") + cls + "." + row, "us"});
    }
    m.push_back({std::string("trace.sum_frac.") + cls, "ratio"});
    m.push_back({std::string("trace.direct_frac.") + cls, "ratio"});
  }
  return m;
}

// ---- Model of acknowledged content -----------------------------------

/// Digest of every acknowledged version of a set of records, plus the
/// corrections in flight. Reads race writes, so a read is right when it
/// returns a version no older than the newest acked when it was sent,
/// with that version's content (or the content of a correction still in
/// flight, whose version number is not known yet).
class RecordModel {
 public:
  /// Single-threaded (setup, or the one connection that owns the set).
  size_t Append(uint64_t hash) {
    entries_.emplace_back();
    entries_.back().hashes.push_back(hash);
    return entries_.size() - 1;
  }

  /// Newest acknowledged version.
  uint32_t Acked(size_t i) {
    std::lock_guard<std::mutex> lock(Stripe(i));
    return static_cast<uint32_t>(entries_[i].hashes.size());
  }
  void AddPending(size_t i, uint64_t hash) {
    std::lock_guard<std::mutex> lock(Stripe(i));
    entries_[i].pending.push_back(hash);
  }
  /// Records the ack of a correction; false if `version` was acked before.
  bool Ack(size_t i, uint32_t version, uint64_t hash) {
    std::lock_guard<std::mutex> lock(Stripe(i));
    Entry& e = entries_[i];
    if (version == 0) return false;
    if (e.hashes.size() < version) e.hashes.resize(version, kUnknown);
    if (e.hashes[version - 1] != kUnknown) return false;
    e.hashes[version - 1] = hash;
    auto it = std::find(e.pending.begin(), e.pending.end(), hash);
    if (it != e.pending.end()) e.pending.erase(it);
    return true;
  }
  bool CheckRead(size_t i, uint32_t min_version, uint32_t version,
                 uint64_t hash) {
    std::lock_guard<std::mutex> lock(Stripe(i));
    const Entry& e = entries_[i];
    if (version < min_version || version == 0) return false;
    if (version <= e.hashes.size() && e.hashes[version - 1] != kUnknown) {
      return e.hashes[version - 1] == hash;
    }
    return std::find(e.pending.begin(), e.pending.end(), hash) !=
           e.pending.end();
  }
  /// Acked versions in order; kUnknown marks one whose ack never came.
  const std::vector<uint64_t>& Versions(size_t i) const {
    return entries_[i].hashes;
  }
  static constexpr uint64_t kUnknown = 0;

 private:
  struct Entry {
    std::vector<uint64_t> hashes;  // index v-1 holds version v
    std::vector<uint64_t> pending;
  };
  std::mutex& Stripe(size_t i) { return stripes_[i % stripes_.size()]; }

  std::vector<Entry> entries_;
  std::array<std::mutex, 64> stripes_;
};

// ---- The served instance ----------------------------------------------

struct Instance {
  std::string dir;
  medvault::SystemClock clock;
  medvault::obs::MetricsRegistry metrics;
  ShardedVaultOptions vault_options;
  std::unique_ptr<ShardedVault> vault;
  std::unique_ptr<medvault::core::ShardedReplicationSource> repl;
  std::unique_ptr<medvault::core::ShardedTransparencyService> transparency;
  std::unique_ptr<MedVaultServer> server;

  std::mutex tick_mu;
  std::condition_variable tick_cv;
  bool stop_ticker = false;  // guarded by tick_mu
  std::thread ticker;

  std::vector<std::string> population_ids;
  std::vector<std::string> clinician_tokens;
  std::vector<std::string> clinician_principals;
  std::vector<std::string> patient_tokens;
  std::vector<std::string> patient_principals;
  uint64_t population_bytes = 0;

  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  ~Instance() { (void)Shutdown(); }

  /// Stops the server and the checkpoint tick, syncs and closes the vault.
  Status Shutdown() {
    if (server) server->Stop();
    if (ticker.joinable()) {
      {
        std::lock_guard<std::mutex> lock(tick_mu);
        stop_ticker = true;
      }
      tick_cv.notify_all();
      ticker.join();
    }
    server.reset();
    transparency.reset();
    repl.reset();
    Status s;
    if (vault) s = vault->SyncAll();
    vault.reset();
    return s;
  }
};

[[noreturn]] void Die(const std::string& what) {
  fprintf(stderr, "medvault_bench: %s\n", what.c_str());
  exit(1);
}

void Check(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

ShardedVaultOptions VaultOptions(Instance* in, medvault::storage::Env* env) {
  ShardedVaultOptions o;
  o.env = env;
  o.dir = in->dir;
  o.clock = &in->clock;
  o.master_key = std::string("demo-master-key");
  o.master_key.resize(32, '#');
  o.entropy = "perfbench-entropy:" + in->dir;
  o.num_shards = 4;
  o.open_mode = medvault::core::OpenMode::kDegraded;
  o.commit_window_micros = 500;
  o.metrics = &in->metrics;
  return o;
}

std::string PatientId(uint64_t i) { return "patient-" + std::to_string(i); }
std::string PhysicianId(int i) { return "dr-" + std::to_string(i); }

/// Opens the vault, loads the population, starts the server with the
/// transparency tick, and logs in the sessions. This is what setup_s
/// times.
std::unique_ptr<Instance> Setup(const WorkloadSpec& spec, uint64_t seed,
                                const std::string& dir,
                                medvault::storage::Env* env,
                                RecordModel* population_model) {
  auto in = std::make_unique<Instance>();
  in->dir = dir;
  in->vault_options = VaultOptions(in.get(), env);
  auto opened = ShardedVault::Open(in->vault_options);
  if (!opened.ok()) Die("open: " + opened.status().ToString());
  in->vault = std::move(*opened);
  ShardedVault* v = in->vault.get();

  Check(v->RegisterPrincipal("boot", {"admin", Role::kAdmin, "Admin"}),
        "register admin");
  for (int d = 0; d < kPhysicians; d++) {
    Check(v->RegisterPrincipal("admin",
                               {PhysicianId(d), Role::kPhysician, "Physician"}),
          "register physician");
  }
  for (uint64_t p = 0; p < spec.patients; p++) {
    Check(v->RegisterPrincipal("admin",
                               {PatientId(p), Role::kPatient, "Patient"}),
          "register patient");
    for (int d = 0; d < kPhysicians; d++) {
      Check(v->AssignCare("admin", PhysicianId(d), PatientId(p)),
            "assign care");
    }
  }

  medvault::sim::EhrGenerator gen = PopulationGenerator(spec, seed);
  constexpr size_t kBatch = 512;
  in->population_ids.reserve(spec.population);
  for (uint64_t done = 0; done < spec.population;) {
    std::vector<medvault::core::Vault::NewRecord> batch;
    const uint64_t n = std::min<uint64_t>(kBatch, spec.population - done);
    for (uint64_t i = 0; i < n; i++) {
      medvault::sim::EhrRecord note = gen.Next();
      if (population_model != nullptr) {
        population_model->Append(ContentHash(note.text));
      }
      in->population_bytes += note.text.size();
      batch.push_back({note.patient_id, "text/plain", std::move(note.text),
                       std::move(note.keywords), "hipaa-6y"});
    }
    auto ids = v->CreateRecordsBatchDurable(PhysicianId(0), batch);
    if (!ids.ok()) Die("load population: " + ids.status().ToString());
    for (std::string& id : *ids) in->population_ids.push_back(std::move(id));
    done += n;
  }

  in->repl = std::make_unique<medvault::core::ShardedReplicationSource>(v);
  medvault::core::ShardedTransparencyService::Options topt;
  topt.checkpoint_interval = 1024;
  in->transparency =
      std::make_unique<medvault::core::ShardedTransparencyService>(v, topt);
  const std::string witness_seed = "perfbench-witness:" + dir;
  Check(in->transparency->AddWitness("witness-local", witness_seed + ":secret",
                                     witness_seed + ":public"),
        "add witness");

  ServerOptions sopt;
  sopt.port = 0;
  sopt.api_secret = kApiSecret;
  sopt.session_entropy = "perfbench-session:" + dir;
  sopt.clock = &in->clock;
  sopt.durable_writes = true;
  sopt.repl_source = in->repl.get();
  sopt.transparency = in->transparency.get();
  auto started = MedVaultServer::Start(v, sopt);
  if (!started.ok()) Die("server start: " + started.status().ToString());
  in->server = std::move(*started);

  Instance* raw = in.get();
  in->ticker = std::thread([raw] {
    std::unique_lock<std::mutex> lock(raw->tick_mu);
    while (!raw->tick_cv.wait_for(lock, std::chrono::seconds(1),
                                  [raw] { return raw->stop_ticker; })) {
      lock.unlock();
      Status ticked = raw->transparency->MaybeCheckpointAll();
      if (!ticked.ok()) {
        fprintf(stderr, "checkpoint tick: %s\n", ticked.ToString().c_str());
      }
      lock.lock();
    }
  });

  medvault::server::SessionManager* sessions = in->server->sessions();
  for (int i = 0; i < spec.clinician_sessions; i++) {
    in->clinician_principals.push_back(PhysicianId(i % kPhysicians));
    in->clinician_tokens.push_back(
        sessions->Issue(in->clinician_principals.back()));
  }
  for (int i = 0; i < spec.patient_sessions; i++) {
    // Patients of middling rank: a few notes each, so their disclosure
    // reports stay small as the run goes on.
    in->patient_principals.push_back(PatientId(200 + i));
    in->patient_tokens.push_back(
        sessions->Issue(in->patient_principals.back()));
  }
  for (int i = 0; i < spec.idle_sessions; i++) {
    (void)sessions->Issue(PhysicianId(i % kPhysicians));
  }
  return in;
}

uint64_t AuditEvents(ShardedVault* v) {
  uint64_t total = 0;
  for (uint32_t k = 0; k < v->num_shards(); k++) {
    if (medvault::core::Vault* s = v->shard(k)) total += s->audit()->size();
  }
  return total;
}

// ---- Client connections --------------------------------------------------

/// A client connection's lasting state: its request stream, its sessions
/// and the records it created.
struct Conn {
  Conn(const WorkloadSpec& spec, uint64_t seed, int index)
      : index(index), stream(spec, seed, index) {}
  int index;
  OpStream stream;
  uint64_t sequence = 0;
  std::vector<std::string> tokens;
  std::vector<std::string> own_ids;
  RecordModel own_model;
};

struct PhaseStats {
  std::array<std::vector<TimedSample>, kNumClasses> latency_us;
  std::vector<double> lag_us;
  std::array<uint64_t, kNumClasses> ok{};
  Tally tally;
  uint64_t acked_plaintext = 0;
  bool correct = true;
  std::string first_error;

  void Merge(const PhaseStats& o) {
    for (int c = 0; c < kNumClasses; c++) {
      latency_us[c].insert(latency_us[c].end(), o.latency_us[c].begin(),
                           o.latency_us[c].end());
      ok[c] += o.ok[c];
    }
    lag_us.insert(lag_us.end(), o.lag_us.begin(), o.lag_us.end());
    tally.attempted += o.tally.attempted;
    tally.failed += o.tally.failed;
    acked_plaintext += o.acked_plaintext;
    if (correct && !o.correct) first_error = o.first_error;
    correct = correct && o.correct;
  }
  uint64_t TotalOk() const { return ok[0] + ok[1] + ok[2]; }
};

struct Phase {
  PhaseStats stats;
  double seconds = 0;
  double throughput = 0;
};

/// Where an op's record lives in the models (null for creates/queries).
RecordModel* ModelOf(const Op& op, const WorkloadSpec& spec, Conn* conn,
                     RecordModel* population) {
  if (op.kind == OpKind::kRead) {
    return spec.read_target == WorkloadSpec::ReadTarget::kOwnCreates
               ? &conn->own_model
               : population;
  }
  if (op.kind == OpKind::kCorrect) {
    return spec.correct_own_creates ? &conn->own_model : population;
  }
  return nullptr;
}

/// Checks a response against the model and records what it acked.
/// Returns false on a wrong answer (not on a refused request).
bool Verify(const Op& op, const Request& req, int status,
            const std::string& body, RecordModel* model, uint32_t min_version,
            Conn* conn, PhaseStats* stats, std::string* error) {
  auto parsed = [&]() -> Result<json::Value> {
    auto v = json::Value::Parse(Slice(body));
    if (v.ok() && !v->is_object()) return Status::Corruption("not an object");
    return v;
  };
  auto field = [](const json::Value& v, const char* key) -> const json::Value* {
    const auto& o = v.as_object();
    auto it = o.find(key);
    return it == o.end() ? nullptr : &it->second;
  };
  switch (op.kind) {
    case OpKind::kRead: {
      auto v = parsed();
      const json::Value* version = v.ok() ? field(*v, "version") : nullptr;
      const json::Value* content = v.ok() ? field(*v, "content") : nullptr;
      if (version == nullptr || content == nullptr || !version->is_int() ||
          !content->is_string()) {
        *error = "read: malformed response";
        return false;
      }
      const uint32_t got = static_cast<uint32_t>(version->as_uint());
      if (!model->CheckRead(op.target, min_version, got,
                            ContentHash(content->as_string()))) {
        *error = "read " + req.target + ": version " + std::to_string(got) +
                 " (acked >= " + std::to_string(min_version) +
                 ") does not match what was written";
        return false;
      }
      return true;
    }
    case OpKind::kCorrect: {
      auto v = parsed();
      const json::Value* version = v.ok() ? field(*v, "version") : nullptr;
      if (version == nullptr || !version->is_int() ||
          !model->Ack(op.target, static_cast<uint32_t>(version->as_uint()),
                      ContentHash(req.content))) {
        *error = "correct " + req.target + ": unexpected version in ack";
        return false;
      }
      stats->acked_plaintext += req.content.size();
      return true;
    }
    case OpKind::kCreate: {
      auto v = parsed();
      const json::Value* id = v.ok() ? field(*v, "record_id") : nullptr;
      if (id == nullptr || !id->is_string() || status != 201) {
        *error = "create: malformed ack";
        return false;
      }
      conn->own_ids.push_back(id->as_string());
      conn->own_model.Append(ContentHash(req.content));
      stats->acked_plaintext += req.content.size();
      return true;
    }
    case OpKind::kSearch:
    case OpKind::kDisclosures: {
      auto v = parsed();
      if (!v.ok()) {
        *error = "query: malformed response";
        return false;
      }
      return true;
    }
  }
  return false;
}

struct PhaseSpans {
  Tracer* tracer = nullptr;
  std::array<uint32_t, kNumClasses> names{};
};

/// Where connections draw requests from. Closed loop: each connection
/// from its own stream, paced by itself. Open loop: from one stream and
/// schedule shared by all connections, like a client's connection pool:
/// a request due while one connection waits on a slow write goes out on
/// a free one, and waits only when every connection is busy.
struct SharedSource {
  SharedSource(Conn* stream, uint64_t start_ns, uint64_t end_ns)
      : conn(stream), pacer(true, start_ns, end_ns) {}
  std::mutex mu;
  Conn* conn;   // guarded by mu
  Pacer pacer;  // guarded by mu
};

void RunConnection(const WorkloadSpec& spec, Instance* in, Conn* conn,
                   SharedSource* shared, RecordModel* population,
                   uint64_t start_ns, uint64_t end_ns,
                   const PhaseSpans& spans, PhaseStats* stats) {
  HttpClient client;
  Status connected = client.Connect(in->server->port());
  if (!connected.ok()) {
    stats->tally.Record(false, 0);
    stats->first_error = "connect: " + connected.ToString();
    return;
  }
  Conn* source = shared != nullptr ? shared->conn : conn;
  RequestContext ctx;
  ctx.population_ids = &in->population_ids;
  ctx.own_ids = &source->own_ids;
  ctx.tokens = &source->tokens;
  ctx.patient_tokens = &in->patient_tokens;
  ctx.connection = source->index;

  Pacer own_pacer(/*open_loop=*/false, start_ns, end_ns);
  while (true) {
    Op op;
    uint64_t due = 0;
    Request req;
    {
      std::unique_lock<std::mutex> lock;
      if (shared != nullptr) lock = std::unique_lock<std::mutex>(shared->mu);
      op = source->stream.Next();
      Pacer& pacer = shared != nullptr ? shared->pacer : own_pacer;
      if (!pacer.Schedule(op.gap_us, &due)) break;
      ctx.sequence = source->sequence++;
      req = BuildRequest(op, spec, source->stream, ctx);
    }
    Pacer::WaitUntil(due);
    RecordModel* model = ModelOf(op, spec, source, population);
    uint32_t min_version = 0;
    if (op.kind == OpKind::kRead) min_version = model->Acked(op.target);
    if (op.kind == OpKind::kCorrect) {
      model->AddPending(op.target, ContentHash(req.content));
    }

    const uint64_t send = NowNs();
    auto response = client.Do(req.method, req.target, req.body, req.bearer);
    const uint64_t done = NowNs();
    const OpClass cls = ClassOf(op.kind);
    stats->lag_us.push_back((send - due) / 1000.0);
    if (spans.tracer != nullptr) {
      spans.tracer->Record(spans.names[static_cast<int>(cls)], send, done, 0,
                           spans.tracer->NewId());
    }
    if (!stats->tally.Record(response.ok(),
                             response.ok() ? response->status : 0)) {
      if (stats->first_error.empty()) {
        stats->first_error =
            req.method + " " + req.target + ": " +
            (response.ok() ? "HTTP " + std::to_string(response->status) + " " +
                                 response->body
                           : response.status().ToString());
      }
      continue;
    }
    // Creates are filed under the connection that sent them.
    std::string error;
    if (!Verify(op, req, response->status, response->body, model, min_version,
                conn, stats, &error)) {
      stats->tally.failed++;
      if (stats->correct) stats->first_error = error;
      stats->correct = false;
      continue;
    }
    stats->ok[static_cast<int>(cls)]++;
    stats->latency_us[static_cast<int>(cls)].push_back(
        TimedSample{due, (done - due) / 1000.0});
  }
}

Phase RunPhase(const WorkloadSpec& spec, Instance* in,
               std::vector<std::unique_ptr<Conn>>* conns, Conn* shared_stream,
               RecordModel* population, int seconds, const PhaseSpans& spans) {
  std::vector<PhaseStats> per(conns->size());
  for (PhaseStats& s : per) {
    for (auto& v : s.latency_us) v.reserve(1 << 16);
    s.lag_us.reserve(1 << 17);
  }
  const uint64_t start = NowNs() + 2000000;  // threads start together
  const uint64_t end = start + static_cast<uint64_t>(seconds) * 1000000000ULL;
  SharedSource shared(shared_stream, start, end);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns->size(); c++) {
    threads.emplace_back([&, c] {
      // Precise wakeups for this client thread only; server threads keep
      // the default slack, as in medvaultd.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      Pacer::WaitUntil(start);
      RunConnection(spec, in, (*conns)[c].get(),
                    spec.open_loop ? &shared : nullptr, population, start, end,
                    spans, &per[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  const uint64_t finished = NowNs();
  Phase phase;
  for (const PhaseStats& s : per) phase.stats.Merge(s);
  phase.seconds = (std::max(finished, end) - start) / 1e9;
  phase.throughput = phase.stats.TotalOk() / phase.seconds;
  return phase;
}

// ---- Traced replay without sockets --------------------------------------

struct ReplayResult {
  std::array<std::vector<double>, kNumClasses> parse_us, handle_us,
      serialize_us, vault_us, storage_us;
  std::vector<double> sync_us;
  uint64_t acked_plaintext = 0;
  bool correct = true;
  std::string error;
};

/// Replays a sample of the workload's stream through ParseHttpRequest,
/// MedVaultServer::Handle and SerializeHttpResponse, then issues the same
/// operation directly on the ShardedVault, with the timing Env recording
/// storage spans under the vault span.
ReplayResult Replay(const WorkloadSpec& spec, Instance* in,
                    RecordModel* population, Tracer* tracer,
                    TimingEnv* timing, Conn* conn) {
  ReplayResult out;
  const uint32_t n_request = tracer->Intern("replay.request");
  const uint32_t n_parse = tracer->Intern("http.parse");
  const uint32_t n_handle = tracer->Intern("server.handle");
  const uint32_t n_serialize = tracer->Intern("http.serialize");
  const uint32_t n_sync = tracer->Intern("vault.sync");
  std::array<uint32_t, kNumClasses> n_vault = {tracer->Intern("vault.read"),
                                               tracer->Intern("vault.write"),
                                               tracer->Intern("vault.query")};
  ShardedVault* v = in->vault.get();
  MedVaultServer* server = in->server.get();
  const medvault::server::HttpLimits limits;

  RequestContext ctx;
  ctx.population_ids = &in->population_ids;
  ctx.own_ids = &conn->own_ids;
  ctx.tokens = &conn->tokens;
  ctx.patient_tokens = &in->patient_tokens;
  ctx.connection = conn->index;
  PhaseStats scratch;
  std::array<size_t, kNumClasses> done{};
  size_t guard = 0;
  auto fail = [&](const std::string& why) {
    if (out.correct) out.error = why;
    out.correct = false;
  };

  while (out.correct && (done[0] < kReplayPerClass[0] ||
                         done[1] < kReplayPerClass[1] ||
                         done[2] < kReplayPerClass[2])) {
    if (++guard > 300000) {
      fail("replay: stream never filled every class");
      break;
    }
    Op op = conn->stream.Next();
    const int cls = static_cast<int>(ClassOf(op.kind));
    if (done[cls] >= kReplayPerClass[cls]) continue;
    const bool own_target =
        (op.kind == OpKind::kRead &&
         spec.read_target == WorkloadSpec::ReadTarget::kOwnCreates) ||
        (op.kind == OpKind::kCorrect && spec.correct_own_creates);
    if (own_target) {
      // Skipped creates never happened here; aim at one that did.
      if (conn->own_ids.empty()) continue;
      op.target %= conn->own_ids.size();
    }
    ctx.sequence = conn->sequence++;
    Request req = BuildRequest(op, spec, conn->stream, ctx);
    RecordModel* model = ModelOf(op, spec, conn, population);
    const uint32_t min_version =
        op.kind == OpKind::kRead ? model->Acked(op.target) : 0;

    const uint64_t rid = tracer->NewId();
    const uint64_t root = tracer->NewId();
    std::string wire = WireBytes(req);
    const uint64_t t0 = NowNs();
    medvault::server::HttpRequest parsed;
    const size_t header_end = wire.find("\r\n\r\n");
    const auto outcome =
        medvault::server::ParseHttpRequest(&wire, header_end, limits, &parsed);
    const uint64_t t1 = NowNs();
    if (outcome != medvault::server::ReadOutcome::kOk) {
      fail("replay: recorded request does not parse");
      break;
    }
    medvault::server::HttpResponse response = server->Handle(parsed);
    const uint64_t t2 = NowNs();
    std::string bytes = medvault::server::SerializeHttpResponse(response);
    const uint64_t t3 = NowNs();
    tracer->Record(n_request, t0, t3, 0, rid, root);
    tracer->Record(n_parse, t0, t1, root, rid);
    tracer->Record(n_handle, t1, t2, root, rid);
    tracer->Record(n_serialize, t2, t3, root, rid);
    if (response.status >= 400) {
      fail("replay " + req.method + " " + req.target + ": HTTP " +
           std::to_string(response.status) + " " + response.body);
      break;
    }
    std::string error;
    if (!Verify(op, req, response.status, response.body, model, min_version,
                conn, &scratch, &error)) {
      fail("replay: " + error);
      break;
    }

    // The same operation, straight into the vault.
    const std::string principal = [&] {
      if (op.kind == OpKind::kDisclosures) {
        return in->patient_principals[op.session %
                                      in->patient_principals.size()];
      }
      // Connection c holds clinician sessions c, c+C, c+2C, ...
      const size_t slot = op.session % conn->tokens.size();
      return in->clinician_principals[slot * spec.connections + conn->index];
    }();
    const uint64_t vspan = tracer->NewId();
    uint64_t sync_start = 0, sync_end = 0;
    timing->SetParent(vspan, rid);
    const uint64_t t4 = NowNs();
    bool ok = true;
    const std::string& target = TargetId(op, spec, ctx);
    switch (op.kind) {
      case OpKind::kRead: {
        auto r = v->ReadRecord(principal, target);
        ok = r.ok() && model->CheckRead(op.target, min_version,
                                        r->header.version,
                                        ContentHash(r->plaintext));
        break;
      }
      case OpKind::kCorrect:
      case OpKind::kCreate: {
        const auto& note = conn->stream.notes()[op.note];
        Result<std::string> created = std::string();
        Result<medvault::core::VersionHeader> corrected =
            medvault::core::VersionHeader();
        if (op.kind == OpKind::kCreate) {
          created = v->CreateRecord(principal, note.patient_id, "text/plain",
                                    req.content, note.keywords, "hipaa-6y");
        } else {
          corrected = v->CorrectRecord(principal, target, req.content,
                                       "amended by clinician", note.keywords);
        }
        sync_start = NowNs();
        Status synced = v->SyncAll();
        sync_end = NowNs();
        ok = created.ok() && corrected.ok() && synced.ok();
        if (ok) out.acked_plaintext += req.content.size();
        if (ok && op.kind == OpKind::kCreate) {
          conn->own_ids.push_back(*created);
          conn->own_model.Append(ContentHash(req.content));
        } else if (ok) {
          ok = model->Ack(op.target, corrected->version,
                          ContentHash(req.content));
        }
        break;
      }
      case OpKind::kSearch: {
        const auto& terms = medvault::sim::EhrGenerator::Conditions();
        ok = v->SearchKeywordsAll(principal,
                                  {terms[op.term_a], terms[op.term_b]})
                 .ok();
        break;
      }
      case OpKind::kDisclosures:
        ok = v->AccountingOfDisclosures(principal, principal).ok();
        break;
    }
    const uint64_t t5 = NowNs();
    timing->SetParent(0, 0);
    tracer->Record(n_vault[cls], t4, t5, 0, rid, vspan);
    if (sync_end != 0) {
      tracer->Record(n_sync, sync_start, sync_end, vspan, rid);
      out.sync_us.push_back((sync_end - sync_start) / 1000.0);
    }
    if (!ok) {
      fail("replay: direct vault call failed or disagreed for " + req.target);
      break;
    }
    out.parse_us[cls].push_back((t1 - t0) / 1000.0);
    out.handle_us[cls].push_back((t2 - t1) / 1000.0);
    out.serialize_us[cls].push_back((t3 - t2) / 1000.0);
    out.vault_us[cls].push_back((t5 - t4) / 1000.0);
    done[cls]++;
  }
  out.acked_plaintext += scratch.acked_plaintext;

  // Storage self-time inside each vault span: the union of its I/O spans.
  std::map<uint64_t, std::pair<int, std::pair<uint64_t, uint64_t>>> vault_spans;
  std::map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> io;
  for (const Span& s : tracer->Spans()) {
    for (int c = 0; c < kNumClasses; c++) {
      if (s.name == n_vault[c]) {
        vault_spans[s.id] = {c, {s.start_ns, s.end_ns}};
      }
    }
    if (tracer->NameOf(s.name).rfind("storage.", 0) == 0) {
      io[s.parent].push_back({s.start_ns, s.end_ns});
    }
  }
  for (const auto& [id, entry] : vault_spans) {
    auto it = io.find(id);
    const uint64_t covered =
        it == io.end() ? 0
                       : CoveredNs(entry.second.first, entry.second.second,
                                   it->second);
    out.storage_us[entry.first].push_back(covered / 1000.0);
  }
  return out;
}

double P50(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return PercentileSorted(v, 0.5);
}

/// p50 of `iterations` calls of `fn`, in us.
double MicroP50(size_t iterations, const std::function<void()>& fn) {
  std::vector<double> samples;
  samples.reserve(iterations);
  for (size_t i = 0; i < iterations; i++) {
    const uint64_t t0 = NowNs();
    fn();
    samples.push_back((NowNs() - t0) / 1000.0);
  }
  return P50(std::move(samples));
}

// ---- Output checks after restart ----------------------------------------

/// Every acked version of every record in `model` reads back with the
/// acked content, and the latest version is the last one acked.
bool CheckDurable(ShardedVault* v, const std::string& actor,
                  const std::vector<std::string>& ids, RecordModel& model,
                  std::string* error) {
  for (size_t i = 0; i < ids.size(); i++) {
    const std::vector<uint64_t>& versions = model.Versions(i);
    auto latest = v->ReadRecord(actor, ids[i]);
    if (!latest.ok() || latest->header.version != versions.size() ||
        ContentHash(latest->plaintext) != versions.back()) {
      *error = "after reopen, " + ids[i] + " is not at its acked version " +
               std::to_string(versions.size());
      return false;
    }
    for (uint32_t ver = 1; ver < versions.size(); ver++) {
      if (versions[ver - 1] == RecordModel::kUnknown) continue;
      auto old = v->ReadRecordVersion(actor, ids[i], ver);
      if (!old.ok() || ContentHash(old->plaintext) != versions[ver - 1]) {
        *error = "after reopen, " + ids[i] + " version " +
                 std::to_string(ver) + " does not read back";
        return false;
      }
    }
  }
  return true;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;
  double rate = -1;  // <0: the workload's own; 0: closed loop
  bool list_metrics = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      a.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      a.seconds = std::stoi(value());
    } else if (arg == "--trace") {
      a.trace = value() != "0";
    } else if (arg == "--work-dir") {
      a.work_dir = value();
    } else if (arg == "--rate") {
      a.rate = std::stod(value());
    } else if (arg == "--list-metrics") {
      a.list_metrics = true;
    } else {
      Die("unknown argument " + arg);
    }
  }
  return a;
}

int Run(const Args& args) {
  const WorkloadSpec* found = FindWorkload(args.workload);
  if (found == nullptr) Die("unknown workload '" + args.workload + "'");
  WorkloadSpec spec = *found;
  if (args.rate == 0) {
    spec.open_loop = false;
  } else if (args.rate > 0) {
    spec.open_loop = true;
    spec.offered_rate = args.rate;
  }
  if (args.seconds < 1) Die("--seconds must be at least 1");
  if (spec.open_loop &&
      (spec.correct_own_creates ||
       spec.read_target == WorkloadSpec::ReadTarget::kOwnCreates)) {
    Die("operations on own creates need a closed loop");
  }
  if (args.work_dir.empty()) Die("--work-dir is required");

  namespace fs = std::filesystem;
  const std::string root = args.work_dir + "/run-" + std::to_string(getpid());
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root, ec);
  if (ec) Die("cannot create " + root + ": " + ec.message());

  const Fingerprint fp = TakeFingerprint(root);
  printf("workload %s seed %llu seconds %d trace %d\n", spec.name.c_str(),
         static_cast<unsigned long long>(args.seed), args.seconds,
         args.trace ? 1 : 0);
  printf("fingerprint %s\n", fp.ToJson().c_str());
  printf("flush policy: durable_writes on, commit window 500 us, PosixEnv "
         "fsync, 4 shards\n");
  fflush(stdout);
  const uint64_t run_start = NowNs();
  auto stage = [&](const char* what) {
    printf("stage %-10s done at %.2f s\n", what, (NowNs() - run_start) / 1e9);
    fflush(stdout);
  };

  medvault::storage::Env* posix = medvault::storage::PosixEnv::Default();
  std::unique_ptr<TimingEnv> timing;
  Tracer tracer;
  if (args.trace) {
    timing = std::make_unique<TimingEnv>(posix);
    timing->AttachTracer(&tracer);
  }
  medvault::storage::Env* env =
      timing ? static_cast<medvault::storage::Env*>(timing.get()) : posix;

  // Client-side state is built before setup is timed.
  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < spec.connections; c++) {
    conns.push_back(std::make_unique<Conn>(spec, args.seed, c));
  }
  // The open loop's one shared stream (see SharedSource).
  auto shared_stream =
      std::make_unique<Conn>(spec, args.seed, spec.connections);
  auto replay_conn = std::make_unique<Conn>(spec, args.seed ^ 0x7e91a3ULL, 0);

  // Set up several times; the median is setup_s, the last one is served.
  std::vector<double> setup_times;
  std::unique_ptr<Instance> in;
  RecordModel population;
  bool peak_reset = false;
  for (int i = 0; i < kSetups; i++) {
    const std::string dir = root + "/vault-" + std::to_string(i);
    const bool keep = i + 1 == kSetups;
    // The peak covers the served instance only, not the discarded ones.
    if (keep) peak_reset = ResetPeakRss();
    const uint64_t t0 = NowNs();
    auto candidate =
        Setup(spec, args.seed, dir, env, keep ? &population : nullptr);
    setup_times.push_back((NowNs() - t0) / 1e9);
    if (keep) {
      in = std::move(candidate);
    } else {
      Check(candidate->Shutdown(), "shutdown");
      candidate.reset();
      fs::remove_all(dir, ec);
      stage("discard");
    }
  }
  const double setup_s = Median(setup_times);
  stage("setup");
  for (auto& conn : conns) {
    for (size_t t = conn->index; t < in->clinician_tokens.size();
         t += spec.connections) {
      conn->tokens.push_back(in->clinician_tokens[t]);
    }
  }
  replay_conn->tokens = conns[0]->tokens;
  shared_stream->tokens = in->clinician_tokens;
  printf("setup: %zu population records, %zu sessions live, %.3f s median "
         "of %d\n",
         in->population_ids.size(), in->server->sessions()->ActiveSessions(),
         setup_s, kSetups);
  fflush(stdout);

  Report report;
  uint64_t acked_plaintext = in->population_bytes;
  const uint64_t audit_before = AuditEvents(in->vault.get());

  // Measured phase (untraced).
  Phase untraced = RunPhase(spec, in.get(), &conns, shared_stream.get(),
                            &population, args.seconds, PhaseSpans{});
  PhaseStats total = untraced.stats;
  stage("measure");
  acked_plaintext += untraced.stats.acked_plaintext;

  Phase traced;
  ReplayResult replay;
  uint64_t audit_traced = 0;
  medvault::core::RecordCache::Stats cache_before, cache_after;
  std::map<std::string, uint64_t> counters_before, counters_after;
  std::array<LogIo, kNumLogKinds> io_before{}, io_after{};
  std::array<std::vector<double>, kNumLogKinds> sync_latencies;
  double lookup_us = 0, seal_us = 0, open_us = 0;
  size_t live_sessions = 0;
  if (args.trace) {
    PhaseSpans spans;
    spans.tracer = &tracer;
    spans.names = {tracer.Intern("http.read"), tracer.Intern("http.write"),
                   tracer.Intern("http.query")};
    cache_before = in->vault->CacheStats();
    counters_before = in->metrics.TakeSnapshot().counters;
    io_before = timing->Snapshot();
    (void)timing->TakeSyncLatencies();
    const uint64_t audit_start = AuditEvents(in->vault.get());
    traced = RunPhase(spec, in.get(), &conns, shared_stream.get(),
                      &population, args.seconds, spans);
    audit_traced = AuditEvents(in->vault.get()) - audit_start;
    io_after = timing->Snapshot();
    sync_latencies = timing->TakeSyncLatencies();
    counters_after = in->metrics.TakeSnapshot().counters;
    cache_after = in->vault->CacheStats();
    total.Merge(traced.stats);
    acked_plaintext += traced.stats.acked_plaintext;

    replay = Replay(spec, in.get(), &population, &tracer,
                    timing.get(), replay_conn.get());
    acked_plaintext += replay.acked_plaintext;
    stage("replay");

    // Session lookup at the live count, and AEAD at the note size.
    medvault::server::SessionManager* sessions = in->server->sessions();
    live_sessions = sessions->ActiveSessions();
    const std::string token = in->clinician_tokens[0];
    lookup_us = MicroP50(kMicroIterations, [&] {
      if (!sessions->Lookup(token).ok()) Die("session lookup failed");
    });
    medvault::crypto::Aead aead;
    Check(aead.Init(Slice(std::string(32, 'k'))), "aead init");
    const std::string nonce(16, 'n');
    const std::string aad = "record-meta";
    const std::string note_open(spec.population_note_bytes, 'x');
    const std::string note_seal(
        (spec.create_bytes_min + spec.create_bytes_max) / 2, 'y');
    auto sealed = aead.Seal(Slice(nonce), Slice(note_open), Slice(aad));
    if (!sealed.ok()) Die("aead seal");
    seal_us = MicroP50(kMicroIterations, [&] {
      if (!aead.Seal(Slice(nonce), Slice(note_seal), Slice(aad)).ok()) {
        Die("aead seal");
      }
    });
    open_us = MicroP50(kMicroIterations, [&] {
      if (!aead.Open(Slice(*sealed), Slice(aad)).ok()) Die("aead open");
    });
  }
  const uint64_t audit_after = AuditEvents(in->vault.get());
  const uint64_t phase_ok = untraced.stats.TotalOk() + traced.stats.TotalOk();

  // Restart: stop the server, close, and time the reopen (replay).
  Check(in->Shutdown(), "shutdown");
  stage("shutdown");
  const uint64_t disk_bytes = DirectoryBytes(in->dir);

  std::vector<double> reopen_times;
  uint64_t replay_read_bytes = 0;
  std::unique_ptr<ShardedVault> reopened;
  for (int i = 0; i < 3; i++) {
    reopened.reset();
    std::array<LogIo, kNumLogKinds> before{};
    if (timing) before = timing->Snapshot();
    const uint64_t t0 = NowNs();
    auto r = ShardedVault::Open(in->vault_options);
    reopen_times.push_back((NowNs() - t0) / 1e9);
    if (!r.ok()) Die("reopen: " + r.status().ToString());
    reopened = std::move(*r);
    if (timing && i == 0) {
      const auto after = timing->Snapshot();
      for (int k = 0; k < kNumLogKinds; k++) {
        replay_read_bytes += after[k].read_bytes - before[k].read_bytes;
      }
    }
  }
  const double reopen_s = Median(reopen_times);
  stage("reopen");

  // Output checks.
  bool correct = total.correct && replay.correct;
  std::string error = !total.correct ? total.first_error : replay.error;
  if (correct && audit_after - audit_before < phase_ok) {
    correct = false;
    error = "audit log grew by " + std::to_string(audit_after - audit_before) +
            " events for " + std::to_string(phase_ok) + " operations";
  }
  if (correct && !CheckDurable(reopened.get(), PhysicianId(0),
                               in->population_ids, population, &error)) {
    correct = false;
  }
  for (auto& conn : conns) {
    if (correct && !CheckDurable(reopened.get(), PhysicianId(0),
                                 conn->own_ids, conn->own_model, &error)) {
      correct = false;
    }
  }
  if (correct && !CheckDurable(reopened.get(), PhysicianId(0),
                               replay_conn->own_ids, replay_conn->own_model,
                               &error)) {
    correct = false;
  }
  if (correct) {
    Status verified = reopened->VerifyEverything();
    if (!verified.ok()) {
      correct = false;
      error = "VerifyEverything after reopen: " + verified.ToString();
    }
  }
  reopened.reset();
  stage("checks");
  if (total.tally.failed > 0 && correct) {
    printf("note: %llu of %llu operations failed; first: %s\n",
           static_cast<unsigned long long>(total.tally.failed),
           static_cast<unsigned long long>(total.tally.attempted),
           total.first_error.c_str());
  }
  if (!correct) printf("CHECK FAILED: %s\n", error.c_str());

  // ---- End-to-end metrics (from the untraced phase) ----
  PhaseStats& u = untraced.stats;
  report.Add("setup_s", setup_s, "s",
             "median of " + std::to_string(kSetups) + " setups");
  report.Add("throughput_ops_s", untraced.throughput, "ops/s",
             std::to_string(u.TotalOk()) + " ok ops");
  {
    Summary r = SummarizeWindows(u.latency_us[0]);
    Summary w = SummarizeWindows(u.latency_us[1]);
    Summary q = SummarizeWindows(u.latency_us[2]);
    report.AddSummary("read", r, "us");
    report.AddSummary("write", w, "us");
    report.Add("query_p50_us", q.p50, "us",
               "n=" + std::to_string(q.n) + ", median over " +
                   std::to_string(q.windows) + " windows");
  }
  report.Add("failed_frac", u.tally.FailedFrac(), "ratio",
             std::to_string(u.tally.failed) + " of " +
                 std::to_string(u.tally.attempted));
  report.Add("bytes_per_user_byte",
             static_cast<double>(disk_bytes) / acked_plaintext, "ratio",
             std::to_string(disk_bytes) + " B on disk / " +
                 std::to_string(acked_plaintext) + " B acked");
  report.Add("peak_rss_mb", PeakRssMb(), "MiB",
             peak_reset ? "VmHWM since the served setup began"
                        : "VmHWM of the whole process (reset refused)");
  report.Add("reopen_s", reopen_s, "s", "median of 3 reopens");

  // ---- Per-layer metrics (from the traced phase and the replay) ----
  if (args.trace) {
    PhaseStats& t = traced.stats;
    auto name = [](int c) {
      return std::string(ClassName(static_cast<OpClass>(c)));
    };
    std::array<double, kNumClasses> rtt{}, handle{}, vault_p50{}, storage{},
        parse{}, serialize{};
    for (int c = 0; c < kNumClasses; c++) {
      rtt[c] = WindowedPercentile(t.latency_us[c], 0.5, 100);
      handle[c] = P50(replay.handle_us[c]);
      vault_p50[c] = P50(replay.vault_us[c]);
      storage[c] = P50(replay.storage_us[c]);
      parse[c] = P50(replay.parse_us[c]);
      serialize[c] = P50(replay.serialize_us[c]);
    }
    std::vector<double> all_parse, all_serialize;
    for (int c = 0; c < kNumClasses; c++) {
      all_parse.insert(all_parse.end(), replay.parse_us[c].begin(),
                       replay.parse_us[c].end());
      all_serialize.insert(all_serialize.end(), replay.serialize_us[c].begin(),
                           replay.serialize_us[c].end());
    }
    for (int c = 0; c < kNumClasses; c++) {
      report.Add("http.wire_us." + name(c),
                 rtt[c] - handle[c], "us", "HTTP p50 - direct Handle p50");
    }
    report.Add("http.parse_us", P50(all_parse), "us");
    report.Add("http.serialize_us", P50(all_serialize), "us");
    report.Add("session.lookup_us", lookup_us, "us",
               "p50 at " + std::to_string(live_sessions) + " live");
    report.Add("session.live", static_cast<double>(live_sessions), "count");
    auto delta = [&](const std::string& name) -> double {
      return static_cast<double>(counters_after[name] - counters_before[name]);
    };
    report.Add("admission.queued", delta("server.queued"), "count");
    report.Add("admission.shed", delta("server.shed"), "count");
    for (int c = 0; c < kNumClasses; c++) {
      report.Add("server.self_us." + name(c),
                 handle[c] - vault_p50[c], "us",
                 "direct Handle p50 - direct vault p50");
    }
    {
      Summary r = Summarize(&replay.vault_us[0]);
      Summary w = Summarize(&replay.vault_us[1]);
      Summary q = Summarize(&replay.vault_us[2]);
      Summary s = Summarize(&replay.sync_us);
      report.Add("vault.read_us.p50", r.p50, "us",
                 "n=" + std::to_string(r.n));
      report.Add("vault.read_us.p99", r.tail, "us",
                 "p" + std::to_string(r.tail_p * 100).substr(0, 4));
      report.Add("vault.write_us.p50", w.p50, "us",
                 "n=" + std::to_string(w.n));
      report.Add("vault.write_us.p99", w.tail, "us",
                 "p" + std::to_string(w.tail_p * 100).substr(0, 4));
      report.Add("vault.query_us.p50", q.p50, "us",
                 "n=" + std::to_string(q.n));
      report.Add("vault.sync_us.p50", s.p50, "us", "SyncAll, n=" +
                 std::to_string(s.n));
      report.Add("vault.sync_us.p99", s.tail, "us",
                 "p" + std::to_string(s.tail_p * 100).substr(0, 4));
    }
    {
      const double hits = cache_after.hits - cache_before.hits;
      const double misses = cache_after.misses - cache_before.misses;
      report.Add("cache.hit_ratio",
                 hits + misses > 0 ? hits / (hits + misses) : 0, "ratio",
                 "of " + std::to_string(static_cast<uint64_t>(hits + misses)) +
                     " lookups");
      report.Add("cache.hits", hits, "count");
      report.Add("cache.misses", misses, "count");
      report.Add("cache.evictions",
                 cache_after.evictions - cache_before.evictions, "count");
    }
    report.Add("crypto.aead_open_us", open_us, "us",
               std::to_string(spec.population_note_bytes) + " B");
    report.Add("crypto.aead_seal_us", seal_us, "us",
               std::to_string((spec.create_bytes_min + spec.create_bytes_max) /
                              2) +
                   " B");
    const double ops = static_cast<double>(std::max<uint64_t>(1, t.TotalOk()));
    const int audit = static_cast<int>(LogKind::kAudit);
    report.Add("audit.events_per_op", audit_traced / ops, "ratio",
               std::to_string(audit_traced) + " events");
    report.Add("audit.bytes_per_op",
               (io_after[audit].append_bytes - io_before[audit].append_bytes) /
                   ops,
               "B/op");
    report.Add("audit.append_us",
               (io_after[audit].append_ns - io_before[audit].append_ns) /
                   1000.0 / ops,
               "us/op");
    const double waves = delta("commit.window.sharded.syncs");
    report.Add("commit.ops_per_wave",
               waves > 0 ? delta("commit.window.sharded.ops") / waves : 0,
               "ratio",
               std::to_string(static_cast<uint64_t>(waves)) + " waves");
    report.Add("commit.coalesced", delta("commit.window.sharded.coalesced"),
               "count");
    uint64_t syncs = 0, append_bytes = 0, read_bytes = 0, reads = 0;
    for (int k = 0; k < kNumLogKinds; k++) {
      syncs += io_after[k].syncs - io_before[k].syncs;
      append_bytes += io_after[k].append_bytes - io_before[k].append_bytes;
      read_bytes += io_after[k].read_bytes - io_before[k].read_bytes;
      reads += io_after[k].reads - io_before[k].reads;
    }
    const double writes = static_cast<double>(std::max<uint64_t>(1, t.ok[1]));
    const double user_reads =
        static_cast<double>(std::max<uint64_t>(1, t.ok[0]));
    report.Add("storage.fsyncs_per_write", syncs / writes, "ratio",
               std::to_string(syncs) + " file syncs / " +
                   std::to_string(t.ok[1]) + " acked writes");
    for (int k = 0; k < static_cast<int>(LogKind::kOther); k++) {
      Summary s = Summarize(&sync_latencies[k]);
      const std::string log = LogKindName(static_cast<LogKind>(k));
      report.Add("storage.sync_us." + log + ".p50", s.p50, "us",
                 "n=" + std::to_string(s.n));
      report.Add("storage.sync_us." + log + ".p99", s.tail, "us",
                 "p" + std::to_string(s.tail_p * 100).substr(0, 4));
    }
    report.Add("storage.write_bytes_per_user_byte",
               t.acked_plaintext > 0
                   ? static_cast<double>(append_bytes) / t.acked_plaintext
                   : 0,
               "ratio");
    report.Add("storage.read_bytes_per_read", read_bytes / user_reads, "B/op");
    report.Add("storage.reads_per_read", reads / user_reads, "ratio");
    report.Add("storage.replay_read_bytes",
               static_cast<double>(replay_read_bytes), "B");
    {
      Summary lag = Summarize(&t.lag_us);
      report.Add("gen.lag_p99_us", lag.tail, "us",
                 spec.open_loop ? "send - due" : "closed loop: send - ready");
    }
    report.Add("trace.overhead_frac",
               untraced.throughput > 0
                   ? (untraced.throughput - traced.throughput) /
                         untraced.throughput
                   : 0,
               "ratio",
               "throughput untraced " +
                   std::to_string(static_cast<int64_t>(untraced.throughput)) +
                   " vs traced " +
                   std::to_string(static_cast<int64_t>(traced.throughput)));
    // Self-time table: the round trip split into the layers it crosses.
    for (int c = 0; c < kNumClasses; c++) {
      const std::string p = "self." + name(c) + ".";
      const double wire = rtt[c] - handle[c] - parse[c] - serialize[c];
      const double server_rest = handle[c] - vault_p50[c] - lookup_us;
      const double vault_rest = vault_p50[c] - storage[c];
      report.Add(p + "http_wire", wire, "us", "residual: sockets + client");
      report.Add(p + "http_parse", parse[c], "us");
      report.Add(p + "http_serialize", serialize[c], "us");
      report.Add(p + "session_lookup", lookup_us, "us");
      report.Add(p + "server", server_rest, "us");
      report.Add(p + "vault", vault_rest, "us");
      report.Add(p + "storage", storage[c], "us");
      const double sum = wire + parse[c] + serialize[c] + lookup_us +
                         server_rest + vault_rest + storage[c];
      report.Add("trace.sum_frac." + name(c),
                 rtt[c] > 0 ? sum / rtt[c] : 0, "ratio",
                 "of traced HTTP p50 " + std::to_string(rtt[c]) + " us");
      report.Add("trace.direct_frac." + name(c),
                 rtt[c] > 0 ? (parse[c] + handle[c] + serialize[c]) / rtt[c]
                            : 0,
                 "ratio", "socket-free replay share of HTTP p50");
    }
  }

  report.PrintLines();
  const Tally& tally = args.trace ? total.tally : u.tally;
  // Full record and spans, written where the run builds.
  const std::string stem = args.work_dir + "/" + spec.name + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  {
    FILE* f = fopen((stem + ".json").c_str(), "w");
    if (f != nullptr) {
      const std::string full =
          report.FullJson(fp, spec.name, args.seed, args.trace, correct,
                          tally.attempted, tally.failed);
      fputs(full.c_str(), f);
      fclose(f);
    }
    if (args.trace && !tracer.WriteJsonLines(stem + ".spans.jsonl")) {
      fprintf(stderr, "cannot write spans\n");
    }
  }

  std::vector<std::string> names;
  if (args.trace) {
    for (const auto& m : PerLayerMetrics()) names.push_back(m.first);
  } else {
    for (const auto& m : EndToEndMetrics()) names.push_back(m.first);
  }
  for (const std::string& n : names) {
    if (!report.Has(n)) Die("metric " + n + " was not measured");
  }
  fs::remove_all(root, ec);
  stage("cleanup");
  printf("%s\n", report
                     .ResultJson(correct, tally.attempted, tally.failed, names)
                     .c_str());
  fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args = perfbench::ParseArgs(argc, argv);
  if (args.list_metrics) {
    for (const auto& [name, unit] : perfbench::EndToEndMetrics()) {
      printf("end_to_end %s %s\n", name.c_str(), unit.c_str());
    }
    for (const auto& [name, unit] : perfbench::PerLayerMetrics()) {
      printf("per_layer %s %s\n", name.c_str(), unit.c_str());
    }
    return 0;
  }
  return perfbench::Run(args);
}
