// E18 — patient-driven sharing: what a consent check costs on the read
// path, and how fast a revocation actually closes the door (DESIGN.md
// "Patient-driven sharing"; paper §3: the patient controls disclosure,
// so revocation must be synchronous — no cached grant may outlive it).
//
// Three tables:
//
//   1. Grant-check overhead: the same record set read over HTTP by the
//      treating physician (care-relation basis) and by a specialist
//      whose only basis is a patient-wide consent grant. p50/p99 per
//      read and reads/s for both; the delta IS the registry lookup +
//      basis attribution cost.
//   2. Revocation churn: tenant threads each loop grant → grantee read
//      (must succeed) → revoke → grantee read (must be refused on the
//      FIRST try — synchronous revocation, measured as revoke-POST
//      start to refused-read completion). Any post-revoke 200 is a
//      correctness violation and aborts the bench.
//   3. Embedded grant lookups: ns per consent check (hit and miss) on a
//      standalone ConsentRegistry, and per break-glass check through
//      AccessController::CheckAccess, at 1, 1k, 10k and 100k live
//      grants. Flat rows mean a lookup walks one (patient, grantee)
//      pair's grants, not the table.
//
// Writes BENCH_sharing.json (google-benchmark result format, consumed
// by tools/bench_compare.py against bench/baselines/BENCH_sharing.json)
// and HEALTH_sharing.json next to the binary.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/access.h"
#include "core/consent.h"
#include "core/sharded_vault.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "server/http_client.h"
#include "server/server.h"
#include "storage/instrumented_env.h"
#include "storage/mem_env.h"
#include "storage/posix_env.h"

namespace medvault::bench {
namespace {

using core::Role;
using core::ShardedVault;
using core::ShardedVaultOptions;
using server::HttpClient;
using server::MedVaultServer;
using server::ServerOptions;

constexpr char kSecret[] = "bench-sharing-secret";
constexpr int kPatients = 8;
constexpr int64_t kGrantDuration = 3600ll * 1000 * 1000;  // one hour

struct Instance {
  storage::MemEnv env;
  std::unique_ptr<storage::InstrumentedEnv> ienv;
  ManualClock clock{1000000};
  std::unique_ptr<ShardedVault> vault;
  std::unique_ptr<MedVaultServer> server;
  std::vector<std::string> record_ids;  // record i belongs to pat-(i%8)

  ~Instance() {
    if (server) server->Stop();
  }
};

std::unique_ptr<Instance> MakeServer(int records) {
  auto in = std::make_unique<Instance>();
  in->ienv = std::make_unique<storage::InstrumentedEnv>(
      &in->env, obs::ProcessIoStats());

  ShardedVaultOptions vopt;
  vopt.env = in->ienv.get();
  vopt.dir = "shared";
  vopt.clock = &in->clock;
  vopt.master_key = std::string(32, 'B');
  vopt.entropy = "bench-sharing-entropy";
  vopt.num_shards = 2;
  vopt.signer_height = 8;
  vopt.metrics = obs::MetricsRegistry::Default();
  auto opened = ShardedVault::Open(vopt);
  if (!opened.ok()) {
    fprintf(stderr, "open failed: %s\n", opened.status().ToString().c_str());
    abort();
  }
  in->vault = std::move(*opened);
  ShardedVault* v = in->vault.get();
  (void)v->RegisterPrincipal("boot", {"admin", Role::kAdmin, "A"});
  (void)v->RegisterPrincipal("admin", {"dr", Role::kPhysician, "D"});
  // The specialist has NO care relation with anyone: every read they
  // make rides a consent grant or fails.
  (void)v->RegisterPrincipal("admin", {"spec", Role::kPhysician, "S"});
  for (int p = 0; p < kPatients; p++) {
    std::string pat = "pat-" + std::to_string(p);
    (void)v->RegisterPrincipal("admin", {pat, Role::kPatient, pat});
    (void)v->AssignCare("admin", "dr", pat);
  }
  for (int i = 0; i < records; i++) {
    auto id = v->CreateRecord("dr", "pat-" + std::to_string(i % kPatients),
                              "text/plain",
                              "shared note " + std::to_string(i) +
                                  std::string(400, 's'),
                              {"note"}, "hipaa-6y");
    if (!id.ok()) {
      fprintf(stderr, "create failed: %s\n", id.status().ToString().c_str());
      abort();
    }
    in->record_ids.push_back(*id);
  }
  Status synced = v->SyncAll();
  if (!synced.ok()) {
    fprintf(stderr, "sync failed: %s\n", synced.ToString().c_str());
    abort();
  }

  ServerOptions sopt;
  sopt.port = 0;
  // A worker serves one keep-alive connection until it closes, and the
  // churn phase holds two connections per tenant open at once: fewer
  // workers than connections parks the grantee logins in the admission
  // queue until they are shed.
  sopt.worker_threads = 8;
  sopt.admission.max_queue = 64;
  sopt.api_secret = kSecret;
  sopt.session_entropy = "bench-sharing-session-entropy";
  sopt.clock = &in->clock;
  sopt.durable_writes = false;  // latency story, not the fsync one (E14)
  auto started = MedVaultServer::Start(v, sopt);
  if (!started.ok()) {
    fprintf(stderr, "server start failed: %s\n",
            started.status().ToString().c_str());
    abort();
  }
  in->server = std::move(*started);
  return in;
}

std::string Login(HttpClient* client, const std::string& principal) {
  auto r = client->Do("POST", "/v1/login",
                      std::string("{\"principal\": \"") + principal +
                          "\", \"secret\": \"" + kSecret + "\"}");
  if (!r.ok() || r->status != 200) {
    fprintf(stderr, "login failed for %s\n", principal.c_str());
    abort();
  }
  const std::string& body = r->body;
  size_t key = body.find("\"token\"");
  size_t open = body.find('"', body.find(':', key));
  size_t close = body.find('"', open + 1);
  return body.substr(open + 1, close - open - 1);
}

/// Pulls a JSON string field out of a response body (the bench only
/// needs grant ids, not a full parser).
std::string JsonField(const std::string& body, const std::string& field) {
  size_t key = body.find("\"" + field + "\"");
  if (key == std::string::npos) return "";
  size_t open = body.find('"', body.find(':', key));
  size_t close = body.find('"', open + 1);
  return body.substr(open + 1, close - open - 1);
}

double Percentile(std::vector<double>* sorted_us, double p) {
  if (sorted_us->empty()) return 0;
  std::sort(sorted_us->begin(), sorted_us->end());
  size_t idx = static_cast<size_t>(p * (sorted_us->size() - 1));
  return (*sorted_us)[idx];
}

double NowUs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() /
         1000.0;
}

struct ReadPoint {
  double reads_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
};

/// Closed-loop read sweep over every record, `rounds` times, as one
/// principal. Every read must return 200.
ReadPoint RunReads(Instance* in, const std::string& principal, int rounds) {
  HttpClient client;
  if (!client.Connect(in->server->port()).ok()) abort();
  std::string token = Login(&client, principal);
  std::vector<double> lat;
  lat.reserve(rounds * in->record_ids.size());
  double start = NowUs();
  for (int r = 0; r < rounds; r++) {
    for (const std::string& id : in->record_ids) {
      double t0 = NowUs();
      auto resp = client.Do("GET", "/v1/records/" + id, "", token);
      double t1 = NowUs();
      if (!resp.ok() || resp->status != 200) {
        fprintf(stderr, "%s read of %s failed (%d)\n", principal.c_str(),
                id.c_str(), resp.ok() ? resp->status : -1);
        abort();
      }
      lat.push_back(t1 - t0);
    }
  }
  double elapsed_us = NowUs() - start;
  ReadPoint point;
  point.reads_per_sec = lat.size() / (elapsed_us / 1e6);
  point.p50_us = Percentile(&lat, 0.50);
  point.p99_us = Percentile(&lat, 0.99);
  return point;
}

struct ChurnResult {
  double grants_per_sec = 0;
  double revoke_p50_us = 0;   ///< revoke POST -> first refused read
  double revoke_p99_us = 0;
  size_t violations = 0;      ///< post-revoke reads that still returned 200
};

/// Tenant threads: each patient grants the specialist patient-wide
/// access, the specialist reads one of the patient's records, the
/// patient revokes, and the specialist's next read must already be
/// refused. The revoke latency includes that first refused read — the
/// externally observable "door actually closed" instant.
ChurnResult RunChurn(Instance* in, int tenants, int iterations) {
  std::vector<std::vector<double>> revoke_lat(tenants);
  std::atomic<size_t> violations{0};
  std::atomic<int> grants{0};
  double start = NowUs();
  std::vector<std::thread> threads;
  threads.reserve(tenants);
  for (int t = 0; t < tenants; t++) {
    threads.emplace_back([&, t] {
      const std::string patient = "pat-" + std::to_string(t % kPatients);
      // The tenant's record: any record belonging to this patient.
      std::string record_id;
      for (size_t i = 0; i < in->record_ids.size(); i++) {
        if (static_cast<int>(i) % kPatients == t % kPatients) {
          record_id = in->record_ids[i];
          break;
        }
      }
      HttpClient pat_client, spec_client;
      if (!pat_client.Connect(in->server->port()).ok()) abort();
      if (!spec_client.Connect(in->server->port()).ok()) abort();
      std::string pat_token = Login(&pat_client, patient);
      std::string spec_token = Login(&spec_client, "spec");
      const std::string grant_body =
          "{\"grantee\": \"spec\", \"purpose\": \"churn\", "
          "\"duration_micros\": " + std::to_string(kGrantDuration) + "}";
      for (int i = 0; i < iterations; i++) {
        auto granted =
            pat_client.Do("POST", "/v1/consent", grant_body, pat_token);
        if (!granted.ok() || granted->status != 201) abort();
        std::string grant_id = JsonField(granted->body, "grant_id");
        grants.fetch_add(1);

        auto open_read = spec_client.Do("GET", "/v1/records/" + record_id,
                                        "", spec_token);
        if (!open_read.ok() || open_read->status != 200) abort();

        double t0 = NowUs();
        auto revoked = pat_client.Do(
            "POST", "/v1/consent/revoke",
            "{\"grant_id\": \"" + grant_id + "\"}", pat_token);
        if (!revoked.ok() || revoked->status != 200) abort();
        auto closed_read = spec_client.Do("GET", "/v1/records/" + record_id,
                                          "", spec_token);
        double t1 = NowUs();
        if (!closed_read.ok()) abort();
        if (closed_read->status == 200) {
          violations.fetch_add(1);  // a revoked grant still served a read
        }
        revoke_lat[t].push_back(t1 - t0);
      }
    });
  }
  for (auto& th : threads) th.join();
  double elapsed_us = NowUs() - start;

  ChurnResult result;
  std::vector<double> all;
  for (auto& per_tenant : revoke_lat) {
    all.insert(all.end(), per_tenant.begin(), per_tenant.end());
  }
  result.grants_per_sec = grants.load() / (elapsed_us / 1e6);
  result.revoke_p50_us = Percentile(&all, 0.50);
  result.revoke_p99_us = Percentile(&all, 0.99);
  result.violations = violations.load();
  return result;
}

/// Mean ns per call of `probe(i)`, called with i = 0, 1, ... until at
/// least 20 ms and 3 calls have passed.
template <typename Probe>
double NsPerCall(Probe probe) {
  const double start = NowUs();
  double elapsed_us = 0;
  int calls = 0;
  do {
    probe(calls++);
    elapsed_us = NowUs() - start;
  } while (calls < 3 || elapsed_us < 20000);
  return elapsed_us * 1000 / calls;
}

struct LookupRow {
  double consent_hit_ns = 0;
  double consent_miss_ns = 0;
  double breakglass_hit_ns = 0;
  double breakglass_miss_ns = 0;
};

/// E18c: `live` consent grants (10 grantees per patient, even ones
/// patient-wide, odd ones on one record) and `live` break-glass grants
/// (up to 100 clinicians, each on every patient), then hit and miss
/// lookups against each table.
LookupRow MeasureLookups(int live) {
  constexpr Timestamp kNow = 1000000;
  const Timestamp expires = kNow + kGrantDuration;
  LookupRow row;
  auto fail = [](const Status& s) {
    fprintf(stderr, "grant failed: %s\n", s.ToString().c_str());
    abort();
  };

  core::ConsentRegistry consents;
  consents.Configure(std::string(32, 'K'), "cg");
  const int patients = std::max(1, live / 10);
  for (int i = 0; i < live; i++) {
    const int g = i % 10;
    auto grant = consents.Grant(
        "pat-" + std::to_string(i / 10), "dr-" + std::to_string(g),
        g % 2 == 0 ? "" : "r-" + std::to_string(i), "study", kNow, expires);
    if (!grant.ok()) fail(grant.status());
  }
  bool ok = true;
  row.consent_hit_ns = NsPerCall([&](int i) {
    ok &= consents.HasActiveConsent(
        "dr-0", "pat-" + std::to_string(i % patients), "r-1", kNow, nullptr);
  });
  row.consent_miss_ns = NsPerCall([&](int i) {
    ok &= !consents.HasActiveConsent(
        "spec", "pat-" + std::to_string(i % patients), "r-1", kNow, nullptr);
  });

  core::AccessController access;
  const int clinicians = std::min(live, 100);
  const int bg_patients = live / clinicians;
  for (int c = 0; c < clinicians; c++) {
    Status s = access.RegisterPrincipal(
        {"dr-" + std::to_string(c), Role::kPhysician, "Dr"});
    if (!s.ok()) fail(s);
    for (int p = 0; p < bg_patients; p++) {
      auto grant = access.BreakGlass("dr-" + std::to_string(c),
                                     "pat-" + std::to_string(p), "ER", kNow,
                                     expires);
      if (!grant.ok()) fail(grant.status());
    }
  }
  row.breakglass_hit_ns = NsPerCall([&](int i) {
    ok &= access
              .CheckAccess("dr-" + std::to_string(i % clinicians),
                           core::Operation::kReadRecord,
                           "pat-" + std::to_string(i % bg_patients), "",
                           kNow, nullptr)
              .ok();
  });
  row.breakglass_miss_ns = NsPerCall([&](int i) {
    ok &= !access
               .CheckAccess("dr-" + std::to_string(i % clinicians),
                            core::Operation::kReadRecord, "stranger", "",
                            kNow, nullptr)
               .ok();
  });
  if (!ok) {
    fprintf(stderr, "a grant lookup gave the wrong answer\n");
    abort();
  }
  return row;
}

void WriteBenchJson(const ReadPoint& care, const ReadPoint& consent,
                    const ChurnResult& churn) {
  FILE* f = fopen("BENCH_sharing.json", "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write BENCH_sharing.json\n");
    return;
  }
  fprintf(f, "{\n  \"context\": {\n");
  fprintf(f, "    \"executable\": \"./bench_sharing\",\n");
  fprintf(f, "    \"library_build_type\": \"release\"\n  },\n");
  fprintf(f, "  \"benchmarks\": [\n");
  bool first = true;
  auto entry = [&](const std::string& name, double real_time_us,
                   double items_per_second) {
    fprintf(f, "%s    {\n      \"name\": \"%s\",\n", first ? "" : ",\n",
            name.c_str());
    fprintf(f, "      \"run_type\": \"iteration\",\n");
    fprintf(f, "      \"iterations\": 1,\n");
    fprintf(f, "      \"real_time\": %.3f,\n", real_time_us);
    fprintf(f, "      \"cpu_time\": %.3f,\n", real_time_us);
    fprintf(f, "      \"time_unit\": \"us\",\n");
    fprintf(f, "      \"items_per_second\": %.3f\n    }", items_per_second);
    first = false;
  };
  entry("BM_SharingRead/basis:care", care.p99_us, care.reads_per_sec);
  entry("BM_SharingRead/basis:consent", consent.p99_us,
        consent.reads_per_sec);
  if (churn.revoke_p50_us > 0) {
    entry("BM_SharingRevoke", churn.revoke_p99_us,
          1e6 / churn.revoke_p50_us);
  }
  fprintf(f, "\n  ]\n}\n");
  fclose(f);
}

}  // namespace
}  // namespace medvault::bench

int main() {
  using namespace medvault::bench;

  printf("E18a: grant-check overhead — the same 32 records read over "
         "HTTP on a care basis (dr) vs a consent basis (spec, "
         "patient-wide grants)\n");
  printf("%10s %10s %10s %10s\n", "basis", "reads/s", "p50-us", "p99-us");
  ReadPoint care, consent;
  ChurnResult churn;
  {
    auto in = MakeServer(/*records=*/32);
    // Every patient delegates patient-wide to the specialist, once.
    for (int p = 0; p < kPatients; p++) {
      auto g = in->vault->GrantConsent("pat-" + std::to_string(p), "spec",
                                       "", "second opinion",
                                       kGrantDuration);
      if (!g.ok()) {
        fprintf(stderr, "grant failed: %s\n", g.status().ToString().c_str());
        abort();
      }
    }
    care = RunReads(in.get(), "dr", /*rounds=*/8);
    consent = RunReads(in.get(), "spec", /*rounds=*/8);
    printf("%10s %10.0f %10.1f %10.1f\n", "care", care.reads_per_sec,
           care.p50_us, care.p99_us);
    printf("%10s %10.0f %10.1f %10.1f\n", "consent", consent.reads_per_sec,
           consent.p50_us, consent.p99_us);
    printf("consent/care p50 ratio: %.2fx\n",
           care.p50_us > 0 ? consent.p50_us / care.p50_us : 0.0);
    in->server->Stop();
  }

  printf("\nE18b: revocation churn — 4 tenant threads, each looping "
         "grant -> grantee read -> revoke -> refused read (24 "
         "iterations each)\n");
  {
    // A fresh instance: no standing grants, so after each revocation
    // the specialist has NO remaining basis and the refused read is a
    // real revocation probe.
    auto in = MakeServer(/*records=*/32);
    churn = RunChurn(in.get(), /*tenants=*/4, /*iterations=*/24);
    printf("%10s %14s %14s %12s\n", "grants/s", "revoke-p50-us",
           "revoke-p99-us", "violations");
    printf("%10.0f %14.1f %14.1f %12zu\n", churn.grants_per_sec,
           churn.revoke_p50_us, churn.revoke_p99_us, churn.violations);
    printf("\nshape check: consent reads cost within a small constant of "
           "care reads (one registry probe + basis tag), and violations "
           "is 0 — no read ever succeeds after its grant's revocation "
           "was acknowledged.\n");
    if (churn.violations != 0) {
      fprintf(stderr, "revoked grants served %zu reads\n", churn.violations);
      abort();
    }
    in->server->Stop();
  }

  printf("\nE18c: embedded grant lookups — ns per check against N live "
         "grants (consent: ConsentRegistry::HasActiveConsent; break-glass: "
         "AccessController::CheckAccess)\n");
  printf("%12s %16s %16s %16s %16s\n", "live-grants", "consent-hit-ns",
         "consent-miss-ns", "bg-hit-ns", "bg-miss-ns");
  for (int live : {1, 1000, 10000, 100000}) {
    LookupRow row = MeasureLookups(live);
    printf("%12d %16.0f %16.0f %16.0f %16.0f\n", live, row.consent_hit_ns,
           row.consent_miss_ns, row.breakglass_hit_ns,
           row.breakglass_miss_ns);
  }

  WriteBenchJson(care, consent, churn);

  int64_t now_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::system_clock::now().time_since_epoch())
                           .count();
  medvault::obs::HealthReport health = medvault::obs::CollectProcessHealth(
      now_micros, medvault::obs::MetricsRegistry::Default(),
      medvault::obs::ProcessIoStats());
  medvault::Status health_status = medvault::obs::WriteHealthFile(
      medvault::storage::PosixEnv::Default(), health, "HEALTH_sharing.json");
  if (!health_status.ok()) {
    fprintf(stderr, "health report write failed: %s\n",
            health_status.ToString().c_str());
  }
  return 0;
}
