// Self-tests of the benchmark's own harness. Run them with
// `python3 perfbench/run.py --selftest`; exit status 0 means all passed.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/sharded_vault.h"
#include "harness.h"
#include "server/http_client.h"
#include "server/server.h"
#include "storage/mem_env.h"
#include "workload.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool cond, const std::string& what) {
  printf("%s %s\n", cond ? "ok  " : "FAIL", what.c_str());
  if (!cond) failures++;
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 0; i < n; i++) v.push_back(static_cast<double>(n - i));
  return v;
}

void TestPercentileNeedsTenBeyond() {
  std::vector<double> small = Ramp(999);
  Summary s = Summarize(&small);
  Expect(s.tail_p < 0.99 && s.tail_p > 0.98,
         "999 samples do not support a p99 (reported p" +
             std::to_string(s.tail_p * 100) + ")");
  std::vector<double> enough = Ramp(1000);
  s = Summarize(&enough);
  Expect(s.tail_p == 0.99 && s.tail == 990,
         "1000 samples report p99 with exactly 10 beyond it");
  std::vector<double> tiny = Ramp(10);
  s = Summarize(&tiny);
  Expect(s.tail_p == 0 && s.p50 == 5, "10 samples report a median only");
}

void TestStallShowsBehindIt() {
  // 200 requests due every 200 us; the generator stalls 5 ms before
  // sending request 50. Everything due during the stall must carry it.
  const uint64_t start = NowNs() + 1000000;
  Pacer pacer(/*open_loop=*/true, start, start + 1000000000ULL);
  std::vector<double> latency_us;
  uint64_t due = 0;
  for (int i = 0; i < 200 && pacer.Schedule(200, &due); i++) {
    Pacer::WaitUntil(due);
    if (i == 50) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    latency_us.push_back((NowNs() - due) / 1000.0);
  }
  Expect(latency_us.size() == 200, "open loop issued every request");
  Expect(latency_us[50] >= 4900, "the stalled request shows the stall");
  Expect(latency_us[51] >= 4500 && latency_us[60] >= 2500,
         "requests due behind the stall show the wait it imposed");
  Expect(latency_us[150] < 1000, "latency recovers once the backlog drains");

  Pacer closed(/*open_loop=*/false, NowNs(), NowNs() + 1000000000ULL);
  uint64_t a = 0, b = 0;
  closed.Schedule(0, &a);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  closed.Schedule(0, &b);
  Expect(b - a >= 2000000, "closed loop: a request is due when it is sent");
}

void TestRefusalsCountAsFailed() {
  using medvault::core::ShardedVault;
  medvault::storage::MemEnv env;
  medvault::ManualClock clock(1000000);
  medvault::core::ShardedVaultOptions vopt;
  vopt.env = &env;
  vopt.dir = "selftest";
  vopt.clock = &clock;
  vopt.master_key = std::string(32, 'k');
  vopt.entropy = "selftest-entropy";
  vopt.num_shards = 1;
  auto vault = ShardedVault::Open(vopt);
  if (!vault.ok()) {
    Expect(false, "open vault: " + vault.status().ToString());
    return;
  }
  medvault::server::ServerOptions sopt;
  sopt.worker_threads = 1;
  sopt.admission.max_queue = 1;
  sopt.api_secret = "secret";
  sopt.session_entropy = "selftest-sessions";
  sopt.clock = &clock;
  auto server = medvault::server::MedVaultServer::Start(vault->get(), sopt);
  if (!server.ok()) {
    Expect(false, "start server: " + server.status().ToString());
    return;
  }
  const uint16_t port = (*server)->port();
  Tally tally;
  medvault::server::HttpClient client;
  Expect(client.Connect(port).ok(), "connect");
  auto record = [&](const medvault::Result<medvault::server::ClientResponse>&
                        r) {
    tally.Record(r.ok(), r.ok() ? r->status : 0);
    return r.ok() ? r->status : 0;
  };
  const int ok = record(client.Do("GET", "/v1/health"));
  const int unauthorized = record(client.Do("GET", "/v1/records/s0-r-1"));
  const int forbidden = record(client.Do(
      "POST", "/v1/login", "{\"principal\": \"x\", \"secret\": \"wrong\"}"));
  client.Close();

  // Park the one worker and fill the one queue slot; the next connection
  // is shed by the acceptor.
  std::vector<medvault::server::HttpClient> parked(2);
  for (auto& p : parked) {
    (void)p.Connect(port);
    (void)p.SendRaw("GET /v1/health HTTP/1.1\r\n");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  medvault::server::HttpClient extra;
  (void)extra.Connect(port);
  const int shed = record(extra.Do("GET", "/v1/health"));
  for (auto& p : parked) {
    (void)p.SendRaw("\r\n");
    (void)p.ReadResponse();
  }
  (*server)->Stop();

  Expect(ok == 200 && unauthorized == 401 && forbidden == 403 && shed == 503,
         "server answered 200/401/403/503 (got " + std::to_string(ok) + "/" +
             std::to_string(unauthorized) + "/" + std::to_string(forbidden) +
             "/" + std::to_string(shed) + ")");
  Expect(tally.attempted == 4 && tally.failed == 3 &&
             tally.FailedFrac() == 0.75,
         "401, 403 and 503 count in failed_frac");
}

std::string RenderStream(const WorkloadSpec& spec, uint64_t seed, int ops) {
  std::vector<std::string> population;
  for (uint64_t i = 0; i < spec.population; i++) {
    population.push_back("s" + std::to_string(i % 4) + "-r-" +
                         std::to_string(i / 4 + 1));
  }
  std::vector<std::string> tokens = {"tok-a", "tok-b"};
  std::vector<std::string> patients = {"tok-p"};
  std::string all;
  for (int c = 0; c < spec.connections; c++) {
    OpStream stream(spec, seed, c);
    std::vector<std::string> own;
    RequestContext ctx;
    ctx.population_ids = &population;
    ctx.own_ids = &own;
    ctx.tokens = &tokens;
    ctx.patient_tokens = &patients;
    ctx.connection = c;
    for (int i = 0; i < ops; i++) {
      Op op = stream.Next();
      ctx.sequence = static_cast<uint64_t>(i);
      Request r = BuildRequest(op, spec, stream, ctx);
      all += WireBytes(r);
      all += "gap=" + std::to_string(op.gap_us) + "\n";
      // The server names created records; stand in for it.
      if (op.kind == OpKind::kCreate) own.push_back("own-" + std::to_string(i));
    }
  }
  return all;
}

void TestSameSeedSameStream() {
  for (const WorkloadSpec& spec : Workloads()) {
    const std::string a = RenderStream(spec, 42, 2000);
    const std::string b = RenderStream(spec, 42, 2000);
    const std::string c = RenderStream(spec, 43, 2000);
    Expect(a == b,
           spec.name + ": the same seed yields a byte-identical stream");
    Expect(a != c, spec.name + ": another seed yields another stream");
  }
}

void TestMixAndSizes() {
  for (const WorkloadSpec& spec : Workloads()) {
    const double sum =
        spec.read + spec.correct + spec.create + spec.search + spec.disclosures;
    Expect(sum > 0.999 && sum < 1.001, spec.name + ": mix sums to 1");
    OpStream stream(spec, 7, 0);
    int classes[kNumClasses] = {0, 0, 0};
    for (int i = 0; i < 20000; i++) {
      classes[static_cast<int>(ClassOf(stream.Next().kind))]++;
    }
    Expect(classes[0] > 0 && classes[1] > 0 && classes[2] > 0,
           spec.name + ": every end-to-end class is issued");
  }
}

void TestCoveredTime() {
  Expect(CoveredNs(100, 200, {{90, 120}, {110, 130}, {150, 160}, {190, 260}}) ==
             30 + 10 + 10,
         "overlapping child spans are counted once and clipped to the parent");
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  TestPercentileNeedsTenBeyond();
  TestStallShowsBehindIt();
  TestRefusalsCountAsFailed();
  TestSameSeedSameStream();
  TestMixAndSizes();
  TestCoveredTime();
  printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
