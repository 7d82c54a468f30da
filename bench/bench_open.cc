// E27: restart cost by layer. One vault (one shard) on PosixEnv in a
// temp dir is loaded with 5,000 registrations (1,004 principals and
// 3,996 care assignments: 999 patients, each in the care of all four
// physicians as in perfbench), n records (1 KiB notes, two keywords
// each) and one audited read per record, then
// closed and reopened five times. Each reopen runs under its own
// MetricsRegistry, so the table prints the median of every
// `vault.open.<phase>` histogram in ms and in µs per entry of the log
// that phase replays (recover: per record; signer: per open).
//
//   bench_open            # n = 1,000, 10,000 and 100,000
//   bench_open 6144       # any list of record counts

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/vault.h"
#include "obs/metrics.h"
#include "storage/log_reader.h"
#include "storage/posix_env.h"

namespace medvault::bench {
namespace {

using core::Role;
using core::Vault;

constexpr int kPatients = 999;
constexpr int kPhysicians = 4;
/// Principals (admin, physicians, patients) plus care assignments.
constexpr int kRegistrations =
    1 + kPhysicians + kPatients + kPatients * kPhysicians;
constexpr int kReopens = 5;

struct Phase {
  const char* name;  ///< the `vault.open.<name>` histogram
  const char* log;   ///< the file it replays, "" if none
};

constexpr Phase kPhases[] = {
    {"keystore", "keys.db"},          {"versions", "catalog.log"},
    {"index", "index.log"},           {"audit", "audit.log"},
    {"provenance", "provenance.log"}, {"signer", ""},
    {"state", "state.log"},           {"recover", ""},
};

/// The current run's temp dir, removed on the way out either way.
std::string g_temp_dir;

void RemoveTempDir() {
  std::error_code ignored;
  if (!g_temp_dir.empty()) std::filesystem::remove_all(g_temp_dir, ignored);
  g_temp_dir.clear();
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    RemoveTempDir();
    exit(1);
  }
}

std::string Physician(uint64_t i) { return "dr-" + std::to_string(i); }
std::string Patient(uint64_t i) { return "pat-" + std::to_string(i); }

/// Logical records in the framed log at `path`.
uint64_t CountRecords(storage::Env* env, const std::string& path) {
  std::unique_ptr<storage::SequentialFile> file;
  if (!env->NewSequentialFile(path, &file).ok()) return 0;
  storage::log::Reader reader(std::move(file));
  std::string record;
  uint64_t n = 0;
  while (reader.ReadRecord(&record)) n++;
  return n;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void Load(const core::VaultOptions& options, uint64_t records) {
  auto opened = Vault::Open(options);
  Check(opened.status(), "open");
  std::unique_ptr<Vault> vault = std::move(opened).value();
  Check(vault->RegisterPrincipal("boot", {"admin", Role::kAdmin, "Admin"}),
        "register admin");
  for (int d = 0; d < kPhysicians; d++) {
    Check(vault->RegisterPrincipal("admin",
                                   {Physician(d), Role::kPhysician, "Dr"}),
          "register physician");
  }
  for (uint64_t p = 0; p < kPatients; p++) {
    Check(vault->RegisterPrincipal("admin",
                                   {Patient(p), Role::kPatient, "Patient"}),
          "register patient");
    for (int d = 0; d < kPhysicians; d++) {
      Check(vault->AssignCare("admin", Physician(d), Patient(p)),
            "assign care");
    }
  }
  constexpr uint64_t kBatch = 512;
  const std::string note(1024, 'n');
  std::vector<core::RecordId> ids;
  ids.reserve(records);
  for (uint64_t done = 0; done < records;) {
    std::vector<Vault::NewRecord> batch;
    for (uint64_t i = done; i < std::min(records, done + kBatch); i++) {
      batch.push_back({Patient(i % kPatients), "text/plain", note,
                       {"kw-" + std::to_string(i % 97), "ward"}, "hipaa-6y"});
    }
    auto created =
        vault->CreateRecordsBatch(Physician(done % kPhysicians), batch);
    Check(created.status(), "create");
    for (core::RecordId& id : *created) ids.push_back(std::move(id));
    done += batch.size();
  }
  for (uint64_t i = 0; i < ids.size(); i++) {
    Check(vault->ReadRecord(Physician(i % kPhysicians), ids[i]).status(),
          "read");
  }
  Check(vault->SyncAll(), "sync");
}

void Run(uint64_t records) {
  char dir_template[] = "/tmp/medvault-bench-open-XXXXXX";
  const char* dir = mkdtemp(dir_template);
  if (dir == nullptr) {
    printf("E27 skipped: no temp dir\n");
    return;
  }
  g_temp_dir = dir;
  storage::Env* env = storage::PosixEnv::Default();
  ManualClock clock(1000000);
  core::VaultOptions options;
  options.env = env;
  options.dir = std::string(dir) + "/vault";
  options.clock = &clock;
  options.master_key = std::string(32, 'M');
  options.entropy = "bench-open-entropy";
  Load(options, records);

  std::vector<std::vector<double>> phase_ms(std::size(kPhases));
  std::vector<double> wall_ms;
  for (int i = 0; i < kReopens; i++) {
    obs::MetricsRegistry registry;
    registry.SetSlowOpSink([](const obs::SlowOp&) {});
    options.metrics = &registry;
    const auto t0 = std::chrono::steady_clock::now();
    auto opened = Vault::Open(options);
    const auto t1 = std::chrono::steady_clock::now();
    Check(opened.status(), "reopen");
    wall_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    for (size_t p = 0; p < std::size(kPhases); p++) {
      const std::string name = std::string("vault.open.") + kPhases[p].name;
      const uint64_t micros = registry.GetHistogram(name)->TakeSnapshot().sum;
      phase_ms[p].push_back(static_cast<double>(micros) / 1000.0);
    }
    opened.value().reset();
  }

  printf("\nE27 vault open by phase: %llu records, %d registrations, one "
         "read per record (PosixEnv, median of %d reopens)\n",
         static_cast<unsigned long long>(records), kRegistrations, kReopens);
  printf("%-12s %10s %10s %10s\n", "phase", "ms", "entries", "us/entry");
  for (size_t p = 0; p < std::size(kPhases); p++) {
    const Phase& phase = kPhases[p];
    uint64_t entries = 1;  // signer: per open
    if (phase.log[0] != '\0') {
      entries = CountRecords(env, options.dir + "/" + phase.log);
    } else if (std::string(phase.name) == "recover") {
      entries = records;
    }
    const double ms = Median(phase_ms[p]);
    printf("%-12s %10.2f %10llu %10.3f\n", phase.name, ms,
           static_cast<unsigned long long>(entries),
           entries == 0 ? 0.0 : ms * 1000.0 / static_cast<double>(entries));
  }
  printf("%-12s %10.2f\n", "open (wall)", Median(wall_ms));
  RemoveTempDir();
}

}  // namespace
}  // namespace medvault::bench

int main(int argc, char** argv) {
  std::vector<uint64_t> sizes = {1000, 10000, 100000};
  if (argc > 1) {
    sizes.clear();
    for (int i = 1; i < argc; i++) {
      sizes.push_back(std::strtoull(argv[i], nullptr, 10));
    }
  }
  for (uint64_t n : sizes) medvault::bench::Run(n);
  return 0;
}
