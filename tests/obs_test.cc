// Observability layer tests: histogram bucket math, registry
// cardinality bounds, slow-op tracing, concurrent metric recording
// (the TSan target for this module), the InstrumentedEnv I/O tallies,
// the deterministic JSON value, and the HealthReport golden round-trip.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/record_cache.h"
#include "core/sharded_vault.h"
#include "core/vault.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "storage/instrumented_env.h"
#include "storage/mem_env.h"

namespace medvault::obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram bucket math.
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds exactly {0}; bucket i holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);

  // Every power-of-two edge up to the clamp: 2^i - 1 lands in bucket i,
  // 2^i in bucket i+1.
  for (size_t i = 1; i + 1 < Histogram::kNumBuckets; i++) {
    uint64_t edge = 1ULL << i;
    EXPECT_EQ(Histogram::BucketIndex(edge - 1), i) << "edge 2^" << i << "-1";
    EXPECT_EQ(Histogram::BucketIndex(edge), i + 1) << "edge 2^" << i;
  }

  // The last bucket absorbs everything too wide to classify.
  EXPECT_EQ(Histogram::BucketIndex(1ULL << 31), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(~0ULL), Histogram::kNumBuckets - 1);

  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 1023u);
}

TEST(HistogramTest, RecordAggregatesCountSumMax) {
  Histogram hist;
  hist.Record(0);
  hist.Record(5);
  hist.Record(1000);
  Histogram::Snapshot snap = hist.TakeSnapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 1005u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_EQ(snap.buckets[0], 1u);                           // the 0
  EXPECT_EQ(snap.buckets[Histogram::BucketIndex(5)], 1u);
  EXPECT_EQ(snap.buckets[Histogram::BucketIndex(1000)], 1u);
}

TEST(HistogramTest, PercentileUpperBound) {
  Histogram hist;
  EXPECT_EQ(hist.TakeSnapshot().PercentileUpperBound(50), 0u);

  // 90 fast samples (~hundreds of micros), 10 slow ones (~100k micros):
  // p50 sits in the fast bucket, p99 in the slow one.
  for (int i = 0; i < 90; i++) hist.Record(300);
  for (int i = 0; i < 10; i++) hist.Record(100000);
  Histogram::Snapshot snap = hist.TakeSnapshot();
  EXPECT_EQ(snap.PercentileUpperBound(50),
            Histogram::BucketUpperBound(Histogram::BucketIndex(300)));
  EXPECT_EQ(snap.PercentileUpperBound(90),
            Histogram::BucketUpperBound(Histogram::BucketIndex(300)));
  EXPECT_EQ(snap.PercentileUpperBound(99),
            Histogram::BucketUpperBound(Histogram::BucketIndex(100000)));
  EXPECT_EQ(snap.PercentileUpperBound(100),
            Histogram::BucketUpperBound(Histogram::BucketIndex(100000)));
}

// ---------------------------------------------------------------------------
// MetricsRegistry.
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, SameNameSamePointer) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("ingest.records");
  Counter* c2 = registry.GetCounter("ingest.records");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(c1, registry.GetCounter("ingest.bytes"));
  EXPECT_EQ(registry.GetHistogram("vault.read"),
            registry.GetHistogram("vault.read"));
}

TEST(MetricsRegistryTest, SnapshotReflectsRecordedValues) {
  MetricsRegistry registry;
  registry.GetCounter("a")->Increment(3);
  registry.GetGauge("depth")->Set(-7);
  registry.GetHistogram("h")->Record(10);
  MetricsRegistry::RegistrySnapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("a"), 3u);
  EXPECT_EQ(snap.gauges.at("depth"), -7);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);
  EXPECT_EQ(snap.series_dropped, 0u);
}

TEST(MetricsRegistryTest, CardinalityCapRoutesToOverflowSeries) {
  MetricsRegistry registry;
  // Exhaust the per-kind budget with distinct names (the overflow
  // series itself occupies one slot, so cap-1 distinct real series).
  for (size_t i = 0; i < MetricsRegistry::kMaxSeriesPerKind + 10; i++) {
    registry.GetCounter("series-" + std::to_string(i))->Increment();
  }
  MetricsRegistry::RegistrySnapshot snap = registry.TakeSnapshot();
  // The cap bounds real series; the shared "_overflow" series rides on
  // top of it, so the map never exceeds cap + 1.
  EXPECT_LE(snap.counters.size(), MetricsRegistry::kMaxSeriesPerKind + 1);
  EXPECT_GT(snap.series_dropped, 0u);
  ASSERT_TRUE(snap.counters.count("_overflow"));
  EXPECT_GT(snap.counters.at("_overflow"), 0u);
  // Past the cap, every unknown name shares the overflow series.
  EXPECT_EQ(registry.GetCounter("another-new-name"),
            registry.GetCounter("yet-another-new-name"));
  // Pre-existing series are unaffected by the cap.
  registry.GetCounter("series-0")->Increment();
  EXPECT_EQ(registry.TakeSnapshot().counters.at("series-0"), 2u);
}

TEST(MetricsRegistryTest, SlowOpTracingThresholdAndSink) {
  MetricsRegistry registry;
  std::vector<SlowOp> traced;
  registry.SetSlowOpSink([&](const SlowOp& op) { traced.push_back(op); });
  registry.SetSlowOpThresholdMicros(1000);

  registry.MaybeTraceSlowOp("vault.read", 999);     // under: not traced
  registry.MaybeTraceSlowOp("vault.read", 1000);    // at: traced
  registry.MaybeTraceSlowOp("vault.verify", 50000); // over: traced
  ASSERT_EQ(traced.size(), 2u);
  EXPECT_EQ(traced[0].op, "vault.read");
  EXPECT_EQ(traced[0].micros, 1000u);
  EXPECT_EQ(traced[0].threshold_micros, 1000u);
  EXPECT_EQ(traced[1].op, "vault.verify");
  EXPECT_EQ(registry.TakeSnapshot().slow_ops, 2u);

  // Threshold 0 disables tracing outright.
  registry.SetSlowOpThresholdMicros(0);
  registry.MaybeTraceSlowOp("vault.read", 1 << 30);
  EXPECT_EQ(traced.size(), 2u);
  EXPECT_EQ(registry.TakeSnapshot().slow_ops, 2u);
}

TEST(MetricsRegistryTest, ScopedOpTimerRecordsAndNullsAreInert) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("op");
  { ScopedOpTimer timer(&registry, hist, "op"); }
  EXPECT_EQ(hist->TakeSnapshot().count, 1u);
  // Null histogram / registry: no crash, nothing recorded.
  { ScopedOpTimer timer(nullptr, nullptr, "op"); }
  { ScopedOpTimer timer(nullptr, hist, "op"); }
  EXPECT_EQ(hist->TakeSnapshot().count, 2u);
}

TEST(MetricsRegistryTest, VaultOpMetricsCachesNamedHistograms) {
  MetricsRegistry registry;
  VaultOpMetrics ops = VaultOpMetrics::For(&registry, "vault");
  EXPECT_EQ(ops.read, registry.GetHistogram("vault.read"));
  EXPECT_EQ(ops.batch_ingest, registry.GetHistogram("vault.batch_ingest"));
  EXPECT_EQ(ops.recover, registry.GetHistogram("vault.recover"));
  VaultOpMetrics sharded = VaultOpMetrics::For(&registry, "sharded");
  EXPECT_EQ(sharded.read, registry.GetHistogram("sharded.read"));
  EXPECT_NE(sharded.read, ops.read);
}

// Every restart phase records one "vault.open.<phase>" sample per shard
// open; the structural scrub of a degraded sharded open is timed too.
TEST(MetricsRegistryTest, OpenRecordsEveryPhaseTimer) {
  storage::MemEnv env;
  ManualClock clock(1000000);
  MetricsRegistry registry;
  core::ShardedVaultOptions options;
  options.env = &env;
  options.dir = "sharded";
  options.clock = &clock;
  options.master_key = std::string(32, 'M');
  options.entropy = "obs-open-phases";
  options.num_shards = 2;
  options.signer_height = 4;
  options.metrics = &registry;
  options.open_mode = core::OpenMode::kDegraded;
  const char* const kPhases[] = {
      "vault.open.scrub",  "vault.open.keystore", "vault.open.versions",
      "vault.open.index",  "vault.open.audit",    "vault.open.provenance",
      "vault.open.signer", "vault.open.state",    "vault.open.recover"};
  for (uint64_t opens = 1; opens <= 2; opens++) {
    auto vault = core::ShardedVault::Open(options);
    ASSERT_TRUE(vault.ok()) << vault.status().ToString();
    const auto snap = registry.TakeSnapshot();
    for (const char* phase : kPhases) {
      ASSERT_EQ(snap.histograms.count(phase), 1u) << phase;
      EXPECT_EQ(snap.histograms.at(phase).count, 2 * opens) << phase;
    }
  }
}

// The TSan target: concurrent recording into shared series plus
// concurrent name lookups and snapshots must be race-free, and
// counters must not lose increments.
TEST(MetricsRegistryTest, ConcurrentRecordingIsRaceFreeAndExact) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      Counter* shared = registry.GetCounter("shared");
      Histogram* hist = registry.GetHistogram("latency");
      Gauge* gauge = registry.GetGauge("depth");
      for (int i = 0; i < kOpsPerThread; ++i) {
        shared->Increment();
        hist->Record(static_cast<uint64_t>(i));
        gauge->Add(1);
        gauge->Add(-1);
        if (i % 1000 == 0) {
          // Lookups and snapshots race the recorders on purpose.
          registry.GetCounter("thread-" + std::to_string(t))->Increment();
          (void)registry.TakeSnapshot();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  MetricsRegistry::RegistrySnapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("shared"),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(snap.histograms.at("latency").count,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(snap.gauges.at("depth"), 0);
}

// ---------------------------------------------------------------------------
// InstrumentedEnv.
// ---------------------------------------------------------------------------

TEST(InstrumentedEnvTest, CountsCallsAndBytes) {
  storage::MemEnv base;
  storage::IoStats stats;
  storage::InstrumentedEnv env(&base, &stats);

  ASSERT_TRUE(storage::WriteStringToFile(&env, Slice("hello world"),
                                         "f", /*sync=*/true)
                  .ok());
  std::string back;
  ASSERT_TRUE(storage::ReadFileToString(&env, "f", &back).ok());
  EXPECT_EQ(back, "hello world");

  storage::IoStatsSnapshot snap = stats.TakeSnapshot();
  EXPECT_GE(snap.file_opens, 2u);  // one write handle + one read handle
  EXPECT_GE(snap.writes, 1u);
  EXPECT_EQ(snap.write_bytes, 11u);
  EXPECT_GE(snap.reads, 1u);
  EXPECT_GE(snap.read_bytes, 11u);
  EXPECT_GE(snap.syncs, 1u);

  ASSERT_TRUE(env.RenameFile("f", "g").ok());
  ASSERT_TRUE(env.RemoveFile("g").ok());
  snap = stats.TakeSnapshot();
  EXPECT_EQ(snap.renames, 1u);
  EXPECT_EQ(snap.deletes, 1u);

  // The underlying env saw the traffic (pass-through, not interception).
  EXPECT_FALSE(base.FileExists("f"));
}

TEST(InstrumentedEnvTest, SharedStatsAccumulateAcrossEnvs) {
  storage::MemEnv base1, base2;
  storage::IoStats stats;
  storage::InstrumentedEnv env1(&base1, &stats);
  storage::InstrumentedEnv env2(&base2, &stats);
  ASSERT_TRUE(
      storage::WriteStringToFile(&env1, Slice("aa"), "f", false).ok());
  ASSERT_TRUE(
      storage::WriteStringToFile(&env2, Slice("bbbb"), "f", false).ok());
  EXPECT_EQ(stats.TakeSnapshot().write_bytes, 6u);
}

// ---------------------------------------------------------------------------
// Deterministic JSON.
// ---------------------------------------------------------------------------

TEST(JsonTest, DumpIsDeterministicAndSorted) {
  json::Value::Object obj;
  obj["zeta"] = json::Value(1);
  obj["alpha"] = json::Value(true);
  obj["mid"] = json::Value("s");
  EXPECT_EQ(json::Value(std::move(obj)).Dump(),
            "{\"alpha\":true,\"mid\":\"s\",\"zeta\":1}");
}

TEST(JsonTest, RoundTripsAllTypes) {
  json::Value::Array arr;
  arr.push_back(json::Value(nullptr));
  arr.push_back(json::Value(false));
  arr.push_back(json::Value(int64_t{-42}));
  const uint64_t kMaxU64 = ~uint64_t{0};
  arr.push_back(json::Value(kMaxU64));  // full uint64 range survives
  arr.push_back(json::Value("esc \"quotes\" \\ and \n tab \t"));
  json::Value::Object obj;
  obj["nested"] = json::Value(std::move(arr));
  obj["empty_obj"] = json::Value(json::Value::Object{});
  obj["empty_arr"] = json::Value(json::Value::Array{});
  std::string text = json::Value(std::move(obj)).Dump();

  auto parsed = json::Value::Parse(Slice(text));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Dump(), text) << "Dump(Parse(x)) != x";
  EXPECT_EQ(parsed->as_object().at("nested").as_array()[3].as_uint(),
            kMaxU64);
  EXPECT_EQ(parsed->as_object().at("nested").as_array()[2].as_int(), -42);
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(json::Value::Parse(Slice("")).ok());
  EXPECT_FALSE(json::Value::Parse(Slice("{\"a\":1")).ok());      // truncated
  EXPECT_FALSE(json::Value::Parse(Slice("1 trailing")).ok());    // garbage
  EXPECT_FALSE(json::Value::Parse(Slice("1.5")).ok());           // float
  EXPECT_FALSE(json::Value::Parse(Slice("1e9")).ok());           // float
  EXPECT_FALSE(json::Value::Parse(Slice("nul")).ok());
  EXPECT_FALSE(json::Value::Parse(Slice("\"bad \\x escape\"")).ok());
  // Nesting bomb past the depth limit.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(json::Value::Parse(Slice(deep)).ok());
}

// ---------------------------------------------------------------------------
// HealthReport.
// ---------------------------------------------------------------------------

TEST(HealthReportTest, EmptyReportGoldenDump) {
  HealthReport report;
  report.generated_at = 42;
  EXPECT_EQ(report.Dump(),
            "{\"counters\":{},\"gauges\":{},\"generated_at\":42,"
            "\"ops\":{},\"series_dropped\":0,\"shards\":[],"
            "\"slow_ops\":0}");
}

TEST(HealthReportTest, GoldenJsonRoundTrip) {
  // A fully-populated synthetic report: every field deterministic, so
  // the dumped text must survive Parse -> Dump byte-identically and
  // re-dump to the same string on every platform.
  MetricsRegistry registry;
  registry.GetCounter("ingest.records")->Increment(12);
  registry.GetGauge("queue.depth")->Set(3);
  Histogram* hist = registry.GetHistogram("vault.read");
  hist->Record(100);
  hist->Record(100);
  hist->Record(90000);

  HealthReport report;
  report.generated_at = 1700000000000000;
  report.metrics = registry.TakeSnapshot();
  report.has_env_io = true;
  report.env_io.reads = 5;
  report.env_io.read_bytes = 4096;
  report.env_io.writes = 7;
  report.env_io.write_bytes = 8192;
  report.env_io.syncs = 2;
  report.has_cache = true;
  report.cache.hits = 10;
  report.cache.misses = 4;
  report.cache.bypasses = 1;
  report.cache_entries = 4;
  report.cache_charge_bytes = 2048;
  report.cache_capacity_bytes = 1 << 20;
  ShardHealth shard;
  shard.shard = 0;
  shard.records = 9;
  shard.disposed = 1;
  shard.retention_backlog = 2;
  shard.signer_leaves_used = 13;
  shard.signer_leaves_remaining = 243;
  report.shards.push_back(shard);

  std::string text = report.Dump();
  auto parsed = json::Value::Parse(Slice(text));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Dump(), text);

  const auto& root = parsed->as_object();
  EXPECT_EQ(root.at("generated_at").as_int(), 1700000000000000);
  EXPECT_EQ(root.at("counters").as_object().at("ingest.records").as_uint(),
            12u);
  const auto& read_op = root.at("ops").as_object().at("vault.read")
                            .as_object();
  EXPECT_EQ(read_op.at("count").as_uint(), 3u);
  EXPECT_EQ(read_op.at("sum").as_uint(), 90200u);
  EXPECT_EQ(read_op.at("max").as_uint(), 90000u);
  EXPECT_EQ(read_op.at("p50").as_uint(),
            Histogram::BucketUpperBound(Histogram::BucketIndex(100)));
  EXPECT_EQ(read_op.at("p99").as_uint(),
            Histogram::BucketUpperBound(Histogram::BucketIndex(90000)));
  EXPECT_EQ(root.at("env_io").as_object().at("write_bytes").as_uint(),
            8192u);
  EXPECT_EQ(root.at("cache").as_object().at("bypasses").as_uint(), 1u);
  EXPECT_EQ(root.at("shards").as_array()[0].as_object()
                .at("signer_leaves_remaining").as_uint(), 243u);
}

// End-to-end against a real vault: op timers fired, health stats and
// cache figures populated, report parses, and a second snapshot after
// more work is monotone in op counts.
TEST(HealthReportTest, CollectHealthFromLiveVault) {
  storage::MemEnv base;
  storage::IoStats io;
  storage::InstrumentedEnv env(&base, &io);
  ManualClock clock(1000000);
  MetricsRegistry registry;
  core::RecordCache cache(1 << 20);

  core::VaultOptions options;
  options.env = &env;
  options.dir = "vault";
  options.clock = &clock;
  options.master_key = std::string(32, 'M');
  options.entropy = "obs-test-entropy";
  options.signer_height = 4;
  options.cache = &cache;
  options.metrics = &registry;
  auto vault = core::Vault::Open(options);
  ASSERT_TRUE(vault.ok()) << vault.status().ToString();

  ASSERT_TRUE((*vault)
                  ->RegisterPrincipal("boot",
                                      {"admin", core::Role::kAdmin, "A"})
                  .ok());
  ASSERT_TRUE((*vault)
                  ->RegisterPrincipal("admin",
                                      {"dr", core::Role::kPhysician, "D"})
                  .ok());
  ASSERT_TRUE((*vault)
                  ->RegisterPrincipal("admin",
                                      {"pat", core::Role::kPatient, "P"})
                  .ok());
  ASSERT_TRUE((*vault)->AssignCare("admin", "dr", "pat").ok());
  auto id = (*vault)->CreateRecord("dr", "pat", "text/plain", "note",
                                   {"kw"}, "short-1y");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*vault)->ReadRecord("dr", *id).ok());
  ASSERT_TRUE((*vault)->ReadRecord("dr", *id).ok());
  // XMSS leaves are spent only by signing operations (checkpoints,
  // disposal certificates) — issue one so leaves_used is non-zero.
  ASSERT_TRUE((*vault)->CheckpointAudit().ok());

  HealthReport report = CollectHealth(**vault, &io);
  EXPECT_EQ(report.generated_at, clock.Now());
  EXPECT_EQ(report.metrics.histograms.at("vault.create").count, 1u);
  EXPECT_EQ(report.metrics.histograms.at("vault.read").count, 2u);
  ASSERT_EQ(report.shards.size(), 1u);
  EXPECT_EQ(report.shards[0].records, 1u);
  EXPECT_EQ(report.shards[0].disposed, 0u);
  EXPECT_GT(report.shards[0].signer_leaves_used, 0u);
  EXPECT_GT(report.shards[0].signer_leaves_remaining, 0u);
  ASSERT_TRUE(report.has_cache);
  EXPECT_GE(report.cache.hits, 1u);
  ASSERT_TRUE(report.has_env_io);
  EXPECT_GT(report.env_io.write_bytes, 0u);
  EXPECT_GT(report.env_io.syncs, 0u);

  auto parsed = json::Value::Parse(Slice(report.Dump()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Dump(), report.Dump());

  // More work, new snapshot: strictly more reads recorded.
  ASSERT_TRUE((*vault)->ReadRecord("dr", *id).ok());
  HealthReport later = CollectHealth(**vault, &io);
  EXPECT_EQ(later.metrics.histograms.at("vault.read").count, 3u);
}

TEST(HealthReportTest, WriteHealthFileAppendsNewline) {
  storage::MemEnv env;
  HealthReport report;
  report.generated_at = 7;
  ASSERT_TRUE(WriteHealthFile(&env, report, "HEALTH_test.json").ok());
  std::string text;
  ASSERT_TRUE(storage::ReadFileToString(&env, "HEALTH_test.json", &text).ok());
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  text.pop_back();
  EXPECT_EQ(text, report.Dump());
}

}  // namespace
}  // namespace medvault::obs
