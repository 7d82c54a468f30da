#include "obs/health.h"

#include "core/replication.h"
#include "core/sharded_vault.h"
#include "core/transparency.h"
#include "core/vault.h"

namespace medvault::obs {

namespace {

json::Value HistogramToJson(const Histogram::Snapshot& h) {
  json::Value::Object out;
  out["count"] = json::Value(h.count);
  out["sum"] = json::Value(h.sum);
  out["max"] = json::Value(h.max);
  out["p50"] = json::Value(h.PercentileUpperBound(50));
  out["p90"] = json::Value(h.PercentileUpperBound(90));
  out["p99"] = json::Value(h.PercentileUpperBound(99));
  json::Value::Array buckets;
  for (size_t i = 0; i < Histogram::kNumBuckets; i++) {
    if (h.buckets[i] == 0) continue;
    json::Value::Array pair;
    pair.push_back(json::Value(Histogram::BucketUpperBound(i)));
    pair.push_back(json::Value(h.buckets[i]));
    buckets.push_back(json::Value(std::move(pair)));
  }
  out["buckets"] = json::Value(std::move(buckets));
  return json::Value(std::move(out));
}

json::Value ShardToJson(const ShardHealth& s) {
  json::Value::Object out;
  out["shard"] = json::Value(static_cast<uint64_t>(s.shard));
  out["records"] = json::Value(s.records);
  out["disposed"] = json::Value(s.disposed);
  out["legal_holds"] = json::Value(s.legal_holds);
  out["retention_backlog"] = json::Value(s.retention_backlog);
  out["signer_leaves_used"] = json::Value(s.signer_leaves_used);
  out["signer_leaves_remaining"] = json::Value(s.signer_leaves_remaining);
  // Media-fault fields are emitted only when set, so healthy reports —
  // and their golden-JSON tests — are unchanged.
  if (s.quarantined) {
    out["quarantined"] = json::Value(uint64_t{1});
    out["quarantine_reason"] = json::Value(s.quarantine_reason);
  }
  if (s.has_last_scrub) {
    json::Value::Object scrub;
    scrub["at"] = json::Value(s.last_scrub_at);
    scrub["corrupt_files"] = json::Value(s.last_scrub_corrupt_files);
    scrub["orphan_files"] = json::Value(s.last_scrub_orphan_files);
    scrub["clean"] = json::Value(s.last_scrub_clean ? uint64_t{1} : uint64_t{0});
    out["last_scrub"] = json::Value(std::move(scrub));
  }
  return json::Value(std::move(out));
}

ShardHealth FromVaultStats(uint32_t shard_index, const core::Vault& v) {
  ShardHealth s;
  const core::Vault::HealthStats stats = v.CollectHealthStats();
  s.shard = shard_index;
  s.records = stats.records;
  s.disposed = stats.disposed;
  s.legal_holds = stats.legal_holds;
  s.retention_backlog = stats.retention_backlog;
  s.signer_leaves_used = stats.signer_leaves_used;
  s.signer_leaves_remaining = stats.signer_leaves_remaining;
  const core::Vault::ScrubStats scrub = v.LastScrub();
  if (scrub.ran) {
    s.has_last_scrub = true;
    s.last_scrub_at = scrub.at;
    s.last_scrub_corrupt_files = scrub.corrupt_files;
    s.last_scrub_orphan_files = scrub.orphan_files;
    s.last_scrub_clean = scrub.clean;
  }
  return s;
}

void FillCache(HealthReport* report, const core::RecordCache* cache) {
  if (cache == nullptr) return;
  report->has_cache = true;
  report->cache = cache->stats();
  report->cache_entries = cache->entry_count();
  report->cache_charge_bytes = cache->charge_bytes();
  report->cache_capacity_bytes = cache->capacity_bytes();
}

void FillConsent(HealthReport* report, uint64_t active) {
  auto counter = [&](const char* name) -> uint64_t {
    auto it = report->metrics.counters.find(name);
    return it == report->metrics.counters.end() ? 0 : it->second;
  };
  const uint64_t granted = counter("consent.granted");
  const uint64_t revoked = counter("consent.revoked");
  const uint64_t exercised = counter("consent.exercised");
  // Conditional like repl/transparency: a vault that never saw a
  // consent grant keeps a byte-identical report (and golden dumps).
  if (active == 0 && granted == 0 && revoked == 0 && exercised == 0) return;
  report->has_consent = true;
  report->consent_active = active;
  report->consent_granted = granted;
  report->consent_revoked = revoked;
  report->consent_exercised = exercised;
}

}  // namespace

uint64_t HealthReport::CommitOps() const {
  auto it = metrics.counters.find("commit.window.sharded.ops");
  return it != metrics.counters.end() ? it->second : 0;
}

json::Value HealthReport::ToJson() const {
  json::Value::Object out;
  out["generated_at"] = json::Value(generated_at);

  json::Value::Object ops;
  for (const auto& [name, hist] : metrics.histograms) {
    ops[name] = HistogramToJson(hist);
  }
  out["ops"] = json::Value(std::move(ops));

  json::Value::Object counters;
  for (const auto& [name, value] : metrics.counters) {
    counters[name] = json::Value(value);
  }
  out["counters"] = json::Value(std::move(counters));

  json::Value::Object gauges;
  for (const auto& [name, value] : metrics.gauges) {
    gauges[name] = json::Value(value);
  }
  out["gauges"] = json::Value(std::move(gauges));

  out["series_dropped"] = json::Value(metrics.series_dropped);
  out["slow_ops"] = json::Value(metrics.slow_ops);

  if (has_env_io) {
    json::Value::Object io;
    io["reads"] = json::Value(env_io.reads);
    io["read_bytes"] = json::Value(env_io.read_bytes);
    io["writes"] = json::Value(env_io.writes);
    io["write_bytes"] = json::Value(env_io.write_bytes);
    io["syncs"] = json::Value(env_io.syncs);
    io["flushes"] = json::Value(env_io.flushes);
    io["file_opens"] = json::Value(env_io.file_opens);
    io["deletes"] = json::Value(env_io.deletes);
    io["renames"] = json::Value(env_io.renames);
    // The fsync/op ratio appears only once something has committed —
    // the same conditional-field convention as `quarantined`/`last_scrub`.
    const uint64_t commit_ops = CommitOps();
    if (commit_ops > 0) {
      // Integer-milli fixed point keeps the report deterministic (no
      // float formatting). 1000 = one fsync per committed op; group
      // commit drives this toward flat as batch/window size grows.
      io["fsyncs_per_op_milli"] =
          json::Value(env_io.syncs * 1000 / commit_ops);
    }
    out["env_io"] = json::Value(std::move(io));
  }

  if (has_cache) {
    json::Value::Object c;
    c["hits"] = json::Value(cache.hits);
    c["misses"] = json::Value(cache.misses);
    c["bypasses"] = json::Value(cache.bypasses);
    c["evictions"] = json::Value(cache.evictions);
    c["rejections"] = json::Value(cache.rejections);
    c["purges"] = json::Value(cache.purges);
    c["entries"] = json::Value(cache_entries);
    c["charge_bytes"] = json::Value(cache_charge_bytes);
    c["capacity_bytes"] = json::Value(cache_capacity_bytes);
    out["cache"] = json::Value(std::move(c));
  }

  if (has_repl) {
    json::Value::Object repl;
    repl["primary"] = json::Value(repl_primary ? uint64_t{1} : uint64_t{0});
    repl["shipped_batches"] = json::Value(repl_shipped_batches);
    repl["applied_batches"] = json::Value(repl_applied_batches);
    repl["lag_bytes"] = json::Value(repl_lag_bytes);
    repl["quarantined_shards"] = json::Value(repl_quarantined_shards);
    out["repl"] = json::Value(std::move(repl));
  }

  if (has_consent) {
    json::Value::Object c;
    c["active"] = json::Value(consent_active);
    c["granted"] = json::Value(consent_granted);
    c["revoked"] = json::Value(consent_revoked);
    c["exercised"] = json::Value(consent_exercised);
    out["consent"] = json::Value(std::move(c));
  }

  if (has_transparency) {
    json::Value::Object t;
    t["checkpoints"] = json::Value(transparency_checkpoints);
    t["cosigns"] = json::Value(transparency_cosigns);
    t["refusals"] = json::Value(transparency_refusals);
    t["witnesses"] = json::Value(transparency_witnesses);
    t["tampered_witnesses"] = json::Value(transparency_tampered_witnesses);
    t["inclusion_proofs"] = json::Value(transparency_inclusion_proofs);
    t["consistency_proofs"] = json::Value(transparency_consistency_proofs);
    t["cache_hits"] = json::Value(transparency_cache_hits);
    t["cache_misses"] = json::Value(transparency_cache_misses);
    t["latest_sizes_sum"] = json::Value(transparency_latest_sizes_sum);
    out["transparency"] = json::Value(std::move(t));
  }

  json::Value::Array shard_array;
  for (const ShardHealth& s : shards) {
    shard_array.push_back(ShardToJson(s));
  }
  out["shards"] = json::Value(std::move(shard_array));

  return json::Value(std::move(out));
}

HealthReport CollectHealth(core::Vault& vault, const storage::IoStats* io) {
  HealthReport report;
  report.generated_at = vault.Now();
  if (vault.metrics_registry() != nullptr) {
    report.metrics = vault.metrics_registry()->TakeSnapshot();
  }
  if (io != nullptr) {
    report.has_env_io = true;
    report.env_io = io->TakeSnapshot();
  }
  FillCache(&report, vault.options().cache);
  FillConsent(&report, vault.ActiveConsentCount());
  report.shards.push_back(FromVaultStats(0, vault));
  return report;
}

HealthReport CollectHealth(core::ShardedVault& vault,
                           const storage::IoStats* io) {
  HealthReport report;
  // Wrapper-level clock/registry: with degraded opens, shard 0 itself
  // may be quarantined (null), so nothing here may dereference a shard.
  report.generated_at = vault.Now();
  if (vault.metrics_registry() != nullptr) {
    report.metrics = vault.metrics_registry()->TakeSnapshot();
  }
  if (io != nullptr) {
    report.has_env_io = true;
    report.env_io = io->TakeSnapshot();
  }
  FillCache(&report, vault.cache());
  FillConsent(&report, vault.ActiveConsentCount());
  for (uint32_t k = 0; k < vault.num_shards(); k++) {
    const core::Vault* s = vault.shard(k);
    if (s == nullptr) {
      ShardHealth q;
      q.shard = k;
      q.quarantined = true;
      q.quarantine_reason = vault.QuarantineReason(k);
      report.shards.push_back(std::move(q));
      continue;
    }
    report.shards.push_back(FromVaultStats(k, *s));
  }
  return report;
}

HealthReport CollectProcessHealth(int64_t generated_at,
                                  MetricsRegistry* registry,
                                  const storage::IoStats* io) {
  HealthReport report;
  report.generated_at = generated_at;
  if (registry == nullptr) registry = MetricsRegistry::Default();
  report.metrics = registry->TakeSnapshot();
  if (io != nullptr) {
    report.has_env_io = true;
    report.env_io = io->TakeSnapshot();
  }
  return report;
}

void FillReplicationHealth(HealthReport* report,
                           const core::ShardedReplicationSource* source,
                           const core::ShardedReplicaApplier* applier) {
  if (source == nullptr && applier == nullptr) return;
  report->has_repl = true;
  report->repl_primary = source != nullptr;
  if (source != nullptr) {
    report->repl_shipped_batches = source->batches_shipped();
    report->repl_lag_bytes = source->lag_bytes();
  }
  if (applier != nullptr) {
    report->repl_applied_batches = applier->applied_batches();
    report->repl_lag_bytes = applier->lag_bytes();
    report->repl_quarantined_shards = applier->quarantined_shards();
  }
}

void FillTransparencyHealth(HealthReport* report,
                            const core::ShardedTransparencyService* service) {
  if (service == nullptr) return;
  core::ShardedTransparencyService::Stats stats = service->CollectStats();
  report->has_transparency = true;
  report->transparency_checkpoints = stats.checkpoints_published;
  report->transparency_cosigns = stats.cosigns;
  report->transparency_refusals = stats.refusals;
  report->transparency_witnesses = static_cast<uint64_t>(stats.witnesses);
  report->transparency_tampered_witnesses = stats.tampered_witnesses;
  report->transparency_inclusion_proofs = stats.inclusion_proofs;
  report->transparency_consistency_proofs = stats.consistency_proofs;
  report->transparency_cache_hits = stats.cache_hits;
  report->transparency_cache_misses = stats.cache_misses;
  report->transparency_latest_sizes_sum = stats.latest_sizes_sum;
}

Status WriteHealthFile(storage::Env* env, const HealthReport& report,
                       const std::string& path) {
  std::string text = report.Dump();
  text.push_back('\n');
  return storage::WriteStringToFile(env, Slice(text), path, /*sync=*/true);
}

storage::IoStats* ProcessIoStats() {
  static storage::IoStats* stats = new storage::IoStats();
  return stats;
}

}  // namespace medvault::obs
