#ifndef MEDVAULT_OBS_METRICS_H_
#define MEDVAULT_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace medvault::obs {

/// Operational metrics for the vault — the visibility layer the paper's
/// long-horizon operation requirement implies but which is deliberately
/// *separate* from the tamper-evident audit log: metrics and slow-op
/// traces are best-effort operator telemetry with no integrity claims,
/// so losing or rotating them never weakens the compliance story, and
/// recording them never costs an XMSS leaf or an audit append.
///
/// Everything here is hot-path cheap: counters/gauges/histograms are
/// lock-free atomics once looked up; name lookup takes a mutex, so
/// callers cache the returned pointers (see VaultOpMetrics). Pointers
/// remain valid for the registry's lifetime.

/// Monotonic event count.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time level (queue depths, open handles, backlog sizes).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket latency histogram. Bucket boundaries are powers of two
/// (microseconds): bucket 0 holds the value 0 and bucket i (i >= 1)
/// holds [2^(i-1), 2^i - 1]; the last bucket absorbs everything larger.
/// Fixed buckets keep Record() to three relaxed atomic adds — no
/// allocation, no lock — which is what lets every vault operation be
/// timed unconditionally.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 32;

  /// Inclusive upper bound of bucket `i` (2^i - 1; bucket 0 -> 0). The
  /// last bucket's nominal bound is reported even though it is open.
  static uint64_t BucketUpperBound(size_t i) {
    return (i >= 64) ? ~0ULL : ((1ULL << i) - 1);
  }

  /// Bucket index for `value`: bit_width clamped to the last bucket.
  static size_t BucketIndex(uint64_t value) {
    size_t width = 0;
    while (value != 0) {
      value >>= 1;
      width++;
    }
    return width < kNumBuckets ? width : kNumBuckets - 1;
  }

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t prev = max_.load(std::memory_order_relaxed);
    while (prev < value &&
           !max_.compare_exchange_weak(prev, value,
                                       std::memory_order_relaxed)) {
    }
  }

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    std::array<uint64_t, kNumBuckets> buckets{};

    /// Upper bound of the bucket containing the p-th percentile
    /// (0 < p <= 100) — a conservative estimate, exact to within the
    /// power-of-two bucket width. Returns 0 for an empty histogram.
    uint64_t PercentileUpperBound(double p) const;
  };

  Snapshot TakeSnapshot() const;

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// One slow operation, as handed to the slow-op sink.
struct SlowOp {
  std::string op;
  uint64_t micros = 0;
  uint64_t threshold_micros = 0;
};

/// Named metric registry. There is a process-wide default instance
/// (Default()); vaults may instead be opened with their own registry so
/// multi-tenant processes keep tenants' telemetry apart.
///
/// Label cardinality is bounded: at most kMaxSeriesPerKind distinct
/// names per metric kind (plus the shared "_overflow" series itself).
/// Past the cap, lookups return the overflow series and the drop is
/// counted — an
/// instrumentation bug (unbounded label values) degrades telemetry, it
/// cannot exhaust memory.
class MetricsRegistry {
 public:
  static constexpr size_t kMaxSeriesPerKind = 256;
  /// Default slow-op threshold: 100ms. Any vault operation slower than
  /// this gets one structured trace line (see SetSlowOpSink).
  static constexpr uint64_t kDefaultSlowOpThresholdMicros = 100000;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide instance; never destroyed (metric pointers handed to
  /// callers must outlive static teardown order).
  static MetricsRegistry* Default();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  struct RegistrySnapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, Histogram::Snapshot> histograms;
    uint64_t series_dropped = 0;  ///< lookups past the cardinality cap
    uint64_t slow_ops = 0;        ///< ops traced over the threshold
  };

  RegistrySnapshot TakeSnapshot() const;

  // ---- Slow-op tracing -------------------------------------------------

  /// 0 disables tracing entirely.
  void SetSlowOpThresholdMicros(uint64_t micros) {
    slow_op_threshold_micros_.store(micros, std::memory_order_relaxed);
  }

  /// Replaces the slow-op sink (default: one JSON line to stderr).
  /// The sink runs under an internal mutex; keep it cheap.
  void SetSlowOpSink(std::function<void(const SlowOp&)> sink);

  /// Called by ScopedOpTimer; traces iff tracing is enabled and
  /// `micros` >= threshold.
  void MaybeTraceSlowOp(const char* op, uint64_t micros);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  Counter series_dropped_;
  Counter slow_ops_;
  std::atomic<uint64_t> slow_op_threshold_micros_{
      kDefaultSlowOpThresholdMicros};
  std::mutex sink_mu_;
  std::function<void(const SlowOp&)> slow_op_sink_;  // null = stderr
};

/// RAII wall-clock timer for one operation: records elapsed
/// microseconds into `hist` and hands anything over the registry's
/// threshold to the slow-op trace. `op` must outlive the timer
/// (string literals in practice). Null `hist` or `registry` makes the
/// timer inert, so call sites need no conditionals.
class ScopedOpTimer {
 public:
  ScopedOpTimer(MetricsRegistry* registry, Histogram* hist, const char* op)
      : registry_(registry),
        hist_(hist),
        op_(op),
        start_(std::chrono::steady_clock::now()) {}

  ScopedOpTimer(const ScopedOpTimer&) = delete;
  ScopedOpTimer& operator=(const ScopedOpTimer&) = delete;

  ~ScopedOpTimer() {
    if (hist_ == nullptr) return;
    auto elapsed = std::chrono::steady_clock::now() - start_;
    uint64_t micros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count());
    hist_->Record(micros);
    if (registry_ != nullptr) registry_->MaybeTraceSlowOp(op_, micros);
  }

 private:
  MetricsRegistry* registry_;
  Histogram* hist_;
  const char* op_;
  std::chrono::steady_clock::time_point start_;
};

/// The per-operation histograms a Vault (prefix "vault") or
/// ShardedVault (prefix "sharded") caches at open so the hot path never
/// does a name lookup. Histogram names are "<prefix>.<op>".
struct VaultOpMetrics {
  Histogram* create = nullptr;
  Histogram* batch_ingest = nullptr;
  Histogram* read = nullptr;
  Histogram* correct = nullptr;
  Histogram* dispose = nullptr;
  Histogram* search = nullptr;
  Histogram* verify = nullptr;
  Histogram* migrate = nullptr;
  Histogram* recover = nullptr;
  Histogram* sync = nullptr;

  static VaultOpMetrics For(MetricsRegistry* registry,
                            const std::string& prefix);
};

}  // namespace medvault::obs

#endif  // MEDVAULT_OBS_METRICS_H_
