#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Measurement plumbing of the service benchmark: percentiles that refuse
// to report a tail the sample cannot support, in-memory spans written out
// when the run ends, the host fingerprint, and the result printer.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A timing distribution: the median and the highest percentile, up to
/// the one asked for, that has at least kMinBeyond samples beyond it.
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_p = 0;  ///< the percentile `tail` is, e.g. 0.99
  size_t windows = 1;
};
constexpr size_t kMinBeyond = 10;

/// Nearest-rank percentile of an ascending sample; 0 when empty.
double PercentileSorted(const std::vector<double>& sorted, double p);
/// Highest percentile <= `want` with at least kMinBeyond samples beyond it
/// in a sample of `n` (0 when no percentile qualifies).
double SupportedTail(size_t n, double want);
/// Sorts `samples` and summarizes them.
Summary Summarize(std::vector<double>* samples, double want_tail = 0.99);

/// Median of a small set of repeated measurements.
double Median(std::vector<double> values);

/// One latency sample and when its request was due.
struct TimedSample {
  uint64_t due_ns = 0;
  double us = 0;
};
constexpr size_t kWindows = 5;
/// Splits the samples, in due order, into up to kWindows consecutive
/// windows of at least `min_per_window` samples each, and returns the
/// median over the windows of each window's percentile `p`: a host
/// hiccup in one stretch of the run moves one window, not the result.
/// With fewer than `min_per_window` samples, the whole sample is one
/// window. `windows` (optional) receives the window count.
double WindowedPercentile(std::vector<TimedSample> samples, double p,
                          size_t min_per_window, size_t* windows = nullptr);
/// The end-to-end timing summary: windowed median, and the windowed p99
/// when every window has at least 1,000 samples (so ten lie beyond each
/// window's p99); otherwise the highest percentile the whole sample
/// supports.
Summary SummarizeWindows(const std::vector<TimedSample>& samples);

/// Paces requests. Open loop: request i is due at start + the sum of the
/// first i gaps, whatever happened before it, and is sent no earlier than
/// that; latency counts from the due time, so a stall in the generator or
/// the server shows on every request due behind it. Closed loop: a
/// request is due when it is sent.
class Pacer {
 public:
  Pacer(bool open_loop, uint64_t start_ns, uint64_t end_ns)
      : open_loop_(open_loop), due_(start_ns), end_(end_ns) {}

  /// Due time of the next request; false once the phase is over.
  bool Schedule(double gap_us, uint64_t* due_ns);
  /// Waits until `due_ns`.
  static void WaitUntil(uint64_t due_ns);

 private:
  bool open_loop_;
  uint64_t due_;
  uint64_t end_;
};

/// Attempted and failed operations: a transport error and any 4xx/5xx
/// (401, 403, 503 shed, ...) count as failed.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Returns true when the response counts as a success.
  bool Record(bool transport_ok, int status) {
    attempted++;
    const bool ok = transport_ok && status < 400;
    if (!ok) failed++;
    return ok;
  }
  double FailedFrac() const {
    return attempted == 0 ? 0 : static_cast<double>(failed) / attempted;
  }
};

/// One traced interval. Spans of one request share `request`; `parent`
/// is the span that caused this one (0 for a root).
struct Span {
  uint32_t name = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// In-memory span store, written out when the run ends.
class Tracer {
 public:
  Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint32_t Intern(const std::string& name);
  std::string NameOf(uint32_t name) const;
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Thread-safe; returns the span id (pass `id` = 0 to allocate one).
  uint64_t Record(uint32_t name, uint64_t start_ns, uint64_t end_ns,
                  uint64_t parent, uint64_t request, uint64_t id = 0);

  std::vector<Span> Spans() const;
  /// One JSON object per line: name, id, parent, request, start/end (ns
  /// relative to the first span).
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::vector<std::string> names_;  // guarded by mu_
  std::map<std::string, uint32_t> name_ids_;  // guarded by mu_
  std::atomic<uint64_t> next_id_{1};
};

/// Time the `[start, end)` interval spends covered by any of `children`
/// (each clipped to the interval): a parent's self time is its duration
/// minus this.
uint64_t CoveredNs(uint64_t start, uint64_t end,
                   std::vector<std::pair<uint64_t, uint64_t>> children);

/// What a result was measured on. Results whose fingerprints differ are
/// not comparable.
struct Fingerprint {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string crypto_dispatch;
  std::string build_type;
  std::string async_env;
  std::string filesystem;

  std::string ToJson() const;
};
Fingerprint TakeFingerprint(const std::string& vault_dir);

/// The process's peak resident set (VmHWM), in MiB.
double PeakRssMb();
/// Returns freed heap to the system and restarts VmHWM from the current
/// resident set, so the peak covers only what follows. False when the
/// kernel refuses.
bool ResetPeakRss();
/// Bytes of all regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

/// Every metric a run reports, printed by name with its unit; the last
/// stdout line is the machine-readable result.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  void AddSummary(const std::string& prefix, const Summary& s,
                  const std::string& unit);
  bool Has(const std::string& name) const;

  /// Prints every metric as "metric <name> = <value> <unit>  <note>".
  void PrintLines() const;
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  /// restricted to `names` (all metrics when empty).
  std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<std::string>& names) const;
  /// The full record written beside the trace: fingerprint, workload,
  /// seed and every metric with its note.
  std::string FullJson(const Fingerprint& fp, const std::string& workload,
                       uint64_t seed, bool trace, bool correct,
                       uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
