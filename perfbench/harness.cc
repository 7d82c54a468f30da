#include "harness.h"

#include <malloc.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "crypto/cpu_features.h"

namespace perfbench {

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * sorted.size()));
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

double SupportedTail(size_t n, double want) {
  if (n <= kMinBeyond) return 0;
  // Samples beyond the nearest-rank percentile p: n - ceil(p * n).
  const double limit = static_cast<double>(n - kMinBeyond) / n;
  double p = std::min(want, limit);
  // Report on a 0.1% grid so the label stays readable.
  p = std::floor(p * 1000.0 + 1e-9) / 1000.0;
  return p;
}

Summary Summarize(std::vector<double>* samples, double want_tail) {
  std::sort(samples->begin(), samples->end());
  Summary s;
  s.n = samples->size();
  s.p50 = PercentileSorted(*samples, 0.5);
  s.tail_p = SupportedTail(s.n, want_tail);
  s.tail = s.tail_p > 0 ? PercentileSorted(*samples, s.tail_p) : 0;
  return s;
}

double WindowedPercentile(std::vector<TimedSample> samples, double p,
                          size_t min_per_window, size_t* windows) {
  std::sort(samples.begin(), samples.end(),
            [](const TimedSample& a, const TimedSample& b) {
              return a.due_ns < b.due_ns;
            });
  const size_t n = samples.size();
  const size_t per = std::max<size_t>(1, min_per_window);
  const size_t w = std::max<size_t>(1, std::min(kWindows, n / per));
  if (windows != nullptr) *windows = w;
  std::vector<double> per_window;
  for (size_t i = 0; i < w; i++) {
    std::vector<double> v;
    for (size_t j = i * n / w; j < (i + 1) * n / w; j++) {
      v.push_back(samples[j].us);
    }
    std::sort(v.begin(), v.end());
    per_window.push_back(PercentileSorted(v, p));
  }
  return Median(per_window);
}

Summary SummarizeWindows(const std::vector<TimedSample>& samples) {
  constexpr size_t kTailWindow = 1000;  // 10 beyond the p99
  Summary s;
  s.n = samples.size();
  s.p50 = WindowedPercentile(samples, 0.5, 100, &s.windows);
  if (s.n >= kTailWindow) {
    s.tail_p = 0.99;
    s.tail = WindowedPercentile(samples, 0.99, kTailWindow);
  } else {
    std::vector<double> all;
    for (const TimedSample& t : samples) all.push_back(t.us);
    std::sort(all.begin(), all.end());
    s.tail_p = SupportedTail(all.size(), 0.99);
    s.tail = s.tail_p > 0 ? PercentileSorted(all, s.tail_p) : 0;
  }
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

bool Pacer::Schedule(double gap_us, uint64_t* due_ns) {
  if (!open_loop_) {
    *due_ns = NowNs();
    return *due_ns < end_;
  }
  due_ += static_cast<uint64_t>(gap_us * 1000.0);
  *due_ns = due_;
  return due_ < end_;
}

void Pacer::WaitUntil(uint64_t due_ns) {
  // Sleep to just short of the due time, then spin: a plain sleep wakes
  // tens of microseconds late, which would be charged to the server.
  constexpr uint64_t kSpinNs = 20000;
  const uint64_t now = NowNs();
  if (due_ns > now + kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (NowNs() < due_ns) {
  }
}

Tracer::Tracer() { spans_.reserve(1 << 16); }

uint32_t Tracer::Intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(names_.size());
  names_.push_back(name);
  name_ids_[name] = id;
  return id;
}

std::string Tracer::NameOf(uint32_t name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_[name];
}

uint64_t Tracer::Record(uint32_t name, uint64_t start_ns, uint64_t end_ns,
                        uint64_t parent, uint64_t request, uint64_t id) {
  if (id == 0) id = NewId();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, id, parent, request, start_ns, end_ns});
  return id;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t base = UINT64_MAX;
  for (const Span& s : spans_) base = std::min(base, s.start_ns);
  for (const Span& s : spans_) {
    fprintf(f,
            "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
            "\"request\": %llu, \"start_ns\": %llu, \"end_ns\": %llu}\n",
            names_[s.name].c_str(), static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.parent),
            static_cast<unsigned long long>(s.request),
            static_cast<unsigned long long>(s.start_ns - base),
            static_cast<unsigned long long>(s.end_ns - base));
  }
  return fclose(f) == 0;
}

uint64_t CoveredNs(uint64_t start, uint64_t end,
                   std::vector<std::pair<uint64_t, uint64_t>> children) {
  for (auto& c : children) {
    c.first = std::clamp(c.first, start, end);
    c.second = std::clamp(c.second, start, end);
  }
  std::sort(children.begin(), children.end());
  uint64_t covered = 0;
  uint64_t cursor = start;
  for (const auto& c : children) {
    const uint64_t from = std::max(cursor, c.first);
    if (c.second > from) {
      covered += c.second - from;
      cursor = c.second;
    }
  }
  return covered;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string FilesystemName(const std::string& dir) {
  struct statfs st;
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x65735546:
      return "fuse";
    case 0x6969:
      return "nfs";
    case 0x2FC12FC1:
      return "zfs";
    default: {
      char buf[32];
      snprintf(buf, sizeof(buf), "0x%lx",
               static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

std::string Fingerprint::ToJson() const {
  return "{\"nproc\": " + std::to_string(nproc) +
         ", \"cpu_model\": " + JsonString(cpu_model) +
         ", \"crypto_dispatch\": " + JsonString(crypto_dispatch) +
         ", \"build_type\": " + JsonString(build_type) +
         ", \"async_env\": " + JsonString(async_env) +
         ", \"filesystem\": " + JsonString(filesystem) + "}";
}

Fingerprint TakeFingerprint(const std::string& vault_dir) {
  Fingerprint fp;
  fp.nproc = std::thread::hardware_concurrency();
  fp.cpu_model = CpuModel();
  const medvault::crypto::CpuFeatures& cpu = medvault::crypto::GetCpuFeatures();
  if (medvault::crypto::ForceScalarCrypto()) {
    fp.crypto_dispatch = "scalar (forced)";
  } else {
    fp.crypto_dispatch = std::string("aes:") + (cpu.aes_ni ? "hw" : "scalar") +
                         " sha256:" + (cpu.sha_ni ? "hw" : "scalar");
  }
  fp.build_type = PERFBENCH_BUILD_TYPE;
#ifdef MEDVAULT_HAVE_LIBURING
  fp.async_env = "io_uring";
#else
  fp.async_env = "thread-pool";
#endif
  fp.filesystem = FilesystemName(vault_dir);
  return fp;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

uint64_t DirectoryBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  entries_.push_back(Entry{name, value, unit, note});
}

void Report::AddSummary(const std::string& prefix, const Summary& s,
                        const std::string& unit) {
  char note[128];
  snprintf(note, sizeof(note), "n=%zu, median over %zu windows", s.n,
           s.windows);
  Add(prefix + "_p50_" + unit, s.p50, unit, note);
  if (s.tail_p >= 0.99) {
    snprintf(note, sizeof(note), "p99, n=%zu, median over windows of >= 1000",
             s.n);
  } else {
    snprintf(note, sizeof(note),
             "n=%zu supports only p%.1f (>= %zu samples beyond)", s.n,
             s.tail_p * 100, kMinBeyond);
  }
  Add(prefix + "_p99_" + unit, s.tail, unit, note);
}

bool Report::Has(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return true;
  }
  return false;
}

void Report::PrintLines() const {
  for (const Entry& e : entries_) {
    printf("metric %-40s = %-14.6g %-6s %s\n", e.name.c_str(), e.value,
           e.unit.c_str(), e.note.c_str());
  }
}

std::string Report::ResultJson(bool correct, uint64_t attempted,
                               uint64_t failed,
                               const std::vector<std::string>& names) const {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const Entry& e : entries_) {
    if (!names.empty() &&
        std::find(names.begin(), names.end(), e.name) == names.end()) {
      continue;
    }
    if (!first) out += ", ";
    first = false;
    out += JsonString(e.name) + ": {\"value\": " + Number(e.value) +
           ", \"unit\": " + JsonString(e.unit) + "}";
  }
  return out + "}}";
}

std::string Report::FullJson(const Fingerprint& fp,
                             const std::string& workload, uint64_t seed,
                             bool trace, bool correct, uint64_t attempted,
                             uint64_t failed) const {
  std::string out = "{\"workload\": " + JsonString(workload) +
                    ", \"seed\": " + std::to_string(seed) +
                    ", \"trace\": " + (trace ? "true" : "false") +
                    ", \"fingerprint\": " + fp.ToJson() +
                    ", \"correct\": " + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const Entry& e : entries_) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(e.name) + ": {\"value\": " + Number(e.value) +
           ", \"unit\": " + JsonString(e.unit) +
           ", \"note\": " + JsonString(e.note) + "}";
  }
  return out + "}}\n";
}

}  // namespace perfbench
