#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// Workload definitions and the seeded request stream of the MedVault
// service benchmark. Every request a run sends is a pure function of
// (workload, seed, connection, position in the stream): the program
// under test receives only the generated requests.

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "sim/workload.h"

namespace perfbench {

enum class OpKind : uint8_t {
  kRead = 0,     ///< GET /v1/records/<id>
  kCorrect,      ///< POST /v1/records/<id>/correct (durable)
  kCreate,       ///< POST /v1/records (durable)
  kSearch,       ///< POST /v1/search, two AND-ed diagnosis terms
  kDisclosures,  ///< GET /v1/transparency/disclosures as a patient
};

/// End-to-end operation classes: reads, durable writes, queries.
enum class OpClass : uint8_t { kRead = 0, kWrite = 1, kQuery = 2 };
constexpr int kNumClasses = 3;

OpClass ClassOf(OpKind kind);
const char* ClassName(OpClass c);

/// One workload. Sizes are stated against the vault's 4 MiB RecordCache.
struct WorkloadSpec {
  std::string name;
  /// Open loop sends on a seeded Poisson schedule at `offered_rate`
  /// requests/s (summed over connections); closed loop sends the next
  /// request as soon as the previous one is answered.
  bool open_loop = false;
  double offered_rate = 0;
  int connections = 4;

  uint64_t population = 0;  ///< notes loaded before the measured phase
  uint64_t patients = 1000;
  size_t population_note_bytes = 1024;
  size_t create_bytes_min = 1024;  ///< note sizes of created records
  size_t create_bytes_max = 1024;

  /// Live sessions: clinician sessions (4 physicians, several sessions
  /// each), patient sessions (used by disclosure queries), and idle
  /// sessions that only sit in the session table.
  int clinician_sessions = 4;
  int patient_sessions = 0;
  int idle_sessions = 0;

  /// Request mix; the shares sum to 1.
  double read = 0, correct = 0, create = 0, search = 0, disclosures = 0;
  /// Read targets: uniform over the population (no locality), Zipf over
  /// it (hot records), or the connection's own acknowledged creates.
  enum class ReadTarget { kZipfPopulation, kUniformPopulation, kOwnCreates };
  ReadTarget read_target = ReadTarget::kZipfPopulation;
  /// Corrections amend population records or the connection's own
  /// creates. Operations on own creates need a closed loop: they name
  /// the connection's k-th create, which must have been acknowledged.
  bool correct_own_creates = false;
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// One abstract request. Targets are indices, not record ids: record ids
/// are assigned by the server, so the stream names "population record
/// 17" or "this connection's 3rd create".
struct Op {
  OpKind kind = OpKind::kRead;
  uint32_t session = 0;     ///< index into the connection's sessions
  uint64_t target = 0;      ///< population index or own-create ordinal
  uint32_t note = 0;        ///< note-pool slot (creates/corrections)
  uint32_t note_bytes = 0;  ///< content size (creates/corrections)
  uint32_t term_a = 0, term_b = 0;  ///< condition indices (search)
  double gap_us = 0;        ///< open loop: time since the previous op was due
};

/// Generator notes are drawn once per connection and then reused, so the
/// generator's memory is fixed before the measured phase starts.
constexpr int kNotePoolSize = 64;

/// The per-connection request stream.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, uint64_t seed, int connection);

  Op Next();

  const std::vector<medvault::sim::EhrRecord>& notes() const {
    return notes_;
  }

 private:
  const WorkloadSpec& spec_;
  medvault::Random rng_;
  medvault::sim::Zipf record_zipf_;
  medvault::sim::Zipf term_zipf_;
  std::vector<medvault::sim::EhrRecord> notes_;
  uint64_t creates_ = 0;
};

/// What a request needs that the server assigned or the setup issued.
struct RequestContext {
  const std::vector<std::string>* population_ids = nullptr;
  const std::vector<std::string>* own_ids = nullptr;  ///< this connection
  const std::vector<std::string>* tokens = nullptr;   ///< this connection
  const std::vector<std::string>* patient_tokens = nullptr;
  int connection = 0;
  uint64_t sequence = 0;  ///< position in the stream (content stamp)
};

struct Request {
  std::string method;
  std::string target;
  std::string body;
  std::string bearer;
  /// Plaintext a create/correction stores (empty for reads/queries).
  std::string content;
};

/// Record id an op reads or corrects ("" for creates and queries).
const std::string& TargetId(const Op& op, const WorkloadSpec& spec,
                            const RequestContext& ctx);

/// Renders `op` as the HTTP request the client sends.
Request BuildRequest(const Op& op, const WorkloadSpec& spec,
                     const OpStream& stream, const RequestContext& ctx);

/// The exact bytes HttpClient::Do puts on the wire for `request`.
std::string WireBytes(const Request& request);

/// The generator of the population loaded at setup: its i-th note is
/// deterministic in (seed, i), `spec.population_note_bytes` long.
medvault::sim::EhrGenerator PopulationGenerator(const WorkloadSpec& spec,
                                                uint64_t seed);

/// 64-bit FNV-1a: the model keeps content digests, not contents.
uint64_t ContentHash(const std::string& s);

/// Minimal JSON string escaping for generated text.
std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
