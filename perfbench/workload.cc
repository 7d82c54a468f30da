#include "workload.h"

#include <cmath>

namespace perfbench {

namespace {

using medvault::sim::EhrGenerator;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;

  // Independent clinicians arriving on their own schedule. 2,048 notes of
  // 1 KiB (~2 MiB) fit the 4 MiB cache, so reads hit and the wire,
  // routing, session, access and audit costs dominate; writes share the
  // vault locks and the commit path with them.
  WorkloadSpec clinic;
  clinic.name = "clinic_mix";
  clinic.open_loop = true;
  clinic.offered_rate = 4000;
  clinic.population = 2048;
  clinic.clinician_sessions = 28;
  clinic.patient_sessions = 4;
  clinic.read = 0.90;
  clinic.correct = 0.05;
  clinic.create = 0.03;
  // Mostly searches: a median over a 50/50 mix of two query kinds with
  // different costs would flip between them from run to run.
  clinic.search = 0.015;
  clinic.disclosures = 0.005;
  clinic.read_target = WorkloadSpec::ReadTarget::kZipfPopulation;
  all.push_back(clinic);

  // A records request / chart review: uniform reads over 24,576 notes of
  // 1 KiB (~24 MiB, 6x the cache) with 4,096 live sessions, 4 clinicians
  // and 4 patients of them sending. Version-store reads, AEAD open and
  // the session scan do the work. A 1% trickle of amendments and of
  // patients' disclosure reports keeps every end-to-end class measured
  // while the commit path stays nearly idle.
  WorkloadSpec chart;
  chart.name = "chart_sweep";
  chart.population = 24576;
  chart.clinician_sessions = 4;
  chart.patient_sessions = 4;
  chart.idle_sessions = 4096 - 8;
  chart.read = 0.98;
  chart.correct = 0.01;
  chart.disclosures = 0.01;
  chart.read_target = WorkloadSpec::ReadTarget::kUniformPopulation;
  all.push_back(chart);

  // An EHR interface feed: durable creates of 512 B - 4 KiB notes, one in
  // five requests a correction of a record the same connection filed, a
  // read-back of filed notes and a few patients' disclosure reports.
  // Group commit, fsync, keystore, index postings and AEAD seal dominate;
  // the cache does little.
  WorkloadSpec ingest;
  ingest.name = "admissions_ingest";
  ingest.population = 1024;
  ingest.create_bytes_min = 512;
  ingest.create_bytes_max = 4096;
  ingest.clinician_sessions = 4;
  ingest.patient_sessions = 4;
  ingest.create = 0.68;
  ingest.correct = 0.20;
  ingest.read = 0.08;
  ingest.disclosures = 0.04;
  ingest.read_target = WorkloadSpec::ReadTarget::kOwnCreates;
  ingest.correct_own_creates = true;
  all.push_back(ingest);
  return all;
}

}  // namespace

OpClass ClassOf(OpKind kind) {
  switch (kind) {
    case OpKind::kRead:
      return OpClass::kRead;
    case OpKind::kCorrect:
    case OpKind::kCreate:
      return OpClass::kWrite;
    case OpKind::kSearch:
    case OpKind::kDisclosures:
      return OpClass::kQuery;
  }
  return OpClass::kQuery;
}

const char* ClassName(OpClass c) {
  switch (c) {
    case OpClass::kRead:
      return "read";
    case OpClass::kWrite:
      return "write";
    case OpClass::kQuery:
      return "query";
  }
  return "?";
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> all = MakeWorkloads();
  return all;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

OpStream::OpStream(const WorkloadSpec& spec, uint64_t seed, int connection)
    : spec_(spec),
      rng_(Mix(seed, 100 + connection)),
      record_zipf_(spec.population, 1.0, Mix(seed, 200 + connection)),
      term_zipf_(EhrGenerator::Conditions().size(), 1.0,
                 Mix(seed, 300 + connection)) {
  EhrGenerator::Options options;
  options.num_patients = spec.patients;
  options.note_bytes = spec.create_bytes_max;
  EhrGenerator gen(Mix(seed, 400 + connection), options);
  notes_.reserve(kNotePoolSize);
  for (int i = 0; i < kNotePoolSize; i++) notes_.push_back(gen.Next());
}

Op OpStream::Next() {
  Op op;
  if (spec_.open_loop) {
    // One open-loop stream feeds all connections (a client's pool).
    const double mean_gap_us = 1e6 / spec_.offered_rate;
    op.gap_us = -std::log(1.0 - rng_.NextDouble()) * mean_gap_us;
  }
  double u = rng_.NextDouble();
  if ((u -= spec_.read) < 0) {
    op.kind = OpKind::kRead;
  } else if ((u -= spec_.correct) < 0) {
    op.kind = OpKind::kCorrect;
  } else if ((u -= spec_.create) < 0) {
    op.kind = OpKind::kCreate;
  } else if ((u -= spec_.search) < 0) {
    op.kind = OpKind::kSearch;
  } else {
    op.kind = OpKind::kDisclosures;
  }
  // Operations on this connection's own records need one to exist.
  const bool own_read =
      op.kind == OpKind::kRead &&
      spec_.read_target == WorkloadSpec::ReadTarget::kOwnCreates;
  const bool own_correct =
      op.kind == OpKind::kCorrect && spec_.correct_own_creates;
  if ((own_read || own_correct) && creates_ == 0) op.kind = OpKind::kCreate;

  auto population_target = [&]() -> uint64_t {
    if (spec_.read_target == WorkloadSpec::ReadTarget::kUniformPopulation) {
      return rng_.Uniform(spec_.population);
    }
    return record_zipf_.Next();
  };

  switch (op.kind) {
    case OpKind::kRead:
      op.session = static_cast<uint32_t>(rng_.Next());
      op.target = own_read ? rng_.Uniform(creates_) : population_target();
      break;
    case OpKind::kCorrect:
      op.session = static_cast<uint32_t>(rng_.Next());
      op.target = own_correct ? rng_.Uniform(creates_) : population_target();
      break;
    case OpKind::kCreate:
      op.session = static_cast<uint32_t>(rng_.Next());
      creates_++;
      break;
    case OpKind::kSearch: {
      op.session = static_cast<uint32_t>(rng_.Next());
      op.term_a = static_cast<uint32_t>(term_zipf_.Next());
      do {
        op.term_b = static_cast<uint32_t>(term_zipf_.Next());
      } while (op.term_b == op.term_a);
      break;
    }
    case OpKind::kDisclosures:
      op.session = static_cast<uint32_t>(rng_.Next());
      break;
  }
  if (ClassOf(op.kind) == OpClass::kWrite) {
    op.note = static_cast<uint32_t>(rng_.Uniform(kNotePoolSize));
    op.note_bytes = static_cast<uint32_t>(
        spec_.create_bytes_min +
        rng_.Uniform(spec_.create_bytes_max - spec_.create_bytes_min + 1));
  }
  return op;
}

const std::string& TargetId(const Op& op, const WorkloadSpec& spec,
                            const RequestContext& ctx) {
  static const std::string kNone;
  const bool own =
      (op.kind == OpKind::kRead &&
       spec.read_target == WorkloadSpec::ReadTarget::kOwnCreates) ||
      (op.kind == OpKind::kCorrect && spec.correct_own_creates);
  if (op.kind != OpKind::kRead && op.kind != OpKind::kCorrect) return kNone;
  return own ? (*ctx.own_ids)[op.target] : (*ctx.population_ids)[op.target];
}

Request BuildRequest(const Op& op, const WorkloadSpec& spec,
                     const OpStream& stream, const RequestContext& ctx) {
  Request r;
  const std::vector<std::string>& tokens = *ctx.tokens;
  r.bearer = tokens[op.session % tokens.size()];
  if (ClassOf(op.kind) == OpClass::kWrite) {
    const medvault::sim::EhrRecord& note = stream.notes()[op.note];
    r.content = "op " + std::to_string(ctx.connection) + "-" +
                std::to_string(ctx.sequence) + " ";
    r.content += note.text.substr(0, op.note_bytes > r.content.size()
                                         ? op.note_bytes - r.content.size()
                                         : 0);
  }
  auto keywords = [&]() {
    const medvault::sim::EhrRecord& note = stream.notes()[op.note];
    std::string out = "[";
    for (size_t i = 0; i < note.keywords.size(); i++) {
      if (i > 0) out += ", ";
      out += "\"" + note.keywords[i] + "\"";
    }
    return out + "]";
  };
  switch (op.kind) {
    case OpKind::kRead:
      r.method = "GET";
      r.target = "/v1/records/" + TargetId(op, spec, ctx);
      break;
    case OpKind::kCorrect:
      r.method = "POST";
      r.target = "/v1/records/" + TargetId(op, spec, ctx) + "/correct";
      r.body = "{\"content\": \"" + JsonEscape(r.content) +
               "\", \"reason\": \"amended by clinician\", \"keywords\": " +
               keywords() + "}";
      break;
    case OpKind::kCreate: {
      const medvault::sim::EhrRecord& note = stream.notes()[op.note];
      r.method = "POST";
      r.target = "/v1/records";
      r.body = "{\"patient_id\": \"" + note.patient_id +
               "\", \"content\": \"" + JsonEscape(r.content) +
               "\", \"keywords\": " + keywords() + "}";
      break;
    }
    case OpKind::kSearch: {
      const auto& terms = EhrGenerator::Conditions();
      r.method = "POST";
      r.target = "/v1/search";
      r.body = "{\"terms\": [\"" + terms[op.term_a] + "\", \"" +
               terms[op.term_b] + "\"]}";
      break;
    }
    case OpKind::kDisclosures: {
      const std::vector<std::string>& patients = *ctx.patient_tokens;
      r.method = "GET";
      r.target = "/v1/transparency/disclosures";
      r.bearer = patients[op.session % patients.size()];
      break;
    }
  }
  return r;
}

std::string WireBytes(const Request& request) {
  // Mirrors HttpClient::Do's framing byte for byte.
  std::string wire = request.method + " " + request.target + " HTTP/1.1\r\n";
  wire += "Host: 127.0.0.1\r\n";
  if (!request.bearer.empty()) {
    wire += "Authorization: Bearer " + request.bearer + "\r\n";
  }
  if (!request.body.empty() || request.method == "POST") {
    wire += "Content-Type: application/json\r\n";
    wire += "Content-Length: " + std::to_string(request.body.size()) + "\r\n";
  }
  wire += "\r\n";
  wire += request.body;
  return wire;
}

EhrGenerator PopulationGenerator(const WorkloadSpec& spec, uint64_t seed) {
  EhrGenerator::Options options;
  options.num_patients = spec.patients;
  options.note_bytes = spec.population_note_bytes;
  return EhrGenerator(Mix(seed, 1), options);
}

uint64_t ContentHash(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace perfbench
