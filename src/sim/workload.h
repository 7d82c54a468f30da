#ifndef MEDVAULT_SIM_WORKLOAD_H_
#define MEDVAULT_SIM_WORKLOAD_H_

#include <string>
#include <vector>

#include "common/random.h"

namespace medvault::sim {

/// Zipf(s≈1) sampler over ranks [0, n) — access skew for realistic
/// query/read workloads (a few patients/terms are hot).
class Zipf {
 public:
  Zipf(uint64_t n, double s, uint64_t seed);

  uint64_t Next();

 private:
  std::vector<double> cdf_;
  Random rng_;
};

/// One synthetic EHR entry. Content shape mimics a clinical note:
/// demographics header, diagnosis codes, vitals, free-text narrative.
/// No real patient data anywhere (repro substitution; see DESIGN.md).
struct EhrRecord {
  std::string patient_id;      ///< "patient-<n>"
  std::string text;            ///< the note body
  std::vector<std::string> keywords;  ///< diagnosis terms etc.
};

/// Deterministic synthetic EHR workload generator.
class EhrGenerator {
 public:
  struct Options {
    uint64_t num_patients = 1000;
    size_t note_bytes = 512;   ///< approximate note size
  };

  EhrGenerator(uint64_t seed, Options options);

  /// Next admission/progress note for a (Zipf-skewed) patient.
  EhrRecord Next();

  /// A diagnosis term suitable for keyword queries, Zipf-skewed the same
  /// way the generator assigns diagnoses.
  std::string QueryTerm();

  /// All diagnosis terms the generator can emit.
  static const std::vector<std::string>& Conditions();

 private:
  Options options_;
  Random rng_;
  Zipf patient_zipf_;
  Zipf condition_zipf_;
  uint64_t visit_counter_ = 0;
};

}  // namespace medvault::sim

#endif  // MEDVAULT_SIM_WORKLOAD_H_
