#include "sim/workload.h"

#include <cmath>
#include <cstdio>

namespace medvault::sim {

namespace {

const char* const kConditions[] = {
    "hypertension", "diabetes",   "asthma",       "cancer",
    "influenza",    "pneumonia",  "fracture",     "migraine",
    "arthritis",    "bronchitis", "anemia",       "dermatitis",
    "appendicitis", "sepsis",     "tachycardia",  "epilepsy",
    "glaucoma",     "hepatitis",  "nephritis",    "obesity",
};
constexpr size_t kNumConditions = sizeof(kConditions) / sizeof(kConditions[0]);

const char* const kNoteFillers[] = {
    "patient presents with stable vitals and no acute distress",
    "follow up scheduled in two weeks with primary care",
    "medication dosage adjusted per latest lab results",
    "no adverse reactions reported since last visit",
    "recommended continued physical therapy and monitoring",
    "dietary changes discussed and care plan updated",
    "imaging reviewed with radiology no new findings",
    "symptoms improving under current treatment regimen",
};
constexpr size_t kNumFillers = sizeof(kNoteFillers) / sizeof(kNoteFillers[0]);

/// Zipf exponent of patient and condition access skew.
constexpr double kZipfS = 1.0;

}  // namespace

Zipf::Zipf(uint64_t n, double s, uint64_t seed) : rng_(seed) {
  cdf_.reserve(n);
  double total = 0;
  for (uint64_t i = 1; i <= n; i++) {
    total += 1.0 / std::pow(static_cast<double>(i), s);
    cdf_.push_back(total);
  }
  for (double& v : cdf_) v /= total;
}

uint64_t Zipf::Next() {
  double u = rng_.NextDouble();
  // Binary search the CDF.
  size_t lo = 0, hi = cdf_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < cdf_.size() ? lo : cdf_.size() - 1;
}

EhrGenerator::EhrGenerator(uint64_t seed, Options options)
    : options_(options),
      rng_(seed),
      patient_zipf_(options.num_patients, kZipfS, seed ^ 0x5151),
      condition_zipf_(kNumConditions, kZipfS, seed ^ 0xa7a7) {}

const std::vector<std::string>& EhrGenerator::Conditions() {
  static const std::vector<std::string>* conditions = [] {
    auto* v = new std::vector<std::string>();
    for (size_t i = 0; i < kNumConditions; i++) v->push_back(kConditions[i]);
    return v;
  }();
  return *conditions;
}

EhrRecord EhrGenerator::Next() {
  EhrRecord record;
  uint64_t patient = patient_zipf_.Next();
  record.patient_id = "patient-" + std::to_string(patient);

  // 1-3 diagnoses, Zipf-skewed so common conditions dominate.
  size_t diag_count = 1 + rng_.Uniform(3);
  for (size_t i = 0; i < diag_count; i++) {
    std::string condition = kConditions[condition_zipf_.Next()];
    record.keywords.push_back(condition);
  }

  char header[160];
  snprintf(header, sizeof(header),
           "MRN:%06llu VISIT:%llu AGE:%llu BP:%llu/%llu HR:%llu DX:",
           static_cast<unsigned long long>(patient),
           static_cast<unsigned long long>(visit_counter_++),
           static_cast<unsigned long long>(18 + rng_.Uniform(80)),
           static_cast<unsigned long long>(95 + rng_.Uniform(60)),
           static_cast<unsigned long long>(55 + rng_.Uniform(45)),
           static_cast<unsigned long long>(50 + rng_.Uniform(70)));
  record.text = header;
  for (const std::string& kw : record.keywords) {
    record.text += kw;
    record.text += ' ';
  }
  record.text += "NOTE: ";
  while (record.text.size() < options_.note_bytes) {
    record.text += kNoteFillers[rng_.Uniform(kNumFillers)];
    record.text += ". ";
  }
  record.text.resize(options_.note_bytes);
  return record;
}

std::string EhrGenerator::QueryTerm() {
  return kConditions[condition_zipf_.Next()];
}

}  // namespace medvault::sim
