#ifndef MEDVAULT_OBS_JSON_H_
#define MEDVAULT_OBS_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/slice.h"

namespace medvault::obs::json {

/// Minimal JSON value for the observability layer (HealthReport dump
/// and round-trip tests). Deliberately integer-only: every quantity we
/// export (counts, bytes, microseconds, timestamps) is integral, and
/// avoiding floats makes Dump(Parse(x)) == x exact — which is what the
/// golden-JSON tests rely on. Objects are std::map, so key order (and
/// therefore the dumped text) is deterministic.
class Value {
 public:
  using Array = std::vector<Value>;
  using Object = std::map<std::string, Value>;

  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  Value(int64_t i) : v_(i) {}
  Value(uint64_t u) : v_(u) {}
  Value(int i) : v_(static_cast<int64_t>(i)) {}
  Value(unsigned u) : v_(static_cast<uint64_t>(u)) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int() const {
    return std::holds_alternative<int64_t>(v_) ||
           std::holds_alternative<uint64_t>(v_);
  }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  bool as_bool() const { return std::get<bool>(v_); }
  /// Signed view of any integer; one above INT64_MAX wraps negative.
  int64_t as_int() const;
  uint64_t as_uint() const;
  const std::string& as_string() const { return std::get<std::string>(v_); }
  const Array& as_array() const { return std::get<Array>(v_); }
  const Object& as_object() const { return std::get<Object>(v_); }
  Object& as_object() { return std::get<Object>(v_); }

  /// Compact deterministic serialization (sorted object keys, no
  /// whitespace).
  std::string Dump() const;

  /// Parses the subset Dump() emits (null, bool, integers, strings
  /// with standard escapes, arrays, objects). Rejects floats, trailing
  /// garbage, and nesting deeper than 64.
  static Result<Value> Parse(const Slice& text);

 private:
  std::variant<std::nullptr_t, bool, int64_t, uint64_t, std::string, Array,
               Object>
      v_;
};

}  // namespace medvault::obs::json

#endif  // MEDVAULT_OBS_JSON_H_
