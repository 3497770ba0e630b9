// Minimal JSON support (no external dependency): a well-formedness checker
// for tests and bench_smoke, plus a small DOM parser used by the bench
// perf-regression gate to read BENCH_*.json and scripts/bench_baseline.json.
// The DOM is deliberately simple — a tagged struct, object members kept in
// document order — because every JSON this repo reads is one it wrote.

#ifndef SRC_OBS_JSON_H_
#define SRC_OBS_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nephele {

// One parsed JSON value. Numbers are held as double (every number this repo
// emits fits); object members preserve document order and are looked up
// linearly via Find().
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string_value;
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject
  std::vector<JsonValue> elements;                         // kArray

  bool is_object() const { return kind == Kind::kObject; }
  bool is_string() const { return kind == Kind::kString; }

  // First member with this key (null when absent or not an object).
  const JsonValue* Find(std::string_view key) const;
};

// Parses exactly one JSON value (objects, arrays, strings with the common
// escapes, numbers, true/false/null) with nothing but whitespace around it.
// On failure returns false and, if non-null, `error` names the offset and
// what was expected.
bool ParseJson(std::string_view json, JsonValue* out, std::string* error = nullptr);

// True when `json` parses; same diagnostics contract as ParseJson.
bool JsonIsWellFormed(std::string_view json, std::string* error = nullptr);

}  // namespace nephele

#endif  // SRC_OBS_JSON_H_
