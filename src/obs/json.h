#ifndef MOCOGRAD_OBS_JSON_H_
#define MOCOGRAD_OBS_JSON_H_

#include <string>
#include <utility>
#include <vector>

#include "base/status.h"

namespace mocograd {
namespace obs {

/// Validates that `text` is one complete, syntactically well-formed JSON
/// value (RFC 8259 grammar: objects, arrays, strings with escapes, numbers,
/// true/false/null). Used by the trace/metrics tests and the
/// `validate_json` tool to check emitted artifacts without a JSON library
/// dependency. Returns InvalidArgument with a byte offset on failure.
Status ValidateJson(const std::string& text);

/// A parsed JSON value (small DOM). Objects keep their members in source
/// order; duplicate keys are kept as-is (Find returns the first). Numbers
/// are doubles — JSONL telemetry/metrics records only carry doubles and
/// step indices, both of which round-trip.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> items;                           // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Object member lookup: nullptr when absent or this is not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Number of the named member, or `fallback` when absent / not a number.
  double NumberOr(const std::string& key, double fallback) const;

  /// String of the named member, or `fallback` when absent / not a string.
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const;
};

/// Parses one complete JSON value into a DOM (same grammar as
/// ValidateJson). `\u` escapes decode to UTF-8; surrogate pairs are
/// combined. Returns InvalidArgument with a byte offset on failure.
Result<JsonValue> ParseJson(const std::string& text);

/// --- Serialization helpers shared by the JSONL writers ---------------------
/// (telemetry sink, tools). All append to `out`.

/// Appends `"key":` with `"` and `\` escaped.
void AppendJsonKey(std::string* out, const std::string& key);

/// Appends a number; non-finite values become `null` (RFC 8259 has no
/// NaN/Inf), integers print without exponent noise, and `%.17g` round-trips
/// everything else.
void AppendJsonNumber(std::string* out, double v);

/// Appends a quoted string with control characters, `"` and `\` escaped.
void AppendJsonString(std::string* out, const std::string& s);

}  // namespace obs
}  // namespace mocograd

#endif  // MOCOGRAD_OBS_JSON_H_
