// The one JSON writer and the one JSON reader, shared by every exporter
// and every loader in the tree.
//
// Writer: emits syntactically valid JSON with no external dependency. The
// trace recorder (JSONL + Chrome trace_event), the metrics sampler, the
// bench `--json` reporter, fault-plan repro files and incident bundles all
// format through JsonWriter so their output stays mutually consistent
// (escaping, number formatting, nesting).
//
// Reader: parse_json_object + JsonFields read everything the writer emits
// back — fault plans and chaos repros, incident bundles, trace JSONL,
// sketches.json and violations.jsonl — so one file owns the format in both
// directions. It is strict:
//  - numbers keep their raw token; integers convert from it exactly with
//    std::from_chars and never pass through double (2^53 + 1 survives);
//  - strings decode every escape json_escape emits (\" \\ \n \r \t
//    \u00XX) plus \/ \b \f; raw control bytes and \u escapes beyond
//    ASCII (which nothing here writes) are rejected;
//  - whitespace is exactly JSON's: space, tab, CR, LF;
//  - anything but whitespace after the top-level value is an error;
//  - typed accessors report a wrong kind or a value the target type cannot
//    hold (out of range, negative, fractional) as an error, never a cast.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vcl::obs {

// Escapes a string for embedding inside JSON double quotes.
std::string json_escape(const std::string& s);

// Formats a double the way JSON expects: integral values print without a
// trailing ".0" garbage tail, non-finite values degrade to null.
std::string json_number(double v);

// Stack-based writer: begin/end calls must pair; commas and key/value
// ordering are handled internally. Misuse (value with no pending key inside
// an object) is a programming error and asserts in debug builds.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  // Keys apply to the next value/container inside an object.
  JsonWriter& key(const std::string& k);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);
  JsonWriter& null();

  // Emits the cell as a number when it parses fully as one, else a string —
  // the bridge from Table's all-string rows to typed JSON.
  JsonWriter& value_auto(const std::string& cell);

  // Emits a preformatted token verbatim (no quoting, no reformatting).
  // For callers whose numbers must round-trip bit-exactly — json_number's
  // %.12g is lossy by design; fault-plan repro files format with %.17g.
  JsonWriter& value_raw(const std::string& token);

 private:
  void comma();

  std::ostream& os_;
  // One frame per open container: whether any element was emitted yet.
  std::vector<bool> wrote_element_;
  bool key_pending_ = false;
};

// One parsed JSON value. Objects keep their members in document order.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  // kString: the decoded string; kNumber: the raw token
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  // The first member named `key`; null when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  // Exact conversions: false, with the reason in `why`, when the value is of
  // another kind or does not fit `out`. `out` is unspecified on failure.
  bool get(double& out, std::string* why = nullptr) const;
  bool get(std::uint64_t& out, std::string* why = nullptr) const;
  bool get(std::int32_t& out, std::string* why = nullptr) const;
  bool get(std::string& out, std::string* why = nullptr) const;
};

// Parses `text` as exactly one JSON object, optionally surrounded by
// whitespace. Returns false (with `error` set to "byte N: reason") on
// anything else, including trailing bytes and nesting deeper than 64.
bool parse_json_object(std::string_view text, JsonValue& out,
                       std::string* error = nullptr);

// Reads JSONL, one object per line (blank lines skipped), handing each to
// `record` with its 1-based line number. Stops at the first line that fails
// to parse or that `record` rejects (returning false with the reason in
// `why`), and reports it in `error` as "line N: reason".
using JsonlRecord = std::function<bool(const JsonValue& object,
                                       std::size_t line, std::string& why)>;
bool read_jsonl(std::istream& is, const JsonlRecord& record,
                std::string* error = nullptr);

// Typed member lookups over one parsed object. An absent or null member
// yields `fallback`; so does a member that fails JsonValue::get, and the
// first such failure is kept for error() ("\"key\": reason"). Loaders do
// all their lookups, then check ok() once.
class JsonFields {
 public:
  explicit JsonFields(const JsonValue& object) : object_(object) {}

  double number(std::string_view key, double fallback = 0.0);
  std::uint64_t u64(std::string_view key, std::uint64_t fallback = 0);
  std::string str(std::string_view key, std::string fallback = {});

  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  template <typename T>
  T field(std::string_view key, T fallback);

  const JsonValue& object_;
  std::string error_;
};

}  // namespace vcl::obs
