#include "obs/json.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace vcl::obs {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  // %.12g keeps sim-time microsecond resolution while dropping float noise.
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string exact_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void JsonWriter::comma() {
  if (key_pending_) return;  // key() already placed the separator
  if (!wrote_element_.empty()) {
    if (wrote_element_.back()) os_ << ',';
    wrote_element_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  key_pending_ = false;
  os_ << '{';
  wrote_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  assert(!wrote_element_.empty());
  wrote_element_.pop_back();
  os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  key_pending_ = false;
  os_ << '[';
  wrote_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  assert(!wrote_element_.empty());
  wrote_element_.pop_back();
  os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& k) {
  assert(!wrote_element_.empty());
  if (wrote_element_.back()) os_ << ',';
  wrote_element_.back() = true;
  os_ << '"' << json_escape(k) << "\":";
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  comma();
  key_pending_ = false;
  os_ << '"' << json_escape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string(v)); }

JsonWriter& JsonWriter::value(double v) {
  comma();
  key_pending_ = false;
  os_ << json_number(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  key_pending_ = false;
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  key_pending_ = false;
  os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::value_auto(const std::string& cell) {
  if (!cell.empty()) {
    char* end = nullptr;
    const double num = std::strtod(cell.c_str(), &end);
    if (end == cell.c_str() + cell.size() && std::isfinite(num)) {
      return value(num);
    }
  }
  return value(cell);
}

JsonWriter& JsonWriter::value_raw(const std::string& token) {
  comma();
  key_pending_ = false;
  os_ << token;
  return *this;
}

// ---- reader -----------------------------------------------------------------

namespace {

// Recursive descent over the RFC 8259 grammar; the first problem stops the
// parse and is reported with its byte offset.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse_object(JsonValue& out, std::string* error) {
    skip_ws();
    bool ok = at('{') ? value(out, 0) : fail("expected '{'");
    skip_ws();
    if (ok && pos_ < text_.size()) ok = fail("trailing characters");
    if (!ok && error != nullptr) {
      *error = "byte " + std::to_string(pos_) + ": " + why_;
    }
    return ok;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const char* why) {
    why_ = why;
    return false;
  }
  [[nodiscard]] bool at(char c) const {
    return pos_ < text_.size() && text_[pos_] == c;
  }
  void skip_ws() {
    while (at(' ') || at('\t') || at('\n') || at('\r')) ++pos_;
  }
  bool skip(char c) {
    if (!at(c)) return false;
    ++pos_;
    return true;
  }
  bool eat(char c) {
    skip_ws();
    return skip(c);
  }
  bool digits() {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > from;
  }
  bool literal(std::string_view word, JsonValue::Kind kind, JsonValue& out) {
    if (text_.substr(pos_, word.size()) != word) return fail("invalid value");
    pos_ += word.size();
    out.kind = kind;
    out.boolean = word == "true";
    return true;
  }

  bool value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (eat('{')) {
      out.kind = JsonValue::Kind::kObject;
      if (eat('}')) return true;
      do {
        out.members.emplace_back();
        skip_ws();
        if (!string(out.members.back().first)) return false;
        if (!eat(':')) return fail("expected ':'");
        if (!value(out.members.back().second, depth + 1)) return false;
      } while (eat(','));
      return eat('}') || fail("expected ',' or '}'");
    }
    if (eat('[')) {
      out.kind = JsonValue::Kind::kArray;
      if (eat(']')) return true;
      do {
        if (!value(out.items.emplace_back(), depth + 1)) return false;
      } while (eat(','));
      return eat(']') || fail("expected ',' or ']'");
    }
    if (at('"')) {
      out.kind = JsonValue::Kind::kString;
      return string(out.text);
    }
    if (at('t')) return literal("true", JsonValue::Kind::kBool, out);
    if (at('f')) return literal("false", JsonValue::Kind::kBool, out);
    if (at('n')) return literal("null", JsonValue::Kind::kNull, out);
    out.kind = JsonValue::Kind::kNumber;
    return number(out.text);
  }

  // -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, kept as its raw token.
  bool number(std::string& out) {
    const std::size_t start = pos_;
    skip('-');
    if (!skip('0') && !digits()) return fail("invalid value");
    if (skip('.') && !digits()) return fail("malformed number");
    if (skip('e') || skip('E')) {
      if (!skip('+')) skip('-');
      if (!digits()) return fail("malformed number");
    }
    out.assign(text_.substr(start, pos_ - start));
    return true;
  }

  bool string(std::string& out) {
    static constexpr std::string_view kEscapes = "\"\\/bfnrt";
    static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
    if (!skip('"')) return fail("expected a string");
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character");
      }
      if (c != '\\') {
        out += c;
      } else if (skip('u')) {
        if (!unicode(out)) return false;
      } else {
        const std::size_t i = pos_ < text_.size() ? kEscapes.find(text_[pos_++])
                                                  : std::string_view::npos;
        if (i == std::string_view::npos) return fail("invalid escape");
        out += kDecoded[i];
      }
    }
    return fail("unterminated string");
  }

  // \u00XX to its byte: json_escape writes control characters this way.
  // Nothing here writes wider escapes, so they are rejected, not decoded.
  bool unicode(std::string& out) {
    unsigned cp = 0;
    const char* first = text_.data() + pos_;
    const char* last = first + std::min<std::size_t>(4, text_.size() - pos_);
    const auto [end, ec] = std::from_chars(first, last, cp, 16);
    if (ec != std::errc() || end != first + 4 || cp >= 0x80) {
      return fail("unsupported \\u escape (only \\u0000-\\u007f)");
    }
    pos_ += 4;
    out += static_cast<char>(cp);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  const char* why_ = "";
};

std::string describe(const JsonValue& v) {
  static constexpr const char* kNames[] = {
      "null", "a boolean", "", "a string", "an array", "an object"};
  return v.kind == JsonValue::Kind::kNumber ? v.text
                                            : kNames[static_cast<int>(v.kind)];
}

// The whole raw token must convert: "1e30", "-5" and "1.5" are not
// unsigned integers, "1e400" is not a finite double.
template <typename T>
bool convert(const JsonValue& v, T& out, const char* expected,
             std::string* why) {
  if (v.kind == JsonValue::Kind::kNumber) {
    const char* last = v.text.data() + v.text.size();
    const auto [end, ec] = std::from_chars(v.text.data(), last, out);
    if (ec == std::errc() && end == last) return true;
  }
  if (why != nullptr) {
    *why = std::string("expected ") + expected + ", got " + describe(v);
  }
  return false;
}

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool JsonValue::get(double& out, std::string* why) const {
  return convert(*this, out, "a finite number", why);
}

bool JsonValue::get(std::uint64_t& out, std::string* why) const {
  return convert(*this, out, "an unsigned 64-bit integer", why);
}

bool JsonValue::get(std::int32_t& out, std::string* why) const {
  return convert(*this, out, "a 32-bit integer", why);
}

bool JsonValue::get(std::string& out, std::string* why) const {
  if (kind == Kind::kString) {
    out = text;
    return true;
  }
  if (why != nullptr) *why = "expected a string, got " + describe(*this);
  return false;
}

bool parse_json_object(std::string_view text, JsonValue& out,
                       std::string* error) {
  out = JsonValue{};
  return JsonParser(text).parse_object(out, error);
}

bool read_jsonl(std::istream& is, const JsonlRecord& record,
                std::string* error) {
  std::string line;
  std::size_t lineno = 0;
  JsonValue object;
  std::string why;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (!parse_json_object(line, object, &why) ||
        !record(object, lineno, why)) {
      if (error != nullptr) {
        *error = "line " + std::to_string(lineno) + ": " + why;
      }
      return false;
    }
  }
  return true;
}

template <typename T>
T JsonFields::field(std::string_view key, T fallback) {
  const JsonValue* v = object_.find(key);
  if (v == nullptr || v->kind == JsonValue::Kind::kNull) return fallback;
  T out{};
  std::string why;
  if (v->get(out, &why)) return out;
  if (error_.empty()) {
    error_.append("\"").append(key).append("\": ").append(why);
  }
  return fallback;
}

double JsonFields::number(std::string_view key, double fallback) {
  return field(key, fallback);
}

std::uint64_t JsonFields::u64(std::string_view key, std::uint64_t fallback) {
  return field(key, fallback);
}

std::string JsonFields::str(std::string_view key, std::string fallback) {
  return field(key, std::move(fallback));
}

}  // namespace vcl::obs
