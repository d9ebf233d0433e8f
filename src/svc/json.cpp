#include "svc/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace bfsim::svc {

Json Json::boolean(bool value) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = value;
  return j;
}

Json Json::integer(std::int64_t value) {
  Json j;
  j.kind_ = Kind::kInt;
  j.int_ = value;
  return j;
}

Json Json::number(double value) {
  Json j;
  j.kind_ = Kind::kDouble;
  j.double_ = value;
  return j;
}

Json Json::string(std::string value) {
  Json j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(value);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object_)
    if (name == key) return &value;
  return nullptr;
}

void Json::push_back(Json value) { array_.push_back(std::move(value)); }

void Json::set(std::string key, Json value) {
  object_.emplace_back(std::move(key), std::move(value));
}

bool operator==(const Json& a, const Json& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case Json::Kind::kNull: return true;
    case Json::Kind::kBool: return a.bool_ == b.bool_;
    case Json::Kind::kInt: return a.int_ == b.int_;
    case Json::Kind::kDouble: return a.double_ == b.double_;
    case Json::Kind::kString: return a.string_ == b.string_;
    case Json::Kind::kArray: return a.array_ == b.array_;
    case Json::Kind::kObject: return a.object_ == b.object_;
  }
  return false;
}

// --- JsonReader ---------------------------------------------------------

void JsonReader::fail(const char* what) const { throw JsonError(what, pos_); }

void JsonReader::fail_expected(char c) const {
  throw JsonError(std::string("expected '") + c + "'", pos_);
}

JsonReader::Number JsonReader::read_number() {
  const auto digits = [this] {
    while (pos_ < text_.size() && digit(text_[pos_])) ++pos_;
  };
  const std::size_t start = pos_;
  if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
  digits();
  if (pos_ == start || (text_[start] == '-' && pos_ == start + 1))
    fail("invalid number");
  Number number;
  number.integral = true;
  if (pos_ < text_.size() && text_[pos_] == '.') {
    number.integral = false;
    const std::size_t frac = ++pos_;
    digits();
    if (pos_ == frac) fail("invalid number: empty fraction");
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    number.integral = false;
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    const std::size_t exp = pos_;
    digits();
    if (pos_ == exp) fail("invalid number: empty exponent");
  }
  const std::string_view token = text_.substr(start, pos_ - start);
  if (number.integral) {
    const auto [end, error] = std::from_chars(
        token.data(), token.data() + token.size(), number.int_value);
    if (error == std::errc{} && end == token.data() + token.size())
      return number;
    // Magnitude beyond int64: fall through to double semantics.
    number.integral = false;
  }
  // strtod wants a terminated string; the document is a view.
  const std::string terminated{token};
  char* end = nullptr;
  number.double_value = std::strtod(terminated.c_str(), &end);
  if (end != terminated.c_str() + terminated.size()) fail("invalid number");
  if (!std::isfinite(number.double_value)) fail("number is not finite");
  return number;
}

unsigned JsonReader::read_hex4() {
  if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
  unsigned value = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const char c = text_[pos_ + i];
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
    else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
    else fail("bad hex digit in \\u escape");
  }
  pos_ += 4;
  return value;
}

namespace {

void append_utf8(unsigned long code, std::string& out) {
  if (code < 0x80) {
    out += static_cast<char>(code);
  } else if (code < 0x800) {
    out += static_cast<char>(0xC0 | (code >> 6));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else if (code < 0x10000) {
    out += static_cast<char>(0xE0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (code >> 18));
    out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  }
}

}  // namespace

[[gnu::cold]] std::string_view JsonReader::read_escaped(std::size_t start) {
  // read_string stopped short of the closing quote: the string holds
  // an escape (or is malformed). Unescape it from the start.
  scratch_.assign(text_.substr(start, pos_ - start));
  while (true) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_];
    if (c == '"') {
      ++pos_;
      return scratch_;
    }
    if (static_cast<unsigned char>(c) < 0x20)
      fail("unescaped control character in string");
    if (c != '\\') {
      scratch_ += c;
      ++pos_;
      continue;
    }
    ++pos_;
    if (pos_ >= text_.size()) fail("truncated escape");
    const char esc = text_[pos_++];
    switch (esc) {
      case '"': scratch_ += '"'; break;
      case '\\': scratch_ += '\\'; break;
      case '/': scratch_ += '/'; break;
      case 'b': scratch_ += '\b'; break;
      case 'f': scratch_ += '\f'; break;
      case 'n': scratch_ += '\n'; break;
      case 'r': scratch_ += '\r'; break;
      case 't': scratch_ += '\t'; break;
      case 'u': {
        const unsigned hi = read_hex4();
        if (hi >= 0xD800 && hi <= 0xDBFF) {  // high surrogate: need pair
          if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
              text_[pos_ + 1] == 'u') {
            pos_ += 2;
            const unsigned lo = read_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF)
              fail("invalid low surrogate in \\u pair");
            const unsigned long code =
                0x10000UL + ((static_cast<unsigned long>(hi) - 0xD800UL)
                             << 10) + (lo - 0xDC00UL);
            append_utf8(code, scratch_);
          } else {
            fail("lone high surrogate in string");
          }
        } else if (hi >= 0xDC00 && hi <= 0xDFFF) {
          fail("lone low surrogate in string");
        } else {
          append_utf8(hi, scratch_);
        }
        break;
      }
      default: fail("unknown escape character");
    }
  }
}

std::size_t JsonReader::skip(Token token, std::size_t depth) {
  std::size_t count = 0;
  switch (token) {
    case Token::kNull: read_null(); break;
    case Token::kBool: (void)read_bool(); break;
    case Token::kNumber: (void)read_number(); break;
    case Token::kString: (void)read_string(); break;
    case Token::kArray:
      if (enter_array()) do {
          (void)skip_value(depth + 1);
          ++count;
        } while (more_elements());
      break;
    case Token::kObject:
      if (enter_object()) do {
          (void)read_key();
          (void)skip_value(depth + 1);
          ++count;
        } while (more_members());
      break;
  }
  return count;
}

// --- JsonWriter ---------------------------------------------------------

void JsonWriter::separate() {
  if (comma_) *out_ += ',';
  comma_ = true;
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  *out_ += '{';
  comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  *out_ += '}';
  comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  *out_ += '[';
  comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  *out_ += ']';
  comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  string(name);
  *out_ += ':';
  comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::null() {
  separate();
  *out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::boolean(bool value) {
  separate();
  *out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::integer(std::int64_t value) {
  separate();
  char buffer[24];
  out_->append(buffer,
               std::to_chars(buffer, buffer + sizeof buffer, value).ptr);
  return *this;
}

JsonWriter& JsonWriter::number(double value) {
  separate();
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  *out_ += buffer;
  return *this;
}

JsonWriter& JsonWriter::string(std::string_view value) {
  separate();
  std::string& out = *out_;
  out += '"';
  for (std::size_t i = 0; i < value.size();) {
    // Copy the run that needs no escape in one append.
    std::size_t run = i;
    while (run < value.size() && JsonReader::plain(value[run])) ++run;
    out.append(value.substr(i, run - i));
    if (run == value.size()) break;
    const char c = value[run];
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buffer[8];
        std::snprintf(buffer, sizeof buffer, "\\u%04x",
                      static_cast<unsigned char>(c));
        out += buffer;
      }
    }
    i = run + 1;
  }
  out += '"';
  return *this;
}

// --- Json over the reader and the writer --------------------------------
//
// The tree serves the cold frames (hello/welcome, stats, report, error,
// bye) and the tests, so its walks are compiled for size.

namespace {

[[gnu::cold]] void write_value(const Json& value, JsonWriter& out) {
  switch (value.kind()) {
    case Json::Kind::kNull: out.null(); break;
    case Json::Kind::kBool: out.boolean(value.as_bool()); break;
    case Json::Kind::kInt: out.integer(value.as_int()); break;
    case Json::Kind::kDouble: out.number(value.as_double()); break;
    case Json::Kind::kString: out.string(value.as_string()); break;
    case Json::Kind::kArray:
      out.begin_array();
      for (const Json& item : value.as_array()) write_value(item, out);
      out.end_array();
      break;
    case Json::Kind::kObject:
      out.begin_object();
      for (const auto& [name, member] : value.as_object()) {
        out.key(name);
        write_value(member, out);
      }
      out.end_object();
      break;
  }
}

/// Recursion depth is bounded by JsonLimits::max_depth (begin_value
/// refuses deeper values), so hostile deeply-nested input cannot blow
/// the stack.
[[gnu::cold]] Json read_value(JsonReader& reader, std::size_t depth) {
  switch (reader.begin_value(depth)) {
    case JsonReader::Token::kNull:
      reader.read_null();
      return Json::null();
    case JsonReader::Token::kBool: return Json::boolean(reader.read_bool());
    case JsonReader::Token::kNumber: {
      const JsonReader::Number number = reader.read_number();
      return number.integral ? Json::integer(number.int_value)
                             : Json::number(number.double_value);
    }
    case JsonReader::Token::kString:
      return Json::string(std::string(reader.read_string()));
    case JsonReader::Token::kArray: {
      Json array = Json::array();
      if (reader.enter_array()) do {
          array.push_back(read_value(reader, depth + 1));
        } while (reader.more_elements());
      return array;
    }
    case JsonReader::Token::kObject: {
      Json object = Json::object();
      if (reader.enter_object()) do {
          std::string key{reader.read_key()};
          object.set(std::move(key), read_value(reader, depth + 1));
        } while (reader.more_members());
      return object;
    }
  }
  return Json::null();
}

}  // namespace

std::string Json::dump() const {
  std::string out;
  JsonWriter writer{out};
  write_value(*this, writer);
  return out;
}

Json parse_json(std::string_view text, const JsonLimits& limits) {
  JsonReader reader{text, limits};
  Json value = read_value(reader, 0);
  reader.finish();
  return value;
}

}  // namespace bfsim::svc
