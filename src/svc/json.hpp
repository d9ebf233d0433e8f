// bfsim -- minimal JSON for the scheduling-service wire protocol.
//
// The service speaks line-delimited JSON to arbitrary clients, so the
// reader is written for hostile input first: hard limits on nesting
// depth and token sizes, no recursion past the depth cap, every
// malformed byte sequence a structured JsonError (never UB or a
// crash), and non-finite numbers rejected. No external dependency: the
// container bakes in nothing JSON-shaped, and the protocol needs only
// this subset.
//
// One codec, two layers. JsonReader is a cursor that tokenizes a
// document in place and JsonWriter appends one to a caller's string;
// the protocol's hot frames (`events` -> `decisions`) are decoded and
// encoded with them directly, building no tree. Json is the tree the
// cold frames and the tests use: parse_json and Json::dump are thin
// layers over the same reader and writer, so both paths accept the
// same grammar, fail with the same errors at the same offsets, and
// write the same bytes. Objects preserve insertion order (a vector of
// pairs, not a hash map) so every serialization is deterministic --
// the same determinism contract the rest of the tree is linted for.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bfsim::svc {

/// Malformed JSON (or a resource limit exceeded). Carries the byte
/// offset of the offending input so protocol errors can point at it.
class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " (at byte " + std::to_string(offset) + ")"),
        offset_(offset) {}

  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

struct JsonLimits {
  std::size_t max_depth = 32;        ///< nesting cap (parser is iterative-ish)
  std::size_t max_members = 65536;   ///< total values across the document
};

/// A cursor over one JSON document. The caller walks the grammar:
/// begin_value() classifies the next value, then the matching read_*,
/// enter_* or skip() consumes it. Objects and arrays are walked as
///
///     if (reader.enter_object()) do {
///       const std::string_view key = reader.read_key();
///       ...one value at depth + 1...
///     } while (reader.more_members());
///
/// Every step checks the grammar and the limits as it goes and throws
/// JsonError at the offending byte, so walking a whole document (then
/// finish()) is a complete syntax check.
class JsonReader {
 public:
  enum class Token : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject,
  };

  /// A number token. Integral tokens (no fraction, no exponent) that
  /// fit int64 read exactly; everything else is a finite double.
  struct Number {
    bool integral = false;
    std::int64_t int_value = 0;
    double double_value = 0.0;
  };

  explicit JsonReader(std::string_view text, const JsonLimits& limits = {})
      : text_(text), limits_(limits) {}

  /// Start the value at nesting `depth` (0 = the document itself):
  /// enforce the depth and member limits, skip whitespace and classify
  /// the next byte without consuming it. A byte that starts no other
  /// value classifies as kNumber, and read_number() rejects it.
  Token begin_value(std::size_t depth) {
    if (depth > limits_.max_depth) fail("nesting exceeds depth limit");
    skip_space();
    if (++members_ > limits_.max_members)
      fail("document exceeds member limit");
    switch (peek()) {
      case '{': return Token::kObject;
      case '[': return Token::kArray;
      case '"': return Token::kString;
      case 't':
      case 'f': return Token::kBool;
      case 'n': return Token::kNull;
      default: return Token::kNumber;
    }
  }

  void read_null() { read_literal("null"); }
  bool read_bool() {
    const bool value = text_[pos_] == 't';
    read_literal(value ? "true" : "false");
    return value;
  }

  Number read_number();

  /// The unescaped string. A string without escapes is a view into the
  /// document; otherwise it lives in the reader and stays valid until
  /// the next read_string/read_key.
  std::string_view read_string() {
    expect('"');
    const std::size_t start = pos_;
    while (pos_ < text_.size() && plain(text_[pos_])) ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '"')
      return {text_.data() + start, pos_++ - start};
    return read_escaped(start);
  }

  /// Consume '{' (resp. '['); false when the container is empty.
  bool enter_object() { return enter('{', '}'); }
  bool enter_array() { return enter('[', ']'); }
  /// The next member's key, leaving the cursor before its value.
  std::string_view read_key() {
    skip_space();
    if (peek() != '"') fail("expected object key string");
    const std::string_view key = read_string();
    skip_space();
    expect(':');
    return key;
  }
  /// Consume ',' (true: another member/element follows) or the
  /// closing bracket (false).
  bool more_members() {
    return more('}', "expected ',' or '}' in object");
  }
  bool more_elements() {
    return more(']', "expected ',' or ']' in array");
  }

  /// Consume the rest of a value begin_value() classified as `token`,
  /// checking it as thoroughly as reading it would. Returns the number
  /// of members or elements when it is an object or array.
  std::size_t skip(Token token, std::size_t depth);
  std::size_t skip_value(std::size_t depth) {
    return skip(begin_value(depth), depth);
  }

  /// Demand that only whitespace follows the document.
  void finish() {
    skip_space();
    if (pos_ != text_.size()) fail("trailing bytes after JSON document");
  }

  /// The cursor's byte offset, and a jump back to one it reported.
  [[nodiscard]] std::size_t offset() const { return pos_; }
  void seek(std::size_t offset) { pos_ = offset; }

  /// The bytes a string may hold unescaped.
  static bool plain(char c) {
    return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
  }

 private:
  static bool digit(char c) { return c >= '0' && c <= '9'; }

  [[noreturn, gnu::cold]] void fail(const char* what) const;
  [[noreturn, gnu::cold]] void fail_expected(char c) const;

  void skip_space() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }
  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }
  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) fail_expected(c);
    ++pos_;
  }
  bool enter(char open, char close) {
    expect(open);
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == close) {
      ++pos_;
      return false;
    }
    return true;
  }
  bool more(char close, const char* error) {
    skip_space();
    const char next = peek();
    if (next != ',' && next != close) fail(error);
    ++pos_;
    return next == ',';
  }
  void read_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) fail("invalid literal");
    pos_ += word.size();
  }
  std::string_view read_escaped(std::size_t start);
  unsigned read_hex4();

  std::string_view text_;
  JsonLimits limits_;
  std::size_t pos_ = 0;
  std::size_t members_ = 0;
  std::string scratch_;  ///< unescaped text of the last escaped string
};

/// Appends compact JSON (no whitespace) to a caller's string: integers
/// as integers, doubles via %.17g, strings escaped as Json::dump always
/// has. The caller orders the calls; the writer places the commas.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(&out) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view name);
  JsonWriter& null();
  JsonWriter& boolean(bool value);
  JsonWriter& integer(std::int64_t value);
  JsonWriter& number(double value);
  JsonWriter& string(std::string_view value);

 private:
  void separate();

  std::string* out_;
  bool comma_ = false;  ///< a value precedes: the next one needs a ','
};

/// One JSON value. Int64 and Double are distinct: protocol fields are
/// integers (times, ids, seqs) and must round-trip exactly.
class Json {
 public:
  enum class Kind : std::uint8_t {
    kNull, kBool, kInt, kDouble, kString, kArray, kObject,
  };

  using Array = std::vector<Json>;
  /// Insertion-ordered members; lookups are linear (objects are tiny).
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;
  static Json null() { return Json{}; }
  static Json boolean(bool value);
  static Json integer(std::int64_t value);
  static Json number(double value);
  static Json string(std::string value);
  static Json array();
  static Json object();

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_int() const { return kind_ == Kind::kInt; }
  [[nodiscard]] bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] std::int64_t as_int() const { return int_; }
  [[nodiscard]] double as_double() const {
    return kind_ == Kind::kInt ? static_cast<double>(int_) : double_;
  }
  [[nodiscard]] const std::string& as_string() const { return string_; }
  [[nodiscard]] const Array& as_array() const { return array_; }
  [[nodiscard]] const Object& as_object() const { return object_; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const;

  /// Append/insert for building replies.
  void push_back(Json value);                      ///< array
  void set(std::string key, Json value);           ///< object (appends)

  /// Canonical compact serialization (no whitespace, members in
  /// insertion order, integers as integers, doubles via %.17g).
  [[nodiscard]] std::string dump() const;

  friend bool operator==(const Json&, const Json&);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parse one complete JSON document from `text`; trailing non-space
/// bytes are an error. Throws JsonError on malformed input or any
/// exceeded limit.
[[nodiscard]] Json parse_json(std::string_view text,
                              const JsonLimits& limits = {});

}  // namespace bfsim::svc
