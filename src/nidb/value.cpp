#include "nidb/value.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/json_escape.hpp"

namespace autonet::nidb {

Value Value::from_attr(const graph::AttrValue& attr) {
  struct Visitor {
    Value operator()(std::monostate) const { return Value(); }
    Value operator()(bool v) const { return Value(v); }
    Value operator()(std::int64_t v) const { return Value(v); }
    Value operator()(double v) const { return Value(v); }
    Value operator()(const std::string& v) const { return Value(v); }
    Value operator()(const std::vector<std::int64_t>& v) const {
      Array arr;
      arr.reserve(v.size());
      for (auto x : v) arr.emplace_back(x);
      return Value(std::move(arr));
    }
    Value operator()(const std::vector<std::string>& v) const {
      Array arr;
      arr.reserve(v.size());
      for (const auto& x : v) arr.emplace_back(x);
      return Value(std::move(arr));
    }
  };
  return std::visit(Visitor{}, attr.storage());
}

std::optional<bool> Value::as_bool() const {
  if (const auto* v = std::get_if<bool>(&value_)) return *v;
  return std::nullopt;
}

std::optional<std::int64_t> Value::as_int() const {
  if (const auto* v = std::get_if<std::int64_t>(&value_)) return *v;
  if (const auto* v = std::get_if<bool>(&value_)) return *v ? 1 : 0;
  return std::nullopt;
}

std::optional<double> Value::as_double() const {
  if (const auto* v = std::get_if<double>(&value_)) return *v;
  if (auto i = as_int()) return static_cast<double>(*i);
  return std::nullopt;
}

const std::string* Value::as_string() const {
  return std::get_if<std::string>(&value_);
}

const Array* Value::as_array() const {
  const auto* p = std::get_if<std::shared_ptr<Array>>(&value_);
  return p ? p->get() : nullptr;
}

const Object* Value::as_object() const {
  const auto* p = std::get_if<std::shared_ptr<Object>>(&value_);
  return p ? p->get() : nullptr;
}

bool Value::truthy() const {
  struct Visitor {
    bool operator()(std::nullptr_t) const { return false; }
    bool operator()(bool v) const { return v; }
    bool operator()(std::int64_t v) const { return v != 0; }
    bool operator()(double v) const { return v != 0.0; }
    bool operator()(const std::string& v) const { return !v.empty(); }
    bool operator()(const std::shared_ptr<Array>& v) const { return !v->empty(); }
    bool operator()(const std::shared_ptr<Object>& v) const { return !v->empty(); }
  };
  return std::visit(Visitor{}, value_);
}

Array& Value::array() {
  if (is_null()) value_ = std::make_shared<Array>();
  auto* p = std::get_if<std::shared_ptr<Array>>(&value_);
  if (p == nullptr) throw std::logic_error("Value: not an array");
  return **p;
}

Object& Value::object() {
  if (is_null()) value_ = std::make_shared<Object>();
  auto* p = std::get_if<std::shared_ptr<Object>>(&value_);
  if (p == nullptr) throw std::logic_error("Value: not an object");
  return **p;
}

Value& Value::operator[](std::string_view key) {
  return object()[std::string(key)];
}

const Value* Value::find(std::string_view key) const {
  const Object* obj = as_object();
  if (obj == nullptr) return nullptr;
  auto it = obj->find(key);
  return it == obj->end() ? nullptr : &it->second;
}

namespace {

/// Follows "[N][M]..." array-index suffixes; nullptr past the end or on
/// malformed brackets.
const Value* follow_indices(const Value* cur, std::string_view rest) {
  while (!rest.empty()) {
    if (rest.front() != '[') return nullptr;
    auto close = rest.find(']');
    if (close == std::string_view::npos || close == 1) return nullptr;
    std::size_t index = 0;
    for (char c : rest.substr(1, close - 1)) {
      if (c < '0' || c > '9') return nullptr;
      index = index * 10 + static_cast<std::size_t>(c - '0');
    }
    const Array* arr = cur->as_array();
    if (arr == nullptr || index >= arr->size()) return nullptr;
    cur = &(*arr)[index];
    rest.remove_prefix(close + 1);
  }
  return cur;
}

}  // namespace

const Value* Value::find_path(std::string_view dotted) const {
  const Value* cur = this;
  while (!dotted.empty()) {
    auto dot = dotted.find('.');
    std::string_view key = dotted.substr(0, dot);
    // A segment may carry array-index suffixes: "interfaces[2]".
    auto bracket = key.find('[');
    if (bracket == std::string_view::npos) {
      cur = cur->find(key);
    } else {
      cur = cur->find(key.substr(0, bracket));
      if (cur != nullptr) cur = follow_indices(cur, key.substr(bracket));
    }
    if (cur == nullptr) return nullptr;
    if (dot == std::string_view::npos) break;
    dotted.remove_prefix(dot + 1);
  }
  return cur;
}

void Value::set_path(std::string_view dotted, Value v) {
  Value* cur = this;
  while (true) {
    auto dot = dotted.find('.');
    if (dot == std::string_view::npos) {
      (*cur)[dotted] = std::move(v);
      return;
    }
    cur = &(*cur)[dotted.substr(0, dot)];
    dotted.remove_prefix(dot + 1);
  }
}

namespace {

std::string format_double(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", v);
    return buf;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

void escape_json_to(std::string& out, std::string_view s) {
  out += '"';
  append_json_escaped(out, s);
  out += '"';
}

}  // namespace

std::string Value::to_display() const {
  struct Visitor {
    const Value& self;
    std::string operator()(std::nullptr_t) const { return ""; }
    std::string operator()(bool v) const { return v ? "true" : "false"; }
    std::string operator()(std::int64_t v) const { return std::to_string(v); }
    std::string operator()(double v) const {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g", v);
      return buf;
    }
    std::string operator()(const std::string& v) const { return v; }
    std::string operator()(const std::shared_ptr<Array>&) const {
      return self.to_json();
    }
    std::string operator()(const std::shared_ptr<Object>&) const {
      return self.to_json();
    }
  };
  return std::visit(Visitor{*this}, value_);
}

void Value::json_to(std::string& out, bool pretty, int depth) const {
  auto indent = [&out, pretty](int d) {
    if (pretty) {
      out += '\n';
      out.append(static_cast<std::size_t>(d) * 2, ' ');
    }
  };
  struct Visitor {
    std::string& out;
    bool pretty;
    int depth;
    const Value& self;
    decltype(indent)& ind;
    void operator()(std::nullptr_t) const { out += "null"; }
    void operator()(bool v) const { out += v ? "true" : "false"; }
    void operator()(std::int64_t v) const { out += std::to_string(v); }
    void operator()(double v) const { out += format_double(v); }
    void operator()(const std::string& v) const { escape_json_to(out, v); }
    void operator()(const std::shared_ptr<Array>& v) const {
      out += '[';
      bool follower = false;
      for (const auto& item : *v) {
        if (follower) out += pretty ? "," : ", ";
        follower = true;
        ind(depth + 1);
        item.json_to(out, pretty, depth + 1);
      }
      if (follower) ind(depth);
      out += ']';
    }
    void operator()(const std::shared_ptr<Object>& v) const {
      out += '{';
      bool follower = false;
      for (const auto& [key, item] : *v) {
        if (follower) out += pretty ? "," : ", ";
        follower = true;
        ind(depth + 1);
        escape_json_to(out, key);
        out += ": ";
        item.json_to(out, pretty, depth + 1);
      }
      if (follower) ind(depth);
      out += '}';
    }
  };
  std::visit(Visitor{out, pretty, depth, *this, indent}, value_);
}

std::string Value::to_json(bool pretty) const {
  std::string out;
  json_to(out, pretty, 0);
  return out;
}

bool operator==(const Value& a, const Value& b) {
  if (a.value_.index() != b.value_.index()) {
    auto da = a.as_double();
    auto db = b.as_double();
    return da && db && *da == *db;
  }
  if (const auto* arr = std::get_if<std::shared_ptr<Array>>(&a.value_)) {
    return **arr == **std::get_if<std::shared_ptr<Array>>(&b.value_);
  }
  if (const auto* obj = std::get_if<std::shared_ptr<Object>>(&a.value_)) {
    return **obj == **std::get_if<std::shared_ptr<Object>>(&b.value_);
  }
  return a.value_ == b.value_;
}

// --- JSON parsing ---------------------------------------------------------

namespace {

class JsonCursor {
 public:
  explicit JsonCursor(std::string_view text) : text_(text) {}

  Value parse_value() {
    skip_ws();
    if (eof()) fail("unexpected end of input");
    char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Value(parse_string());
    if (c == 't' || c == 'f') return parse_bool();
    if (c == 'n') {
      expect_word("null");
      return Value(nullptr);
    }
    return parse_number();
  }

  void finish() {
    skip_ws();
    if (!eof()) fail("trailing characters");
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON parse error at offset " + std::to_string(pos_) +
                             ": " + why);
  }
  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }
  char next() { return text_[pos_++]; }
  void skip_ws() {
    while (!eof()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\n' && c != '\t' && c != '\r') break;
      ++pos_;
    }
  }
  void expect_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) fail("expected " + std::string(word));
    pos_ += word.size();
  }

  Value parse_bool() {
    if (peek() == 't') {
      expect_word("true");
      return Value(true);
    }
    expect_word("false");
    return Value(false);
  }

  std::string parse_string() {
    if (next() != '"') fail("expected string");
    std::string out;
    while (true) {
      // Bulk-copy the run up to the next quote or escape; most strings in
      // our artifacts contain neither, so this is a single substr assign.
      std::size_t stop = text_.find_first_of("\"\\", pos_);
      if (stop == std::string_view::npos) fail("unterminated string");
      out.append(text_, pos_, stop - pos_);
      pos_ = stop;
      char c = next();
      if (c == '"') return out;
      if (eof()) fail("unterminated escape");
      char e = next();
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          auto hex = text_.substr(pos_, 4);
          auto [p, ec] = std::from_chars(hex.data(), hex.data() + 4, code, 16);
          if (ec != std::errc{} || p != hex.data() + 4) fail("bad \\u escape");
          pos_ += 4;
          // Encode as UTF-8 (BMP only; surrogate pairs unsupported).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    std::size_t start = pos_;
    if (!eof() && (peek() == '-' || peek() == '+')) ++pos_;
    bool is_double = false;
    while (!eof()) {
      char c = peek();
      if (std::isdigit(static_cast<unsigned char>(c))) ++pos_;
      else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        // exponent signs only directly after e/E
        if ((c == '-' || c == '+') &&
            !(text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')) {
          break;
        }
        is_double = is_double || c == '.' || c == 'e' || c == 'E';
        ++pos_;
      } else {
        break;
      }
    }
    std::string_view raw = text_.substr(start, pos_ - start);
    if (raw.empty() || raw == "-" || raw == "+") fail("bad number");
    const char* first = raw.data();
    const char* last = raw.data() + raw.size();
    if (raw.front() == '+') ++first;  // from_chars rejects a leading '+'
    if (is_double) {
      double d = 0;
      auto [p, ec] = std::from_chars(first, last, d);
      if (ec != std::errc{} || p != last) fail("bad number '" + std::string(raw) + "'");
      return Value(d);
    }
    std::int64_t i = 0;
    auto [p, ec] = std::from_chars(first, last, i);
    if (ec == std::errc::result_out_of_range && p == last) {
      // JSON puts no bound on integers (unsigned 64-bit seeds, say):
      // beyond int64 the magnitude is kept as a double.
      double d = 0;
      std::from_chars(first, last, d);
      return Value(d);
    }
    if (ec != std::errc{} || p != last) fail("bad number '" + std::string(raw) + "'");
    return Value(i);
  }

  Value parse_array() {
    ++pos_;  // '['
    Array arr;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (eof()) fail("unterminated array");
      char c = next();
      if (c == ']') return Value(std::move(arr));
      if (c != ',') fail("expected ',' in array");
    }
  }

  Value parse_object() {
    ++pos_;  // '{'
    Object obj;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      if (eof() || next() != ':') fail("expected ':'");
      Value val = parse_value();
      obj.insert_or_assign(std::move(key), std::move(val));
      skip_ws();
      if (eof()) fail("unterminated object");
      char c = next();
      if (c == '}') return Value(std::move(obj));
      if (c != ',') fail("expected ',' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse_json(std::string_view text) {
  JsonCursor cursor(text);
  Value v = cursor.parse_value();
  cursor.finish();
  return v;
}

}  // namespace autonet::nidb
