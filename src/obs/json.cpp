#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "runtime/config.hpp"

namespace tsr::obs {

JsonValue& JsonValue::operator[](const std::string& key) {
  if (kind_ != Kind::Object) *this = object();
  for (auto& [k, v] : members_) {
    if (k == key) return v;
  }
  members_.emplace_back(key, JsonValue());
  return members_.back().second;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::push_back(JsonValue v) {
  if (kind_ != Kind::Array) *this = array();
  items_.push_back(std::move(v));
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

namespace {

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
  // Keep a numeric type marker so 1.0 round-trips as a double, not an int.
  if (out.find_first_of(".eE", out.size() - std::strlen(buf)) == std::string::npos) {
    out += ".0";
  }
}

void append_newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::Null:
      out += "null";
      return;
    case Kind::Bool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::Int:
      out += std::to_string(int_);
      return;
    case Kind::Double:
      append_double(out, double_);
      return;
    case Kind::String:
      append_json_string(out, string_);
      return;
    case Kind::Array: {
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i != 0) out += ',';
        append_newline_indent(out, indent, depth + 1);
        items_[i].dump_to(out, indent, depth + 1);
      }
      if (!items_.empty()) append_newline_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Kind::Object: {
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) out += ',';
        append_newline_indent(out, indent, depth + 1);
        append_json_string(out, members_[i].first);
        out += indent < 0 ? ":" : ": ";
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      if (!members_.empty()) append_newline_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Parser — recursive descent over the RFC 8259 grammar.
// ---------------------------------------------------------------------------

namespace {

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& what) {
    if (error.empty()) {
      error = what + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                                 text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') return parse_string_value(out);
    if (c == 't' || c == 'f') return parse_bool(out);
    if (c == 'n') return parse_null(out);
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number(out);
    return fail("unexpected character");
  }

  bool parse_literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (text.compare(pos, n, lit) != 0) return fail("bad literal");
    pos += n;
    return true;
  }

  bool parse_null(JsonValue& out) {
    out = JsonValue();
    return parse_literal("null");
  }

  bool parse_bool(JsonValue& out) {
    if (text[pos] == 't') {
      out = JsonValue(true);
      return parse_literal("true");
    }
    out = JsonValue(false);
    return parse_literal("false");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    bool integral = true;
    if (pos < text.size() && text[pos] == '.') {
      integral = false;
      ++pos;
      while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      integral = false;
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    }
    const std::string token = text.substr(start, pos - start);
    if (token.empty() || token == "-") return fail("bad number");
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        out = JsonValue(static_cast<std::int64_t>(v));
        return true;
      }
    }
    out = JsonValue(std::strtod(token.c_str(), nullptr));
    return true;
  }

  bool parse_string_raw(std::string& s) {
    if (!consume('"')) return false;
    s.clear();
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return fail("raw control character in string");
      if (c == '\\') {
        ++pos;
        if (pos >= text.size()) return fail("dangling escape");
        const char e = text[pos++];
        switch (e) {
          case '"': s += '"'; break;
          case '\\': s += '\\'; break;
          case '/': s += '/'; break;
          case 'b': s += '\b'; break;
          case 'f': s += '\f'; break;
          case 'n': s += '\n'; break;
          case 'r': s += '\r'; break;
          case 't': s += '\t'; break;
          case 'u': {
            if (pos + 4 > text.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            // UTF-8 encode the BMP code point (surrogates kept verbatim is
            // not needed for our exporters' ASCII output).
            if (code < 0x80) {
              s += static_cast<char>(code);
            } else if (code < 0x800) {
              s += static_cast<char>(0xC0 | (code >> 6));
              s += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              s += static_cast<char>(0xE0 | (code >> 12));
              s += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              s += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return fail("bad escape");
        }
      } else {
        s += c;
        ++pos;
      }
    }
    return fail("unterminated string");
  }

  bool parse_string_value(JsonValue& out) {
    std::string s;
    if (!parse_string_raw(s)) return false;
    out = JsonValue(std::move(s));
    return true;
  }

  bool parse_array(JsonValue& out) {
    if (!consume('[')) return false;
    out = JsonValue::array();
    skip_ws();
    if (pos < text.size() && text[pos] == ']') {
      ++pos;
      return true;
    }
    while (true) {
      JsonValue item;
      if (!parse_value(item)) return false;
      out.push_back(std::move(item));
      skip_ws();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      return consume(']');
    }
  }

  bool parse_object(JsonValue& out) {
    if (!consume('{')) return false;
    out = JsonValue::object();
    skip_ws();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string_raw(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      JsonValue v;
      if (!parse_value(v)) return false;
      out[key] = std::move(v);
      skip_ws();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      return consume('}');
    }
  }
};

}  // namespace

JsonValue json_parse(const std::string& text, std::string* error) {
  Parser p{text, 0, {}};
  JsonValue v;
  if (!p.parse_value(v)) {
    if (error != nullptr) *error = p.error;
    return JsonValue();
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (error != nullptr) {
      *error = "trailing characters at offset " + std::to_string(p.pos);
    }
    return JsonValue();
  }
  if (error != nullptr) error->clear();
  return v;
}

bool write_json_file(const std::string& path, const JsonValue& value,
                     int indent) {
  std::ofstream out(path);
  if (!out) return false;
  out << value.dump(indent) << '\n';
  return static_cast<bool>(out);
}

JsonlScan scan_jsonl(std::string_view data,
                     const std::function<void(JsonValue)>& on_line) {
  JsonlScan res;
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = data.find('\n', start);
    if (nl == std::string_view::npos) break;  // incomplete trailing line
    const std::string line(data.substr(start, nl - start));
    if (!line.empty()) {
      std::string err;
      JsonValue v = json_parse(line, &err);
      if (!err.empty()) {
        if (nl + 1 == data.size()) {
          res.status = JsonlScan::Status::TornTail;
        } else {
          res.status = JsonlScan::Status::Corrupt;
          res.error = err;
        }
        return res;
      }
      on_line(std::move(v));
    }
    start = nl + 1;
    res.consumed = start;
  }
  return res;
}

std::string artifact_path(const std::string& filename) {
  const std::string& dir = run_config().artifact_dir;
  if (dir.empty()) return filename;
  if (!filename.empty() && filename.front() == '/') return filename;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best-effort; open() reports
  std::string p(dir);
  if (p.back() != '/') p += '/';
  return p + filename;
}

}  // namespace tsr::obs
