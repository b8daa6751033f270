#include "arfs/support/bench_json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace arfs::support {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

namespace {

/// JSON has no NaN/Inf literals; clamp them to null-adjacent zero rather
/// than emitting an unparsable token.
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "0";
    return;
  }
  std::ostringstream os;
  os.precision(17);
  os << v;
  out += os.str();
}

// --- minimal recursive-descent JSON validator ---

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  int depth = 0;

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }
  [[nodiscard]] bool eof() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return text[pos]; }

  bool literal(const char* word) {
    std::size_t n = 0;
    while (word[n] != '\0') {
      if (pos + n >= text.size() || text[pos + n] != word[n]) return false;
      ++n;
    }
    pos += n;
    return true;
  }

  bool string() {
    if (eof() || peek() != '"') return false;
    ++pos;
    while (!eof()) {
      char c = text[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        if (eof()) return false;
        char e = text[pos++];
        switch (e) {
          case '"':
          case '\\':
          case '/':
          case 'b':
          case 'f':
          case 'n':
          case 'r':
          case 't':
            break;
          case 'u':
            for (int i = 0; i < 4; ++i) {
              if (eof() || !std::isxdigit(
                               static_cast<unsigned char>(text[pos]))) {
                return false;
              }
              ++pos;
            }
            break;
          default:
            return false;
        }
      }
    }
    return false;  // unterminated
  }

  bool number() {
    std::size_t start = pos;
    if (!eof() && peek() == '-') ++pos;
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      return false;
    }
    if (peek() == '0') {
      ++pos;
    } else {
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos;
    }
    if (!eof() && peek() == '.') {
      ++pos;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        return false;
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        return false;
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos;
    }
    return pos > start;
  }

  bool value() {
    if (++depth > 64) return false;  // runaway nesting
    skip_ws();
    if (eof()) return false;
    bool ok = false;
    switch (peek()) {
      case '{':
        ok = object();
        break;
      case '[':
        ok = array();
        break;
      case '"':
        ok = string();
        break;
      case 't':
        ok = literal("true");
        break;
      case 'f':
        ok = literal("false");
        break;
      case 'n':
        ok = literal("null");
        break;
      default:
        ok = number();
    }
    --depth;
    return ok;
  }

  bool object() {
    ++pos;  // '{'
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (eof() || peek() != ':') return false;
      ++pos;
      if (!value()) return false;
      skip_ws();
      if (eof()) return false;
      if (peek() == ',') {
        ++pos;
        continue;
      }
      if (peek() == '}') {
        ++pos;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos;  // '['
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos;
      return true;
    }
    while (true) {
      if (!value()) return false;
      skip_ws();
      if (eof()) return false;
      if (peek() == ',') {
        ++pos;
        continue;
      }
      if (peek() == ']') {
        ++pos;
        return true;
      }
      return false;
    }
  }
};

}  // namespace

void BenchTrajectory::record(const std::string& name, double value,
                             std::string unit) {
  for (BenchEntry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = std::move(unit);
      return;
    }
  }
  entries_.push_back({name, value, std::move(unit)});
}

std::string BenchTrajectory::to_json() const {
  std::string out = "{";
  bool first = true;
  for (const BenchEntry& e : entries_) {
    if (!first) out += ", ";
    first = false;
    append_escaped(out, e.name);
    out += ": {\"value\": ";
    append_number(out, e.value);
    out += ", \"unit\": ";
    append_escaped(out, e.unit);
    out += "}";
  }
  out += "}\n";
  return out;
}

bool BenchTrajectory::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

bool json_valid(const std::string& text) {
  Parser p{text};
  if (!p.value()) return false;
  p.skip_ws();
  return p.eof();
}

}  // namespace arfs::support
