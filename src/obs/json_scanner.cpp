#include "obs/json_scanner.h"

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>

namespace olsq2::obs {

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

}  // namespace

void JsonScanner::fail(const std::string& message) const {
  throw std::runtime_error(context_ + ": " + message + " at offset " +
                           std::to_string(pos_));
}

void JsonScanner::skip_space() {
  while (pos_ < text_.size() &&
         std::isspace(static_cast<unsigned char>(text_[pos_]))) {
    pos_++;
  }
}

bool JsonScanner::accept(char c) {
  skip_space();
  if (pos_ < text_.size() && text_[pos_] == c) {
    pos_++;
    return true;
  }
  return false;
}

void JsonScanner::expect(char c) {
  if (!accept(c)) fail(std::string("expected '") + c + "'");
}

char JsonScanner::peek() {
  skip_space();
  return pos_ < text_.size() ? text_[pos_] : '\0';
}

std::uint32_t JsonScanner::hex4() {
  if (text_.size() - pos_ < 4) fail("truncated \\u escape");
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    const char h = text_[pos_++];
    value <<= 4;
    if (is_digit(h)) {
      value |= static_cast<std::uint32_t>(h - '0');
    } else if (h >= 'a' && h <= 'f') {
      value |= static_cast<std::uint32_t>(h - 'a' + 10);
    } else if (h >= 'A' && h <= 'F') {
      value |= static_cast<std::uint32_t>(h - 'A' + 10);
    } else {
      fail("bad \\u escape");
    }
  }
  return value;
}

std::string JsonScanner::string_value() {
  expect('"');
  std::string out;
  while (true) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return out;
    if (static_cast<unsigned char>(c) < 0x20) {
      fail("unescaped control character in string");
    }
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    switch (text_[pos_++]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        std::uint32_t cp = hex4();
        // A high surrogate followed by an escaped low one is one code point.
        if (cp >= 0xD800 && cp < 0xDC00 && text_.substr(pos_, 2) == "\\u") {
          const std::size_t mark = pos_;
          pos_ += 2;
          const std::uint32_t low = hex4();
          if (low >= 0xDC00 && low < 0xE000) {
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else {
            pos_ = mark;
          }
        }
        append_utf8(out, cp);
        break;
      }
      default:
        pos_--;
        fail("bad escape character");
    }
  }
}

int JsonScanner::int_value() {
  skip_space();
  bool negative = false;
  if (pos_ < text_.size() && text_[pos_] == '-') {
    negative = true;
    pos_++;
  }
  if (pos_ >= text_.size() || !is_digit(text_[pos_])) {
    fail("expected integer");
  }
  long value = 0;
  while (pos_ < text_.size() && is_digit(text_[pos_])) {
    value = value * 10 + (text_[pos_++] - '0');
    if (value > 1000000000L) fail("integer out of range");
  }
  return static_cast<int>(negative ? -value : value);
}

double JsonScanner::double_value() {
  skip_space();
  const std::size_t start = pos_;
  // RFC 8259 number: -?digits(.digits)?([eE][+-]?digits)?
  const auto digits = [&] {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && is_digit(text_[pos_])) pos_++;
    return pos_ > from;
  };
  if (pos_ < text_.size() && text_[pos_] == '-') pos_++;
  if (!digits()) fail("expected number");
  if (pos_ < text_.size() && text_[pos_] == '.') {
    pos_++;
    if (!digits()) fail("bad fraction");
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    pos_++;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      pos_++;
    }
    if (!digits()) fail("bad exponent");
  }
  return std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                     nullptr);
}

bool JsonScanner::bool_value() {
  skip_space();
  if (text_.substr(pos_, 4) == "true") {
    pos_ += 4;
    return true;
  }
  if (text_.substr(pos_, 5) == "false") {
    pos_ += 5;
    return false;
  }
  fail("expected true/false");
}

void JsonScanner::skip_value() {
  const char c = peek();
  if (c == '"') {
    string_value();
  } else if (c == '{') {
    expect('{');
    if (!accept('}')) {
      do {
        string_value();
        expect(':');
        skip_value();
      } while (accept(','));
      expect('}');
    }
  } else if (c == '[') {
    expect('[');
    if (!accept(']')) {
      do {
        skip_value();
      } while (accept(','));
      expect(']');
    }
  } else if (c == 't' || c == 'f') {
    bool_value();
  } else if (text_.substr(pos_, 4) == "null") {
    pos_ += 4;
  } else {
    double_value();
  }
}

std::string_view JsonScanner::raw_value() {
  skip_space();
  const std::size_t start = pos_;
  skip_value();
  return text_.substr(start, pos_ - start);
}

bool JsonScanner::at_end() {
  skip_space();
  return pos_ >= text_.size();
}

}  // namespace olsq2::obs
