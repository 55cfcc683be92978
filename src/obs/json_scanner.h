// Minimal pull-scanner for the repo's fixed-schema JSON documents (device
// specs, cache entries, serve manifests, traces) and the repo's one JSON
// reader. Deliberately not a general JSON library: every consumer knows
// its schema and no DOM is built, which keeps the repo dependency-free. The
// grammar is RFC 8259's; any violation throws std::runtime_error.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace olsq2::obs {

class JsonScanner {
 public:
  /// `context` prefixes error messages ("device json: ...").
  JsonScanner(std::string_view text, std::string context)
      : text_(text), context_(std::move(context)) {}

  [[noreturn]] void fail(const std::string& message) const;

  void skip_space();

  /// Consume `c` (after whitespace) if present.
  bool accept(char c);
  /// Consume `c` or fail.
  void expect(char c);
  /// Next non-space character without consuming (\0 at end of input).
  char peek();

  /// Quoted string. Decodes every RFC 8259 escape, \uXXXX to UTF-8;
  /// rejects raw control characters and any other escape.
  std::string string_value();
  /// Integer in [-10^9, 10^9].
  int int_value();
  /// Number as double, in RFC 8259 number syntax.
  double double_value();
  /// true / false.
  bool bool_value();
  /// Skip any value (scalar, array, or object) - unknown-key tolerance.
  void skip_value();

  /// Consume the next value and return its raw text (for delegating a
  /// nested object to another schema's parser).
  std::string_view raw_value();

  bool at_end();

 private:
  /// Four hex digits of a \u escape.
  std::uint32_t hex4();

  std::string_view text_;
  std::string context_;
  std::size_t pos_ = 0;
};

}  // namespace olsq2::obs
