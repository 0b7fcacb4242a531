#ifndef KPJ_UTIL_STRING_UTIL_H_
#define KPJ_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace kpj {

/// Splits `text` on any run of whitespace; no empty tokens are produced.
std::vector<std::string_view> SplitWhitespace(std::string_view text);

/// Splits on a single delimiter character; empty tokens are preserved.
std::vector<std::string_view> SplitChar(std::string_view text, char delim);

/// Strips leading/trailing whitespace.
std::string_view Trim(std::string_view text);

/// Parses a base-10 signed integer; nullopt on any malformed input.
std::optional<int64_t> ParseInt(std::string_view text);

/// Parses a base-10 double; nullopt on any malformed input.
std::optional<double> ParseDouble(std::string_view text);

/// Formats `value` with thousands separators ("1,234,567") for tables.
std::string FormatWithCommas(uint64_t value);

/// Appends `text` to `out` as a double-quoted JSON string literal with all
/// required escapes (quotes, backslash, control characters). The one JSON
/// string escaper: JsonEscape and api::JsonWriter both call it.
void AppendJsonEscaped(std::string_view text, std::string* out);

/// AppendJsonEscaped into a fresh string.
std::string JsonEscape(std::string_view text);

}  // namespace kpj

#endif  // KPJ_UTIL_STRING_UTIL_H_
