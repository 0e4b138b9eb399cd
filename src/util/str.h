// Small string helpers shared by trace IO, flags, and table rendering.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rrs {

// Splits on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);

// Strict integer / double parsing: entire (trimmed) string must parse,
// otherwise nullopt.
std::optional<int64_t> ParseInt(std::string_view s);
std::optional<uint64_t> ParseUint(std::string_view s);
std::optional<double> ParseDouble(std::string_view s);

// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Fixed-precision double formatting (avoids locale-dependent streams).
std::string FormatDouble(double v, int precision = 3);

}  // namespace rrs
