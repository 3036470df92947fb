#pragma once
// Small string utilities for the assembler and report printers.

#include <string_view>
#include <vector>

namespace gpurf {

/// Strip leading and trailing whitespace.
std::string_view trim(std::string_view s);

/// Split on a delimiter character; empty fields are kept.
std::vector<std::string_view> split(std::string_view s, char delim);

/// Split on runs of whitespace; empty fields are dropped.
std::vector<std::string_view> split_ws(std::string_view s);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

}  // namespace gpurf
