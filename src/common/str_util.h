#ifndef CLOUDDB_COMMON_STR_UTIL_H_
#define CLOUDDB_COMMON_STR_UTIL_H_

#include <string>
#include <string_view>

namespace clouddb {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// ASCII lower-casing (locale-independent).
std::string ToLower(std::string_view s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

}  // namespace clouddb

#endif  // CLOUDDB_COMMON_STR_UTIL_H_
