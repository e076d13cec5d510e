#include "src/common/env.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace totoro {

const char* EnvString(const char* name) {
  const char* value = std::getenv(name);
  return (value == nullptr || *value == '\0') ? nullptr : value;
}

std::optional<long> ParseInt64(const char* text, long min_value) {
  if (text == nullptr || std::isspace(static_cast<unsigned char>(*text)) != 0) {
    return std::nullopt;  // strtol would skip leading space.
  }
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || parsed < min_value) {
    return std::nullopt;
  }
  return parsed;
}

long EnvInt64(const char* name, long fallback, long min_value) {
  const char* value = EnvString(name);
  if (value == nullptr) {
    return fallback;
  }
  return ParseInt64(value, min_value).value_or(fallback);
}

size_t EnvThreadCount(const char* name, size_t fallback) {
  return static_cast<size_t>(EnvInt64(name, static_cast<long>(fallback), 1));
}

}  // namespace totoro
