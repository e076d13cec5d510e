#include "src/common/env.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/common/thread_annotations.h"

namespace totoro {
namespace {

// (variable, value) pairs EnvInt64 has already warned about.
struct RejectedValues {
  Mutex mu;
  std::set<std::pair<std::string, std::string>> seen TOTORO_GUARDED_BY(mu);
};

}  // namespace

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
  if (std::optional<long> parsed = ParseInt64(value, min_value)) {
    return *parsed;
  }
  // Warn once per (variable, value): per-thread readers such as the profiler would
  // otherwise repeat the line for every thread.
  static RejectedValues rejected;
  bool first = false;
  {
    MutexLock lock(&rejected.mu);
    first = rejected.seen.emplace(name, value).second;
  }
  if (first) {
    TLOG_WARN("%s=\"%s\" is not an integer >= %ld; using %ld", name, value, min_value,
              fallback);
  }
  return fallback;
}

size_t EnvThreadCount(const char* name, size_t fallback) {
  return static_cast<size_t>(EnvInt64(name, static_cast<long>(fallback), 1));
}

}  // namespace totoro
