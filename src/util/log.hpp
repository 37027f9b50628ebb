// Minimal leveled logger.
//
// The simulator is silent by default (benches print their own tables);
// raise the level to kDebug to trace protocol decisions.  Thread-safe at
// line granularity so parallel campaign workers can share it.
#pragma once

#include <cstdarg>
#include <string>

namespace spider {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

namespace log {

/// Global threshold; messages below it are dropped.
void set_level(LogLevel level);
LogLevel level();

void write(LogLevel level, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace log

#define SPIDER_LOG_DEBUG(...) \
  ::spider::log::write(::spider::LogLevel::kDebug, __VA_ARGS__)
#define SPIDER_LOG_INFO(...) \
  ::spider::log::write(::spider::LogLevel::kInfo, __VA_ARGS__)
#define SPIDER_LOG_WARN(...) \
  ::spider::log::write(::spider::LogLevel::kWarn, __VA_ARGS__)
#define SPIDER_LOG_ERROR(...) \
  ::spider::log::write(::spider::LogLevel::kError, __VA_ARGS__)

}  // namespace spider
