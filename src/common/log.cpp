#include "common/log.h"

#include <cstdio>
#include <iomanip>

#include "common/sim_time.h"
#include "common/units.h"

namespace netqos {
namespace {

LogLevel g_level = LogLevel::kWarn;
Log::Sink g_sink;              // empty => stderr
Log::TimeSource g_time_source;  // empty => no time prefix

}  // namespace

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

LogLevel Log::level() { return g_level; }
void Log::set_level(LogLevel level) { g_level = level; }
void Log::set_sink(Sink sink) { g_sink = std::move(sink); }
void Log::set_time_source(TimeSource source) {
  g_time_source = std::move(source);
}

void Log::write(LogLevel level, const char* component,
                const std::string& message) {
  // The NETQOS_LOG* macros already filtered on the level; no re-check.
  std::string line;
  if (g_time_source) {
    line += "[";
    line += format_time(g_time_source());
    line += "] ";
  }
  if (component != nullptr) {
    line += "[";
    line += component;
    line += "] ";
  }
  line += message;
  if (g_sink) {
    g_sink(level, line);
  } else {
    std::fprintf(stderr, "[%s] %s\n", log_level_name(level), line.c_str());
  }
}

std::string format_time(SimTime t) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(3) << to_seconds(t) << "s";
  return out.str();
}

std::string format_bandwidth(BitsPerSecond bps) {
  std::ostringstream out;
  auto emit = [&out](double v, const char* suffix) {
    if (v == static_cast<std::uint64_t>(v)) {
      out << static_cast<std::uint64_t>(v) << suffix;
    } else {
      out << std::setprecision(4) << v << suffix;
    }
  };
  if (bps >= kGbps) {
    emit(static_cast<double>(bps) / static_cast<double>(kGbps), "Gbps");
  } else if (bps >= kMbps) {
    emit(static_cast<double>(bps) / static_cast<double>(kMbps), "Mbps");
  } else if (bps >= kKbps) {
    emit(static_cast<double>(bps) / static_cast<double>(kKbps), "Kbps");
  } else {
    out << bps << "bps";
  }
  return out.str();
}

}  // namespace netqos
