// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps every call it makes into a layer's public API in
// timed("<layer>.<operation>", fn). With tracing off that is one branch
// around the call; with tracing on it records a span (name, start, end,
// parent span, request id). Spans stay in memory and are written once, at
// exit, as Chrome trace-event JSON (opens offline in Perfetto or
// chrome://tracing). Per-layer self times are computed from that file by
// perfbench/stats.py.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< "<layer>.<operation>"; static storage
  double start_us = 0.0;  ///< since the tracer's origin
  double end_us = 0.0;
  std::int32_t parent = -1;   ///< index of the enclosing span, -1 at the root
  std::uint64_t request = 0;  ///< request the span served, 0 for none
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  std::uint64_t request() const { return request_; }
  void set_request(std::uint64_t id) { request_ = id; }

  /// Opens a span under the innermost open one; returns its index.
  std::int32_t open(const char* name);
  /// Closes the span `index` (must be the innermost open span).
  void close(std::int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as Chrome trace-event JSON; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_ = false;
  std::uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
};

/// The process-wide tracer every timed() call records into.
Tracer& tracer();

/// Closes its span on scope exit, so a span ends even if the call throws.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : index_(tracer().open(name)) {}
  ~ScopedSpan() { tracer().close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t index_;
};

/// Runs fn(), recording it as span `name` when tracing is on.
template <class F>
decltype(auto) timed(const char* name, F&& fn) {
  if (!tracer().enabled()) return fn();
  ScopedSpan span(name);
  return fn();
}

/// Attributes spans opened in this scope to request `id`.
class RequestScope {
 public:
  explicit RequestScope(std::uint64_t id) : saved_(tracer().request()) {
    tracer().set_request(id);
  }
  ~RequestScope() { tracer().set_request(saved_); }
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  std::uint64_t saved_;
};

}  // namespace perfbench
