// Lightweight metrics registry: named counters, gauges and fixed-bucket
// histograms, with JSON snapshot export.
//
// Design constraints (ROADMAP observability item):
//  * no dependencies beyond util;
//  * zero cost when disabled — instrumented components hold instrument
//    pointers resolved once at wiring time (null while detached), so a
//    disabled hot path pays exactly one null check;
//  * instrument references are stable for the registry's lifetime
//    (node-based storage), so callers may cache them.
//
// Threading model: a registry (and every instrument in it) belongs to one
// thread at a time. The parallel campaign runner gives each cell its own
// registry on its worker thread and merge()s the cells into an aggregate
// afterwards; nothing here is locked. Debug builds enforce the contract:
// every mutation lazily binds the instrument to the mutating thread and
// aborts if a second thread mutates it later. Const reads (value(),
// to_json(), merge()'s source) are exempt — they are only safe after the
// owning thread is done writing, which the campaign runner guarantees by
// joining workers before merging.
//
// Naming convention: dotted lowercase paths grouped by subsystem, e.g.
// "bcp.probes_spawned", "alloc.holds_outstanding", "discovery.lookup_hops".
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#ifndef NDEBUG
#include <thread>

#include "util/require.hpp"
#endif

namespace spider::obs {

namespace detail {

/// Debug-build single-writer check: binds to the first mutating thread
/// and aborts when a different thread mutates the same instrument.
/// Compiles to an empty no-op member in release builds.
class DebugThreadOwner {
 public:
#ifndef NDEBUG
  void check_mutation() {
    const std::thread::id self = std::this_thread::get_id();
    if (owner_ == std::thread::id{}) {
      owner_ = self;
      return;
    }
    SPIDER_REQUIRE_MSG(owner_ == self,
                       "metrics instrument mutated from two threads — give "
                       "each worker its own MetricsRegistry and merge()");
  }

 private:
  std::thread::id owner_{};
#else
  void check_mutation() {}
#endif
};

}  // namespace detail

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    owner_.check_mutation();
    value_ += delta;
  }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
  [[no_unique_address]] detail::DebugThreadOwner owner_;
};

/// Point-in-time level (outstanding holds, active sessions, ...).
class Gauge {
 public:
  void set(double v) {
    owner_.check_mutation();
    value_ = v;
  }
  void add(double delta) {
    owner_.check_mutation();
    value_ += delta;
  }
  void sub(double delta) {
    owner_.check_mutation();
    value_ -= delta;
  }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
  [[no_unique_address]] detail::DebugThreadOwner owner_;
};

/// Histogram over fixed, caller-supplied upper bounds (ascending). A
/// sample lands in the first bucket whose bound is >= the sample; values
/// above the last bound land in the implicit overflow bucket, so
/// `counts()` has `bounds().size() + 1` entries.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);

  /// Adds `other`'s samples into this histogram. Requires identical
  /// bounds (the aggregate registry re-creates each histogram with the
  /// source's bounds, so merging per-cell registries always matches).
  void merge(const Histogram& other);

  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / double(count_); }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_{0};  // overflow-only when unbounded
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  [[no_unique_address]] detail::DebugThreadOwner owner_;
};

class MetricsRegistry {
 public:
  /// Finds or creates the named instrument. References stay valid for the
  /// registry's lifetime. A histogram's bounds are fixed by its first
  /// registration; later lookups ignore the argument.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  /// Read-side lookup that never creates the instrument (usable on a
  /// const registry). Returns nullptr when the name was never registered.
  const Counter* find_counter(const std::string& name) const;

  /// Folds `other` into this registry: counters add their totals, gauges
  /// add their levels (disjoint worlds' levels sum), histograms add their
  /// bucket counts (bounds must match), and instruments missing here are
  /// created. Merging per-cell registries in cell order reproduces, byte
  /// for byte, the snapshot a single registry shared by serially executed
  /// cells would have produced.
  void merge(const MetricsRegistry& other);

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Full snapshot as a JSON object:
  ///   {"counters": {name: value, ...},
  ///    "gauges": {name: value, ...},
  ///    "histograms": {name: {"bounds": [...], "counts": [...],
  ///                          "count": n, "sum": s}, ...}}
  std::string to_json() const;

  /// Writes to_json() to `path` (newline-terminated). Returns false on
  /// I/O failure.
  bool write_json(const std::string& path) const;

 private:
  // std::map: stable references, deterministic (sorted) export order.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Handle resolution for instrumented components' set_metrics(): registers
/// the named instrument, or yields null for a detached (null) registry, so
/// one assignment per handle covers both attach and detach. Components
/// register every instrument they publish this way, at attach — exports
/// therefore list an instrument even while it reads zero.
inline Counter* counter_handle(MetricsRegistry* registry,
                               const std::string& name) {
  return registry == nullptr ? nullptr : &registry->counter(name);
}
inline Gauge* gauge_handle(MetricsRegistry* registry, const std::string& name) {
  return registry == nullptr ? nullptr : &registry->gauge(name);
}
inline Histogram* histogram_handle(MetricsRegistry* registry,
                                   const std::string& name,
                                   std::vector<double> bounds) {
  return registry == nullptr ? nullptr
                             : &registry->histogram(name, std::move(bounds));
}

/// One row of a stats struct's counter table: the exported counter name
/// and the struct field it mirrors. A component resolves one handle per
/// row at attach and publishes the whole table in one loop; tests diff the
/// registry against summed stats through the same table.
template <class Stats>
struct CounterField {
  const char* metric;
  std::uint64_t Stats::*field;
};

}  // namespace spider::obs
