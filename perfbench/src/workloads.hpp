// The benchmark's workloads. Each builds its world from the seed, then
// advances in whole units (a round of requests, a virtual second, a churn
// tick) so the same seed always replays the same work; only how many
// units fit in the measured seconds depends on the machine.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "workload/scenario.hpp"

namespace perfbench {

/// A violated correctness gate. The run prints no result and exits non-zero.
struct GateFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Cumulative deterministic work counters, in a fixed order. Two runs of
/// one seed that executed the same units must produce identical values.
using Counters = std::vector<std::pair<std::string, double>>;

/// Per-compose samples of the measured loop, cleared when it starts.
struct LoopRecord {
  std::vector<double> compose_ms;        ///< wall time per BcpEngine::compose
  std::vector<double> virtual_setup_ms;  ///< successful composes only
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the world (the timed set-up).
  virtual void build(std::uint64_t seed, std::size_t build_jobs) = 0;
  /// Units every build runs before counters are compared across builds.
  virtual std::size_t prefix_units() const = 0;
  /// Untimed warm-up after the build (e.g. filling a session population).
  virtual void prepare() {}
  /// Advances one unit of work.
  virtual void step() = 0;
  /// Drains and quiesces, then checks the end-of-run gates.
  virtual void finish() = 0;
  /// Cumulative work counters since the build.
  virtual Counters counters() const = 0;
  /// The world, for its build-phase timings.
  virtual const spider::workload::Scenario& scenario() const = 0;

  LoopRecord& record() { return record_; }

 protected:
  LoopRecord record_;
};

/// "compose_scale", "serve_steady" or "churn_recovery"; null otherwise.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
