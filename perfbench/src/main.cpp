// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--build-jobs <n>] [--trace-out <file>]
//
// Untraced (--trace 0): builds three worlds from the seed, world 0 twice
// (set-up time is the median of the four builds). Each build runs a fixed
// prefix of units; both builds of world 0 must end the prefix with
// identical work counters. Each world is then measured for a third of
// --seconds, and its end-of-run gates are checked.
//
// Traced (--trace 1): builds world 0 twice and advances both in lockstep
// for --seconds, unit by unit, the second with every layer call recorded
// as a span. The work counters of both must match (tracing may not change
// behaviour); the ratio of their wall times is the tracing overhead. The
// spans go to --trace-out as Chrome trace JSON.
//
// Prints one raw JSON object on stdout; run.py turns it into metrics.
// Exit codes: 0 ok, 2 bad usage or refused build, 3 a correctness gate
// failed.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "tracer.hpp"
#include "util/hash.hpp"
#include "util/procstat.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Counters;
using perfbench::GateFailure;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

// Distinct worlds per untraced run: pooling them keeps one unlucky world
// from moving a run's figures.
constexpr std::size_t kWorlds = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::size_t build_jobs = 1;
  std::string trace_out = "perfbench-trace.json";
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool parse(int argc, char** argv, Options* o) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(key, "--workload") == 0) {
      o->workload = val;
    } else if (std::strcmp(key, "--seed") == 0) {
      o->seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (std::strcmp(key, "--seconds") == 0) {
      o->seconds = std::strtod(val, &end);
      have_seconds = end != val && *end == '\0' && o->seconds > 0.0;
    } else if (std::strcmp(key, "--trace") == 0) {
      have_trace = std::strcmp(val, "0") == 0 || std::strcmp(val, "1") == 0;
      o->trace = std::strcmp(val, "1") == 0;
    } else if (std::strcmp(key, "--build-jobs") == 0) {
      const long jobs = std::strtol(val, &end, 10);
      if (end == val || *end != '\0' || jobs < 1) return false;
      o->build_jobs = std::size_t(jobs);
    } else if (std::strcmp(key, "--trace-out") == 0) {
      o->trace_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace &&
         perfbench::make_workload(o->workload) != nullptr;
}

/// Why this binary must not be used for timing, or null if it may.
const char* refused_build() {
#if !defined(__OPTIMIZE__)
  return "built without optimization (Debug)";
#elif !defined(NDEBUG)
  return "built with assertions enabled (Debug-like)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "built with a sanitizer";
#else
  return nullptr;
#endif
#else
  return nullptr;
#endif
}

/// Minimal JSON emitter: numbers keep all their digits.
class Json {
 public:
  void open(const char* key = nullptr) {
    prefix(key);
    out_ += '{';
    first_ = true;
  }
  void close() {
    out_ += '}';
    first_ = false;
  }
  void num(const char* key, double v) {
    prefix(key);
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
  }
  void str(const char* key, const std::string& v) {
    prefix(key);
    out_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += '"';
  }
  void nums(const char* key, const std::vector<double>& vs) {
    prefix(key);
    out_ += '[';
    for (std::size_t i = 0; i < vs.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%s%.17g", i == 0 ? "" : ",", vs[i]);
      out_ += buf;
    }
    out_ += ']';
  }
  void counters(const char* key, const Counters& cs) {
    open(key);
    for (const auto& [name, v] : cs) num(name.c_str(), v);
    close();
  }
  const std::string& text() const { return out_; }

 private:
  void prefix(const char* key) {
    if (!first_) out_ += ", ";
    first_ = false;
    if (key != nullptr) {
      out_ += '"';
      out_ += key;
      out_ += "\": ";
    }
  }
  std::string out_;
  bool first_ = true;
};

Counters plus(Counters a, const Counters& b, double sign = 1.0) {
  if (a.empty()) a = Counters(b.size(), {"", 0.0});
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i].first = b[i].first;
    a[i].second += sign * b[i].second;
  }
  return a;
}

double counter(const Counters& cs, const std::string& name) {
  for (const auto& [n, v] : cs) {
    if (n == name) return v;
  }
  throw GateFailure("no counter " + name);
}

void require_same(const Counters& a, const Counters& b, const char* what) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].second != b[i].second) {
      throw GateFailure(std::string(what) + ": " + a[i].first + " " +
                        std::to_string(a[i].second) + " vs " +
                        std::to_string(b[i].second));
    }
  }
}

/// Builds world `world` of the seed and runs the fixed prefix; returns
/// the build's wall seconds.
double build_and_warm(const Options& o, std::size_t world,
                      std::unique_ptr<Workload>& w) {
  w.reset();  // one world in memory at a time
  w = perfbench::make_workload(o.workload);
  const auto t0 = Clock::now();
  w->build(spider::util::hash_values(o.seed, world), o.build_jobs);
  const double setup_s = seconds_since(t0);
  w->prepare();
  for (std::size_t u = 0; u < w->prefix_units(); ++u) w->step();
  return setup_s;
}

/// Runs whole units until `seconds` have passed (at least one unit).
/// Returns the units run.
std::size_t run_loop(Workload& w, double seconds, double* wall_s) {
  w.record() = {};
  const auto t0 = Clock::now();
  std::size_t done = 0;
  do {
    w.step();
    ++done;
  } while (seconds_since(t0) < seconds);
  *wall_s = seconds_since(t0);
  return done;
}

/// The measured loops of every world, pooled.
struct Pooled {
  perfbench::LoopRecord record;
  std::size_t units = 0;
  double wall_s = 0.0;
  Counters delta;

  void add(const perfbench::LoopRecord& r, std::size_t u, double wall,
           const Counters& before, const Counters& after) {
    record.compose_ms.insert(record.compose_ms.end(), r.compose_ms.begin(),
                             r.compose_ms.end());
    record.virtual_setup_ms.insert(record.virtual_setup_ms.end(),
                                   r.virtual_setup_ms.begin(),
                                   r.virtual_setup_ms.end());
    units += u;
    wall_s += wall;
    delta = plus(plus(delta, after), before, -1.0);
  }
};

void emit_build(Json& j, const Workload& w) {
  const spider::workload::Scenario& s = w.scenario();
  j.open("build");
  j.num("topology_ms", s.build_timings.topology_ms);
  j.num("overlay_ms", s.build_timings.overlay_ms);
  j.num("dht_ms", s.build_timings.dht_ms);
  j.num("deploy_ms", s.build_timings.deploy_ms);
  j.close();
}

void emit_loop(Json& j, const Pooled& p) {
  j.open("loop");
  j.num("units", double(p.units));
  j.num("wall_s", p.wall_s);
  j.nums("compose_ms", p.record.compose_ms);
  j.nums("virtual_setup_ms", p.record.virtual_setup_ms);
  j.counters("counters", p.delta);
  j.close();
}

/// kWorlds worlds of the seed, each measured for an equal share of the
/// seconds; world 0 is built twice and must replay identically.
void run_untraced(const Options& o, Json& j) {
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  Counters prefix;
  Pooled pooled;
  for (std::size_t world = 0; world < kWorlds; ++world) {
    if (world == 0) {
      setup_s.push_back(build_and_warm(o, world, w));
      prefix = w->counters();
    }
    setup_s.push_back(build_and_warm(o, world, w));
    if (world == 0) {
      require_same(prefix, w->counters(),
                   "determinism: counters differ between builds of one seed");
    } else {
      prefix = plus(prefix, w->counters());
    }
    const Counters before = w->counters();
    double wall_s = 0.0;
    const std::size_t units = run_loop(*w, o.seconds / kWorlds, &wall_s);
    pooled.add(w->record(), units, wall_s, before, w->counters());
    w->finish();
  }
  j.nums("setup_s", setup_s);
  j.counters("prefix_counters", prefix);
  emit_loop(j, pooled);
}

/// Two builds of world 0 advance in lockstep, one untraced and one traced,
/// alternating unit by unit so host drift hits both alike.
void run_traced(const Options& o, Json& j) {
  std::unique_ptr<Workload> plain, traced;
  build_and_warm(o, 0, plain);
  build_and_warm(o, 0, traced);
  const Counters start = plain->counters();
  require_same(start, traced->counters(),
               "determinism: counters differ between builds of one seed");
  plain->record() = {};
  traced->record() = {};
  double plain_s = 0.0, traced_s = 0.0;
  std::size_t units = 0;
  const auto t0 = Clock::now();
  do {
    auto t = Clock::now();
    plain->step();
    plain_s += seconds_since(t);
    perfbench::tracer().set_enabled(true);
    t = Clock::now();
    traced->step();
    traced_s += seconds_since(t);
    perfbench::tracer().set_enabled(false);
    ++units;
  } while (seconds_since(t0) < o.seconds);
  const Counters end = traced->counters();
  require_same(plain->counters(), end, "tracing changed the work done");
  Pooled pooled;
  pooled.add(traced->record(), units, traced_s, start, end);
  plain->finish();
  traced->finish();
  if (!perfbench::tracer().write_chrome_trace(o.trace_out)) {
    throw GateFailure("cannot write " + o.trace_out);
  }

  emit_build(j, *traced);
  j.num("router_trees_after_build", counter(start, "net.router_trees"));
  emit_loop(j, pooled);
  j.num("untraced_wall_s", plain_s);
  j.str("trace_file", o.trace_out);
  j.num("spans", double(perfbench::tracer().spans().size()));
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload compose_scale|serve_steady|"
                 "churn_recovery --seed N --seconds S --trace 0|1 "
                 "[--build-jobs N] [--trace-out FILE]\n");
    return 2;
  }
  if (const char* why = refused_build()) {
    std::fprintf(stderr, "perfbench: refusing to time a binary %s\n", why);
    return 2;
  }
  Json j;
  j.open();
  j.str("workload", o.workload);
  j.num("seed", double(o.seed));
  j.open("host");
  j.str("compiler", PERFBENCH_COMPILER);
  j.str("build_type", PERFBENCH_BUILD_TYPE);
  j.num("build_jobs", double(o.build_jobs));
  j.close();
  try {
    if (o.trace) {
      run_traced(o, j);
    } else {
      run_untraced(o, j);
    }
  } catch (const GateFailure& e) {
    std::fprintf(stderr, "perfbench: FAIL — %s\n", e.what());
    return 3;
  }
  j.num("peak_rss_bytes", double(spider::util::vm_hwm_bytes()));
  j.close();
  std::printf("%s\n", j.text().c_str());
  return 0;
}
