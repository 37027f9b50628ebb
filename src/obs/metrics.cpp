#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "util/json.hpp"
#include "util/require.hpp"

namespace spider::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  SPIDER_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()));
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double x) {
  owner_.check_mutation();
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++counts_[std::size_t(it - bounds_.begin())];
  ++count_;
  sum_ += x;
}

void Histogram::merge(const Histogram& other) {
  owner_.check_mutation();
  SPIDER_REQUIRE_MSG(bounds_ == other.bounds_,
                     "Histogram::merge requires identical bucket bounds");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram(std::move(bounds))).first;
  }
  return it->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    counter(name).inc(c.value());
  }
  for (const auto& [name, g] : other.gauges_) {
    gauge(name).add(g.value());
  }
  for (const auto& [name, h] : other.histograms_) {
    histogram(name, h.bounds()).merge(h);
  }
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

std::string MetricsRegistry::to_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : counters_) {
    w.key(name);
    w.value(c.value());
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, g] : gauges_) {
    w.key(name);
    w.value(g.value());
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name);
    w.begin_object();
    w.key("bounds");
    w.begin_array();
    for (double b : h.bounds()) w.value(b);
    w.end_array();
    w.key("counts");
    w.begin_array();
    for (std::uint64_t c : h.counts()) w.value(c);
    w.end_array();
    w.key("count");
    w.value(h.count());
    w.key("sum");
    w.value(h.sum());
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

bool MetricsRegistry::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = to_json();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size() &&
                  std::fputc('\n', f) != EOF;
  // The close flushes the buffered body: a full disk shows up here.
  return std::fclose(f) == 0 && ok;
}

}  // namespace spider::obs
