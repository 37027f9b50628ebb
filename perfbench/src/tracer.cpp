#include "tracer.hpp"

#include <cstdio>
#include <cstring>

namespace perfbench {

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

std::int32_t Tracer::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  span.start_us = now_us();
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_us = now_us();
  open_.pop_back();
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const char* dot = std::strchr(s.name, '.');
    const int layer_len =
        dot == nullptr ? int(std::strlen(s.name)) : int(dot - s.name);
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"span\": %zu, \"parent\": %d, "
                 "\"request\": %llu}}",
                 i == 0 ? "" : ",\n", s.name, layer_len, s.name, s.start_us,
                 s.end_us - s.start_us, i, int(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
