#include "service/request_spec.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>

#include "service/qos.hpp"

namespace spider::service {
namespace {

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

std::string fail(std::string* error, int line, const std::string& what) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line) + ": " + what;
  }
  return what;
}

/// Splits "a -> b -> c" (or "a ~ b") on the given arrow token.
std::vector<std::string> split_on(const std::string& text,
                                  const std::string& token) {
  std::vector<std::string> parts;
  std::size_t pos = 0;
  for (;;) {
    const auto next = text.find(token, pos);
    if (next == std::string::npos) {
      parts.push_back(trim(text.substr(pos)));
      return parts;
    }
    parts.push_back(trim(text.substr(pos, next - pos)));
    pos = next + token.size();
  }
}

/// One finite number and nothing after it: "nan", "inf" and values that
/// overflow a double are rejected.
bool parse_number(const std::string& text, double* out) {
  char extra = 0;
  return std::sscanf(text.c_str(), "%lg %c", out, &extra) == 1 &&
         std::isfinite(*out);
}

/// A quality level: a whole number that fits the request's uint32 field.
bool parse_level(const std::string& text, std::uint32_t* out) {
  double value = 0.0;
  if (!parse_number(text, &value) || value < 0.0 ||
      value > double(UINT32_MAX) || value != std::floor(value)) {
    return false;
  }
  *out = std::uint32_t(value);
  return true;
}

}  // namespace

std::optional<ParsedRequest> parse_request_spec(const std::string& text,
                                                FunctionCatalog& catalog,
                                                std::string* error) {
  ParsedRequest out;
  // Builder state: nodes by name (interned lazily, one node per name).
  std::vector<std::string> node_names;
  std::vector<std::pair<std::string, std::string>> edges;
  std::vector<std::pair<std::string, std::string>> commutes;
  double delay = -1.0, loss = 0.0, bandwidth = 0.0, failure = 1.0;
  std::uint32_t source_level = 0, dest_level = 0;
  bool have_delay = false;

  auto node_index = [&](const std::string& name) -> int {
    for (std::size_t i = 0; i < node_names.size(); ++i) {
      if (node_names[i] == name) return int(i);
    }
    node_names.push_back(name);
    return int(node_names.size()) - 1;
  };

  std::istringstream stream(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(stream, raw)) {
    ++line_no;
    std::string line = raw;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;

    const auto colon = line.find(':');
    if (colon == std::string::npos) {
      fail(error, line_no, "expected 'key: value'");
      return std::nullopt;
    }
    const std::string key = trim(line.substr(0, colon));
    const std::string value = trim(line.substr(colon + 1));
    if (value.empty()) {
      fail(error, line_no, "empty value for '" + key + "'");
      return std::nullopt;
    }

    if (key == "edges") {
      const auto chain = split_on(value, "->");
      if (chain.size() < 2) {
        fail(error, line_no, "edge chain needs at least two functions");
        return std::nullopt;
      }
      for (const std::string& name : chain) {
        if (name.empty()) {
          fail(error, line_no, "empty function name in edge chain");
          return std::nullopt;
        }
      }
      for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
        if (chain[i] == chain[i + 1]) {
          fail(error, line_no, "self edge on '" + chain[i] + "'");
          return std::nullopt;
        }
        node_index(chain[i]);
        node_index(chain[i + 1]);
        edges.emplace_back(chain[i], chain[i + 1]);
      }
    } else if (key == "commute") {
      const auto pair = split_on(value, "~");
      if (pair.size() != 2 || pair[0].empty() || pair[1].empty()) {
        fail(error, line_no, "commute expects 'a ~ b'");
        return std::nullopt;
      }
      commutes.emplace_back(pair[0], pair[1]);
    } else if (key == "delay") {
      if (!parse_number(value, &delay) || delay <= 0.0) {
        fail(error, line_no, "delay must be a positive number (ms)");
        return std::nullopt;
      }
      have_delay = true;
    } else if (key == "loss") {
      if (!parse_number(value, &loss) || loss < 0.0 || loss >= 1.0) {
        fail(error, line_no, "loss must be in [0, 1)");
        return std::nullopt;
      }
    } else if (key == "bandwidth") {
      if (!parse_number(value, &bandwidth) || bandwidth < 0.0) {
        fail(error, line_no, "bandwidth must be >= 0 (kbps)");
        return std::nullopt;
      }
    } else if (key == "failure") {
      if (!parse_number(value, &failure) || failure <= 0.0 || failure > 1.0) {
        fail(error, line_no, "failure must be in (0, 1]");
        return std::nullopt;
      }
    } else if (key == "source-level") {
      if (!parse_level(value, &source_level)) {
        fail(error, line_no,
             "source-level must be a whole number in [0, 4294967295]");
        return std::nullopt;
      }
    } else if (key == "dest-level") {
      if (!parse_level(value, &dest_level)) {
        fail(error, line_no,
             "dest-level must be a whole number in [0, 4294967295]");
        return std::nullopt;
      }
    } else {
      fail(error, line_no, "unknown key '" + key + "'");
      return std::nullopt;
    }
  }

  if (node_names.empty()) {
    fail(error, line_no, "no edges declared");
    return std::nullopt;
  }
  if (!have_delay) {
    fail(error, line_no, "missing required 'delay' bound");
    return std::nullopt;
  }

  // Resolve commutation names against declared nodes.
  auto find_node = [&](const std::string& name) -> int {
    for (std::size_t i = 0; i < node_names.size(); ++i) {
      if (node_names[i] == name) return int(i);
    }
    return -1;
  };

  FunctionGraph graph;
  for (const std::string& name : node_names) {
    graph.add_function(catalog.intern(name));
  }
  for (const auto& [u, v] : edges) {
    graph.add_dependency(FnNode(find_node(u)), FnNode(find_node(v)));
  }
  for (const auto& [u, v] : commutes) {
    const int iu = find_node(u), iv = find_node(v);
    if (iu < 0 || iv < 0) {
      fail(error, line_no,
           "commute references undeclared function '" + (iu < 0 ? u : v) + "'");
      return std::nullopt;
    }
    graph.add_commutation(FnNode(iu), FnNode(iv));
  }
  if (!graph.is_dag()) {
    fail(error, line_no, "dependency edges form a cycle");
    return std::nullopt;
  }

  out.request.graph = std::move(graph);
  out.request.qos_req = Qos::delay_loss(delay, loss_to_additive(loss));
  out.request.bandwidth_kbps = bandwidth;
  out.request.max_failure_prob = failure;
  out.request.source_level = source_level;
  out.request.min_dest_level = dest_level;
  out.function_names = std::move(node_names);
  return out;
}

}  // namespace spider::service
