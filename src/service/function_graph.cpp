#include "service/function_graph.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/require.hpp"

namespace spider::service {

FunctionId FunctionCatalog::intern(const std::string& name) {
  const FunctionId existing = find(name);
  if (existing != kInvalidFunction) return existing;
  names_.push_back(name);
  return FunctionId(names_.size() - 1);
}

FunctionId FunctionCatalog::find(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return FunctionId(i);
  }
  return kInvalidFunction;
}

const std::string& FunctionCatalog::name(FunctionId id) const {
  SPIDER_REQUIRE(id < names_.size());
  return names_[id];
}

FnNode FunctionGraph::add_function(FunctionId function) {
  SPIDER_REQUIRE(function != kInvalidFunction);
  functions_.push_back(function);
  return FnNode(functions_.size() - 1);
}

void FunctionGraph::add_dependency(FnNode u, FnNode v) {
  SPIDER_REQUIRE(u < functions_.size() && v < functions_.size());
  SPIDER_REQUIRE_MSG(u != v, "self dependency");
  deps_.emplace_back(u, v);
}

void FunctionGraph::add_commutation(FnNode u, FnNode v) {
  SPIDER_REQUIRE(u < functions_.size() && v < functions_.size());
  SPIDER_REQUIRE_MSG(u != v, "self commutation");
  comms_.emplace_back(u, v);
}

std::vector<FnNode> FunctionGraph::successors(FnNode n) const {
  std::vector<FnNode> out;
  for (const auto& [u, v] : deps_) {
    if (u == n) out.push_back(v);
  }
  return out;
}

std::vector<FnNode> FunctionGraph::predecessors(FnNode n) const {
  std::vector<FnNode> out;
  for (const auto& [u, v] : deps_) {
    if (v == n) out.push_back(u);
  }
  return out;
}

std::vector<FnNode> FunctionGraph::sources() const {
  std::vector<bool> has_pred(node_count(), false);
  for (const auto& [u, v] : deps_) {
    (void)u;
    has_pred[v] = true;
  }
  std::vector<FnNode> out;
  for (FnNode n = 0; n < node_count(); ++n) {
    if (!has_pred[n]) out.push_back(n);
  }
  return out;
}

std::vector<FnNode> FunctionGraph::sinks() const {
  std::vector<bool> has_succ(node_count(), false);
  for (const auto& [u, v] : deps_) {
    (void)v;
    has_succ[u] = true;
  }
  std::vector<FnNode> out;
  for (FnNode n = 0; n < node_count(); ++n) {
    if (!has_succ[n]) out.push_back(n);
  }
  return out;
}

bool FunctionGraph::is_dag() const {
  // Kahn's algorithm: a DAG iff all nodes drain.
  std::vector<std::uint32_t> in_deg(node_count(), 0);
  for (const auto& [u, v] : deps_) {
    (void)u;
    ++in_deg[v];
  }
  std::vector<FnNode> stack;
  for (FnNode n = 0; n < node_count(); ++n) {
    if (in_deg[n] == 0) stack.push_back(n);
  }
  std::size_t drained = 0;
  while (!stack.empty()) {
    const FnNode n = stack.back();
    stack.pop_back();
    ++drained;
    for (const auto& [u, v] : deps_) {
      if (u == n && --in_deg[v] == 0) stack.push_back(v);
    }
  }
  return drained == node_count();
}

std::vector<FnNode> FunctionGraph::topological_order() const {
  std::vector<std::uint32_t> in_deg(node_count(), 0);
  for (const auto& [u, v] : deps_) {
    (void)u;
    ++in_deg[v];
  }
  // Min-index-first drain keeps the order deterministic.
  std::vector<FnNode> ready;
  for (FnNode n = 0; n < node_count(); ++n) {
    if (in_deg[n] == 0) ready.push_back(n);
  }
  std::vector<FnNode> order;
  order.reserve(node_count());
  while (!ready.empty()) {
    std::sort(ready.begin(), ready.end(), std::greater<>());
    const FnNode n = ready.back();
    ready.pop_back();
    order.push_back(n);
    for (const auto& [u, v] : deps_) {
      if (u == n && --in_deg[v] == 0) ready.push_back(v);
    }
  }
  SPIDER_REQUIRE_MSG(order.size() == node_count(), "graph has a cycle");
  return order;
}

bool FunctionGraph::is_linear() const {
  std::vector<std::uint32_t> in_deg(node_count(), 0), out_deg(node_count(), 0);
  for (const auto& [u, v] : deps_) {
    ++out_deg[u];
    ++in_deg[v];
  }
  for (FnNode n = 0; n < node_count(); ++n) {
    if (in_deg[n] > 1 || out_deg[n] > 1) return false;
  }
  return true;
}

namespace {

/// Signature of a pattern up to node relabeling by topological order, so
/// that exchanging two nodes carrying the SAME function dedupes to one
/// pattern (the composition is functionally identical).
std::string canonical_pattern_signature(const FunctionGraph& g) {
  const std::vector<FnNode> order = g.topological_order();
  std::vector<FnNode> rank(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) rank[order[i]] = FnNode(i);

  std::string sig;
  for (FnNode n : order) {
    sig += std::to_string(g.function(n));
    sig += ',';
  }
  sig += '|';
  std::vector<std::pair<FnNode, FnNode>> edges;
  for (const auto& [u, v] : g.dependencies()) {
    edges.emplace_back(rank[u], rank[v]);
  }
  std::sort(edges.begin(), edges.end());
  for (const auto& [u, v] : edges) {
    sig += std::to_string(u);
    sig += '>';
    sig += std::to_string(v);
    sig += ',';
  }
  return sig;
}

}  // namespace

std::vector<FunctionGraph> FunctionGraph::patterns(
    std::size_t max_patterns) const {
  SPIDER_REQUIRE(is_dag());
  std::vector<FunctionGraph> out;
  std::unordered_set<std::string> seen;

  // A commutation exchange is a transposition of two node positions: edges
  // are relabelled through the swap while each node keeps its function.
  // Enumerate all subsets of commutation links, applied left to right.
  const std::size_t subsets = std::size_t(1)
                              << std::min<std::size_t>(comms_.size(), 16);
  for (std::size_t mask = 0; mask < subsets && out.size() < max_patterns;
       ++mask) {
    // Build the node permutation for this subset.
    std::vector<FnNode> perm(node_count());
    for (FnNode n = 0; n < node_count(); ++n) perm[n] = n;
    for (std::size_t i = 0; i < comms_.size(); ++i) {
      if ((mask >> i) & 1) std::swap(perm[comms_[i].first], perm[comms_[i].second]);
    }
    FunctionGraph g;
    g.functions_ = functions_;
    g.comms_ = comms_;
    g.deps_.reserve(deps_.size());
    for (const auto& [u, v] : deps_) g.deps_.emplace_back(perm[u], perm[v]);
    if (!g.is_dag()) continue;  // defensive; transpositions preserve DAG-ness
    if (seen.insert(canonical_pattern_signature(g)).second) {
      out.push_back(std::move(g));
    }
  }
  SPIDER_REQUIRE(!out.empty());
  return out;
}

std::vector<std::vector<FnNode>> FunctionGraph::branches() const {
  SPIDER_REQUIRE(is_dag());
  std::vector<std::vector<FnNode>> out;
  std::vector<FnNode> path;

  // Iterative DFS enumerating all source->sink paths.
  struct Frame {
    FnNode node;
    std::vector<FnNode> succ;
    std::size_t next = 0;
  };
  for (FnNode source : sources()) {
    std::vector<Frame> stack;
    stack.push_back(Frame{source, successors(source), 0});
    path.assign(1, source);
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.succ.empty()) {
        out.push_back(path);  // sink reached
      }
      if (frame.next >= frame.succ.size()) {
        stack.pop_back();
        path.pop_back();
        continue;
      }
      const FnNode nxt = frame.succ[frame.next++];
      path.push_back(nxt);
      stack.push_back(Frame{nxt, successors(nxt), 0});
    }
  }
  return out;
}

std::string FunctionGraph::signature() const {
  std::vector<std::pair<FnNode, FnNode>> edges = deps_;
  std::sort(edges.begin(), edges.end());
  std::string sig;
  for (FunctionId f : functions_) {
    sig += std::to_string(f);
    sig += ',';
  }
  sig += '|';
  for (const auto& [u, v] : edges) {
    sig += std::to_string(u);
    sig += '>';
    sig += std::to_string(v);
    sig += ',';
  }
  return sig;
}

FunctionGraph make_linear_graph(const std::vector<FunctionId>& functions) {
  SPIDER_REQUIRE(!functions.empty());
  FunctionGraph g;
  for (FunctionId f : functions) g.add_function(f);
  for (std::size_t i = 0; i + 1 < functions.size(); ++i) {
    g.add_dependency(FnNode(i), FnNode(i + 1));
  }
  return g;
}

}  // namespace spider::service
