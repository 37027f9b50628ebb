// Tests for the composite-request specification parser.
#include <gtest/gtest.h>

#include "service/request_spec.hpp"

namespace spider::service {
namespace {

constexpr const char* kFullSpec = R"(
# a collaborative analysis experiment
edges: ingest -> denoise -> report
edges: ingest -> calibrate -> report
commute: denoise ~ calibrate
delay: 2000
loss: 0.05
bandwidth: 300
failure: 0.2
source-level: 2
dest-level: 1
)";

TEST(RequestSpec, ParsesFullSpec) {
  FunctionCatalog catalog;
  std::string error;
  auto parsed = parse_request_spec(kFullSpec, catalog, &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  const auto& req = parsed->request;
  EXPECT_EQ(req.graph.node_count(), 4u);
  EXPECT_EQ(req.graph.dependencies().size(), 4u);
  EXPECT_EQ(req.graph.commutations().size(), 1u);
  EXPECT_TRUE(req.graph.is_dag());
  EXPECT_FALSE(req.graph.is_linear());
  EXPECT_EQ(parsed->function_names,
            (std::vector<std::string>{"ingest", "denoise", "report",
                                      "calibrate"}));
  // QoS and resource bounds.
  EXPECT_DOUBLE_EQ(req.qos_req.delay_ms(), 2000.0);
  EXPECT_NEAR(additive_to_loss(req.qos_req.loss_log()), 0.05, 1e-12);
  EXPECT_DOUBLE_EQ(req.bandwidth_kbps, 300.0);
  EXPECT_DOUBLE_EQ(req.max_failure_prob, 0.2);
  EXPECT_EQ(req.source_level, 2u);
  EXPECT_EQ(req.min_dest_level, 1u);
  // Functions interned into the catalog.
  EXPECT_NE(catalog.find("denoise"), kInvalidFunction);
}

TEST(RequestSpec, ChainExpandsPairwise) {
  FunctionCatalog catalog;
  auto parsed = parse_request_spec("edges: a -> b -> c -> d\ndelay: 100\n",
                                   catalog);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->request.graph.node_count(), 4u);
  EXPECT_EQ(parsed->request.graph.dependencies().size(), 3u);
  EXPECT_TRUE(parsed->request.graph.is_linear());
}

TEST(RequestSpec, DefaultsWhenOptionalKeysOmitted) {
  FunctionCatalog catalog;
  auto parsed = parse_request_spec("edges: x -> y\ndelay: 50\n", catalog);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->request.bandwidth_kbps, 0.0);
  EXPECT_DOUBLE_EQ(parsed->request.max_failure_prob, 1.0);
  EXPECT_EQ(parsed->request.source_level, 0u);
  EXPECT_EQ(parsed->request.min_dest_level, 0u);
}

TEST(RequestSpec, ReuseOfFunctionNameSharesNode) {
  FunctionCatalog catalog;
  auto parsed = parse_request_spec(
      "edges: a -> b\nedges: a -> c\nedges: b -> d\nedges: c -> d\n"
      "delay: 10\n",
      catalog);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->request.graph.node_count(), 4u);
  EXPECT_EQ(parsed->request.graph.sources().size(), 1u);
  EXPECT_EQ(parsed->request.graph.sinks().size(), 1u);
}

TEST(RequestSpec, LevelsAcceptWholeNumbersUpToUint32Max) {
  FunctionCatalog catalog;
  auto parsed = parse_request_spec(
      "edges: x -> y\ndelay: 50\nsource-level: 4294967295\n"
      "dest-level: 3.0\n",
      catalog);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->request.source_level, 4294967295u);
  EXPECT_EQ(parsed->request.min_dest_level, 3u);
}

struct BadCase {
  const char* name;
  const char* spec;
  const char* expect_substring;
};

// Names each case in test listings; gtest's default would dump the raw
// pointer bytes, which change with every run under ASLR.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.name; }

class RequestSpecErrors : public ::testing::TestWithParam<BadCase> {};

TEST_P(RequestSpecErrors, RejectsWithMessage) {
  FunctionCatalog catalog;
  std::string error;
  auto parsed = parse_request_spec(GetParam().spec, catalog, &error);
  EXPECT_FALSE(parsed.has_value());
  EXPECT_NE(error.find(GetParam().expect_substring), std::string::npos)
      << "error was: " << error;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RequestSpecErrors,
    ::testing::Values(
        BadCase{"NoEdges", "delay: 100\n", "no edges"},
        BadCase{"MissingDelay", "edges: a -> b\n",
                "missing required 'delay'"},
        BadCase{"SingleNodeEdge", "edges: a\ndelay: 5\n", "at least two"},
        BadCase{"SelfEdge", "edges: a -> a\ndelay: 5\n", "self edge"},
        BadCase{"NegativeDelay", "edges: a -> b\ndelay: -3\n", "positive"},
        BadCase{"LossOutOfRange", "edges: a -> b\ndelay: 5\nloss: 1.5\n",
                "[0, 1)"},
        BadCase{"UnknownKey", "edges: a -> b\ndelay: 5\nbogus: 1\n",
                "unknown key"},
        BadCase{"ConditionalIsUnknownKey",
                "edges: a -> b\ndelay: 5\nconditional: a\n", "unknown key"},
        BadCase{"CommuteUndeclared",
                "edges: a -> b\ndelay: 5\ncommute: a ~ z\n", "undeclared"},
        BadCase{"Cycle", "edges: a -> b\nedges: b -> a\ndelay: 5\n",
                "cycle"},
        BadCase{"NotKeyValue", "just some text\n", "key: value"},
        BadCase{"CommuteMissingTilde",
                "edges: a -> b\ndelay: 5\ncommute: a\n", "a ~ b"},
        BadCase{"LossNan", "edges: a -> b\ndelay: 5\nloss: nan\n",
                "[0, 1)"},
        BadCase{"DelayNan", "edges: a -> b\ndelay: nan\n", "positive"},
        BadCase{"DelayInf", "edges: a -> b\ndelay: inf\n", "positive"},
        BadCase{"FailureNan", "edges: a -> b\ndelay: 5\nfailure: nan\n",
                "(0, 1]"},
        BadCase{"BandwidthNan",
                "edges: a -> b\ndelay: 5\nbandwidth: nan\n", ">= 0 (kbps)"},
        BadCase{"SourceLevelOverflow",
                "edges: a -> b\ndelay: 5\nsource-level: 1e20\n",
                "whole number"},
        BadCase{"DestLevelFractional",
                "edges: a -> b\ndelay: 5\ndest-level: 2.7\n",
                "whole number"}));

}  // namespace
}  // namespace spider::service
