// Customizable video streaming (the paper's §6.2 prototype application).
//
// A user on one PlanetLab-like host streams video to another with
// on-demand transformations: down-scale for a small screen, embed a stock
// ticker, and re-quantify to save bandwidth. SpiderNet composes the three
// functions across the 102-host overlay; the composed service graph is
// then *executed* by the multithreaded streaming runtime (one worker
// thread per component, bounded ADU queues) to deliver real frames.
//
// Build: cmake --build build && ./build/examples/video_streaming
#include <cstdio>

#include "core/bcp.hpp"
#include "runtime/pipeline.hpp"
#include "workload/scenario.hpp"

using namespace spider;

int main() {
  // The paper's testbed: 102 hosts, six multimedia functions, one
  // component per host (~17 replicas per function).
  workload::PlanetLabScenarioConfig config;
  config.seed = 11;
  auto scenario = workload::build_planetlab_scenario(config);
  auto& deployment = *scenario->deployment;
  const auto& catalog = deployment.catalog();

  // The customization the user asked for.
  const std::vector<std::string> wanted = {
      "media/down-scale", "media/stock-ticker", "media/re-quantify"};
  std::vector<service::FunctionId> fns;
  for (const std::string& name : wanted) fns.push_back(catalog.find(name));

  service::CompositeRequest request;
  request.graph = service::make_linear_graph(fns);
  // Scaling and ticker order is exchangeable — let SpiderNet pick.
  request.graph.add_commutation(0, 1);
  request.qos_req = service::Qos::delay_loss(30000.0, 1.0);
  request.bandwidth_kbps = 500.0;
  request.source = 5;
  request.dest = 77;

  core::BcpConfig bcp_config;
  bcp_config.probing_budget = 64;
  bcp_config.probe_timeout_ms = 30000.0;
  bcp_config.objective = core::SelectionObjective::kMinDelay;
  core::BcpEngine bcp(deployment, *scenario->alloc, *scenario->evaluator,
                      scenario->sim, bcp_config);
  core::ComposeResult composed = bcp.compose(request, scenario->rng);
  if (!composed.success) {
    std::printf("composition failed\n");
    return 1;
  }

  std::printf("composed streaming path (end-to-end %0.f ms, %llu candidate "
              "graphs merged):\n", composed.best.qos.delay_ms(),
              (unsigned long long)composed.stats.candidates_merged);
  std::vector<std::string> node_functions;
  for (service::FnNode n = 0; n < composed.best.pattern.node_count(); ++n) {
    const auto& m = composed.best.mapping[n];
    const std::string& fname =
        catalog.name(composed.best.pattern.function(n));
    std::printf("  hop %u: %-22s on host %u\n", n, fname.c_str(), m.host);
    node_functions.push_back(fname);
  }

  // Execute the composed graph with the multithreaded runtime: 150 frames
  // of 320x240 video at 120 fps, with each service link carrying the
  // composed overlay path's transit latency (scaled down 10x so the demo
  // finishes quickly; remove the scale for true WAN pacing).
  runtime::PipelineConfig pipe_config;
  pipe_config.frame_count = 150;
  pipe_config.width = 320;
  pipe_config.height = 240;
  pipe_config.fps = 120.0;
  const auto& deps = composed.best.pattern.dependencies();
  for (const auto& [u, v] : deps) {
    double delay = 0.0;
    for (const auto& hop : composed.best.hops) {
      if (hop.from == u && hop.to == v) delay = hop.path.delay_ms;
    }
    pipe_config.edge_delay_ms.push_back(delay / 10.0);
  }
  for (const auto& hop : composed.best.hops) {
    if (hop.from == service::ServiceLinkHop::kEndpoint) {
      pipe_config.ingress_delay_ms = hop.path.delay_ms / 10.0;
    }
  }
  runtime::StreamingPipeline pipeline(composed.best.pattern, node_functions,
                                      runtime::TransformRegistry::standard(),
                                      pipe_config);
  std::printf("\nstreaming %zu frames (%ux%u @ %.0f fps)...\n",
              pipe_config.frame_count, pipe_config.width, pipe_config.height,
              pipe_config.fps);
  const runtime::PipelineReport report = pipeline.run();

  std::printf("delivered %zu/%zu frames, %.1f fps, mean in-pipeline latency "
              "%.0f us\n", report.frames_out, report.frames_in,
              report.throughput_fps, report.mean_latency_us);
  std::printf("output: %ux%u, quantization step %u\n", report.out_width,
              report.out_height, report.out_quant);
  for (const std::string& a : report.annotations) {
    std::printf("  overlay: %s\n", a.c_str());
  }
  return report.frames_out == report.frames_in ? 0 : 1;
}
