// Every exported JSON document parses: the report, the metrics registry,
// the Chrome trace with telemetry counter tracks, each timeline JSONL line,
// the campaign summary, health summary and repro bundle, the verify hub
// log, the builder's Design and Elaborated documents, the model checker's
// result and campaignd's own encoding. Names carry `"`, `\`, a newline and
// a control character; a gauge is NaN; the SLO budget is +inf.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "builder/builder.hpp"
#include "campaignd/json.hpp"
#include "mc/checker.hpp"
#include "mc/ring_model.hpp"
#include "metrics/registry.hpp"
#include "sim/campaign.hpp"
#include "sim/observe.hpp"
#include "verify/hub.hpp"

namespace mts {
namespace {

namespace json = campaignd::json;

/// A name with every byte class the escaper handles.
const std::string kNasty = std::string("q\"b\\n\nc") + '\x01' + "\t";

void expect_parses(const std::string& doc, const char* what) {
  EXPECT_NO_THROW(json::parse(doc)) << what << ":\n" << doc;
}

TEST(JsonValidity, ReportRegistryTraceAndTimelineParse) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  sim::Simulation sim(3);
  metrics::Registry registry;
  registry.counter(kNasty, kNasty).inc(2);
  registry.gauge(kNasty, "nan_gauge").set(kNaN);
  registry.histogram(kNasty, kNasty, {1.0, 10.0}).observe(4.0);
  registry.histogram(kNasty, kNasty, {}).observe(1e9);  // the +inf bucket
  registry.bind(sim.report());
  sim.report().add(0, sim::Severity::kWarning, kNasty, kNasty);

  sim::TraceSession trace;
  sim::TelemetryConfig tcfg;
  tcfg.interval = 10 * sim::kNanosecond;
  sim::Telemetry telemetry(tcfg);
  sim::Observability obs;
  obs.trace = &trace;
  obs.metrics = &registry;
  obs.telemetry = &telemetry;
  obs.arm(sim);
  telemetry.add_source(kNasty, kNasty, kNasty, [] { return 0.25; });
  telemetry.add_source("nan", "d", "v", [kNaN] { return kNaN; });
  const auto track = trace.track(kNasty);
  const auto stream = trace.stream(kNasty, track, track);
  trace.put_committed(stream, 5, 1);
  trace.sync_crossed(stream, 6);
  trace.stalled_by_stop_in(stream, 7);
  trace.get_observed(stream, 8, 1);
  sim.run_until(100 * sim::kNanosecond);
  sim::Observability::disarm(sim);

  expect_parses(sim.report().to_json(), "report");
  expect_parses(registry.to_json(), "registry");
  expect_parses(metrics::Registry().to_json(), "empty registry");
  const std::string trace_json = trace.to_json();
  EXPECT_NE(trace_json.find("\"ph\": \"C\""), std::string::npos);
  expect_parses(trace_json, "trace");
  const std::string jsonl = telemetry.to_jsonl();
  ASSERT_FALSE(jsonl.empty());
  std::size_t lines = 0;
  for (std::size_t at = 0; at < jsonl.size();) {
    const std::size_t nl = jsonl.find('\n', at);
    ASSERT_NE(nl, std::string::npos) << "unterminated JSONL line";
    expect_parses(jsonl.substr(at, nl - at), "timeline line");
    at = nl + 1;
    ++lines;
  }
  EXPECT_GT(lines, 10u);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(JsonValidity, CampaignHealthAndReproBundleParse) {
  const std::string repro_dir = "json_validity_repro";
  std::filesystem::remove_all(repro_dir);
  sim::CampaignOptions opt;
  opt.workers = 1;
  opt.capture_run_reports = true;
  opt.collect_violations = true;
  opt.repro_dir = repro_dir;
  opt.slo.metric = kNasty;
  opt.slo.budget = std::numeric_limits<double>::infinity();
  sim::Campaign campaign(2, 1, opt);
  campaign.run([](sim::CampaignContext& ctx) {
    ctx.set(kNasty, std::numeric_limits<double>::quiet_NaN());
    ctx.set("rate", std::numeric_limits<double>::infinity());
    ctx.result().artifact = "{\"k\": [1, 2]}";
    ctx.metrics().gauge(kNasty, kNasty).set(
        std::numeric_limits<double>::quiet_NaN());
    if (ctx.spec().index == 1) {
      verify::Violation v;
      v.site = kNasty;
      v.observed = kNasty;
      v.expected = kNasty;
      ctx.monitors()->report(v);
      throw SimulationError(kNasty);
    }
  });
  ASSERT_EQ(campaign.failed(), 1u);
  const std::string repro = slurp(repro_dir + "/run-1.json");
  std::filesystem::remove_all(repro_dir);

  expect_parses(campaign.to_json(true), "campaign");
  const std::string health = campaign.health_json(true);
  EXPECT_NE(health.find("\"budget\": 0"), std::string::npos) << health;
  expect_parses(health, "health");
  EXPECT_NE(repro.find("\"violations\": "), std::string::npos) << repro;
  expect_parses(repro, "repro bundle");
}

TEST(JsonValidity, HubDesignCheckerAndWireDocumentsParse) {
  verify::Hub hub;
  verify::Violation v;
  v.site = kNasty;
  v.txn = 4;
  v.observed = kNasty;
  v.expected = kNasty;
  hub.report(v);
  expect_parses(hub.to_json(), "hub");

  sim::Simulation sim(1);
  builder::Design d(kNasty);
  const builder::DomainId dom = d.domain("clk", {2000, 8000, 0.5, 0});
  const builder::NodeId src =
      d.source("src", builder::Design::sync_out("out", dom, 8), {1.0, 0, 0xFF});
  const builder::NodeId dst =
      d.sink("dst", builder::Design::sync_in("in", dom, 8), {1.0});
  d.connect(src, "out", dst, "in", builder::LinkOptions{}, "link");
  expect_parses(d.to_json(), "design");
  expect_parses(builder::Design("empty").to_json(), "empty design");
  const auto elab = builder::elaborate(sim, d);
  expect_parses(elab->to_json(), "elaborated");

  mc::RingConfig cfg = mc::default_ring(2);
  cfg.name = kNasty;
  cfg.drop_get_guard = true;
  const mc::CheckResult res = mc::check_ring(cfg, {});
  ASSERT_TRUE(res.cex.has_value());
  expect_parses(res.to_json(), "check result");

  json::Value doc = json::Value::object();
  doc.set(kNasty, json::Value(kNasty));
  doc.set("x", json::Value::number_double(0.1));
  const std::string wire = doc.dump();
  EXPECT_EQ(json::parse(wire).dump(), wire);
}

}  // namespace
}  // namespace mts
