// Golden JSON bytes: FNV-1a hashes of the documents the campaign engine,
// the verify hub and the model checker export, pinned so a change to how
// any of them is rendered must reproduce every byte.
//
//   * the chaos_soak quarantine matrix (failed, quarantined and passing
//     runs with scalars, per-run reports and an SLO that flags breaches):
//     CampaignOutcome::to_json / health_json and a repro bundle;
//   * a bundled-data-faulted async-sync FIFO run that logs violations:
//     verify::Hub::to_json, and the repro bundle that carries them;
//   * a model-checker run on a mutant ring that yields a counterexample:
//     mc::CheckResult::to_json.
//
// The Fig. 14 SoC's report, trace and builder documents are pinned next to
// its timeline in test_timeline_golden.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "bfm/bfm.hpp"
#include "campaignd/json.hpp"
#include "campaignd/workload.hpp"
#include "fifo/async_sync_fifo.hpp"
#include "fifo/async_timing.hpp"
#include "fifo/interface_sides.hpp"
#include "mc/checker.hpp"
#include "mc/ring_model.hpp"
#include "sim/campaign.hpp"
#include "sim/fault.hpp"
#include "sync/clock.hpp"
#include "verify/hub.hpp"

namespace mts {
namespace {

using sim::Time;

constexpr std::uint64_t kMatrixJsonHash = 0x46b400924603464ull;
constexpr std::uint64_t kMatrixHealthHash = 0x5fd0240f640f94a7ull;
constexpr std::uint64_t kMatrixReproHash = 0xb109f0f51ad08008ull;
constexpr std::uint64_t kFaultedHubHash = 0x4c9c80d482fa0e53ull;
constexpr std::uint64_t kFaultedReproHash = 0x33b3863c5ca76c2dull;
constexpr std::uint64_t kCheckResultHash = 0x162fdb39817b6daeull;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(JsonGolden, QuarantineMatrixDocumentsArePinned) {
  const std::string repro_dir = "json_golden_matrix_repro";
  std::filesystem::remove_all(repro_dir);
  sim::CampaignOptions opt;
  opt.workers = 1;
  opt.seed = 7;
  opt.quarantine_after = 2;
  opt.capture_run_reports = true;
  opt.repro_dir = repro_dir;
  opt.slo.percentile = 0.95;
  opt.slo.budget = 1500.0;  // below the soak's latencies: every run breaches
  sim::Campaign campaign(3, 4, opt);
  const std::unique_ptr<campaignd::Workload> wl = campaignd::make_workload(
      "chaos_soak",
      campaignd::json::parse(R"({"cycles":50,"fail_indices":[0,1,5]})"));
  campaign.run([&wl](sim::CampaignContext& ctx) {
    wl->begin_run();
    wl->run(ctx);
  });

  const std::string doc = campaign.to_json(false);
  const std::string health = campaign.health_json(false);
  const std::string repro = slurp(repro_dir + "/run-0.json");
  std::filesystem::remove_all(repro_dir);
  EXPECT_NE(doc.find("\"quarantined_configs\": [0]"), std::string::npos);
  EXPECT_NE(doc.find("\"slo_breaches\""), std::string::npos);
  EXPECT_NE(health.find("\"slo\": "), std::string::npos);
  EXPECT_NE(repro.find("\"scalars\": "), std::string::npos);
  EXPECT_EQ(fnv1a(doc), kMatrixJsonHash) << std::hex << "json 0x" << fnv1a(doc);
  EXPECT_EQ(fnv1a(health), kMatrixHealthHash)
      << std::hex << "health 0x" << fnv1a(health);
  EXPECT_EQ(fnv1a(repro), kMatrixReproHash)
      << std::hex << "repro 0x" << fnv1a(repro);
}

/// Async-sync FIFO whose async put side lags its bundled data past the
/// margin, so the bundled-data monitor logs violations.
void run_bundling_faulted(sim::Simulation& sim, std::uint64_t seed) {
  fifo::FifoConfig cfg;
  cfg.capacity = 4;
  cfg.width = 8;
  const Time gp = 2 * fifo::SyncGetSide::min_period(cfg);
  sync::Clock cg(sim, "cg", {gp, 4 * gp, 0.5, 0});
  fifo::AsyncSyncFifo dut(sim, "dut", cfg, cg.out());
  bfm::Scoreboard sb(sim, "sb");
  bfm::AsyncPutDriver put(sim, "put", dut.put_req(), dut.put_ack(),
                          dut.put_data(), cfg.dm, gp / 2, 0xFF, &sb);
  bfm::SyncGetDriver get(sim, "get", cg.out(), dut.req_get(), cfg.dm,
                         {1.0, 1});
  bfm::GetMonitor gm(sim, cg.out(), dut.valid_get(), dut.data_get(), sb);
  sim::FaultPlan plan(seed);
  plan.inject_bundling(
      "put", sim::BundlingFault{fifo::async_put_data_margin(cfg) +
                                2 * cfg.dm.gate(1)});
  sim.arm_faults(&plan);
  sim.run_until(4 * gp + 40 * gp);
  sim.arm_faults(nullptr);
}

TEST(JsonGolden, FaultedRunViolationDocumentsArePinned) {
  std::string hub_json;
  {
    sim::Simulation sim(0x50AD);
    verify::Hub hub;
    hub.arm(sim);
    run_bundling_faulted(sim, 0x50AD);
    verify::Hub::disarm(sim);
    EXPECT_GT(hub.total(), 0u);
    hub_json = hub.to_json();
  }

  const std::string repro_dir = "json_golden_faulted_repro";
  std::filesystem::remove_all(repro_dir);
  sim::CampaignOptions opt;
  opt.workers = 1;
  opt.seed = 0x50AC;
  opt.collect_violations = true;
  opt.repro_dir = repro_dir;
  sim::Campaign campaign(1, 1, opt);
  campaign.run([](sim::CampaignContext& ctx) {
    run_bundling_faulted(ctx.sim(), ctx.spec().seed);
    ctx.set("faulted", 1.0);
    throw SimulationError("faulted run kept for its bundle");
  });
  const std::string repro = slurp(repro_dir + "/run-0.json");
  std::filesystem::remove_all(repro_dir);
  EXPECT_NE(repro.find("\"violations\": "), std::string::npos);
  EXPECT_EQ(fnv1a(hub_json), kFaultedHubHash)
      << std::hex << "hub 0x" << fnv1a(hub_json);
  EXPECT_EQ(fnv1a(repro), kFaultedReproHash)
      << std::hex << "repro 0x" << fnv1a(repro);
}

TEST(JsonGolden, CounterexampleCheckResultIsPinned) {
  mc::RingConfig cfg = mc::default_ring(4);
  cfg.name = "mutant";
  cfg.drop_get_guard = true;
  const mc::CheckResult res = mc::check_ring(cfg, {});
  ASSERT_TRUE(res.cex.has_value());
  const std::string json = res.to_json();
  EXPECT_EQ(fnv1a(json), kCheckResultHash)
      << std::hex << "check 0x" << fnv1a(json);
}

}  // namespace
}  // namespace mts
