// campaignd chaos harness: crash-isolated workers are killed, wedged, muted
// and disconnected mid-campaign, and the merged artifacts must stay
// byte-identical to the sequential in-process oracle (run_local). Also
// covers graceful shutdown + resume, quarantine, degradation, repro-bundle
// replay through a worker process, and the submit/status/fetch service.
//
// Worker processes are fork/exec'd from the mts_campaignd CLI binary; its
// path is baked in at configure time (MTS_CAMPAIGND_BIN_DEFAULT) and can be
// overridden with the MTS_CAMPAIGND_BIN environment variable. Tests skip
// when the binary is missing (e.g. a library-only build).
#include <gtest/gtest.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaignd/coordinator.hpp"
#include "campaignd/json.hpp"
#include "campaignd/net.hpp"
#include "campaignd/service.hpp"
#include "campaignd/wire.hpp"
#include "campaignd/workload.hpp"
#include "sim/campaign.hpp"

namespace campaignd = mts::campaignd;
namespace json = mts::campaignd::json;
namespace sim = mts::sim;
using campaignd::Coordinator;
using campaignd::CoordinatorOptions;
using campaignd::Event;
using campaignd::JobSpec;

namespace {

std::string worker_bin() {
  if (const char* env = std::getenv("MTS_CAMPAIGND_BIN")) return env;
#ifdef MTS_CAMPAIGND_BIN_DEFAULT
  return MTS_CAMPAIGND_BIN_DEFAULT;
#else
  return std::string();
#endif
}

#define REQUIRE_WORKER_BIN()                                          \
  do {                                                                \
    if (worker_bin().empty() ||                                       \
        ::access(worker_bin().c_str(), X_OK) != 0) {                  \
      GTEST_SKIP() << "mts_campaignd binary unavailable";             \
    }                                                                 \
  } while (false)

/// Thread-safe event sink shared with the coordinator.
struct EventLog {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Event> events;

  void add(const Event& e) {
    std::lock_guard<std::mutex> lock(mu);
    events.push_back(e);
    cv.notify_all();
  }
  std::size_t count(const std::string& kind) {
    std::lock_guard<std::mutex> lock(mu);
    std::size_t n = 0;
    for (const Event& e : events) {
      if (e.kind == kind) ++n;
    }
    return n;
  }
  bool any_detail_contains(const std::string& kind, const std::string& sub) {
    std::lock_guard<std::mutex> lock(mu);
    for (const Event& e : events) {
      if (e.kind == kind && e.detail.find(sub) != std::string::npos) {
        return true;
      }
    }
    return false;
  }
  /// Blocks until `kind` has been seen `n` times (the shutdown tests wait
  /// for mid-campaign states). No timeout: a hang here is a real bug and
  /// the ctest timeout reports it.
  void wait_for(const std::string& kind, std::size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] {
      std::size_t c = 0;
      for (const Event& e : events) {
        if (e.kind == kind) ++c;
      }
      return c >= n;
    });
  }
};

JobSpec small_job(std::size_t configs = 2, std::size_t reps = 3,
                  unsigned cycles = 6) {
  JobSpec job;
  job.workload = "fifo_soak";
  job.params = json::Value::object();
  job.params.set("cycles", json::Value::number_u64(cycles));
  job.configs = configs;
  job.reps = reps;
  job.opt.seed = 20010618;  // DAC 2001
  return job;
}

CoordinatorOptions fast_opts(unsigned workers = 2) {
  CoordinatorOptions opt;
  opt.workers = workers;
  opt.worker_cmd = {worker_bin(), "worker", "--port", "{port}"};
  opt.heartbeat_interval_ms = 25;
  opt.heartbeat_timeout_ms = 500;
  opt.progress_timeout_ms = 30000;
  opt.backoff_initial_ms = 10;
  opt.backoff_max_ms = 50;
  return opt;
}

json::Value one_chaos(const std::string& mode, std::size_t at_run,
                      const std::string& marker) {
  json::Value d = json::Value::object();
  d.set("mode", json::Value(mode));
  d.set("at_run", json::Value::number_size(at_run));
  d.set("marker", json::Value(marker));
  json::Value arr = json::Value::array();
  arr.push(std::move(d));
  return arr;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string temp_name(const std::string& stem) {
  return testing::TempDir() + "mts_campaignd_" + stem + "_" +
         std::to_string(::getpid());
}

/// Asserts the distributed outcome renders byte-identically to the
/// sequential oracle (campaign artifact, health document, coverage).
void expect_identical_to_local(const JobSpec& job,
                               const Coordinator::Outcome& dist) {
  Coordinator::Outcome local;
  campaignd::run_local(job, local);
  EXPECT_EQ(dist.to_json(false), local.to_json(false));
  EXPECT_EQ(dist.health_json(false), local.health_json(false));
  EXPECT_EQ(dist.coverage.bins(), local.coverage.bins());
  ASSERT_EQ(dist.results.size(), local.results.size());
}

}  // namespace

// -- Baseline: worker-count independence ------------------------------------

TEST(CampaigndChaos, DistributedMatchesLocalOracle) {
  REQUIRE_WORKER_BIN();
  const JobSpec job = small_job();
  for (unsigned workers : {1u, 3u}) {
    Coordinator::Outcome out;
    Coordinator coord(job, fast_opts(workers));
    coord.run(out);
    EXPECT_FALSE(out.interrupted);
    expect_identical_to_local(job, out);
  }
}

// -- Chaos: kill -9 a worker mid-unit ---------------------------------------

TEST(CampaigndChaos, WorkerKilledMidUnitIsRedispatched) {
  REQUIRE_WORKER_BIN();
  const std::string marker = temp_name("kill_marker");
  std::remove(marker.c_str());
  const JobSpec job = small_job();

  auto log = std::make_shared<EventLog>();
  CoordinatorOptions opt = fast_opts(2);
  opt.chaos = one_chaos("kill", 2, marker);
  opt.on_event = [log](const Event& e) { log->add(e); };

  Coordinator::Outcome out;
  Coordinator coord(job, opt);
  coord.run(out);

  // The worker died by SIGKILL exactly once, the unit was re-dispatched,
  // and the final artifacts show no trace of the crash.
  EXPECT_TRUE(log->any_detail_contains("worker_lost", "signal:9"));
  EXPECT_GE(log->count("unit_requeued"), 1u);
  EXPECT_EQ(log->count("unit_quarantined"), 0u);
  expect_identical_to_local(job, out);
  std::remove(marker.c_str());
}

// -- Chaos: connection dropped mid-message ----------------------------------

TEST(CampaigndChaos, ConnectionDroppedMidMessageIsRedispatched) {
  REQUIRE_WORKER_BIN();
  const std::string marker = temp_name("drop_marker");
  std::remove(marker.c_str());
  const JobSpec job = small_job();

  auto log = std::make_shared<EventLog>();
  CoordinatorOptions opt = fast_opts(2);
  opt.chaos = one_chaos("drop_connection", 2, marker);
  opt.on_event = [log](const Event& e) { log->add(e); };

  Coordinator::Outcome out;
  Coordinator coord(job, opt);
  coord.run(out);

  // The worker wrote a truncated run_done frame and exited; the partial
  // message must be discarded (never folded) and the run re-executed.
  EXPECT_GE(log->count("worker_lost"), 1u);
  expect_identical_to_local(job, out);
  std::remove(marker.c_str());
}

// -- Chaos: heartbeat stalls ------------------------------------------------

TEST(CampaigndChaos, MutedHeartbeatDetectedByDeadline) {
  REQUIRE_WORKER_BIN();
  const std::string marker = temp_name("mute_marker");
  std::remove(marker.c_str());
  const JobSpec job = small_job();

  auto log = std::make_shared<EventLog>();
  CoordinatorOptions opt = fast_opts(2);
  opt.chaos = one_chaos("mute_heartbeat", 3, marker);
  opt.on_event = [log](const Event& e) { log->add(e); };

  Coordinator::Outcome out;
  Coordinator coord(job, opt);
  coord.run(out);

  EXPECT_TRUE(log->any_detail_contains("worker_lost", "heartbeat-timeout"));
  expect_identical_to_local(job, out);
  std::remove(marker.c_str());
}

TEST(CampaigndChaos, WedgedRunDetectedByProgressDeadline) {
  REQUIRE_WORKER_BIN();
  const std::string marker = temp_name("hang_marker");
  std::remove(marker.c_str());
  const JobSpec job = small_job();

  auto log = std::make_shared<EventLog>();
  CoordinatorOptions opt = fast_opts(2);
  opt.chaos = one_chaos("hang", 3, marker);
  opt.progress_timeout_ms = 700;  // beats keep flowing; the counter freezes
  opt.on_event = [log](const Event& e) { log->add(e); };

  Coordinator::Outcome out;
  Coordinator coord(job, opt);
  coord.run(out);

  EXPECT_TRUE(log->any_detail_contains("worker_lost", "progress-timeout"));
  expect_identical_to_local(job, out);
  std::remove(marker.c_str());
}

// -- Graceful shutdown + resume ---------------------------------------------

TEST(CampaigndChaos, GracefulShutdownCheckpointsAndResumeIsByteIdentical) {
  REQUIRE_WORKER_BIN();
  const std::string marker = temp_name("shutdown_marker");
  const std::string ckpt = temp_name("shutdown_ckpt") + ".json";
  std::remove(marker.c_str());
  std::remove(ckpt.c_str());
  const JobSpec job = small_job();

  auto log = std::make_shared<EventLog>();
  CoordinatorOptions opt = fast_opts(2);
  // Run 4 hangs (first attempt only -- the marker gates it), so the
  // campaign is deterministically still in flight when we shut down.
  opt.chaos = one_chaos("hang", 4, marker);
  opt.checkpoint_path = ckpt;
  opt.checkpoint_every = 1;
  opt.on_event = [log](const Event& e) { log->add(e); };

  Coordinator::Outcome first;
  Coordinator coord(job, opt);
  std::thread runner([&] { coord.run(first); });
  log->wait_for("run_done", 2);
  coord.request_shutdown();
  runner.join();

  EXPECT_TRUE(first.interrupted);
  EXPECT_GE(log->count("checkpoint_written"), 1u);
  std::ifstream in(ckpt);
  ASSERT_TRUE(in.good()) << "final checkpoint missing";

  // Resume: replays nothing (every checkpointed run arrives as a record,
  // not a re-execution) and the merged artifacts are byte-identical.
  auto log2 = std::make_shared<EventLog>();
  CoordinatorOptions ropt = opt;
  ropt.resume = true;
  ropt.on_event = [log2](const Event& e) { log2->add(e); };
  Coordinator::Outcome resumed;
  Coordinator rcoord(job, ropt);
  rcoord.run(resumed);

  EXPECT_FALSE(resumed.interrupted);
  const std::size_t total = job.configs * job.reps;
  EXPECT_EQ(log2->count("run_done"), total - first.results.size());
  expect_identical_to_local(job, resumed);

  std::remove(marker.c_str());
  std::remove(ckpt.c_str());
}

// -- Quarantine: a unit failing identically twice ---------------------------

TEST(CampaigndChaos, UnitFailingIdenticallyTwiceIsQuarantined) {
  REQUIRE_WORKER_BIN();
  const JobSpec job = small_job();

  auto log = std::make_shared<EventLog>();
  CoordinatorOptions opt = fast_opts(2);
  opt.unit_size = 1;
  // No marker: the kill fires on EVERY dispatch of run 2's unit, which is
  // exactly the deterministic-crash signature the quarantine exists for.
  opt.chaos = one_chaos("kill", 2, "");
  opt.unit_retries = 10;  // budget is NOT the trigger here
  opt.on_event = [log](const Event& e) { log->add(e); };

  Coordinator::Outcome out;
  Coordinator coord(job, opt);
  coord.run(out);

  EXPECT_EQ(log->count("unit_quarantined"), 1u);
  ASSERT_EQ(out.results.size(), job.configs * job.reps);
  const sim::RunResult& q = out.results[2];
  EXPECT_FALSE(q.ok);
  EXPECT_EQ(q.classification, "quarantined");
  EXPECT_EQ(q.attempts, 0u);
  EXPECT_NE(q.error.find("signal:9"), std::string::npos) << q.error;
  ASSERT_EQ(out.quarantined_units.size(), 1u);
  // Every other run completed normally.
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    if (i == 2) continue;
    EXPECT_TRUE(out.results[i].ok) << "run " << i;
  }
}

// -- Graceful degradation ---------------------------------------------------

TEST(CampaigndChaos, RetiredSlotDegradesToFewerWorkers) {
  REQUIRE_WORKER_BIN();
  const std::string marker = temp_name("degrade_marker");
  std::remove(marker.c_str());
  const JobSpec job = small_job();

  auto log = std::make_shared<EventLog>();
  CoordinatorOptions opt = fast_opts(2);
  opt.respawn_limit = 0;  // first crash retires the slot
  opt.chaos = one_chaos("kill", 2, marker);
  opt.on_event = [log](const Event& e) { log->add(e); };

  Coordinator::Outcome out;
  Coordinator coord(job, opt);
  coord.run(out);

  EXPECT_GE(log->count("degraded"), 1u);
  expect_identical_to_local(job, out);
  std::remove(marker.c_str());
}

TEST(CampaigndChaos, AllSlotsRetiredFailsAfterCheckpoint) {
  REQUIRE_WORKER_BIN();
  const std::string ckpt = temp_name("retired_ckpt") + ".json";
  std::remove(ckpt.c_str());
  const JobSpec job = small_job();

  CoordinatorOptions opt = fast_opts(1);
  opt.respawn_limit = 0;
  opt.chaos = one_chaos("kill", 0, "");  // every dispatch dies immediately
  opt.checkpoint_path = ckpt;

  Coordinator::Outcome out;
  Coordinator coord(job, opt);
  EXPECT_THROW(coord.run(out), campaignd::CoordinatorError);
  // The failure path still persisted a checkpoint: nothing is lost.
  std::ifstream in(ckpt);
  EXPECT_TRUE(in.good());
  std::remove(ckpt.c_str());
}

// -- One supervision policy across engines ---------------------------------

TEST(CampaigndChaos, QuarantineParityAcrossEngines) {
  REQUIRE_WORKER_BIN();
  JobSpec job;
  job.workload = "chaos_soak";
  job.params = json::parse(R"({"cycles":50,"fail_indices":[0,1,5]})");
  job.configs = 3;
  job.reps = 4;
  job.opt.seed = 7;
  job.opt.quarantine_after = 2;

  // Threads engine, sequential: quarantine is placement-dependent.
  sim::CampaignOptions topt = job.opt;
  topt.workers = 1;
  sim::Campaign threads(job.configs, job.reps, topt);
  const std::unique_ptr<campaignd::Workload> wl =
      campaignd::make_workload(job.workload, job.params);
  threads.run([&wl](sim::CampaignContext& ctx) {
    wl->begin_run();
    wl->run(ctx);
  });

  Coordinator::Outcome local;
  campaignd::run_local(job, local);

  CoordinatorOptions opt = fast_opts(1);
  opt.unit_size = 1;
  Coordinator::Outcome dist;
  Coordinator coord(job, opt);
  coord.run(dist);

  const std::string doc = threads.to_json(false);
  const std::string health = threads.health_json(false);
  EXPECT_EQ(local.to_json(false), doc);
  EXPECT_EQ(dist.to_json(false), doc);
  EXPECT_EQ(local.health_json(false), health);
  EXPECT_EQ(dist.health_json(false), health);
  EXPECT_NE(doc.find("\"quarantined_configs\": [0]"), std::string::npos);
  EXPECT_NE(health.find("\"quarantined_configs\": [0]"), std::string::npos);
  // The documents' bytes are pinned too, not just their equality.
  EXPECT_EQ(fnv1a(doc), 0x3852497ee59f0269ull) << std::hex << "json 0x" << fnv1a(doc);
  EXPECT_EQ(fnv1a(health), 0x9edb7343ce853be3ull)
      << std::hex << "health 0x" << fnv1a(health);
}

TEST(CampaigndOracle, NonFiniteScalarsRenderAlikeInBothEngines) {
  // JSON has no NaN or infinity: both engines must render such a scalar as
  // the same valid number, not "nan"/"inf" from one and 0 from the other.
  class NonFinite : public campaignd::Workload {
   public:
    void run(sim::CampaignContext& ctx) override {
      ctx.set("ratio", std::numeric_limits<double>::quiet_NaN());
      ctx.set("rate", std::numeric_limits<double>::infinity());
      ctx.set("finite", 0.125);
    }
  };
  campaignd::register_workload("nonfinite_scalars", [](const json::Value&) {
    return std::unique_ptr<campaignd::Workload>(new NonFinite());
  });
  JobSpec job;
  job.workload = "nonfinite_scalars";
  job.configs = 2;
  job.reps = 1;
  job.opt.seed = 3;

  sim::CampaignOptions topt = job.opt;
  topt.workers = 1;
  sim::Campaign threads(job.configs, job.reps, topt);
  NonFinite body;
  threads.run(body.body());
  Coordinator::Outcome local;
  campaignd::run_local(job, local);

  const std::string doc = threads.to_json(false);
  EXPECT_EQ(local.to_json(false), doc);
  EXPECT_NO_THROW(json::parse(doc)) << doc;
  EXPECT_NE(doc.find("\"rate\": 0, \"ratio\": 0"), std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"finite\": 0.125"), std::string::npos) << doc;
}

TEST(CampaigndOracle, RunFilterIsValidatedLikeTheCoordinator) {
  JobSpec job = small_job(2, 2);
  job.run_filter = {1, 99};
  Coordinator::Outcome out;
  EXPECT_THROW(campaignd::run_local(job, out), campaignd::CoordinatorError);
}

TEST(CampaigndOracle, DuplicateRunFilterIndexRunsOnce) {
  // A duplicate executing twice would charge config 0 two failures and
  // quarantine run 2.
  JobSpec job = small_job(2, 3);
  job.workload = "chaos_soak";
  job.params.set("fail_indices", json::parse("[1]"));
  job.opt.quarantine_after = 2;
  job.run_filter = {2, 1, 1};
  Coordinator::Outcome out;
  campaignd::run_local(job, out);
  ASSERT_EQ(out.results.size(), 2u);
  EXPECT_EQ(out.results[0].index, 1u);
  EXPECT_FALSE(out.results[0].ok);
  EXPECT_EQ(out.results[1].index, 2u);
  EXPECT_TRUE(out.results[1].ok) << out.results[1].error;
  EXPECT_TRUE(out.quarantined_configs.empty());
}

TEST(CampaigndChaos, HostSectionReportsTheSpawnedFleet) {
  REQUIRE_WORKER_BIN();
  const JobSpec job = small_job(1, 1);
  Coordinator::Outcome out;
  Coordinator coord(job, fast_opts(2));
  coord.run(out);
  EXPECT_EQ(out.workers_used, 1u);
  EXPECT_NE(out.to_json(true).find("\"host\": {\"workers\": 1,"),
            std::string::npos);
  EXPECT_NE(out.health_json(true).find("\"host\": {\"workers\": 1,"),
            std::string::npos);
}

// -- Repro bundle round-trip through a worker process -----------------------

TEST(CampaigndChaos, ReproBundleReplaysThroughWorker) {
  REQUIRE_WORKER_BIN();
  const std::string repro_dir = temp_name("repro");
  JobSpec job = small_job();
  job.workload = "chaos_soak";
  job.params.set("fail_indices", json::parse("[3]"));
  job.opt.repro_dir = repro_dir;

  Coordinator::Outcome local;
  campaignd::run_local(job, local);
  ASSERT_EQ(local.results.size(), 6u);
  ASSERT_FALSE(local.results[3].ok);
  const std::string bundle = local.results[3].repro_path;
  ASSERT_FALSE(bundle.empty());

  const std::string params = "'{\"cycles\":6,\"fail_indices\":[3]}'";
  const std::string base = worker_bin() + " replay " + bundle +
                           " --workload chaos_soak --params " + params;
  // Reproduces: same workload + params re-raise the identical failure.
  EXPECT_EQ(WEXITSTATUS(std::system((base + " > /dev/null").c_str())), 0);
  // Does not reproduce: without the injection the run passes (exit 1).
  const std::string clean = worker_bin() + " replay " + bundle +
                            " --workload chaos_soak --params '{\"cycles\":6}'"
                            " > /dev/null";
  EXPECT_EQ(WEXITSTATUS(std::system(clean.c_str())), 1);

  // Malformed bundle: structured error, exit 2.
  const std::string bad = temp_name("bad_bundle") + ".json";
  std::ofstream(bad) << "{\"run\":{\"index\":0}}";
  EXPECT_EQ(WEXITSTATUS(std::system(
                (worker_bin() + " replay " + bad + " 2> /dev/null").c_str())),
            2);
  const std::string garbage = temp_name("garbage_bundle") + ".json";
  std::ofstream(garbage) << "not json";
  EXPECT_EQ(
      WEXITSTATUS(std::system(
          (worker_bin() + " replay " + garbage + " 2> /dev/null").c_str())),
      2);
  std::remove(bad.c_str());
  std::remove(garbage.c_str());
}

// -- Service: submit / status / fetch ---------------------------------------

namespace {

std::string service_request(std::uint16_t port, const std::string& payload) {
  campaignd::Fd fd = campaignd::connect_local(port);
  campaignd::send_all(fd, campaignd::encode_frame(payload));
  campaignd::FrameDecoder dec;
  char buf[65536];
  while (true) {
    const std::size_t n = campaignd::recv_some(fd, buf, sizeof buf);
    if (n == 0) return std::string();
    std::vector<std::string> msgs;
    dec.feed(buf, n, msgs);
    if (!msgs.empty()) return msgs.front();
  }
}

}  // namespace

TEST(CampaigndService, SubmitStatusFetchLifecycle) {
  REQUIRE_WORKER_BIN();
  const JobSpec job = small_job();

  campaignd::Service svc(campaignd::ServiceOptions{});
  std::thread server([&] { svc.serve(); });

  json::Value submit = json::Value::object();
  submit.set("type", json::Value(std::string("submit")));
  submit.set("job", campaignd::job_to_json(job));
  submit.set("coordinator",
             campaignd::coordinator_options_to_json(fast_opts(2)));
  const json::Value sresp = json::parse(service_request(svc.port(),
                                                        submit.dump()));
  ASSERT_TRUE(sresp.at("ok").as_bool()) << sresp.dump();
  const std::int64_t id = sresp.at("job_id").as_i64();

  // Poll status until the runner thread finishes the job.
  std::string state = "queued";
  for (int i = 0; i < 600 && state != "done"; ++i) {
    const json::Value st =
        json::parse(service_request(svc.port(), "{\"type\":\"status\"}"));
    ASSERT_TRUE(st.at("ok").as_bool());
    for (const json::Value& j : st.at("jobs").as_array()) {
      if (j.at("id").as_i64() == id) state = j.at("state").as_string();
    }
    if (state == "failed") FAIL() << "service job failed";
    if (state != "done") std::this_thread::sleep_for(
        std::chrono::milliseconds(50));
  }
  ASSERT_EQ(state, "done");

  json::Value fetch = json::Value::object();
  fetch.set("type", json::Value(std::string("fetch")));
  fetch.set("id", json::Value::number_i64(id));
  const json::Value fresp = json::parse(service_request(svc.port(),
                                                        fetch.dump()));
  ASSERT_TRUE(fresp.at("ok").as_bool()) << fresp.dump();
  EXPECT_EQ(fresp.at("state").as_string(), "done");

  // The fetched artifact matches the sequential oracle (both normalized
  // through the same parse -> dump cycle).
  Coordinator::Outcome local;
  campaignd::run_local(job, local);
  EXPECT_EQ(fresp.at("campaign").dump(),
            json::parse(local.to_json(false)).dump());
  EXPECT_EQ(fresp.at("health").dump(),
            json::parse(local.health_json(false)).dump());

  svc.stop();
  server.join();
}

TEST(CampaigndService, MalformedRequestsGetStructuredErrors) {
  campaignd::Service svc(campaignd::ServiceOptions{});
  std::thread server([&] { svc.serve(); });

  // Valid frame, invalid JSON.
  const json::Value r1 =
      json::parse(service_request(svc.port(), "this is not json"));
  EXPECT_FALSE(r1.at("ok").as_bool());
  // Valid JSON, unknown type.
  const json::Value r2 =
      json::parse(service_request(svc.port(), "{\"type\":\"explode\"}"));
  EXPECT_FALSE(r2.at("ok").as_bool());
  // Fetch of a job that does not exist.
  const json::Value r3 = json::parse(
      service_request(svc.port(), "{\"type\":\"fetch\",\"id\":999}"));
  EXPECT_FALSE(r3.at("ok").as_bool());
  // Raw garbage (bad length prefix): the service closes the connection
  // without dying...
  {
    campaignd::Fd fd = campaignd::connect_local(svc.port());
    campaignd::send_all(fd, std::string("\xff\xff\xff\xffgarbage", 11));
    char buf[256];
    while (campaignd::recv_some(fd, buf, sizeof buf) != 0) {
    }
  }
  // ...and keeps serving afterwards.
  const json::Value r4 =
      json::parse(service_request(svc.port(), "{\"type\":\"status\"}"));
  EXPECT_TRUE(r4.at("ok").as_bool());

  svc.stop();
  server.join();
}
