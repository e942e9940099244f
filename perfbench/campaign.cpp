// campaign_matrix: a configs x reps matrix of short runs of campaignd's
// registered fifo_soak body, with engine telemetry and a p99 latency SLO
// armed (as bench_campaign_scaling's health run). Each iteration runs the
// same job through sim::Campaign on 2 threads and through
// campaignd::Coordinator on 2 worker processes (this binary's `worker`
// subcommand); both must render byte-identical campaign and health JSON.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"
#include "campaignd/coordinator.hpp"
#include "campaignd/json.hpp"
#include "campaignd/snapshots.hpp"
#include "campaignd/wire.hpp"
#include "campaignd/workload.hpp"
#include "sim/campaign.hpp"
#include "sim/observe.hpp"

namespace perfbench {
namespace {

using namespace mts;
namespace json = campaignd::json;

constexpr std::size_t kConfigs = 3;
constexpr std::size_t kReps = 32;
constexpr std::size_t kRuns = kConfigs * kReps;
constexpr unsigned kCycles = 100;  ///< put cycles per run
constexpr unsigned kWorkers = 2;   ///< threads, and worker processes
constexpr unsigned kSetupJobs = 9;
constexpr unsigned kExportSamples = 5;

campaignd::JobSpec make_job(std::uint64_t seed, std::size_t configs,
                            std::size_t reps) {
  campaignd::JobSpec job;
  job.workload = "fifo_soak";
  job.params = json::Value::object();
  job.params.set("cycles", json::Value::number_u64(kCycles));
  job.configs = configs;
  job.reps = reps;
  job.opt.workers = kWorkers;
  job.opt.seed = seed;
  job.opt.telemetry_interval = 50 * sim::kNanosecond;
  job.opt.telemetry_max_points = 512;
  job.opt.telemetry_window = 256;
  job.opt.slo.metric = "latency_ps";
  job.opt.slo.percentile = 0.99;
  job.opt.slo.budget = 1e9;  // record the worst, fail nothing
  return job;
}

/// Simulated outcome of a campaign: every run's index, seed, status and
/// body scalars plus its SLO reading -- placement-independent, and
/// unaffected by host-side changes that keep the simulation identical.
std::string results_fingerprint(const std::vector<sim::RunResult>& results) {
  std::uint64_t h = kFnvBasis;
  std::uint64_t dequeued = 0;
  for (const sim::RunResult& r : results) {
    h = fnv(h, r.index);
    h = fnv(h, r.seed);
    h = fnv(h, r.ok ? 1 : 0);
    for (const auto& [k, v] : r.scalars) {
      h = fnv_str(h, k);
      h = fnv(h, static_cast<std::uint64_t>(v));
    }
    h = fnv(h, static_cast<std::uint64_t>(r.slo_worst));
    h = fnv(h, r.telemetry_samples);
    const auto it = r.scalars.find("dequeued");
    if (it != r.scalars.end()) dequeued += static_cast<std::uint64_t>(it->second);
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "runs:%zu items:%llu hash:%016llx",
                results.size(), static_cast<unsigned long long>(dequeued),
                static_cast<unsigned long long>(h));
  return buf;
}

struct Iteration {
  double threads_s = 0.0;
  double procs_s = 0.0;
  double export_s = 0.0;
  std::uint64_t allocs = 0;
  std::uint64_t items = 0;
  std::uint64_t events = 0;
  std::size_t peak_queue = 0;
  std::uint64_t errors = 0;
  std::uint64_t samples = 0;
  std::uint64_t points = 0;
  std::vector<double> body_s;
  double report_s = 0.0;
  double timeline_s = 0.0;
  std::uint64_t export_bytes = 0;
  std::string fingerprint;
  std::string json;  ///< the threads job's campaign JSON (no host stats)
};

/// One threads job and one processes job of the same seed; the renders run
/// pinned to `export_cpu`.
Iteration iterate(std::uint64_t seed, Tracer* tracer, Result& out,
                  int export_cpu) {
  Iteration it;
  const campaignd::JobSpec job = make_job(seed, kConfigs, kReps);

  // Threads: one fifo_soak instance per worker slot (its coverage sink is
  // per-run state).
  std::vector<std::unique_ptr<campaignd::Workload>> wls;
  for (unsigned w = 0; w < kWorkers; ++w) {
    wls.push_back(campaignd::make_workload(job.workload, job.params));
  }
  sim::Campaign threads(kConfigs, kReps, job.opt);
  std::mutex mu;
  it.body_s.reserve(kRuns);
  {
    Span root(tracer, "campaign.run");
    const int parent = root.id();
    const std::uint64_t a0 = allocs();
    const double t0 = now_s();
    threads.run([&](sim::CampaignContext& ctx) {
      Span s(tracer, "sim.run_body", parent);
      const double b0 = now_s();
      campaignd::Workload& wl = *wls[ctx.worker()];
      wl.begin_run();
      wl.run(ctx);
      const double b = now_s() - b0;
      std::lock_guard<std::mutex> lock(mu);
      it.body_s.push_back(b);
    });
    it.threads_s = now_s() - t0;
    it.allocs = allocs() - a0;
  }

  campaignd::CoordinatorOptions copt;
  copt.workers = kWorkers;
  campaignd::Coordinator::Outcome procs;
  {
    Span s(tracer, "campaignd.coordinator_run");
    campaignd::Coordinator coord(job, copt);
    const double t0 = now_s();
    coord.run(procs);
    it.procs_s = now_s() - t0;
  }

  // Each render is timed kExportSamples times; the median counts.
  CpuPin pin(export_cpu);
  std::string threads_json;
  std::string threads_health;
  std::string procs_json;
  std::string procs_health;
  std::uint64_t bytes = 0;
  {
    Span s(tracer, "export.report");
    it.report_s = time_render(
        [&] {
          threads_json = threads.to_json(false);
          threads_health = threads.health_json(false);
          procs_json = procs.to_json(false);
          procs_health = procs.health_json(false);
          return threads_json.size() + threads_health.size() +
                 procs_json.size() + procs_health.size();
        },
        1, kExportSamples, bytes);
  }
  it.export_bytes = bytes;
  {
    Span s(tracer, "export.timeline");
    it.timeline_s = time_render(
        [&] { return threads.merged_timeline().to_jsonl().size(); }, 1,
        kExportSamples, bytes);
  }
  it.export_bytes += bytes;
  it.export_s = it.report_s + it.timeline_s;

  out.check(threads.failed() == 0 && !procs.interrupted,
            "campaign_matrix: failed runs (" +
                std::to_string(threads.failed()) + " threads)");
  out.check(threads_json == procs_json && threads_health == procs_health,
            "campaign_matrix: threads and processes render different "
            "campaign/health JSON");
  for (const sim::RunResult& r : threads.results()) {
    const auto e = r.scalars.find("errors");
    if (e != r.scalars.end()) it.errors += static_cast<std::uint64_t>(e->second);
    const auto d = r.scalars.find("dequeued");
    if (d != r.scalars.end()) it.items += static_cast<std::uint64_t>(d->second);
    it.samples += r.telemetry_samples;
  }
  out.check(it.errors == 0 && it.items > 0,
            "campaign_matrix: scoreboard errors or no traffic");
  it.points = threads.merged_timeline().total_points();
  it.events = threads.merged_report().kernel().events_executed;
  it.peak_queue = threads.merged_report().kernel().peak_queue_depth;
  it.fingerprint = results_fingerprint(threads.results());
  it.json = std::move(threads_json);
  return it;
}

/// Fleet start, one run and the fold: a 1x1 job through the Coordinator.
double setup_job(std::uint64_t seed, Result& out) {
  campaignd::CoordinatorOptions copt;
  copt.workers = kWorkers;
  campaignd::Coordinator coord(make_job(seed, 1, 1), copt);
  campaignd::Coordinator::Outcome o;
  const double t0 = now_s();
  coord.run(o);
  const double dt = now_s() - t0;
  out.check(o.results.size() == 1 && o.results[0].ok,
            "campaign_matrix: set-up job failed");
  return dt;
}

/// The campaignd per-run pipeline taken step by step in this process:
/// execute_run -> make_run_record -> dump -> encode_frame ->
/// FrameDecoder::feed + json::parse, then fold_records over every record.
struct Pipeline {
  double simulate_us = 0.0;
  double record_us = 0.0;
  double encode_us = 0.0;
  double frame_us = 0.0;
  double decode_us = 0.0;
  double fold_us = 0.0;
  double record_bytes = 0.0;
  double lat_p50 = 0.0;
  double lat_p99 = 0.0;
  std::uint64_t crossings = 0;
  std::size_t pool_high_water = 0;
  std::string json;
};

Pipeline pipeline_probe(std::uint64_t seed, Tracer* tracer) {
  const campaignd::JobSpec job = make_job(seed, kConfigs, kReps);
  std::unique_ptr<campaignd::Workload> wl =
      campaignd::make_workload(job.workload, job.params);
  const sim::Campaign::Body inner = wl->body();
  const sim::Campaign::Body body = [&](sim::CampaignContext& ctx) {
    Span s(tracer, "sim.run_body");
    inner(ctx);
  };
  sim::RunShard shard(job.opt);
  campaignd::FrameDecoder decoder;
  std::vector<json::Value> records;
  std::vector<double> sim_us, rec_us, enc_us, frm_us, dec_us, bytes;
  metrics::Histogram lat(sim::latency_bounds());
  Pipeline p;
  for (std::size_t index = 0; index < kRuns; ++index) {
    sim::RunSpec spec;
    spec.index = index;
    spec.config = index / kReps;
    spec.rep = index % kReps;
    spec.seed = sim::campaign_run_seed(seed, index);
    shard.registry.clear();
    wl->begin_run();
    sim::RunResult result;
    sim::Report report;
    metrics::TimeSeriesStore timeline;
    const double t0 = now_s();
    {
      Span s(tracer, "campaign.execute_run");
      sim::execute_run(shard, job.opt, spec, 0, body, result, &report,
                       &timeline);
    }
    const double t1 = now_s();
    json::Value rec;
    {
      Span s(tracer, "campaignd.make_run_record");
      rec = campaignd::make_run_record(result, report, shard.registry,
                                       wl->coverage(), timeline);
    }
    const double t2 = now_s();
    std::string text;
    {
      Span s(tracer, "campaignd.dump");
      text = rec.dump();
    }
    const double t3 = now_s();
    std::string frame;
    {
      Span s(tracer, "campaignd.encode_frame");
      frame = campaignd::encode_frame(text);
    }
    const double t4 = now_s();
    std::vector<std::string> msgs;
    {
      Span s(tracer, "campaignd.decode");
      decoder.feed(frame.data(), frame.size(), msgs);
      records.push_back(json::parse(msgs.at(0)));
    }
    const double t5 = now_s();
    sim_us.push_back((t1 - t0) * 1e6);
    rec_us.push_back((t2 - t1) * 1e6);
    enc_us.push_back((t3 - t2) * 1e6);
    frm_us.push_back((t4 - t3) * 1e6);
    dec_us.push_back((t5 - t4) * 1e6);
    bytes.push_back(static_cast<double>(text.size()));
    shard.run_registry.visit(
        [&p](const std::string&, const std::string& n,
             const metrics::Counter& c) {
          if (n == "sync_crossings") p.crossings += c.value();
        },
        [](const auto&, const auto&, const auto&) {},
        [&lat](const std::string&, const std::string& n,
               const metrics::Histogram& h) {
          if (n == "latency_ps") lat.merge(h);
        });
  }
  p.pool_high_water = shard.sim.sched().stats().pool_high_water;
  campaignd::Coordinator::Outcome folded;
  const double f0 = now_s();
  {
    Span s(tracer, "campaignd.fold_records");
    campaignd::fold_records(job, std::move(records), folded);
  }
  p.fold_us = (now_s() - f0) * 1e6 / static_cast<double>(kRuns);
  p.simulate_us = median(sim_us);
  p.record_us = median(rec_us);
  p.encode_us = median(enc_us);
  p.frame_us = median(frm_us);
  p.decode_us = median(dec_us);
  p.record_bytes = median(bytes);
  p.lat_p50 = lat.percentile(0.50);
  p.lat_p99 = lat.percentile(0.99);
  p.json = folded.to_json(false);
  return p;
}

}  // namespace

void run_campaign_matrix(const Args& a, Tracer* tracer, Result& out) {
  std::vector<std::pair<std::uint64_t, std::string>> pinned;
  for (std::uint64_t seed : kPinnedSeeds) {
    pinned.emplace_back(seed, iterate(seed, nullptr, out, -1).fingerprint);
  }
  std::vector<double> setup;
  for (unsigned i = 0; i < kSetupJobs; ++i) setup.push_back(setup_job(a.seed, out));

  std::vector<Iteration> plain;
  std::vector<Iteration> traced;
  const double t0 = now_s();
  for (unsigned i = 0; i < 4 || now_s() - t0 < a.seconds; ++i) {
    if (tracer != nullptr && i % 2 == 1) {
      Span root(tracer, "bench.iteration");
      traced.push_back(iterate(a.seed, tracer, out, rotation_cpu(i / 2)));
    } else {
      plain.push_back(iterate(a.seed, nullptr, out,
                              rotation_cpu(tracer != nullptr ? i / 2 : i)));
    }
  }

  std::vector<const Iteration*> all;
  for (const Iteration& it : plain) all.push_back(&it);
  for (const Iteration& it : traced) all.push_back(&it);
  for (const Iteration* it : all) {
    out.check(it->fingerprint == all.front()->fingerprint,
              "campaign_matrix: iteration fingerprint differs: " +
                  it->fingerprint + " vs " + all.front()->fingerprint);
  }
  check_pinned("campaign_matrix", pinned, out);

  const double cycles = static_cast<double>(kRuns) * kCycles;
  auto each = [&plain](auto f) {
    std::vector<double> v;
    for (const Iteration& it : plain) v.push_back(f(it));
    return v;
  };
  const Iteration& p0 = plain.front();
  if (tracer == nullptr) {
    out.e2e("cycles_per_s", cycles / median(each([](const Iteration& it) {
                              return it.threads_s;
                            })),
            "1/s");
    out.e2e("allocs_per_cycle", median(each([&](const Iteration& it) {
              return static_cast<double>(it.allocs) / cycles;
            })),
            "count");
    out.e2e("sim_items_per_cycle", static_cast<double>(p0.items) / cycles,
            "count");
    out.e2e("export_s",
            median(each([](const Iteration& it) { return it.export_s; })),
            "s");
    out.e2e("runs_per_s", kRuns / median(each([](const Iteration& it) {
                            return it.procs_s;
                          })),
            "1/s");
    out.e2e("setup_s", median(setup), "s");
    out.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  const Pipeline pipe = pipeline_probe(a.seed, tracer);
  out.check(pipe.json == p0.json,
            "campaign_matrix: step-by-step pipeline folds a different "
            "campaign JSON than the engine");
  std::vector<double> bodies;
  for (const Iteration& it : plain) {
    bodies.insert(bodies.end(), it.body_s.begin(), it.body_s.end());
  }
  const double threads_s =
      median(each([](const Iteration& it) { return it.threads_s; }));
  const double procs_s =
      median(each([](const Iteration& it) { return it.procs_s; }));
  out.layer("sim.events_per_cycle", static_cast<double>(p0.events) / cycles,
            "count");
  out.layer("sim.ns_per_event",
            median(each([](const Iteration& it) {
              double b = 0.0;
              for (double x : it.body_s) b += x;
              return b * 1e9 / static_cast<double>(it.events);
            })),
            "ns");
  out.layer("sim.peak_queue_depth", static_cast<double>(p0.peak_queue), "count");
  out.layer("sim.pool_high_water", static_cast<double>(pipe.pool_high_water),
            "count");
  report_gates(tracer, out);
  out.layer("telemetry.samples", static_cast<double>(p0.samples), "count");
  out.layer("telemetry.points", static_cast<double>(p0.points), "count");
  out.layer("export.report_ms",
            median(each([](const Iteration& it) { return it.report_s; })) * 1e3,
            "ms");
  out.layer("export.timeline_ms",
            median(each([](const Iteration& it) { return it.timeline_s; })) *
                1e3,
            "ms");
  out.layer("export.bytes", static_cast<double>(p0.export_bytes), "bytes");
  out.layer("fifo.latency_ps_p50", pipe.lat_p50, "ps");
  out.layer("fifo.latency_ps_p99", pipe.lat_p99, "ps");
  out.layer("sync.crossings", static_cast<double>(pipe.crossings), "count");
  out.layer("bfm.scoreboard_errors", static_cast<double>(p0.errors), "count");
  out.layer("campaign.body_ms_p50", percentile(bodies, 0.50) * 1e3, "ms");
  out.layer("campaign.body_ms_p99", percentile(bodies, 0.99) * 1e3, "ms");
  out.layer("campaign.engine_share", median(each([](const Iteration& it) {
              double b = 0.0;
              for (double x : it.body_s) b += x;
              return 1.0 - b / (kWorkers * it.threads_s);
            })),
            "ratio");
  out.layer("campaign.runs_per_s_threads", kRuns / threads_s, "1/s");
  out.layer("campaignd.runs_per_s_procs", kRuns / procs_s, "1/s");
  out.layer("campaignd.simulate_us", pipe.simulate_us, "us");
  out.layer("campaignd.record_us", pipe.record_us, "us");
  out.layer("campaignd.encode_us", pipe.encode_us, "us");
  out.layer("campaignd.frame_us", pipe.frame_us, "us");
  out.layer("campaignd.decode_us", pipe.decode_us, "us");
  out.layer("campaignd.fold_us", pipe.fold_us, "us");
  out.layer("campaignd.record_bytes", pipe.record_bytes, "bytes");
  out.layer("campaignd.ipc_share",
            1.0 - pipe.simulate_us * 1e-6 * kRuns / (kWorkers * procs_s),
            "ratio");
  std::vector<double> tr;
  for (const Iteration& it : traced) tr.push_back(it.threads_s);
  out.layer("trace.overhead_pct", (median(tr) / threads_s - 1.0) * 100.0, "%");
}

}  // namespace perfbench
