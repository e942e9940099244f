#include "campaignd/service.hpp"

#include <poll.h>

#include <atomic>
#include <condition_variable>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "campaignd/net.hpp"
#include "campaignd/snapshots.hpp"
#include "campaignd/wire.hpp"

namespace mts::campaignd {

// ---------------------------------------------------------------------------
// Job / options wire forms
// ---------------------------------------------------------------------------

json::Value job_to_json(const JobSpec& job) {
  json::Value v = json::Value::object();
  v.set("workload", json::Value(job.workload));
  v.set("params", job.params);
  v.set("configs", json::Value::number_size(job.configs));
  v.set("reps", json::Value::number_size(job.reps));
  v.set("options", options_to_json(job.opt));
  if (!job.run_filter.empty()) {
    json::Value f = json::Value::array();
    for (std::size_t i : job.run_filter) f.push(json::Value::number_size(i));
    v.set("run_filter", std::move(f));
  }
  return v;
}

JobSpec job_from_json(const json::Value& v) {
  JobSpec job;
  job.workload = v.get_string("workload", "fifo_soak");
  if (const json::Value* p = v.find("params")) job.params = *p;
  job.configs = static_cast<std::size_t>(v.get_u64("configs", 1));
  job.reps = static_cast<std::size_t>(v.get_u64("reps", 1));
  if (const json::Value* o = v.find("options")) {
    job.opt = options_from_json(*o);
  }
  if (const json::Value* f = v.find("run_filter")) {
    for (const json::Value& i : f->as_array()) {
      job.run_filter.push_back(i.as_size());
    }
  }
  return job;
}

json::Value coordinator_options_to_json(const CoordinatorOptions& opt) {
  json::Value v = json::Value::object();
  v.set("workers", json::Value::number_u64(opt.workers));
  if (!opt.worker_cmd.empty()) {
    json::Value c = json::Value::array();
    for (const std::string& a : opt.worker_cmd) c.push(json::Value(a));
    v.set("worker_cmd", std::move(c));
  }
  v.set("unit_size", json::Value::number_size(opt.unit_size));
  v.set("heartbeat_interval_ms",
        json::Value::number_i64(opt.heartbeat_interval_ms));
  v.set("heartbeat_timeout_ms",
        json::Value::number_i64(opt.heartbeat_timeout_ms));
  v.set("progress_timeout_ms",
        json::Value::number_i64(opt.progress_timeout_ms));
  v.set("unit_retries", json::Value::number_u64(opt.unit_retries));
  v.set("backoff_initial_ms", json::Value::number_i64(opt.backoff_initial_ms));
  v.set("backoff_max_ms", json::Value::number_i64(opt.backoff_max_ms));
  v.set("respawn_limit", json::Value::number_u64(opt.respawn_limit));
  if (!opt.checkpoint_path.empty()) {
    v.set("checkpoint_path", json::Value(opt.checkpoint_path));
  }
  v.set("checkpoint_every", json::Value::number_size(opt.checkpoint_every));
  v.set("resume", json::Value(opt.resume));
  if (opt.chaos.is_array() && opt.chaos.size() > 0) v.set("chaos", opt.chaos);
  return v;
}

namespace {

/// `v[key]` as a T, or `dflt` when absent. Throws ProtocolError when the
/// value does not fit T, so a client's 4294967296 cannot wrap to 0.
template <class T>
T get_fitting(const json::Value& v, const std::string& key, T dflt) {
  const std::uint64_t raw = v.get_u64(key, static_cast<std::uint64_t>(dflt));
  if (raw > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    throw json::ProtocolError("coordinator option '" + key + "' = " +
                              std::to_string(raw) + " is out of range");
  }
  return static_cast<T>(raw);
}

}  // namespace

CoordinatorOptions coordinator_options_from_json(const json::Value& v) {
  CoordinatorOptions opt;
  opt.workers = get_fitting(v, "workers", opt.workers);
  if (const json::Value* c = v.find("worker_cmd")) {
    for (const json::Value& a : c->as_array()) {
      opt.worker_cmd.push_back(a.as_string());
    }
  }
  opt.unit_size = get_fitting(v, "unit_size", opt.unit_size);
  opt.heartbeat_interval_ms =
      get_fitting(v, "heartbeat_interval_ms", opt.heartbeat_interval_ms);
  opt.heartbeat_timeout_ms =
      get_fitting(v, "heartbeat_timeout_ms", opt.heartbeat_timeout_ms);
  opt.progress_timeout_ms =
      get_fitting(v, "progress_timeout_ms", opt.progress_timeout_ms);
  opt.unit_retries = get_fitting(v, "unit_retries", opt.unit_retries);
  opt.backoff_initial_ms =
      get_fitting(v, "backoff_initial_ms", opt.backoff_initial_ms);
  opt.backoff_max_ms = get_fitting(v, "backoff_max_ms", opt.backoff_max_ms);
  opt.respawn_limit = get_fitting(v, "respawn_limit", opt.respawn_limit);
  opt.checkpoint_path = v.get_string("checkpoint_path", "");
  opt.checkpoint_every =
      get_fitting(v, "checkpoint_every", opt.checkpoint_every);
  opt.resume = v.get_bool("resume", false);
  if (const json::Value* c = v.find("chaos")) opt.chaos = *c;
  return opt;
}

// ---------------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------------

namespace {

struct JobEntry {
  std::int64_t id = 0;
  std::string state = "queued";  ///< queued|running|done|failed|interrupted
  std::size_t done = 0;
  std::size_t total = 0;
  std::string error;
  std::string campaign_json;  ///< done/interrupted only
  std::string health_json;
  JobSpec job;
  CoordinatorOptions copt;
};

}  // namespace

struct Service::Impl {
  Listener listener;
  std::atomic<bool> stopping{false};

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::int64_t> queue;
  std::vector<std::unique_ptr<JobEntry>> jobs;
  std::int64_t next_id = 1;
  Coordinator* active = nullptr;  ///< guarded by mu; runner-owned lifetime
  std::thread runner;

  explicit Impl(const ServiceOptions& opt)
      : listener(listen_local(opt.port)) {
    runner = std::thread([this] { run_jobs(); });
  }

  ~Impl() {
    stop();
    if (runner.joinable()) runner.join();
  }

  void stop() {
    stopping.store(true);
    std::lock_guard<std::mutex> lk(mu);
    if (active != nullptr) active->request_shutdown();
    cv.notify_all();
  }

  JobEntry* find(std::int64_t id) {
    for (auto& j : jobs) {
      if (j->id == id) return j.get();
    }
    return nullptr;
  }

  // -- runner thread --------------------------------------------------------

  void run_jobs() {
    for (;;) {
      JobEntry* entry = nullptr;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [this] { return stopping.load() || !queue.empty(); });
        if (queue.empty()) {
          if (stopping.load()) return;
          continue;
        }
        entry = find(queue.front());
        queue.pop_front();
        if (entry == nullptr) continue;
        entry->state = "running";
      }
      execute(*entry);
      if (stopping.load()) {
        std::lock_guard<std::mutex> lk(mu);
        if (queue.empty()) return;
      }
    }
  }

  void execute(JobEntry& entry) {
    CoordinatorOptions copt = entry.copt;
    copt.on_event = [this, &entry](const Event& e) {
      if (e.kind != "run_done" && e.kind != "unit_quarantined") return;
      std::lock_guard<std::mutex> lk(mu);
      if (e.kind == "run_done") ++entry.done;
    };
    Coordinator coord(entry.job, std::move(copt));
    {
      std::lock_guard<std::mutex> lk(mu);
      active = &coord;
      if (stopping.load()) coord.request_shutdown();
    }
    Coordinator::Outcome out;
    std::string error;
    bool failed = false;
    try {
      coord.run(out);
    } catch (const std::exception& e) {
      failed = true;
      error = e.what();
    }
    std::lock_guard<std::mutex> lk(mu);
    active = nullptr;
    if (failed) {
      entry.state = "failed";
      entry.error = error;
      return;
    }
    entry.state = out.interrupted ? "interrupted" : "done";
    entry.done = out.results.size();
    entry.campaign_json = out.to_json(false);
    entry.health_json = out.health_json(false);
  }

  // -- request handling -----------------------------------------------------

  json::Value handle(const json::Value& req) {
    json::Value resp = json::Value::object();
    const std::string type = req.at("type").as_string();
    if (type == "submit") {
      JobSpec job = job_from_json(req.at("job"));
      CoordinatorOptions copt;
      if (const json::Value* c = req.find("coordinator")) {
        copt = coordinator_options_from_json(*c);
      }
      auto entry = std::make_unique<JobEntry>();
      entry->job = std::move(job);
      entry->copt = std::move(copt);
      entry->total = entry->job.run_filter.empty()
                         ? entry->job.configs * entry->job.reps
                         : entry->job.run_filter.size();
      std::lock_guard<std::mutex> lk(mu);
      entry->id = next_id++;
      const std::int64_t id = entry->id;
      queue.push_back(id);
      jobs.push_back(std::move(entry));
      cv.notify_all();
      resp.set("ok", json::Value(true));
      resp.set("job_id", json::Value::number_i64(id));
      return resp;
    }
    if (type == "status") {
      std::lock_guard<std::mutex> lk(mu);
      json::Value arr = json::Value::array();
      for (const auto& j : jobs) {
        json::Value e = json::Value::object();
        e.set("id", json::Value::number_i64(j->id));
        e.set("state", json::Value(j->state));
        e.set("done", json::Value::number_size(j->done));
        e.set("total", json::Value::number_size(j->total));
        if (!j->error.empty()) e.set("error", json::Value(j->error));
        arr.push(std::move(e));
      }
      resp.set("ok", json::Value(true));
      resp.set("jobs", std::move(arr));
      return resp;
    }
    if (type == "fetch") {
      const std::int64_t id = req.at("id").as_i64();
      std::lock_guard<std::mutex> lk(mu);
      JobEntry* j = find(id);
      if (j == nullptr) {
        resp.set("ok", json::Value(false));
        resp.set("error", json::Value("no job " + std::to_string(id)));
        return resp;
      }
      resp.set("ok", json::Value(true));
      resp.set("state", json::Value(j->state));
      if (!j->campaign_json.empty()) {
        resp.set("campaign", json::parse(j->campaign_json));
        resp.set("health", json::parse(j->health_json));
      }
      if (!j->error.empty()) resp.set("error", json::Value(j->error));
      return resp;
    }
    throw json::ProtocolError("service: unknown request type '" + type + "'");
  }

  void serve_one(Fd conn) {
    FrameDecoder dec;
    std::vector<std::string> payloads;
    char buf[65536];
    json::Value resp = json::Value::object();
    try {
      while (payloads.empty()) {
        const std::size_t n = recv_some(conn, buf, sizeof buf);
        if (n == 0) return;  // client gave up
        dec.feed(buf, n, payloads);
      }
      resp = handle(json::parse(payloads.front()));
    } catch (const std::exception& e) {
      resp = json::Value::object();
      resp.set("ok", json::Value(false));
      resp.set("error", json::Value(e.what()));
    }
    try {
      send_all(conn, encode_frame(resp.dump()));
    } catch (const NetError&) {
    }
  }

  void serve(std::size_t max_connections) {
    std::size_t served = 0;
    while (!stopping.load()) {
      pollfd pfd{listener.fd.get(), POLLIN, 0};
      const int rc = ::poll(&pfd, 1, 100);
      if (rc <= 0) continue;
      try {
        serve_one(accept_conn(listener.fd));
      } catch (const NetError&) {
        continue;
      }
      ++served;
      if (max_connections > 0 && served >= max_connections) return;
    }
  }
};

Service::Service(ServiceOptions opt) : impl_(new Impl(opt)) {}

Service::~Service() { delete impl_; }

std::uint16_t Service::port() const noexcept { return impl_->listener.port; }

void Service::serve(std::size_t max_connections) {
  impl_->serve(max_connections);
}

void Service::stop() { impl_->stop(); }

}  // namespace mts::campaignd
