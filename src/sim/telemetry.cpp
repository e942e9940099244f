#include "sim/telemetry.hpp"

#include <map>
#include <utility>

#include "metrics/registry.hpp"
#include "sim/simulation.hpp"
#include "sim/trace_session.hpp"
#include "verify/hub.hpp"

namespace mts::sim {

void Telemetry::attach_trace(TraceSession* t) {
  if (t == nullptr) return;
  t->set_extra_events_provider(
      [this](JsonWriter& w) { store_.perfetto_events(w); });
}

void Telemetry::start(Simulation& sim) {
  sim_ = &sim;
  active_ = true;
  last_t_ = sim.now();
  last_events_ = sim.sched().events_executed();
  last_violations_ =
      sim.monitors() == nullptr ? 0 : sim.monitors()->total();
  sim.sched().after(cfg_.interval, [this] { probe_fired(); });
}

void Telemetry::sample_now() {
  if (sim_ != nullptr) take_sample(sim_->now());
}

void Telemetry::probe_fired() {
  const Time t = sim_->now();
  take_sample(t);
  // Self-reschedule ONLY while other events are pending: the probe never
  // keeps an otherwise-finished simulation alive, so run() still drains and
  // watchdog drain detection still fires (at most one interval late).
  if (!sim_->sched().empty()) {
    sim_->sched().after(cfg_.interval, [this] { probe_fired(); });
  } else {
    active_ = false;
  }
}

void Telemetry::resolve_sources() {
  // Rollup slots in (domain, kind) order: the order their series were
  // appended in when each sample keyed its sums by a std::map.
  std::map<std::pair<std::string, std::string>, std::size_t> slot;
  for (Source& s : sources_) {
    s.series = &store_.series(s.instance + "." + s.kind);
    slot.try_emplace({s.domain, s.kind}, 0);
  }
  rollups_.clear();
  for (auto& [key, index] : slot) {
    index = rollups_.size();
    rollups_.push_back(
        Rollup{&store_.series("domain." + key.first + "." + key.second), 0.0});
  }
  for (Source& s : sources_) s.rollup = slot.at({s.domain, s.kind});
}

void Telemetry::resolve_metrics() {
  metric_plan_.clear();
  const auto series = [this](const std::string& inst,
                             const std::string& name) {
    return &store_.series(inst + "." + name);
  };
  registry_->visit(
      [&](const std::string& inst, const std::string& name,
          const metrics::Counter& c) {
        MetricSlot m;
        m.counter = &c;
        m.series[0] = series(inst, name);
        metric_plan_.push_back(m);
      },
      [&](const std::string& inst, const std::string& name,
          const metrics::Gauge& g) {
        MetricSlot m;
        m.gauge = &g;
        m.series[0] = series(inst, name);
        metric_plan_.push_back(m);
      },
      [&](const std::string& inst, const std::string& name,
          const metrics::Histogram& h) {
        MetricSlot m;
        m.histogram = &h;
        const std::string base = name + ".";
        m.series = {series(inst, base + "p50"), series(inst, base + "p95"),
                    series(inst, base + "p99"), series(inst, base + "p999")};
        metric_plan_.push_back(m);
      });
  metric_plan_valid_ = true;
  metric_plan_layout_ = registry_->layout_generation();
}

void Telemetry::append(metrics::TimeSeries*& slot, const char* name, Time t,
                       double v) {
  if (slot == nullptr) slot = &store_.series(name);
  slot->append(t, v);
}

void Telemetry::take_sample(Time t) {
  ++samples_;
  const Time dt = t > last_t_ ? t - last_t_ : 0;

  // Per-instance sources, then per-(domain, kind) rollups. Each rollup sums
  // its sources in registration order and appends in (domain, kind) order
  // -- deterministic regardless of source registration order.
  if (!sources_.empty() && sources_.back().series == nullptr) {
    resolve_sources();
  }
  for (Rollup& r : rollups_) r.sum = 0.0;
  for (Source& s : sources_) {
    const double v = s.fn();
    s.series->append(t, v);
    rollups_[s.rollup].sum += v;
  }
  for (const Rollup& r : rollups_) r.series->append(t, r.sum);

  // Kernel builtins. events_per_us is the interval-local event rate in
  // events per microsecond of SIM time -- a pure function of the event
  // sequence, not of host speed.
  const std::uint64_t events = sim_->sched().events_executed();
  if (dt > 0) {
    const double us = static_cast<double>(dt) / 1e6;
    append(builtins_.events_per_us, "kernel.events_per_us", t,
           static_cast<double>(events - last_events_) / us);
  }
  append(builtins_.queue_depth, "kernel.queue_depth", t,
         static_cast<double>(sim_->sched().pending()));
  if (cfg_.include_host_series) {
    append(builtins_.pool_high_water, "kernel.pool_high_water", t,
           static_cast<double>(sim_->sched().stats().pool_high_water));
  }
  last_events_ = events;

  // Violation totals when a hub is armed: cumulative plus interval rate
  // (violations per microsecond of sim time).
  if (const verify::Hub* hub = sim_->monitors(); hub != nullptr) {
    const std::uint64_t total = hub->total();
    append(builtins_.violations, "verify.violations", t,
           static_cast<double>(total));
    if (dt > 0) {
      const double us = static_cast<double>(dt) / 1e6;
      append(builtins_.violation_rate, "verify.violation_rate", t,
             static_cast<double>(total - last_violations_) / us);
    }
    last_violations_ = total;
  }

  // Full registry snapshot in visit() order: counters and gauges by value,
  // histograms as sliding-window percentiles (cumulative-bucket fallback
  // when no window is armed).
  if (cfg_.sample_registry && registry_ != nullptr) {
    if (!metric_plan_valid_ ||
        metric_plan_layout_ != registry_->layout_generation()) {
      resolve_metrics();
    }
    for (const MetricSlot& m : metric_plan_) {
      if (m.counter != nullptr) {
        m.series[0]->append(t, static_cast<double>(m.counter->value()));
      } else if (m.gauge != nullptr) {
        m.series[0]->append(t, m.gauge->value());
      } else {
        const metrics::Histogram::Tail p = m.histogram->tail();
        m.series[0]->append(t, p.p50);
        m.series[1]->append(t, p.p95);
        m.series[2]->append(t, p.p99);
        m.series[3]->append(t, p.p999);
      }
    }
  }

  last_t_ = t;
}

}  // namespace mts::sim
