#include "mc/checker.hpp"

#include <algorithm>
#include <deque>
#include <utility>

#include "mc/state_store.hpp"
#include "sim/error.hpp"
#include "sim/json_writer.hpp"

namespace mts::mc {

namespace {

/// Ids from the root (inclusive) to `id` (inclusive), following parents.
std::vector<std::uint32_t> path_to(const std::vector<std::uint32_t>& parent,
                                   std::uint32_t id) {
  std::vector<std::uint32_t> path{id};
  while (parent[path.back()] != path.back()) path.push_back(parent[path.back()]);
  std::reverse(path.begin(), path.end());
  return path;
}

/// Label of taking `a` out of `s` without running apply(): env actions are
/// their own names; a commit flips the queue head.
std::string step_label(const RingModel& model, const RingState& s,
                       ActionKind a) {
  if (a != ActionKind::kCommit) return action_name(a);
  const unsigned wire = s.queue.front();
  return model.wire_name(wire) + (s.wires[wire] ? "-" : "+");
}

}  // namespace

std::string Counterexample::to_json() const {
  std::string out;
  sim::JsonWriter w(out);
  w.begin_object().key("property").str(property_name(property))
      .key("site").str(site).key("detail").str(detail)
      .key("env_step").u64(env_step).key("replayable").boolean(replayable)
      .key("trace").begin_array();
  for (const TraceStep& step : trace) {
    w.begin_object().key("label").str(step.label)
        .key("env").boolean(step.env).end_object();
  }
  w.end_array().end_object();
  return out;
}

std::string CheckResult::to_json() const {
  std::string out;
  sim::JsonWriter w(out);
  w.begin_object().key("name").str(name).key("capacity").u64(capacity)
      .key("ok").boolean(ok).key("exhaustive").boolean(exhaustive)
      .key("macro_states").u64(macro_states).key("states").u64(states)
      .key("edges").u64(edges).key("peak_frontier").u64(peak_frontier)
      .key("proved").begin_array();
  for (const std::string& p : proved) w.str(p);
  w.end_array().key("cex");
  cex ? w.raw(cex->to_json()) : w.null();
  w.end_object();
  return out;
}

namespace {

/// Macro pass: quiescent-state BFS, deterministic drain per env action.
/// Returns true when a counterexample was found (written to *result.cex).
void macro_pass(const RingModel& model, const ExploreOptions& opts,
                CheckResult& result) {
  StateStore store(model.record_size());
  std::vector<std::uint8_t> rec(model.record_size());
  std::vector<std::uint32_t> parent;
  std::vector<ActionKind> via;
  std::vector<std::uint32_t> depth;

  const RingState init = model.initial();
  model.pack(init, rec.data());
  store.intern(rec.data());
  parent.push_back(0);
  via.push_back(ActionKind::kCommit);  // unused for the root
  depth.push_back(0);

  auto make_cex = [&](std::uint32_t from, std::optional<ActionKind> act,
                      Property prop, std::string site, std::string detail) {
    Counterexample cex;
    cex.property = prop;
    cex.site = std::move(site);
    cex.detail = std::move(detail);
    cex.replayable = true;
    const std::vector<std::uint32_t> path = path_to(parent, from);
    for (std::size_t i = 1; i < path.size(); ++i) {
      cex.env_actions.push_back(via[path[i]]);
      cex.trace.push_back({action_name(via[path[i]]), true});
    }
    if (act) {
      cex.env_actions.push_back(*act);
      cex.trace.push_back({action_name(*act), true});
    }
    cex.env_step = cex.trace.size();
    result.cex = std::move(cex);
  };

  std::deque<std::uint32_t> frontier{0};
  while (!frontier.empty() && !result.cex) {
    const std::uint32_t id = frontier.front();
    frontier.pop_front();
    const RingState s = model.unpack(store.bytes(id));
    const std::vector<ActionKind> actions = model.enabled_actions(s, true);
    if (actions.empty()) {
      make_cex(id, std::nullopt, Property::kDeadlock, "mc.env",
               "quiescent state with both interfaces blocked: no pending "
               "event and req != ack on each side");
      break;
    }
    for (ActionKind a : actions) {
      RingState cur;
      StepResult r = model.apply(s, a, &cur);
      if (!r.violations.empty()) {
        const McViolation& v = r.violations.front();
        make_cex(id, a, v.property, v.site, v.detail);
        break;
      }
      std::size_t drain = 0;
      bool bad = false;
      while (!cur.queue.empty()) {
        if (++drain > opts.max_drain) {
          make_cex(id, a, Property::kLivelock, "mc.env",
                   "internal activity did not quiesce within " +
                       std::to_string(opts.max_drain) + " commits after " +
                       action_name(a));
          bad = true;
          break;
        }
        RingState nxt;
        StepResult rc = model.apply(cur, ActionKind::kCommit, &nxt);
        if (!rc.violations.empty()) {
          const McViolation& v = rc.violations.front();
          make_cex(id, a, v.property, v.site, v.detail);
          bad = true;
          break;
        }
        cur = std::move(nxt);
      }
      if (bad) break;
      model.pack(cur, rec.data());
      const auto [nid, inserted] = store.intern(rec.data());
      if (inserted) {
        parent.push_back(id);
        via.push_back(a);
        depth.push_back(depth[id] + 1);
        frontier.push_back(nid);
      }
    }
  }
  result.macro_states = store.size();
}

/// Full pass: every interleaving of commits and env edges. BFS by default;
/// bounded-depth DFS when opts.dfs_depth > 0.
void full_pass(const RingModel& model, const ExploreOptions& opts,
               CheckResult& result) {
  StateStore store(model.record_size());
  std::vector<std::uint8_t> rec(model.record_size());
  std::vector<std::uint32_t> parent;
  std::vector<std::uint8_t> via;
  std::vector<std::uint32_t> depth;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::vector<std::uint32_t> progress_src;
  const bool dfs = opts.dfs_depth > 0;

  const RingState init = model.initial();
  model.pack(init, rec.data());
  store.intern(rec.data());
  parent.push_back(0);
  via.push_back(0);
  depth.push_back(0);

  auto make_cex = [&](std::uint32_t from, std::optional<ActionKind> act,
                      const std::string& final_label, Property prop,
                      std::string site, std::string detail) {
    Counterexample cex;
    cex.property = prop;
    cex.site = std::move(site);
    cex.detail = std::move(detail);
    cex.replayable = false;
    const std::vector<std::uint32_t> path = path_to(parent, from);
    for (std::size_t i = 1; i < path.size(); ++i) {
      const RingState ps = model.unpack(store.bytes(path[i - 1]));
      const auto a = static_cast<ActionKind>(via[path[i]]);
      const bool env = a != ActionKind::kCommit;
      cex.trace.push_back({step_label(model, ps, a), env});
      if (env) cex.env_actions.push_back(a);
    }
    if (act) {
      const bool env = *act != ActionKind::kCommit;
      cex.trace.push_back({final_label, env});
      if (env) cex.env_actions.push_back(*act);
    }
    cex.env_step = cex.env_actions.size();
    result.cex = std::move(cex);
  };

  std::deque<std::uint32_t> frontier{0};
  bool truncated = false;
  while (!frontier.empty() && !result.cex) {
    std::uint32_t id;
    if (dfs) {
      id = frontier.back();
      frontier.pop_back();
    } else {
      id = frontier.front();
      frontier.pop_front();
    }
    const RingState s = model.unpack(store.bytes(id));
    const std::vector<ActionKind> actions = model.enabled_actions(s, false);
    if (actions.empty()) {
      make_cex(id, std::nullopt, "", Property::kDeadlock, "mc.env",
               "state with no enabled action: no pending event and req != "
               "ack on each side");
      break;
    }
    if (dfs && depth[id] >= opts.dfs_depth) {
      truncated = true;
      continue;
    }
    for (ActionKind a : actions) {
      RingState next;
      StepResult r = model.apply(s, a, &next);
      ++result.edges;
      if (!r.violations.empty()) {
        const McViolation& v = r.violations.front();
        make_cex(id, a, r.label, v.property, v.site, v.detail);
        break;
      }
      model.pack(next, rec.data());
      const auto [nid, inserted] = store.intern(rec.data());
      if (inserted) {
        parent.push_back(id);
        via.push_back(static_cast<std::uint8_t>(a));
        depth.push_back(depth[id] + 1);
        frontier.push_back(nid);
        result.peak_frontier = std::max(result.peak_frontier, frontier.size());
      }
      if (opts.check_liveness) {
        edges.emplace_back(id, nid);
        if (r.progress_put || r.progress_get) progress_src.push_back(id);
      }
      if (store.size() >= opts.max_states) {
        truncated = true;
        break;
      }
    }
    if (truncated && store.size() >= opts.max_states) break;
  }
  result.states = store.size();
  result.exhaustive = !truncated && frontier.empty() && !dfs;

  if (result.cex || !result.exhaustive || !opts.check_liveness) return;

  // Livelock: a state is live iff a progress edge (one that completes a
  // transaction) is reachable from it. Compute the backward closure of the
  // progress-edge sources over the full edge relation; any state outside it
  // can run forever without ever completing a put or a get.
  const std::size_t n = store.size();
  std::vector<std::uint32_t> head(n + 1, 0);
  for (const auto& e : edges) ++head[e.second + 1];
  for (std::size_t i = 1; i <= n; ++i) head[i] += head[i - 1];
  std::vector<std::uint32_t> rev(edges.size());
  {
    std::vector<std::uint32_t> at(head.begin(), head.end() - 1);
    for (const auto& e : edges) rev[at[e.second]++] = e.first;
  }
  std::vector<char> live(n, 0);
  std::vector<std::uint32_t> stack;
  for (std::uint32_t src : progress_src) {
    if (!live[src]) {
      live[src] = 1;
      stack.push_back(src);
    }
  }
  while (!stack.empty()) {
    const std::uint32_t t = stack.back();
    stack.pop_back();
    for (std::uint32_t i = head[t]; i < head[t + 1]; ++i) {
      const std::uint32_t s2 = rev[i];
      if (!live[s2]) {
        live[s2] = 1;
        stack.push_back(s2);
      }
    }
  }
  for (std::uint32_t id = 0; id < n; ++id) {
    if (!live[id]) {
      make_cex(id, std::nullopt, "", Property::kLivelock, "mc.liveness",
               "no completed transaction is reachable from this state");
      result.exhaustive = true;  // the proof itself is still complete
      return;
    }
  }
}

}  // namespace

CheckResult check_ring(const RingConfig& cfg, const ExploreOptions& opts) {
  RingModel model(cfg);
  CheckResult result;
  result.name = cfg.name;
  result.capacity = cfg.capacity;

  macro_pass(model, opts, result);
  if (!result.cex && opts.full_interleaving) {
    full_pass(model, opts, result);
  }

  result.ok = !result.cex;
  if (result.ok && result.exhaustive) {
    result.proved = {"token-ring",    "overflow",  "underflow",
                     "handshake-order", "full-detector", "empty-detector",
                     "one-safety",    "deadlock"};
    if (opts.check_liveness) result.proved.push_back("livelock");
  }
  return result;
}

}  // namespace mts::mc
