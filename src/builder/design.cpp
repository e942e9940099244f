#include "builder/design.hpp"

#include <algorithm>
#include <sstream>

#include "sim/error.hpp"
#include "sim/json_writer.hpp"

namespace mts::builder {

const char* to_string(TimingStyle s) noexcept {
  return s == TimingStyle::kSync ? "sync" : "async";
}

const char* to_string(PortDir d) noexcept {
  return d == PortDir::kOut ? "out" : "in";
}

const char* to_string(NodeKind k) noexcept {
  switch (k) {
    case NodeKind::kExternal: return "external";
    case NodeKind::kSource: return "source";
    case NodeKind::kSink: return "sink";
    case NodeKind::kRepeater: return "repeater";
    case NodeKind::kRouter: return "router";
    case NodeKind::kBus: return "bus";
  }
  return "?";
}

const char* to_string(Primitive p) noexcept {
  switch (p) {
    case Primitive::kAuto: return "auto";
    case Primitive::kWire: return "wire";
    case Primitive::kSrsChain: return "srs_chain";
    case Primitive::kMixedClockFifo: return "mixed_clock_fifo";
    case Primitive::kAsyncSyncFifo: return "async_sync_fifo";
    case Primitive::kSyncAsyncFifo: return "sync_async_fifo";
    case Primitive::kAsyncAsyncFifo: return "async_async_fifo";
    case Primitive::kMicropipeline: return "micropipeline";
  }
  return "?";
}

Primitive resolve_primitive(TimingStyle from_style, DomainId from_domain,
                            TimingStyle to_style, DomainId to_domain,
                            fifo::ControllerKind controller,
                            unsigned latency) {
  const bool fifo_mode = controller == fifo::ControllerKind::kFifo;
  if (from_style == TimingStyle::kAsync && to_style == TimingStyle::kAsync) {
    if (fifo_mode) return Primitive::kAsyncAsyncFifo;
    return latency > 0 ? Primitive::kMicropipeline : Primitive::kWire;
  }
  if (from_style == TimingStyle::kAsync) return Primitive::kAsyncSyncFifo;
  if (to_style == TimingStyle::kAsync) return Primitive::kSyncAsyncFifo;
  if (from_domain != to_domain) return Primitive::kMixedClockFifo;
  // Same synchronous domain: never a CDC primitive.
  return latency > 0 ? Primitive::kSrsChain : Primitive::kWire;
}

DomainId Design::domain(const std::string& name,
                        const sync::ClockConfig& clock) {
  if (clock.period == 0) {
    throw ConfigError("builder: domain '" + name + "' has period 0");
  }
  for (const DomainDecl& d : domains_) {
    if (d.name == name) {
      throw ConfigError("builder: duplicate domain name '" + name + "'");
    }
  }
  domains_.push_back({name, clock});
  return domains_.size() - 1;
}

NodeId Design::external(const std::string& name, std::vector<PortDecl> ports) {
  Node n;
  n.kind = NodeKind::kExternal;
  n.name = name;
  n.ports = std::move(ports);
  return add_node(std::move(n));
}

NodeId Design::source(const std::string& name, PortDecl out, SourceAttrs a) {
  if (out.dir != PortDir::kOut) {
    throw ConfigError("builder: source '" + name +
                      "' needs an out port, got in port '" + out.name + "'");
  }
  Node n;
  n.kind = NodeKind::kSource;
  n.name = name;
  n.ports.push_back(std::move(out));
  n.source = std::move(a);
  return add_node(std::move(n));
}

NodeId Design::sink(const std::string& name, PortDecl in, SinkAttrs a) {
  if (in.dir != PortDir::kIn) {
    throw ConfigError("builder: sink '" + name +
                      "' needs an in port, got out port '" + in.name + "'");
  }
  Node n;
  n.kind = NodeKind::kSink;
  n.name = name;
  n.ports.push_back(std::move(in));
  n.sink = a;
  return add_node(std::move(n));
}

NodeId Design::repeater(const std::string& name, DomainId d, unsigned width) {
  Node n;
  n.kind = NodeKind::kRepeater;
  n.name = name;
  n.ports.push_back(sync_in("in", d, width));
  n.ports.push_back(sync_out("out", d, width));
  return add_node(std::move(n));
}

NodeId Design::router(const std::string& name, DomainId d, unsigned width,
                      RouterAttrs a, const std::vector<std::string>& ports) {
  static const char* kIn[] = {"n_in", "s_in", "e_in", "w_in", "l_in"};
  static const char* kOut[] = {"n_out", "s_out", "e_out", "w_out", "l_out"};
  Node n;
  n.kind = NodeKind::kRouter;
  n.name = name;
  n.router = a;
  for (const std::string& p : ports) {
    bool known = false;
    for (const char* q : kIn) {
      if (p == q) {
        n.ports.push_back(sync_in(p, d, width));
        known = true;
      }
    }
    for (const char* q : kOut) {
      if (p == q) {
        n.ports.push_back(sync_out(p, d, width));
        known = true;
      }
    }
    if (!known) {
      throw ConfigError("builder: router '" + name + "': unknown port '" + p +
                        "' (expected {n,s,e,w,l}_{in,out})");
    }
  }
  return add_node(std::move(n));
}

NodeId Design::bus(const std::string& name, DomainId d, unsigned width,
                   BusAttrs a) {
  if (a.inputs == 0 || a.outputs == 0) {
    throw ConfigError("builder: bus '" + name +
                      "' needs at least one input and one output port");
  }
  Node n;
  n.kind = NodeKind::kBus;
  n.name = name;
  n.bus = a;
  for (unsigned i = 0; i < a.inputs; ++i) {
    n.ports.push_back(sync_in("in" + std::to_string(i), d, width));
  }
  for (unsigned o = 0; o < a.outputs; ++o) {
    n.ports.push_back(sync_out("out" + std::to_string(o), d, width));
  }
  return add_node(std::move(n));
}

NodeId Design::add_node(Node n) {
  for (const Node& other : nodes_) {
    if (other.name == n.name) {
      throw ConfigError("builder: duplicate node name '" + n.name + "'");
    }
  }
  for (std::size_t i = 0; i < n.ports.size(); ++i) {
    for (std::size_t j = i + 1; j < n.ports.size(); ++j) {
      if (n.ports[i].name == n.ports[j].name) {
        throw ConfigError("builder: node '" + n.name +
                          "' declares port '" + n.ports[i].name + "' twice");
      }
    }
  }
  for (const PortDecl& p : n.ports) {
    if (p.width == 0 || p.width > 64) {
      throw ConfigError("builder: port '" + n.name + "." + p.name +
                        "': width " + std::to_string(p.width) +
                        " out of range 1..64");
    }
    if (p.style == TimingStyle::kSync) {
      if (p.domain == kNoDomain || p.domain >= domains_.size()) {
        throw ConfigError("builder: sync port '" + n.name + "." + p.name +
                          "' references an undeclared clock domain");
      }
    } else if (p.domain != kNoDomain) {
      throw ConfigError("builder: async port '" + n.name + "." + p.name +
                        "' must not carry a clock domain");
    }
  }
  n.id = nodes_.size();
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

EdgeId Design::connect(NodeId from_node, const std::string& from_port,
                       NodeId to_node, const std::string& to_port,
                       LinkOptions opt, std::string edge_name) {
  Edge e;
  e.id = edges_.size();
  e.name = edge_name.empty() ? "e" + std::to_string(e.id)
                             : std::move(edge_name);
  for (const Edge& other : edges_) {
    if (other.name == e.name) {
      throw ConfigError("builder: duplicate edge name '" + e.name + "'");
    }
  }
  e.from = from_node;
  e.from_port = port_index(from_node, from_port);
  e.to = to_node;
  e.to_port = port_index(to_node, to_port);
  e.opt = std::move(opt);
  edges_.push_back(std::move(e));
  return edges_.back().id;
}

const Node& Design::node(NodeId id) const {
  if (id >= nodes_.size()) {
    throw ConfigError("builder: node id " + std::to_string(id) +
                      " out of range");
  }
  return nodes_[id];
}

const Edge& Design::edge(EdgeId id) const {
  if (id >= edges_.size()) {
    throw ConfigError("builder: edge id " + std::to_string(id) +
                      " out of range");
  }
  return edges_[id];
}

std::size_t Design::port_index(NodeId id, const std::string& port) const {
  const Node& n = node(id);
  for (std::size_t i = 0; i < n.ports.size(); ++i) {
    if (n.ports[i].name == port) return i;
  }
  throw ConfigError("builder: node '" + n.name + "' has no port '" + port +
                    "'");
}

const PortDecl& Design::port(NodeId id, const std::string& name) const {
  return node(id).ports[port_index(id, name)];
}

EdgeId Design::edge_at(NodeId n, std::size_t p) const {
  for (const Edge& e : edges_) {
    if ((e.from == n && e.from_port == p) || (e.to == n && e.to_port == p)) {
      return e.id;
    }
  }
  return kNoEdge;
}

std::string Design::port_ref(NodeId n, std::size_t p) const {
  return nodes_[n].name + "." + nodes_[n].ports[p].name;
}

unsigned Design::link_width_of(const Edge& e) const {
  const unsigned wp = nodes_[e.from].ports[e.from_port].width;
  const unsigned wc = nodes_[e.to].ports[e.to_port].width;
  return e.opt.link_width != 0 ? e.opt.link_width : std::min(wp, wc);
}

fifo::FifoConfig Design::edge_fifo_config(const Edge& e) const {
  fifo::FifoConfig cfg = e.opt.base_set ? e.opt.base : link_defaults_;
  cfg.capacity = e.opt.capacity;
  cfg.width = link_width_of(e);
  cfg.controller = e.opt.controller;
  return cfg;
}

void Design::check_edge(const Edge& e) const {
  const std::string where = "builder: edge '" + e.name + "' (" +
                            port_ref(e.from, e.from_port) + " -> " +
                            port_ref(e.to, e.to_port) + ")";
  const PortDecl& pp = nodes_[e.from].ports[e.from_port];
  const PortDecl& pc = nodes_[e.to].ports[e.to_port];
  if (pp.dir != PortDir::kOut) {
    throw ConfigError(where + ": '" + port_ref(e.from, e.from_port) +
                      "' is an in port; edges run out -> in");
  }
  if (pc.dir != PortDir::kIn) {
    throw ConfigError(where + ": '" + port_ref(e.to, e.to_port) +
                      "' is an out port; edges run out -> in");
  }

  // Width / gearbox feasibility.
  const unsigned lw = link_width_of(e);
  if (lw == 0 || lw > 64) {
    throw ConfigError(where + ": link width " + std::to_string(lw) +
                      " out of range 1..64");
  }
  if (lw > pp.width || lw > pc.width) {
    throw ConfigError(where + ": link width " + std::to_string(lw) +
                      " exceeds a port width (" + std::to_string(pp.width) +
                      " -> " + std::to_string(pc.width) +
                      "); links only gear down");
  }
  if (pp.width % lw != 0 || pc.width % lw != 0) {
    throw ConfigError(
        where + ": width mismatch: " + port_ref(e.from, e.from_port) + " is " +
        std::to_string(pp.width) + " bits, " + port_ref(e.to, e.to_port) +
        " is " + std::to_string(pc.width) + " bits, link is " +
        std::to_string(lw) + " bits -- no integer gearbox ratio");
  }
  // A serializer is needed on any side whose port is wider than the link;
  // gearboxes are synchronous circuits, so that side must be clocked.
  const bool gearboxed = pp.width != lw || pc.width != lw;
  if (pp.width != lw && pp.style == TimingStyle::kAsync) {
    throw ConfigError(where + ": async port '" + port_ref(e.from, e.from_port) +
                      "' cannot be gearboxed (sync-side only); match widths");
  }
  if (pc.width != lw && pc.style == TimingStyle::kAsync) {
    throw ConfigError(where + ": async port '" + port_ref(e.to, e.to_port) +
                      "' cannot be gearboxed (sync-side only); match widths");
  }

  const bool fifo_mode = e.opt.controller == fifo::ControllerKind::kFifo;
  const unsigned latency = e.opt.latency_left + e.opt.latency_right;
  if (fifo_mode && latency > 0) {
    throw ConfigError(where +
                      ": relay-station latency requires the relay-station "
                      "controller; on-demand FIFO edges take latency 0");
  }
  if (fifo_mode && gearboxed) {
    throw ConfigError(where + ": gearboxes speak the latency-insensitive "
                              "protocol; on-demand FIFO edges need matching "
                              "widths");
  }
  // Repeaters, routers, buses and tagged traffic speak the
  // latency-insensitive packet protocol; on-demand FIFO interfaces
  // (req/full handshakes) have no stop wire for them to drive.
  if (fifo_mode) {
    for (const NodeId end : {e.from, e.to}) {
      const Node& n = nodes_[end];
      const bool li_only =
          n.kind == NodeKind::kRepeater || n.kind == NodeKind::kRouter ||
          n.kind == NodeKind::kBus ||
          (n.kind == NodeKind::kSource && n.source.tagged) ||
          (n.kind == NodeKind::kSink && n.sink.tagged);
      if (li_only) {
        throw ConfigError(where + ": node '" + n.name + "' (" +
                          to_string(n.kind) +
                          ") requires the relay-station controller, not an "
                          "on-demand FIFO edge");
      }
    }
  }
  // Tagged packets carry their routing fields in the top bits ([63:56]
  // dest, [55:48] flow); a serializer chunks only the low link-width bits,
  // so a gearboxed edge would strip the very evidence routers switch on.
  if (gearboxed) {
    for (const NodeId end : {e.from, e.to}) {
      const Node& n = nodes_[end];
      const bool packeted =
          n.kind == NodeKind::kRouter || n.kind == NodeKind::kBus ||
          (n.kind == NodeKind::kSource && n.source.tagged) ||
          (n.kind == NodeKind::kSink && n.sink.tagged);
      if (packeted) {
        throw ConfigError(where + ": node '" + n.name + "' (" +
                          to_string(n.kind) +
                          ") carries tagged packets whose routing fields "
                          "live in the top bits; a gearbox would truncate "
                          "them -- match the link width to the port width");
      }
    }
  }
  if (fifo_mode && pp.style == TimingStyle::kSync &&
      pc.style == TimingStyle::kSync && pp.domain == pc.domain) {
    throw ConfigError(where + ": both ports are in domain '" +
                      domains_[pp.domain].name +
                      "'; no CDC primitive applies to a same-domain "
                      "on-demand FIFO edge (use distinct domains or the "
                      "relay-station controller)");
  }

  const Primitive resolved =
      resolve_primitive(pp.style, pp.domain, pc.style, pc.domain,
                        e.opt.controller, latency);
  if (e.opt.primitive != Primitive::kAuto && e.opt.primitive != resolved) {
    std::string why;
    if (e.opt.primitive == Primitive::kMixedClockFifo &&
        pp.style == TimingStyle::kSync && pc.style == TimingStyle::kSync &&
        pp.domain == pc.domain) {
      why = ": both ports are in domain '" + domains_[pp.domain].name +
            "'; a same-domain edge cannot request the CDC primitive '" +
            std::string(to_string(e.opt.primitive)) + "'";
    } else {
      why = ": requested primitive '" +
            std::string(to_string(e.opt.primitive)) +
            "' does not fit the annotations (selection resolves to '" +
            std::string(to_string(resolved)) + "')";
    }
    throw ConfigError(where + why);
  }

  // The sync->async lowering ends in the sync-async FIFO's pull interface;
  // there is nothing downstream to pump relay stations with.
  if (resolved == Primitive::kSyncAsyncFifo && e.opt.latency_right > 0) {
    throw ConfigError(where + ": latency_right must be 0 on a sync->async "
                              "edge (the sync-async FIFO's pull interface "
                              "terminates the link)");
  }

  // Inserted FIFOs must themselves be constructible.
  const bool inserts_fifo = resolved == Primitive::kMixedClockFifo ||
                            resolved == Primitive::kAsyncSyncFifo ||
                            resolved == Primitive::kSyncAsyncFifo ||
                            resolved == Primitive::kAsyncAsyncFifo;
  if (inserts_fifo) {
    try {
      edge_fifo_config(e).validate();
    } catch (const ConfigError& err) {
      throw ConfigError(where + ": inserted " +
                        std::string(to_string(resolved)) + " is invalid: " +
                        err.what());
    }
  }
}

void Design::check() const {
  // Every port connected by exactly one edge.
  std::vector<std::vector<unsigned>> uses(nodes_.size());
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    uses[n].assign(nodes_[n].ports.size(), 0);
  }
  for (const Edge& e : edges_) {
    ++uses[e.from][e.from_port];
    ++uses[e.to][e.to_port];
  }
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    for (std::size_t p = 0; p < nodes_[n].ports.size(); ++p) {
      if (uses[n][p] == 0) {
        throw ConfigError("builder: dangling port '" + port_ref(n, p) +
                          "': every declared port must be connected");
      }
      if (uses[n][p] > 1) {
        const bool input = nodes_[n].ports[p].dir == PortDir::kIn;
        throw ConfigError("builder: port '" + port_ref(n, p) + "' has " +
                          std::to_string(uses[n][p]) +
                          (input ? " drivers; an input accepts exactly one"
                                 : " consumers; an output drives exactly "
                                   "one edge"));
      }
    }
  }

  for (const Edge& e : edges_) check_edge(e);

  // Node-level rules.
  for (const Node& n : nodes_) {
    if (n.kind == NodeKind::kSource && n.source.tagged) {
      if (n.ports[0].style != TimingStyle::kSync) {
        throw ConfigError("builder: tagged source '" + n.name +
                          "' must have a sync port");
      }
      if (n.source.dests.empty()) {
        throw ConfigError("builder: tagged source '" + n.name +
                          "' declares no destinations");
      }
    }
    if (n.kind == NodeKind::kSink && n.sink.tagged &&
        n.ports[0].style != TimingStyle::kSync) {
      throw ConfigError("builder: tagged sink '" + n.name +
                        "' must have a sync port");
    }
    const bool packeted = n.kind == NodeKind::kRouter ||
                          n.kind == NodeKind::kBus ||
                          (n.kind == NodeKind::kSource && n.source.tagged) ||
                          (n.kind == NodeKind::kSink && n.sink.tagged);
    if (packeted) {
      for (const PortDecl& p : n.ports) {
        if (p.width < 24) {
          throw ConfigError("builder: port '" + n.name + "." + p.name +
                            "': tagged packets need >= 24 bits (8 dest + 8 "
                            "flow + seq), got " + std::to_string(p.width));
        }
      }
    }
    if (n.kind == NodeKind::kRouter && n.router.queue < 2) {
      throw ConfigError("builder: router '" + n.name +
                        "': input queue depth must be >= 2");
    }
    // Untagged generated sinks check FIFO order against the upstream
    // source's scoreboard; routers and buses interleave flows, which only
    // the tagged per-flow checker understands.
    if (n.kind == NodeKind::kSink && !n.sink.tagged) {
      NodeId cur = n.id;
      std::size_t hops = 0;
      for (;;) {
        const EdgeId in = edge_at(cur, port_index(cur, cur == n.id
                                                           ? n.ports[0].name
                                                           : "in"));
        if (in == kNoEdge) break;
        const Node& up = nodes_[edges_[in].from];
        if (up.kind == NodeKind::kRouter || up.kind == NodeKind::kBus) {
          throw ConfigError("builder: sink '" + n.name +
                            "' consumes interleaved traffic from '" + up.name +
                            "'; mark it tagged for per-flow checking");
        }
        // The sink shares the source's scoreboard: an asymmetric gearbox
        // (unequal endpoint widths) would deliver chunks, not the pushed
        // values.
        if (up.kind == NodeKind::kSource &&
            up.ports[0].width != n.ports[0].width) {
          throw ConfigError(
              "builder: sink '" + n.name + "." + n.ports[0].name + "' (" +
              std::to_string(n.ports[0].width) + " bits) checks source '" +
              up.name + "." + up.ports[0].name + "' (" +
              std::to_string(up.ports[0].width) +
              " bits); scoreboard checking needs equal endpoint widths");
        }
        if (up.kind != NodeKind::kRepeater || ++hops > nodes_.size()) break;
        cur = up.id;
      }
    }
  }
}

// --- exports ---------------------------------------------------------------

std::string Design::to_json() const {
  std::string out;
  sim::JsonWriter w(out);
  w.begin_object(sim::JsonWriter::Layout::kLines).key("design").str(name_)
      .key("domains").begin_array();
  for (const DomainDecl& d : domains_) {
    w.begin_object().key("name").str(d.name)
        .key("period_ps").u64(d.clock.period).key("phase_ps").u64(d.clock.phase)
        .key("duty").num(d.clock.duty).key("jitter_ps").u64(d.clock.jitter)
        .end_object();
  }
  // Nodes and edges sit one per line after a ", " separator, with the
  // closer on its own line even when empty -- no layout does that -- so
  // each element is a raw line break, then the element from a fresh writer.
  w.end_array().key("nodes").begin_array();
  for (const Node& n : nodes_) {
    w.raw("\n    ");
    sim::JsonWriter el(out);
    el.begin_object().key("name").str(n.name)
        .key("kind").str(to_string(n.kind)).key("ports").begin_array();
    for (const PortDecl& p : n.ports) {
      el.begin_object().key("name").str(p.name)
          .key("dir").str(to_string(p.dir))
          .key("style").str(to_string(p.style)).key("domain");
      if (p.style == TimingStyle::kSync && p.domain < domains_.size()) {
        el.str(domains_[p.domain].name);
      } else {
        el.null();
      }
      el.key("width").u64(p.width).end_object();
    }
    el.end_array().end_object();
  }
  out += "\n  ";
  w.end_array().key("edges").begin_array();
  for (const Edge& e : edges_) {
    const PortDecl& pp = nodes_[e.from].ports[e.from_port];
    const PortDecl& pc = nodes_[e.to].ports[e.to_port];
    w.raw("\n    ");
    sim::JsonWriter(out).begin_object().key("name").str(e.name)
        .key("from").str(port_ref(e.from, e.from_port))
        .key("to").str(port_ref(e.to, e.to_port))
        .key("capacity").u64(e.opt.capacity)
        .key("controller").str(fifo::to_string(e.opt.controller))
        .key("latency").begin_array().u64(e.opt.latency_left)
        .u64(e.opt.latency_right).end_array()
        .key("link_width").u64(link_width_of(e))
        .key("primitive").str(to_string(resolve_primitive(
            pp.style, pp.domain, pc.style, pc.domain, e.opt.controller,
            e.opt.latency_left + e.opt.latency_right)))
        .end_object();
  }
  out += "\n  ";
  w.end_array().end_object();
  out += '\n';
  return out;
}

std::string Design::to_dot() const {
  static const char* kFills[] = {"#cfe2f3", "#d9ead3", "#fff2cc",
                                 "#f4cccc", "#d9d2e9", "#fce5cd"};
  std::ostringstream os;
  os << "digraph \"" << name_ << "\" {\n  rankdir=LR;\n"
     << "  node [shape=box, style=filled, fontname=\"Helvetica\"];\n";
  for (const Node& n : nodes_) {
    DomainId dom = kNoDomain;
    for (const PortDecl& p : n.ports) {
      if (p.style == TimingStyle::kSync) {
        dom = p.domain;
        break;
      }
    }
    const char* fill =
        dom == kNoDomain ? "#eeeeee" : kFills[dom % std::size(kFills)];
    os << "  \"" << n.name << "\" [label=\"" << n.name << "\\n("
       << to_string(n.kind);
    if (dom != kNoDomain) os << " @" << domains_[dom].name;
    os << ")\", fillcolor=\"" << fill << "\"];\n";
  }
  for (const Edge& e : edges_) {
    const PortDecl& pp = nodes_[e.from].ports[e.from_port];
    const PortDecl& pc = nodes_[e.to].ports[e.to_port];
    os << "  \"" << nodes_[e.from].name << "\" -> \"" << nodes_[e.to].name
       << "\" [label=\"" << e.name << ": "
       << to_string(resolve_primitive(pp.style, pp.domain, pc.style, pc.domain,
                                      e.opt.controller,
                                      e.opt.latency_left + e.opt.latency_right))
       << " w" << link_width_of(e) << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace mts::builder
