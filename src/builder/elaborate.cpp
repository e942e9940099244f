#include "builder/elaborate.hpp"

#include "gates/combinational.hpp"
#include "sim/error.hpp"
#include "sim/json_writer.hpp"
#include "sim/observe.hpp"
#include "sim/report.hpp"

namespace mts::builder {

namespace {

RouterDir router_dir_of(const std::string& port) {
  switch (port.empty() ? '?' : port[0]) {
    case 'n': return RouterDir::kNorth;
    case 's': return RouterDir::kSouth;
    case 'e': return RouterDir::kEast;
    case 'w': return RouterDir::kWest;
    default: return RouterDir::kLocal;
  }
}

}  // namespace

Elaborated::Elaborated(sim::Simulation& sim, const Design& d)
    : sim_(sim), design_(d), nl_(sim, "") {
  design_.check();

  // 1. Clocks, in domain declaration order.
  clocks_.reserve(design_.domains().size());
  for (const DomainDecl& dom : design_.domains()) {
    clocks_.push_back(&nl_.add<sync::Clock>(sim_, dom.name, dom.clock));
  }

  // 2. Edge machinery, in edge declaration order.
  edges_.resize(design_.edges().size());
  for (const Edge& e : design_.edges()) lower_edge(e);

  // 2b. Scoreboards for every generated (untagged) source, before any node
  // component: a sink may be declared before the source it checks, and the
  // Scoreboard constructor is side-effect-free, so pre-creating them here
  // keeps handles simple without disturbing event order.
  nodes_.resize(design_.nodes().size());
  for (const Node& n : design_.nodes()) {
    if (n.kind == NodeKind::kSource && !n.source.tagged) {
      nodes_[n.id].sb = &nl_.add<bfm::Scoreboard>(sim_, n.name + ".sb");
    }
  }

  // 3. Node components, in node declaration order.
  for (const Node& n : design_.nodes()) lower_node(n);

  // 4. Announce the elaborated shape through the armed hubs.
  sim::Observability* obs = sim_.observability();
  if (obs != nullptr && obs->metrics != nullptr) {
    const std::string inst = "builder." + design_.name();
    obs->metrics->gauge(inst, "domains")
        .set(static_cast<double>(design_.domains().size()));
    obs->metrics->gauge(inst, "nodes")
        .set(static_cast<double>(design_.nodes().size()));
    obs->metrics->gauge(inst, "edges")
        .set(static_cast<double>(design_.edges().size()));
    obs->metrics->gauge(inst, "inserted")
        .set(static_cast<double>(inserted_.size()));
  }
  sim_.report().add(sim_.now(), sim::Severity::kInfo, "builder",
                    design_.name() + ": elaborated " +
                        std::to_string(design_.nodes().size()) + " nodes, " +
                        std::to_string(design_.edges().size()) + " edges, " +
                        std::to_string(inserted_.size()) +
                        " inserted primitives");
}

LiPort Elaborated::li_wires(const std::string& base) {
  LiPort p;
  p.data = &nl_.word(base + ".data");
  p.valid = &nl_.wire(base + ".valid");
  p.stop = &nl_.wire(base + ".stop");
  return p;
}

void Elaborated::link_traces(const std::string& up, const std::string& down) {
  sim::Observability* obs = sim_.observability();
  if (obs == nullptr || obs->trace == nullptr) return;
  if (up.empty() || down.empty()) return;
  obs->trace->link(up, down);
}

void Elaborated::lower_edge(const Edge& e) {
  EdgeParts& parts = edges_[e.id];
  const PortDecl& pp = design_.node(e.from).ports[e.from_port];
  const PortDecl& pc = design_.node(e.to).ports[e.to_port];
  const unsigned lw = design_.link_width_of(e);
  fifo::FifoConfig cfg = design_.edge_fifo_config(e);
  const unsigned latency = e.opt.latency_left + e.opt.latency_right;
  parts.primitive =
      e.opt.primitive == Primitive::kAuto
          ? resolve_primitive(pp.style, pp.domain, pc.style, pc.domain,
                              e.opt.controller, latency)
          : e.opt.primitive;

  auto record = [&](Primitive kind, const std::string& instance) {
    inserted_.push_back({e.id, kind, instance});
  };

  // --- the edge core, at link width -------------------------------------
  switch (parts.primitive) {
    case Primitive::kWire:
    case Primitive::kSrsChain: {
      if (pp.style == TimingStyle::kAsync) {
        // Async-async, zero latency: one shared handshake channel.
        HandshakePort hs;
        hs.req = &nl_.wire(e.name + ".req");
        hs.ack = &nl_.wire(e.name + ".ack");
        hs.data = &nl_.word(e.name + ".data");
        parts.head.style = parts.tail.style = EndpointStyle::kHandshake;
        parts.head.hs = parts.tail.hs = hs;
        record(Primitive::kWire, e.name);
        break;
      }
      parts.head.li = li_wires(e.name + ".in");
      parts.tail.li = li_wires(e.name + ".out");
      parts.chain = &nl_.add<lip::SyncRelayChain>(
          sim_, e.name, clocks_[pp.domain]->out(), latency, cfg.dm,
          *parts.head.li.data, *parts.head.li.valid, *parts.head.li.stop,
          *parts.tail.li.data, *parts.tail.li.valid, *parts.tail.li.stop);
      parts.head.traced = parts.chain->first_station_instance();
      parts.tail.traced = parts.chain->last_station_instance();
      record(parts.primitive, e.name);
      break;
    }

    case Primitive::kMicropipeline: {
      HandshakePort in, out;
      in.req = &nl_.wire(e.name + ".in.req");
      in.ack = &nl_.wire(e.name + ".in.ack");
      in.data = &nl_.word(e.name + ".in.data");
      out.req = &nl_.wire(e.name + ".out.req");
      out.ack = &nl_.wire(e.name + ".out.ack");
      out.data = &nl_.word(e.name + ".out.data");
      parts.pipe = &nl_.add<lip::Micropipeline>(
          sim_, e.name, latency, *in.req, *in.ack, *in.data, *out.req,
          *out.ack, *out.data, cfg.dm);
      parts.head.style = parts.tail.style = EndpointStyle::kHandshake;
      parts.head.hs = in;
      parts.tail.hs = out;
      record(Primitive::kMicropipeline, e.name);
      break;
    }

    case Primitive::kMixedClockFifo: {
      if (e.opt.controller == fifo::ControllerKind::kRelayStation) {
        parts.mc_link = &nl_.add<lip::MixedClockLink>(
            sim_, e.name, cfg, clocks_[pp.domain]->out(),
            clocks_[pc.domain]->out(), e.opt.latency_left,
            e.opt.latency_right);
        parts.head.li = {&parts.mc_link->data_in(), &parts.mc_link->valid_in(),
                         &parts.mc_link->stop_out()};
        parts.tail.li = {&parts.mc_link->data_out(),
                         &parts.mc_link->valid_out(),
                         &parts.mc_link->stop_in()};
        parts.head.traced = parts.mc_link->first_traced_instance();
        parts.tail.traced = parts.mc_link->last_traced_instance();
      } else {
        parts.mc_fifo = &nl_.add<fifo::MixedClockFifo>(
            sim_, e.name, cfg, clocks_[pp.domain]->out(),
            clocks_[pc.domain]->out());
        parts.head.style = EndpointStyle::kFifoPut;
        parts.head.fput = {&parts.mc_fifo->req_put(), &parts.mc_fifo->data_put(),
                           &parts.mc_fifo->full(), &parts.mc_fifo->en_put()};
        parts.tail.style = EndpointStyle::kFifoGet;
        parts.tail.fget = {&parts.mc_fifo->req_get(), &parts.mc_fifo->data_get(),
                           &parts.mc_fifo->valid_get(), &parts.mc_fifo->empty(),
                           &parts.mc_fifo->stop_in()};
        parts.head.traced = parts.tail.traced = e.name;
      }
      record(Primitive::kMixedClockFifo, e.name);
      break;
    }

    case Primitive::kAsyncSyncFifo: {
      if (e.opt.controller == fifo::ControllerKind::kRelayStation) {
        parts.as_link = &nl_.add<lip::AsyncSyncLink>(
            sim_, e.name, cfg, clocks_[pc.domain]->out(), e.opt.latency_left,
            e.opt.latency_right);
        parts.head.style = EndpointStyle::kHandshake;
        parts.head.hs = {&parts.as_link->put_req(), &parts.as_link->put_ack(),
                         &parts.as_link->put_data()};
        parts.tail.li = {&parts.as_link->data_out(),
                         &parts.as_link->valid_out(),
                         &parts.as_link->stop_in()};
        parts.head.traced = parts.as_link->first_traced_instance();
        parts.tail.traced = parts.as_link->last_traced_instance();
      } else {
        parts.as_fifo = &nl_.add<fifo::AsyncSyncFifo>(
            sim_, e.name, cfg, clocks_[pc.domain]->out());
        parts.head.style = EndpointStyle::kHandshake;
        parts.head.hs = {&parts.as_fifo->put_req(), &parts.as_fifo->put_ack(),
                         &parts.as_fifo->put_data()};
        parts.tail.style = EndpointStyle::kFifoGet;
        parts.tail.fget = {&parts.as_fifo->req_get(), &parts.as_fifo->data_get(),
                           &parts.as_fifo->valid_get(), &parts.as_fifo->empty(),
                           &parts.as_fifo->stop_in()};
        parts.head.traced = parts.tail.traced = e.name;
      }
      record(Primitive::kAsyncSyncFifo, e.name);
      break;
    }

    case Primitive::kSyncAsyncFifo: {
      if (e.opt.controller == fifo::ControllerKind::kRelayStation) {
        // No SARS primitive exists in the paper's toolbox: an LI producer
        // reaches the sync-async FIFO through valid->req_put / full->stop
        // glue, the FIFO itself running in on-demand mode. Back-pressure is
        // still lossless -- full gates the producer through the stop wire.
        parts.head.li = li_wires(e.name + ".in");
        LiPort mid = parts.head.li;
        if (e.opt.latency_left > 0) {
          mid = li_wires(e.name + ".m");
          parts.chain = &nl_.add<lip::SyncRelayChain>(
              sim_, e.name + ".left", clocks_[pp.domain]->out(),
              e.opt.latency_left, cfg.dm, *parts.head.li.data,
              *parts.head.li.valid, *parts.head.li.stop, *mid.data, *mid.valid,
              *mid.stop);
          parts.head.traced = parts.chain->first_station_instance();
        }
        fifo::FifoConfig fc = cfg;
        fc.controller = fifo::ControllerKind::kFifo;
        parts.sa_fifo = &nl_.add<fifo::SyncAsyncFifo>(
            sim_, e.name + ".fifo", fc, clocks_[pp.domain]->out());
        gates::gate_into(nl_, e.name + ".vreq", gates::GateOp::kBuf,
                         {mid.valid}, parts.sa_fifo->req_put(), cfg.dm.gate(1));
        nl_.add<gates::WordBuf>(sim_, nl_.qualified(e.name + ".dwire"),
                                *mid.data, parts.sa_fifo->data_put(),
                                cfg.dm.gate(1));
        gates::gate_into(nl_, e.name + ".swire", gates::GateOp::kBuf,
                         {&parts.sa_fifo->full()}, *mid.stop, cfg.dm.gate(1));
        if (parts.head.traced.empty()) parts.head.traced = e.name + ".fifo";
        parts.tail.traced = e.name + ".fifo";
        record(Primitive::kSyncAsyncFifo, e.name + ".fifo");
      } else {
        parts.sa_fifo = &nl_.add<fifo::SyncAsyncFifo>(
            sim_, e.name, cfg, clocks_[pp.domain]->out());
        parts.head.style = EndpointStyle::kFifoPut;
        parts.head.fput = {&parts.sa_fifo->req_put(), &parts.sa_fifo->data_put(),
                           &parts.sa_fifo->full(), &parts.sa_fifo->en_put()};
        parts.head.traced = parts.tail.traced = e.name;
        record(Primitive::kSyncAsyncFifo, e.name);
      }
      parts.tail.style = EndpointStyle::kHandshake;
      parts.tail.hs = {&parts.sa_fifo->get_req(), &parts.sa_fifo->get_ack(),
                       &parts.sa_fifo->get_data()};
      break;
    }

    case Primitive::kAsyncAsyncFifo: {
      parts.aa_fifo = &nl_.add<fifo::AsyncAsyncFifo>(sim_, e.name, cfg);
      parts.head.style = EndpointStyle::kHandshake;
      parts.head.hs = {&parts.aa_fifo->put_req(), &parts.aa_fifo->put_ack(),
                       &parts.aa_fifo->put_data()};
      parts.tail.style = EndpointStyle::kHandshake;
      parts.tail.hs = {&parts.aa_fifo->get_req(), &parts.aa_fifo->get_ack(),
                       &parts.aa_fifo->get_data()};
      parts.head.traced = parts.tail.traced = e.name;
      record(Primitive::kAsyncAsyncFifo, e.name);
      break;
    }

    case Primitive::kAuto:
      throw ConfigError("builder: edge '" + e.name +
                        "' resolved to kAuto (internal error)");
  }

  // --- gearboxes: serialize wide producers down, reassemble for wide
  // consumers (Design::check() guarantees sync endpoints, integral ratios
  // and LI cores on any gearboxed side) ----------------------------------
  if (pp.width != lw) {
    LiPort wide = li_wires(e.name + ".ser");
    parts.ser = &nl_.add<Serializer>(
        sim_, e.name + ".ser", clocks_[pp.domain]->out(), pp.width / lw, lw,
        *wide.data, *wide.valid, *wide.stop, *parts.head.li.data,
        *parts.head.li.valid, *parts.head.li.stop, cfg.dm);
    parts.head = Endpoint{};
    parts.head.li = wide;
    record(Primitive::kWire, e.name + ".ser");
  }
  if (pc.width != lw) {
    LiPort wide = li_wires(e.name + ".deser");
    parts.deser = &nl_.add<Deserializer>(
        sim_, e.name + ".deser", clocks_[pc.domain]->out(), pc.width / lw, lw,
        *parts.tail.li.data, *parts.tail.li.valid, *parts.tail.li.stop,
        *wide.data, *wide.valid, *wide.stop, cfg.dm);
    parts.tail = Endpoint{};
    parts.tail.li = wide;
    record(Primitive::kWire, e.name + ".deser");
  }
}

void Elaborated::lower_node(const Node& n) {
  NodeParts& parts = nodes_[n.id];
  switch (n.kind) {
    case NodeKind::kExternal:
      break;  // ports exposed through the accessors; nothing generated

    case NodeKind::kSource: {
      const PortDecl& p = n.ports[0];
      const Edge& e = design_.edge(design_.edge_at(n.id, 0));
      const Endpoint& ep = edges_[e.id].head;
      const fifo::FifoConfig cfg = design_.edge_fifo_config(e);
      if (n.source.tagged) {
        parts.tagged_source = &nl_.add<TaggedSource>(
            sim_, n.name, clocks_[p.domain]->out(), *ep.li.data, *ep.li.valid,
            *ep.li.stop, cfg.dm, n.source.rate, n.source.flow, n.source.dests,
            p.width);
      } else if (p.style == TimingStyle::kAsync) {
        parts.async_put = &nl_.add<bfm::AsyncPutDriver>(
            sim_, n.name, *ep.hs.req, *ep.hs.ack, *ep.hs.data, cfg.dm,
            n.source.gap, n.source.mask, parts.sb);
      } else if (ep.style == EndpointStyle::kFifoPut) {
        parts.sync_put = &nl_.add<bfm::SyncPutDriver>(
            sim_, n.name, clocks_[p.domain]->out(), *ep.fput.req_put,
            *ep.fput.data_put, *ep.fput.full, cfg.dm,
            bfm::RateConfig{n.source.rate, 1}, n.source.mask);
        parts.put_mon = &nl_.add<bfm::PutMonitor>(
            sim_, clocks_[p.domain]->out(), *ep.fput.en_put, *ep.fput.req_put,
            *ep.fput.data_put, *parts.sb);
      } else {
        parts.rs_source = &nl_.add<bfm::RsSource>(
            sim_, n.name, clocks_[p.domain]->out(), *ep.li.data, *ep.li.valid,
            *ep.li.stop, cfg.dm, n.source.rate, n.source.mask, *parts.sb);
      }
      break;
    }

    case NodeKind::kSink: {
      const PortDecl& p = n.ports[0];
      const Edge& e = design_.edge(design_.edge_at(n.id, 0));
      const Endpoint& ep = edges_[e.id].tail;
      const fifo::FifoConfig cfg = design_.edge_fifo_config(e);
      if (n.sink.tagged) {
        parts.tagged_sink = &nl_.add<TaggedSink>(
            sim_, n.name, clocks_[p.domain]->out(), *ep.li.data, *ep.li.valid,
            *ep.li.stop, cfg.dm, n.sink.stall_rate);
        break;
      }
      const NodeId src = upstream_source(n.id);
      if (src != kNoNode) {
        parts.check_sb = nodes_[src].sb;
      } else {
        // Fed by an external node: the sink owns the expectation queue and
        // the external producer pushes into it (Elaborated::scoreboard()).
        parts.sb = &nl_.add<bfm::Scoreboard>(sim_, n.name + ".sb");
        parts.check_sb = parts.sb;
      }
      if (p.style == TimingStyle::kAsync) {
        // A micropipeline output or bare bundled-data channel is push-style
        // (the producer drives req); FIFO get-ports are pull-style (the
        // consumer drives req). The BFM must match or the channel deadlocks.
        const Primitive prim = edges_[e.id].primitive;
        if (prim == Primitive::kMicropipeline || prim == Primitive::kWire) {
          parts.async_ack = &nl_.add<bfm::AsyncAckSink>(
              sim_, n.name, *ep.hs.req, *ep.hs.ack, *ep.hs.data, cfg.dm,
              n.sink.gap, parts.check_sb);
        } else {
          parts.async_get = &nl_.add<bfm::AsyncGetDriver>(
              sim_, n.name, *ep.hs.req, *ep.hs.ack, *ep.hs.data, cfg.dm,
              n.sink.gap, parts.check_sb);
        }
      } else if (ep.style == EndpointStyle::kFifoGet) {
        parts.sync_get = &nl_.add<bfm::SyncGetDriver>(
            sim_, n.name, clocks_[p.domain]->out(), *ep.fget.req_get, cfg.dm,
            bfm::RateConfig{1.0 - n.sink.stall_rate, 0});
        parts.get_mon = &nl_.add<bfm::GetMonitor>(
            sim_, clocks_[p.domain]->out(), *ep.fget.valid_get,
            *ep.fget.data_get, *parts.check_sb);
      } else {
        parts.rs_sink = &nl_.add<bfm::RsSink>(
            sim_, n.name, clocks_[p.domain]->out(), *ep.li.data, *ep.li.valid,
            *ep.li.stop, cfg.dm, n.sink.stall_rate, *parts.check_sb);
      }
      break;
    }

    case NodeKind::kRepeater: {
      const Edge& ein = design_.edge(design_.edge_at(n.id, 0));
      const Edge& eout = design_.edge(design_.edge_at(n.id, 1));
      const Endpoint& ti = edges_[ein.id].tail;
      const Endpoint& ho = edges_[eout.id].head;
      const sim::Time delay = design_.edge_fifo_config(ein).dm.gate(1);
      nl_.add<gates::WordBuf>(sim_, nl_.qualified(n.name + ".d"), *ti.li.data,
                              *ho.li.data, delay);
      gates::gate_into(nl_, n.name + ".v", gates::GateOp::kBuf, {ti.li.valid},
                       *ho.li.valid, delay);
      gates::gate_into(nl_, n.name + ".s", gates::GateOp::kBuf, {ho.li.stop},
                       *ti.li.stop, delay);
      link_traces(ti.traced, ho.traced);
      break;
    }

    case NodeKind::kRouter: {
      std::vector<MeshRouter::InPort> ins;
      std::vector<MeshRouter::OutPort> outs;
      for (std::size_t i = 0; i < n.ports.size(); ++i) {
        const Endpoint& ep = endpoint_of(n.id, i);
        const RouterDir dir = router_dir_of(n.ports[i].name);
        if (n.ports[i].dir == PortDir::kIn) {
          ins.push_back({dir, ep.li.data, ep.li.valid, ep.li.stop});
        } else {
          outs.push_back({dir, ep.li.data, ep.li.valid, ep.li.stop});
        }
      }
      parts.router = &nl_.add<MeshRouter>(
          sim_, n.name, clocks_[n.ports[0].domain]->out(), n.router.x,
          n.router.y, n.router.queue, std::move(ins), std::move(outs),
          design_.link_defaults().dm);
      break;
    }

    case NodeKind::kBus: {
      std::vector<BusFabric::InPort> ins;
      std::vector<BusFabric::OutPort> outs;
      for (std::size_t i = 0; i < n.ports.size(); ++i) {
        const Endpoint& ep = endpoint_of(n.id, i);
        if (n.ports[i].dir == PortDir::kIn) {
          ins.push_back({ep.li.data, ep.li.valid, ep.li.stop});
        } else {
          outs.push_back({ep.li.data, ep.li.valid, ep.li.stop});
        }
      }
      parts.bus = &nl_.add<BusFabric>(
          sim_, n.name, clocks_[n.ports[0].domain]->out(), std::move(ins),
          std::move(outs), design_.link_defaults().dm);
      break;
    }
  }
}

NodeId Elaborated::upstream_source(NodeId sink) const {
  NodeId cur = sink;
  std::size_t port = 0;  // sink "in" / repeater "in" are both port 0
  for (;;) {
    const EdgeId eid = design_.edge_at(cur, port);
    if (eid == Design::kNoEdge) return kNoNode;
    const Edge& e = design_.edge(eid);
    const Node& from = design_.node(e.from);
    if (from.kind == NodeKind::kSource && !from.source.tagged) return from.id;
    if (from.kind != NodeKind::kRepeater) return kNoNode;
    cur = from.id;
    port = 0;
  }
}

const Endpoint& Elaborated::endpoint_of(NodeId n, std::size_t port_idx) const {
  const EdgeId eid = design_.edge_at(n, port_idx);
  if (eid == Design::kNoEdge) {
    throw ConfigError("builder: port '" + design_.node(n).name + "." +
                      design_.node(n).ports[port_idx].name +
                      "' is not connected");
  }
  const Edge& e = design_.edge(eid);
  const bool is_head = e.from == n && e.from_port == port_idx;
  return is_head ? edges_[eid].head : edges_[eid].tail;
}

sync::Clock& Elaborated::clock(DomainId d) {
  if (d >= clocks_.size()) {
    throw ConfigError("builder: unknown domain id " + std::to_string(d));
  }
  return *clocks_[d];
}

const EdgeParts& Elaborated::edge(EdgeId e) const {
  if (e >= edges_.size()) {
    throw ConfigError("builder: unknown edge id " + std::to_string(e));
  }
  return edges_[e];
}

const NodeParts& Elaborated::node(NodeId n) const {
  if (n >= nodes_.size()) {
    throw ConfigError("builder: unknown node id " + std::to_string(n));
  }
  return nodes_[n];
}

LiPort Elaborated::li_port(NodeId n, const std::string& port) const {
  const Endpoint& ep = endpoint_of(n, design_.port_index(n, port));
  if (ep.style != EndpointStyle::kLi) {
    throw ConfigError("builder: port '" + design_.node(n).name + "." + port +
                      "' is not a latency-insensitive endpoint");
  }
  return ep.li;
}

HandshakePort Elaborated::handshake_port(NodeId n,
                                         const std::string& port) const {
  const Endpoint& ep = endpoint_of(n, design_.port_index(n, port));
  if (ep.style != EndpointStyle::kHandshake) {
    throw ConfigError("builder: port '" + design_.node(n).name + "." + port +
                      "' is not a 4-phase handshake endpoint");
  }
  return ep.hs;
}

SyncFifoPut Elaborated::fifo_put(NodeId n, const std::string& port) const {
  const Endpoint& ep = endpoint_of(n, design_.port_index(n, port));
  if (ep.style != EndpointStyle::kFifoPut) {
    throw ConfigError("builder: port '" + design_.node(n).name + "." + port +
                      "' is not an on-demand FIFO put endpoint");
  }
  return ep.fput;
}

SyncFifoGet Elaborated::fifo_get(NodeId n, const std::string& port) const {
  const Endpoint& ep = endpoint_of(n, design_.port_index(n, port));
  if (ep.style != EndpointStyle::kFifoGet) {
    throw ConfigError("builder: port '" + design_.node(n).name + "." + port +
                      "' is not an on-demand FIFO get endpoint");
  }
  return ep.fget;
}

bfm::Scoreboard& Elaborated::scoreboard(NodeId n) const {
  const NodeParts& parts = node(n);
  bfm::Scoreboard* sb =
      parts.check_sb != nullptr ? parts.check_sb : parts.sb;
  if (sb == nullptr) {
    throw ConfigError("builder: node '" + design_.node(n).name +
                      "' has no scoreboard (tagged traffic checks itself)");
  }
  return *sb;
}

std::uint64_t Elaborated::source_sent(NodeId n) const {
  const NodeParts& p = node(n);
  if (p.tagged_source != nullptr) return p.tagged_source->sent();
  if (p.rs_source != nullptr) return p.rs_source->sent_valid();
  if (p.put_mon != nullptr) return p.put_mon->enqueued();
  if (p.async_put != nullptr) return p.async_put->completed();
  return 0;
}

std::uint64_t Elaborated::sink_received(NodeId n) const {
  const NodeParts& p = node(n);
  if (p.tagged_sink != nullptr) return p.tagged_sink->received();
  if (p.rs_sink != nullptr) return p.rs_sink->received_valid();
  if (p.get_mon != nullptr) return p.get_mon->dequeued();
  if (p.async_get != nullptr) return p.async_get->completed();
  if (p.async_ack != nullptr) return p.async_ack->completed();
  return 0;
}

std::uint64_t Elaborated::total_sent() const {
  std::uint64_t n = 0;
  for (const Node& node : design_.nodes()) {
    if (node.kind == NodeKind::kSource) n += source_sent(node.id);
  }
  return n;
}

std::uint64_t Elaborated::total_received() const {
  std::uint64_t n = 0;
  for (const Node& node : design_.nodes()) {
    if (node.kind == NodeKind::kSink) n += sink_received(node.id);
  }
  return n;
}

std::uint64_t Elaborated::total_order_violations() const {
  std::uint64_t n = 0;
  for (const NodeParts& p : nodes_) {
    if (p.sb != nullptr) n += p.sb->errors();
    if (p.tagged_sink != nullptr) n += p.tagged_sink->violations();
    if (p.router != nullptr) n += p.router->misroutes();
    if (p.bus != nullptr) n += p.bus->misroutes();
  }
  return n;
}

void Elaborated::arm_watchdog(sim::Watchdog& wd) {
  wd.watch(
      "builder." + design_.name(),
      [this] {
        const std::uint64_t sent = total_sent();
        const std::uint64_t recv = total_received();
        return sent > recv ? sent - recv : 0;
      },
      [this] { return total_received(); });
}

std::string Elaborated::to_json() const {
  using Layout = sim::JsonWriter::Layout;
  std::string out;
  sim::JsonWriter w(out);
  w.begin_object(Layout::kCompact).key("design").raw(design_.to_json())
      .key("inserted").begin_array(Layout::kCompact);
  for (const InsertedRecord& r : inserted_) {
    w.begin_object(Layout::kCompact).key("edge").str(design_.edge(r.edge).name)
        .key("primitive").str(to_string(r.kind))
        .key("instance").str(r.instance).end_object();
  }
  w.end_array().end_object();
  return out;
}

std::unique_ptr<Elaborated> elaborate(sim::Simulation& sim, const Design& d) {
  return std::make_unique<Elaborated>(sim, d);
}

}  // namespace mts::builder
