#include "gates/combinational.hpp"

#include <algorithm>
#include <utility>

#include "sim/error.hpp"

namespace mts::gates {

namespace {

/// A gate's input wires as the bit sequence gate_truth reads.
struct InputBits {
  const std::vector<sim::Wire*>& wires;
  std::size_t size() const noexcept { return wires.size(); }
  bool operator[](std::size_t i) const noexcept { return wires[i]->read(); }
};

}  // namespace

Gate::Gate(sim::Simulation& sim, std::string name, std::vector<sim::Wire*> inputs,
           sim::Wire& out, GateOp op, Time delay)
    : name_(std::move(name)),
      inputs_(std::move(inputs)),
      out_(out),
      op_(op),
      delay_(delay) {
  MTS_ASSERT(!inputs_.empty(), "gate '" + name_ + "' has no inputs");
  const bool unary = op_ == GateOp::kNot || op_ == GateOp::kBuf;
  const std::size_t fanin = inputs_.size();
  const std::size_t want = unary ? 1 : op_ == GateOp::kMux ? 3 : fanin;
  if (fanin != want) {
    throw ConfigError("gate '" + name_ + "' needs " + std::to_string(want) +
                      " inputs, got " + std::to_string(fanin));
  }
  for (sim::Wire* in : inputs_) {
    MTS_ASSERT(in != nullptr, "gate '" + name_ + "' has a null input");
    in->on_change([this](bool, bool) { evaluate(); });
  }
  sim.sched().after(0, [this] { evaluate(); });
}

void Gate::evaluate() {
  out_.write(gate_truth(op_, InputBits{inputs_}), delay_,
             sim::DelayKind::kInertial);
}

Time gate_delay(GateOp op, std::size_t fanin, const DelayModel& dm, unsigned fanout) {
  // Inverting inputs (kAndNotLast/kOrNotLast) cost one extra input's slope.
  unsigned effective = static_cast<unsigned>(fanin);
  if (op == GateOp::kAndNotLast || op == GateOp::kOrNotLast) ++effective;
  return dm.gate(effective, fanout);
}

sim::Wire& make_gate(Netlist& nl, const std::string& name, GateOp op,
                     std::vector<sim::Wire*> inputs, const DelayModel& dm,
                     unsigned fanout) {
  sim::Wire& out = nl.wire(name);
  const Time delay = gate_delay(op, inputs.size(), dm, fanout);
  gate_into(nl, name, op, std::move(inputs), out, delay);
  return out;
}

Gate& gate_into(Netlist& nl, const std::string& name, GateOp op,
                std::vector<sim::Wire*> inputs, sim::Wire& out, Time delay) {
  return nl.add<Gate>(nl.sim(), nl.qualified(name), std::move(inputs), out, op,
                      delay);
}

sim::Wire& make_delay(Netlist& nl, const std::string& name, sim::Wire& in, Time delay) {
  sim::Wire& out = nl.wire(name);
  gate_into(nl, name, GateOp::kBuf, {&in}, out, delay);
  return out;
}

namespace {

sim::Wire& make_tree(Netlist& nl, const std::string& name, GateOp op,
                     std::vector<sim::Wire*> inputs, const DelayModel& dm,
                     unsigned arity) {
  MTS_ASSERT(!inputs.empty(), "tree '" + name + "' has no inputs");
  MTS_ASSERT(arity >= 2, "tree '" + name + "' needs arity >= 2");
  unsigned level = 0;
  while (inputs.size() > 1) {
    std::vector<sim::Wire*> next;
    next.reserve((inputs.size() + arity - 1) / arity);
    for (std::size_t i = 0; i < inputs.size(); i += arity) {
      const std::size_t group = std::min<std::size_t>(arity, inputs.size() - i);
      if (group == 1) {
        next.push_back(inputs[i]);  // leftover passes through
        continue;
      }
      std::vector<sim::Wire*> node_inputs(inputs.begin() + static_cast<std::ptrdiff_t>(i),
                                          inputs.begin() + static_cast<std::ptrdiff_t>(i + group));
      const std::string node =
          name + ".l" + std::to_string(level) + "n" + std::to_string(i / arity);
      next.push_back(&make_gate(nl, node, op, std::move(node_inputs), dm));
    }
    inputs = std::move(next);
    ++level;
  }
  if (level == 0) {
    // Single input: still isolate through a buffer so the tree always owns
    // its root wire (callers may attach further logic or rename it).
    return make_delay(nl, name + ".root", *inputs[0], dm.gate(1));
  }
  return *inputs[0];
}

}  // namespace

unsigned tree_depth(unsigned leaves, unsigned arity) {
  unsigned depth = 0;
  unsigned reach = 1;
  while (reach < leaves) {
    reach *= arity;
    ++depth;
  }
  return depth;
}

sim::Wire& make_or_tree(Netlist& nl, const std::string& name,
                        std::vector<sim::Wire*> inputs, const DelayModel& dm,
                        unsigned arity) {
  return make_tree(nl, name, GateOp::kOr, std::move(inputs), dm, arity);
}

sim::Wire& make_and_tree(Netlist& nl, const std::string& name,
                         std::vector<sim::Wire*> inputs, const DelayModel& dm,
                         unsigned arity) {
  return make_tree(nl, name, GateOp::kAnd, std::move(inputs), dm, arity);
}

WordMux::WordMux(sim::Simulation& sim, std::string name, sim::Wire& sel,
                 sim::Word& a, sim::Word& b, sim::Word& out, Time delay)
    : sel_(sel), a_(a), b_(b), out_(out), delay_(delay) {
  (void)name;
  sel_.on_change([this](bool, bool) { evaluate(); });
  a_.on_change([this](std::uint64_t, std::uint64_t) { evaluate(); });
  b_.on_change([this](std::uint64_t, std::uint64_t) { evaluate(); });
  sim.sched().after(0, [this] { evaluate(); });
}

void WordMux::evaluate() {
  out_.write(sel_.read() ? a_.read() : b_.read(), delay_,
             sim::DelayKind::kInertial);
}

WordBuf::WordBuf(sim::Simulation& sim, std::string name, sim::Word& in,
                 sim::Word& out, Time delay)
    : in_(in), out_(out), delay_(delay) {
  (void)name;
  in_.on_change([this](std::uint64_t, std::uint64_t now) {
    out_.write(now, delay_, sim::DelayKind::kInertial);
  });
  sim.sched().after(0, [this] {
    out_.write(in_.read(), delay_, sim::DelayKind::kInertial);
  });
}

}  // namespace mts::gates
