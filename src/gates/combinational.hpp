// Combinational gate primitives.
//
// A Gate owns no wires; it watches its input wires and drives one output
// wire with an inertial delay (pulses shorter than the gate delay are
// filtered, as in a real gate). Factories cover the common shapes used by
// the FIFO netlists, including balanced trees for the wide detector
// functions whose depth grows with FIFO capacity.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "gates/delay_model.hpp"
#include "gates/netlist.hpp"
#include "sim/signal.hpp"

namespace mts::gates {

/// The logic function of a Gate. kAndNotLast is and(in[0..n-2]) & !in[n-1],
/// kOrNotLast or(in[0..n-2]) | !in[n-1], kMux in[0] ? in[1] : in[2] and
/// kAndNotRest in[0] & !or(in[1..n-1]). kNot/kBuf take exactly one input and
/// kMux exactly three; every other op takes any fan-in >= 1.
enum class GateOp { kNot, kBuf, kAnd, kOr, kNand, kNor, kXor, kAndNotLast,
                    kOrNotLast, kMux, kAndNotRest };

/// The one truth function of every GateOp, shared by Gate and the tests.
/// `in` is any indexable bit sequence (`size()` and `operator[]` yielding
/// bool), so a Gate evaluates straight off its input wires without copying
/// them. The fan-in must fit `op` (see GateOp).
template <class Bits>
bool gate_truth(GateOp op, const Bits& in) {
  const std::size_t n = in.size();
  std::size_t head = 0;  // set bits among in[0..n-2]
  for (std::size_t i = 0; i + 1 < n; ++i) head += in[i] ? 1u : 0u;
  const bool last = in[n - 1];
  const std::size_t ones = head + (last ? 1u : 0u);
  switch (op) {
    case GateOp::kNot: return !in[0];
    case GateOp::kBuf: return in[0];
    case GateOp::kAnd: return ones == n;
    case GateOp::kOr: return ones != 0;
    case GateOp::kNand: return ones != n;
    case GateOp::kNor: return ones == 0;
    case GateOp::kXor: return ones % 2 == 1;
    case GateOp::kAndNotLast: return head == n - 1 && !last;
    case GateOp::kOrNotLast: return head != 0 || !last;
    case GateOp::kMux: return in[0] ? in[1] : in[2];
    case GateOp::kAndNotRest: return in[0] && ones == 1;
  }
  return false;
}

/// Generic single-output combinational gate computing `gate_truth(op, ...)`.
class Gate {
 public:
  /// `inputs` must stay alive as long as the gate; `delay` is inertial.
  /// The gate schedules an initial evaluation so outputs settle from the
  /// initial input values once the simulation starts. Throws ConfigError
  /// when the fan-in does not fit `op`.
  Gate(sim::Simulation& sim, std::string name, std::vector<sim::Wire*> inputs,
       sim::Wire& out, GateOp op, Time delay);

  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  const std::string& name() const noexcept { return name_; }
  Time delay() const noexcept { return delay_; }

 private:
  void evaluate();

  std::string name_;
  std::vector<sim::Wire*> inputs_;
  sim::Wire& out_;
  GateOp op_;
  Time delay_;
};

/// Number of logic inputs `op` presents for delay purposes.
Time gate_delay(GateOp op, std::size_t fanin, const DelayModel& dm, unsigned fanout);

/// Builds a gate driving a fresh wire owned by `nl`; returns that wire.
sim::Wire& make_gate(Netlist& nl, const std::string& name, GateOp op,
                     std::vector<sim::Wire*> inputs, const DelayModel& dm,
                     unsigned fanout = 1);

/// Builds a gate driving caller-supplied wire `out` with explicit delay.
Gate& gate_into(Netlist& nl, const std::string& name, GateOp op,
                std::vector<sim::Wire*> inputs, sim::Wire& out, Time delay);

/// Pure delay element (buffer/wire segment) driving a fresh wire.
sim::Wire& make_delay(Netlist& nl, const std::string& name, sim::Wire& in, Time delay);

/// Balanced tree of `arity`-input OR gates; returns the root wire.
/// With a single input this is a buffer.
sim::Wire& make_or_tree(Netlist& nl, const std::string& name,
                        std::vector<sim::Wire*> inputs, const DelayModel& dm,
                        unsigned arity = 2);

/// Balanced tree of `arity`-input AND gates; returns the root wire.
sim::Wire& make_and_tree(Netlist& nl, const std::string& name,
                         std::vector<sim::Wire*> inputs, const DelayModel& dm,
                         unsigned arity = 2);

/// Number of levels a balanced `arity`-ary tree over `leaves` inputs has.
unsigned tree_depth(unsigned leaves, unsigned arity);

/// Word-level 2:1 multiplexer: out follows `a` when sel is high, `b`
/// otherwise, with an inertial delay.
class WordMux {
 public:
  WordMux(sim::Simulation& sim, std::string name, sim::Wire& sel, sim::Word& a,
          sim::Word& b, sim::Word& out, Time delay);

  WordMux(const WordMux&) = delete;
  WordMux& operator=(const WordMux&) = delete;

 private:
  void evaluate();

  sim::Wire& sel_;
  sim::Word& a_;
  sim::Word& b_;
  sim::Word& out_;
  Time delay_;
};

/// Word-level buffer: forwards a word bus with an inertial delay (models a
/// wire segment / repeater on a datapath bus).
class WordBuf {
 public:
  WordBuf(sim::Simulation& sim, std::string name, sim::Word& in, sim::Word& out,
          Time delay);

  WordBuf(const WordBuf&) = delete;
  WordBuf& operator=(const WordBuf&) = delete;

 private:
  sim::Word& in_;
  sim::Word& out_;
  Time delay_;
};

}  // namespace mts::gates
