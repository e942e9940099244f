#include "gates/combinational.hpp"

#include <gtest/gtest.h>

#include "gates/netlist.hpp"
#include "sim/simulation.hpp"

namespace mts::gates {
namespace {

using sim::Simulation;
using sim::Wire;

struct Fixture {
  Simulation sim;
  Netlist nl{sim, "t"};
  DelayModel dm = DelayModel::hp06();
};

TEST(GateFunc, TruthTables) {
  auto v = [](std::initializer_list<bool> bits) { return std::vector<bool>(bits); };
  EXPECT_TRUE(gate_truth(GateOp::kNot, v({false})));
  EXPECT_FALSE(gate_truth(GateOp::kNot, v({true})));
  EXPECT_TRUE(gate_truth(GateOp::kBuf, v({true})));
  EXPECT_TRUE(gate_truth(GateOp::kAnd, v({true, true, true})));
  EXPECT_FALSE(gate_truth(GateOp::kAnd, v({true, false, true})));
  EXPECT_TRUE(gate_truth(GateOp::kOr, v({false, true})));
  EXPECT_FALSE(gate_truth(GateOp::kOr, v({false, false})));
  EXPECT_TRUE(gate_truth(GateOp::kNand, v({true, false})));
  EXPECT_FALSE(gate_truth(GateOp::kNand, v({true, true})));
  EXPECT_TRUE(gate_truth(GateOp::kNor, v({false, false})));
  EXPECT_FALSE(gate_truth(GateOp::kNor, v({true, false})));
  EXPECT_TRUE(gate_truth(GateOp::kXor, v({true, false, false})));
  EXPECT_FALSE(gate_truth(GateOp::kXor, v({true, true})));
  // a & b & !c
  EXPECT_TRUE(gate_truth(GateOp::kAndNotLast, v({true, true, false})));
  EXPECT_FALSE(gate_truth(GateOp::kAndNotLast, v({true, true, true})));
  // a | b | !c
  EXPECT_TRUE(gate_truth(GateOp::kOrNotLast, v({false, false, false})));
  EXPECT_FALSE(gate_truth(GateOp::kOrNotLast, v({false, false, true})));
  // sel ? a : b
  EXPECT_TRUE(gate_truth(GateOp::kMux, v({true, true, false})));
  EXPECT_FALSE(gate_truth(GateOp::kMux, v({true, false, true})));
  EXPECT_TRUE(gate_truth(GateOp::kMux, v({false, false, true})));
  // a & !b & !c
  EXPECT_TRUE(gate_truth(GateOp::kAndNotRest, v({true, false, false})));
  EXPECT_FALSE(gate_truth(GateOp::kAndNotRest, v({true, false, true})));
  EXPECT_FALSE(gate_truth(GateOp::kAndNotRest, v({false, false, false})));
}

TEST(Gate, EvaluatesAfterDelay) {
  Fixture f;
  Wire& a = f.nl.wire("a");
  Wire& b = f.nl.wire("b");
  Wire& out = make_gate(f.nl, "and", GateOp::kAnd, {&a, &b}, f.dm);
  f.sim.run_until(1000);  // settle initial evaluation
  EXPECT_FALSE(out.read());

  a.set(true);
  b.set(true);
  const sim::Time d = f.dm.gate(2);
  f.sim.run_until(1000 + d - 1);
  EXPECT_FALSE(out.read());
  f.sim.run_until(1000 + d);
  EXPECT_TRUE(out.read());
}

TEST(Gate, InitialEvaluationPropagatesInitialInputs) {
  Fixture f;
  Wire& a = f.nl.wire("a", true);
  Wire& out = make_gate(f.nl, "inv", GateOp::kNot, {&a}, f.dm);
  EXPECT_FALSE(out.read());  // before settling
  f.sim.run_until(1000);
  EXPECT_FALSE(out.read());
  a.set(false);
  f.sim.run_until(2000);
  EXPECT_TRUE(out.read());
}

TEST(Gate, InertialFiltersGlitch) {
  Fixture f;
  Wire& a = f.nl.wire("a");
  Wire& out = make_gate(f.nl, "buf", GateOp::kBuf, {&a}, f.dm);
  f.sim.run_until(1000);
  int changes = 0;
  out.on_change([&](bool, bool) { ++changes; });
  // Pulse much shorter than the gate delay: filtered.
  f.sim.sched().at(2000, [&] { a.set(true); });
  f.sim.sched().at(2010, [&] { a.set(false); });
  f.sim.run();
  EXPECT_EQ(changes, 0);
}

TEST(Gate, NoInputsRejected) {
  Fixture f;
  Wire& out = f.nl.wire("o");
  EXPECT_THROW(f.nl.add<Gate>(f.sim, "bad", std::vector<Wire*>{}, out,
                              GateOp::kAnd, 10),
               AssertionError);
}

TEST(Gate, UnaryOpsRejectExtraInputs) {
  Fixture f;
  Wire& a = f.nl.wire("a");
  Wire& b = f.nl.wire("b");
  EXPECT_THROW(make_gate(f.nl, "not2", GateOp::kNot, {&a, &b}, f.dm), ConfigError);
  EXPECT_THROW(make_gate(f.nl, "buf2", GateOp::kBuf, {&a, &b}, f.dm), ConfigError);
  EXPECT_NO_THROW(make_gate(f.nl, "not1", GateOp::kNot, {&a}, f.dm));
}

TEST(Gate, MuxNeedsExactlyThreeInputs) {
  Fixture f;
  Wire& a = f.nl.wire("a");
  Wire& b = f.nl.wire("b");
  Wire& c = f.nl.wire("c");
  Wire& d = f.nl.wire("d");
  EXPECT_THROW(make_gate(f.nl, "mux2", GateOp::kMux, {&a, &b}, f.dm), ConfigError);
  EXPECT_THROW(make_gate(f.nl, "mux4", GateOp::kMux, {&a, &b, &c, &d}, f.dm),
               ConfigError);
  EXPECT_NO_THROW(make_gate(f.nl, "mux3", GateOp::kMux, {&a, &b, &c}, f.dm));
  EXPECT_NO_THROW(make_gate(f.nl, "andn1", GateOp::kAndNotLast, {&a}, f.dm));
  EXPECT_NO_THROW(make_gate(f.nl, "and4", GateOp::kAnd, {&a, &b, &c, &d}, f.dm));
}

TEST(OrTree, WideOrComputesAnyAndScalesDepth) {
  Fixture f;
  std::vector<Wire*> leaves;
  for (int i = 0; i < 16; ++i) leaves.push_back(&f.nl.wire("l" + std::to_string(i)));
  Wire& root = make_or_tree(f.nl, "or16", leaves, f.dm);
  f.sim.run_until(5000);
  EXPECT_FALSE(root.read());
  leaves[11]->set(true);
  f.sim.run_until(10000);
  EXPECT_TRUE(root.read());
  leaves[11]->set(false);
  f.sim.run_until(15000);
  EXPECT_FALSE(root.read());
}

TEST(AndTree, SingleInputActsAsBuffer) {
  Fixture f;
  Wire& a = f.nl.wire("a");
  Wire& root = make_and_tree(f.nl, "and1", {&a}, f.dm);
  f.sim.run_until(1000);
  a.set(true);
  f.sim.run_until(2000);
  EXPECT_TRUE(root.read());
}

TEST(AndTree, OddInputCount) {
  Fixture f;
  std::vector<Wire*> leaves;
  for (int i = 0; i < 5; ++i)
    leaves.push_back(&f.nl.wire("l" + std::to_string(i), true));
  Wire& root = make_and_tree(f.nl, "and5", leaves, f.dm);
  f.sim.run_until(5000);
  EXPECT_TRUE(root.read());
  leaves[4]->set(false);
  f.sim.run_until(10000);
  EXPECT_FALSE(root.read());
}

TEST(WordBuf, ForwardsWordsWithDelay) {
  Fixture f;
  sim::Word& in = f.nl.word("in", 3);
  sim::Word& out = f.nl.word("out");
  f.nl.add<WordBuf>(f.sim, "wb", in, out, 50);
  f.sim.run_until(100);
  EXPECT_EQ(out.read(), 3u);
  in.set(99);
  f.sim.run_until(149);
  EXPECT_EQ(out.read(), 3u);
  f.sim.run_until(200);
  EXPECT_EQ(out.read(), 99u);
}

TEST(MakeDelay, PureDelayLine) {
  Fixture f;
  Wire& a = f.nl.wire("a");
  Wire& out = make_delay(f.nl, "d", a, 123);
  f.sim.run_until(500);
  a.set(true);
  f.sim.run_until(622);
  EXPECT_FALSE(out.read());
  f.sim.run_until(623);
  EXPECT_TRUE(out.read());
}

}  // namespace
}  // namespace mts::gates
