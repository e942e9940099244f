#include "fifo/cell_parts.hpp"

#include <string>
#include <vector>

#include "ctrl/specs.hpp"
#include "gates/celement.hpp"
#include "gates/combinational.hpp"
#include "gates/latch.hpp"

namespace mts::fifo {

namespace {
std::string cell_name(unsigned index, const char* leaf) {
  return "c" + std::to_string(index) + "." + leaf;
}
}  // namespace

// The environment's req_put/req_get are registered outputs: they settle
// clk-to-q after the edge (the BFM drivers honour this). The matched token
// delay therefore only needs to cover the controller gate + broadcast
// response, plus one gate of margin. Residual overlaps narrower than the
// we/re AND-gate delay are absorbed by its inertial behaviour.
sim::Time put_token_match_delay(const FifoConfig& cfg) {
  const gates::DelayModel& dm = cfg.dm;
  const sim::Time bcast = dm.broadcast(cfg.capacity, cfg.width + 2);
  if (cfg.controller == ControllerKind::kFifo) {
    return dm.gate(3) + bcast + dm.gate(1);
  }
  // Relay station: req_put is not a control input; the enable only follows
  // full_s through the inverter and broadcast.
  return dm.gate(1) + bcast + dm.gate(1);
}

sim::Time get_token_match_delay(const FifoConfig& cfg) {
  const gates::DelayModel& dm = cfg.dm;
  const sim::Time bcast = dm.broadcast(cfg.capacity, cfg.width + 2);
  if (cfg.controller == ControllerKind::kFifo) {
    return dm.gate(3) + bcast + dm.gate(1);
  }
  // Relay station: stopIn responses go through the NOR controller.
  return dm.gate(2, 2) + bcast + dm.gate(1);
}

SyncPutPart::SyncPutPart(gates::Netlist& nl, unsigned index, sim::Wire& clk,
                         sim::Wire& en_broadcast, sim::Wire& tok_in,
                         sim::Wire& tok_out, sim::Word& data_put,
                         sim::Wire& req_put, const FifoConfig& cfg,
                         gates::TimingDomain* domain, bool initial_token) {
  // Put-token ring stage: shifts on every enabled CLK_put edge.
  nl.add<gates::Etdff>(nl.sim(), nl.qualified(cell_name(index, "ptokff")), clk,
                       tok_in, &en_broadcast, tok_out, cfg.dm.flop, domain,
                       initial_token);

  // Token output buffering matched to the enable network (see
  // put_token_match_delay): the freshly arrived token must not outrun the
  // enable's deassertion after the edge.
  sim::Wire& tok_matched = gates::make_delay(
      nl, cell_name(index, "ptokm"), tok_out, put_token_match_delay(cfg));

  // we_i = ptok_i & en_put; drives REG enable, the v flop enable and the DV
  // set input (fanout 3).
  we_ = &gates::make_gate(nl, cell_name(index, "we"), gates::GateOp::kAnd,
                          {&tok_matched, &en_broadcast}, cfg.dm, 3);

  reg_q_ = &nl.word(cell_name(index, "reg"));
  nl.add<gates::WordRegister>(nl.sim(), nl.qualified(cell_name(index, "regff")),
                              clk, data_put, we_, *reg_q_, cfg.dm.flop, domain);

  // Validity bit: latches req_put alongside the data (Section 3.1: "latch
  // the data item and also the data validity bit (which is req_put)").
  v_q_ = &nl.wire(cell_name(index, "v"));
  nl.add<gates::Etdff>(nl.sim(), nl.qualified(cell_name(index, "vff")), clk,
                       req_put, we_, *v_q_, cfg.dm.flop, domain);
}

SyncGetPart::SyncGetPart(gates::Netlist& nl, unsigned index, sim::Wire& clk,
                         sim::Wire& en_broadcast, sim::Wire& tok_in,
                         sim::Wire& tok_out, const FifoConfig& cfg,
                         gates::TimingDomain* domain, bool initial_token) {
  nl.add<gates::Etdff>(nl.sim(), nl.qualified(cell_name(index, "gtokff")), clk,
                       tok_in, &en_broadcast, tok_out, cfg.dm.flop, domain,
                       initial_token);
  // Matched token buffering, as on the put side.
  sim::Wire& tok_matched = gates::make_delay(
      nl, cell_name(index, "gtokm"), tok_out, get_token_match_delay(cfg));
  // re_i = gtok_i & en_get; drives the data/valid tri-state enables and the
  // DV reset input (fanout 3).
  re_ = &gates::make_gate(nl, cell_name(index, "re"), gates::GateOp::kAnd,
                          {&tok_matched, &en_broadcast}, cfg.dm, 3);
}

AsyncPutPart::AsyncPutPart(gates::Netlist& nl, unsigned index,
                           sim::Wire& req_broadcast, sim::Word& put_data,
                           sim::Wire& we1, sim::Wire& e_i, sim::Wire& we_out,
                           const FifoConfig& cfg, bool initial_token) {
  ptok_ = &nl.wire(cell_name(index, "ptok"), initial_token);

  // Asymmetric C-element (paper footnote 1): we+ requires put_req & ptok &
  // e_i; we- requires only put_req-.
  sim::Wire& we_raw = nl.wire(cell_name(index, "we_raw"));
  nl.add<gates::CElement>(nl.sim(), nl.qualified(cell_name(index, "weC")),
                          std::vector<sim::Wire*>{&req_broadcast},
                          std::vector<sim::Wire*>{ptok_, &e_i}, we_raw,
                          cfg.dm.celement(3), false);

  // we drives a W-bit latch enable, the DV, the ack tree and the next
  // cell's we1: model the load as an intra-cell broadcast.
  gates::gate_into(nl, cell_name(index, "weBuf"), gates::GateOp::kBuf, {&we_raw},
                   we_out, cfg.dm.broadcast(1, cfg.width));
  we_ = &we_out;

  // REG write port: transparent while we is high; the bundled-data
  // constraint guarantees put_data is stable for that whole interval.
  reg_q_ = &nl.word(cell_name(index, "reg"));
  nl.add<gates::WordLatch>(nl.sim(), nl.qualified(cell_name(index, "reglat")),
                           put_data, *we_, *reg_q_, cfg.dm);

  // ObtainPutToken burst-mode machine (Fig. 10a).
  nl.add<ctrl::BurstModeMachine>(
      nl.sim(), nl.qualified(cell_name(index, "opt")), ctrl::opt_spec(),
      std::vector<sim::Wire*>{&we1, we_}, std::vector<sim::Wire*>{ptok_},
      cfg.dm.gate(2),
      initial_token ? ctrl::kOptStateHolding : ctrl::kOptStateIdle);
}

AsyncGetPart::AsyncGetPart(gates::Netlist& nl, unsigned index,
                           sim::Wire& req_broadcast, sim::Wire& re1,
                           sim::Wire& f_i, sim::Wire& re_out,
                           const FifoConfig& cfg, bool initial_token) {
  gtok_ = &nl.wire(cell_name(index, "gtok"), initial_token);

  sim::Wire& re_raw = nl.wire(cell_name(index, "re_raw"));
  nl.add<gates::CElement>(nl.sim(), nl.qualified(cell_name(index, "reC")),
                          std::vector<sim::Wire*>{&req_broadcast},
                          std::vector<sim::Wire*>{gtok_, &f_i}, re_raw,
                          cfg.dm.celement(3), false);

  // re drives the W-bit tri-state driver enable, the DV, the ack tree and
  // the next cell's re1.
  gates::gate_into(nl, cell_name(index, "reBuf"), gates::GateOp::kBuf, {&re_raw},
                   re_out, cfg.dm.broadcast(1, cfg.width));
  re_ = &re_out;

  nl.add<ctrl::BurstModeMachine>(
      nl.sim(), nl.qualified(cell_name(index, "ogt")), ctrl::opt_spec(),
      std::vector<sim::Wire*>{&re1, re_}, std::vector<sim::Wire*>{gtok_},
      cfg.dm.gate(2),
      initial_token ? ctrl::kOptStateHolding : ctrl::kOptStateIdle);
}

}  // namespace mts::fifo
