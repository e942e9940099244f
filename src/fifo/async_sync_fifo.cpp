#include "fifo/async_sync_fifo.hpp"

#include <memory>

#include "ctrl/specs.hpp"
#include "fifo/async_timing.hpp"
#include "fifo/detectors.hpp"
#include "fifo/interface_sides.hpp"
#include "gates/combinational.hpp"
#include "sim/error.hpp"

namespace mts::fifo {

AsyncSyncFifo::AsyncSyncFifo(sim::Simulation& sim, const std::string& name,
                             const FifoConfig& cfg, sim::Wire& clk_get)
    : cfg_(cfg),
      nl_(sim, name),
      get_dom_(sim, name + ".get"),
      cells_(nl_, cfg_) {
  const unsigned n = cfg_.capacity;
  const gates::DelayModel& dm = cfg_.dm;

  // The put side is clockless: its trace track is the async handshake.
  cells_.observe("async", clk_get.name());

  // --- external interface wires ---
  put_req_ = &nl_.wire("put_req");
  put_data_ = &nl_.word("put_data");
  req_get_ = &nl_.wire("req_get");
  stop_in_ = &nl_.wire("stop_in");
  data_get_ = &nl_.word("data_get");
  valid_bus_ = &nl_.wire("valid_bus");
  valid_ext_ = &nl_.wire("valid_get");
  empty_w_ = &nl_.wire("empty", true);
  en_get_b_ = &nl_.wire("en_get_b");

  // put_req is broadcast to every cell's C-element.
  sim::Wire& req_b =
      gates::make_delay(nl_, "put_req_b", *put_req_, dm.broadcast(n, 1));

  // Validity on the asynchronous interface is implicit in the handshake;
  // enqueued items are always valid.
  sim::Wire& vcc = nl_.wire("vcc", true);

  // --- token rings ---
  std::vector<sim::Wire*> we(n);
  std::vector<sim::Wire*> gtok(n);
  for (unsigned i = 0; i < n; ++i) {
    we[i] = &nl_.wire("c" + std::to_string(i) + ".we");
    gtok[i] = &nl_.wire("c" + std::to_string(i) + ".gtok", i == 0);
  }

  cells_.add_buses(*put_data_, nullptr, *data_get_, valid_bus_);

  // --- cells: async put part + sync get part + DV_as (Fig. 9) ---
  for (unsigned i = 0; i < n; ++i) {
    cells_.add_state(i);
    auto& put_part = nl_.add<AsyncPutPart>(nl_, i, req_b, *put_data_,
                                           *we[(i + n - 1) % n], cells_.e(i),
                                           *we[i], cfg_, i == 0);
    auto& get_part = nl_.add<SyncGetPart>(nl_, i, clk_get, *en_get_b_,
                                          *gtok[(i + n - 1) % n], *gtok[i], cfg_,
                                          &get_dom_, i == 0);

    // DV_as (Fig. 10b): the Petri-net data-validity controller. Output
    // latency matched to the mixed-clock SR latch so both designs present
    // identical f_i timing to the shared empty detector (Table 1 shows
    // identical get columns for both).
    nl_.add<ctrl::PetriEngine>(
        sim, nl_.qualified("c" + std::to_string(i) + ".dv"), ctrl::dv_as_net(),
        std::vector<sim::Wire*>{we[i], &get_part.re()},
        std::vector<sim::Wire*>{&cells_.e(i), &cells_.f(i)}, dm.sr_latch);

    cells_.connect(i, *we[i], get_part.re(), put_part.reg_q(), &vcc);
  }

  // put_ack: a tree of OR gates merges the per-cell acknowledgments
  // (Section 6 experimental setup), driving the global ack wire back to
  // the sender.
  sim::Wire& ack_tree = gates::make_or_tree(nl_, "ackTree", we, dm);
  put_ack_ = &gates::make_delay(nl_, "put_ack", ack_tree, dm.gate(2, 4));

  // --- get side: identical block to the mixed-clock design ---
  auto& get_side = nl_.add<SyncGetSide>(nl_, clk_get, cfg_, get_dom_,
                                        cells_.f(), *req_get_, *stop_in_,
                                        *valid_bus_, *valid_ext_, *empty_w_,
                                        *en_get_b_);
  ne_raw_ = &get_side.ne_raw();
  oe_raw_ = &get_side.oe_raw();

  cells_.observe_sync_get(clk_get, *empty_w_, *stop_in_);

  // --- protocol-invariant monitors (armed runs only) ---
  cells_.monitor([&](verify::Hub& hub, verify::MonitorSet& mon) {
    const unsigned ne_win = anticipation_window(cfg_.sync.depth);
    const sim::Time settle =
        dm.sr_latch + detector_delay(n, ne_win, dm) + dm.gate(2);
    // Bundled-data slack measured from req+ as seen at the FIFO boundary:
    // the environment's nominal launch leads req+ by one gate (the matched
    // delay in bfm::AsyncPutDriver), so the capture margin from req+ is the
    // full transparency window minus that lead.
    const sim::Time margin = async_put_data_margin(cfg_);
    const sim::Time lead = dm.gate(1);
    mon.handshake = std::make_unique<verify::HandshakeMonitor>(
        hub, sim, nl_.prefix() + ".put", *put_req_, *put_ack_, *put_data_,
        margin > lead ? margin - lead : 0);
    mon.rings.push_back(std::make_unique<verify::TokenRingMonitor>(
        hub, sim, nl_.prefix() + ".gtok", gtok, clk_get));
    mon.detectors.push_back(std::make_unique<verify::DetectorMonitor>(
        hub, sim, nl_.prefix() + ".ne", verify::Invariant::kEmptyDetector,
        cells_.f(), *ne_raw_, ne_win, clk_get, settle));
    mon.detectors.push_back(std::make_unique<verify::DetectorMonitor>(
        hub, sim, nl_.prefix() + ".oe", verify::Invariant::kEmptyDetector,
        cells_.f(), *oe_raw_, 1, clk_get, settle));
  });
}

sim::Time AsyncSyncFifo::get_min_period() const {
  return SyncGetSide::min_period(cfg_);
}

}  // namespace mts::fifo
