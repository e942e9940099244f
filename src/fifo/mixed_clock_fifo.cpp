#include "fifo/mixed_clock_fifo.hpp"

#include <memory>

#include "ctrl/specs.hpp"
#include "fifo/detectors.hpp"
#include "fifo/interface_sides.hpp"
#include "gates/combinational.hpp"
#include "gates/latch.hpp"
#include "sim/error.hpp"

namespace mts::fifo {

MixedClockFifo::MixedClockFifo(sim::Simulation& sim, const std::string& name,
                               const FifoConfig& cfg, sim::Wire& clk_put,
                               sim::Wire& clk_get)
    : cfg_(cfg),
      nl_(sim, name),
      put_dom_(sim, name + ".put"),
      get_dom_(sim, name + ".get"),
      cells_(nl_, cfg_) {
  const unsigned n = cfg_.capacity;
  const gates::DelayModel& dm = cfg_.dm;

  cells_.observe(clk_put.name(), clk_get.name());

  // --- external interface wires ---
  req_put_ = &nl_.wire("req_put");
  data_put_ = &nl_.word("data_put");
  req_get_ = &nl_.wire("req_get");
  stop_in_ = &nl_.wire("stop_in");
  data_get_ = &nl_.word("data_get");
  valid_bus_ = &nl_.wire("valid_bus");
  valid_ext_ = &nl_.wire("valid_get");
  empty_w_ = &nl_.wire("empty", true);

  // --- broadcast enables (driven by the interface sides below) ---
  en_put_b_ = &nl_.wire("en_put_b");
  en_get_b_ = &nl_.wire("en_get_b");

  // --- token rings ---
  ptok_.resize(n);
  gtok_.resize(n);
  for (unsigned i = 0; i < n; ++i) {
    ptok_[i] = &nl_.wire("c" + std::to_string(i) + ".ptok", i == 0);
    gtok_[i] = &nl_.wire("c" + std::to_string(i) + ".gtok", i == 0);
  }

  // Relay mode enqueues every cycle; req_put marks the valid packets.
  cells_.add_buses(*data_put_, req_put_, *data_get_, valid_bus_);

  // --- cells: sync put part + sync get part + SR-latch DV (Fig. 5) ---
  for (unsigned i = 0; i < n; ++i) {
    auto& put_part = nl_.add<SyncPutPart>(nl_, i, clk_put, *en_put_b_,
                                          *ptok_[(i + n - 1) % n], *ptok_[i],
                                          *data_put_, *req_put_, cfg_, &put_dom_,
                                          i == 0);
    auto& get_part = nl_.add<SyncGetPart>(nl_, i, clk_get, *en_get_b_,
                                          *gtok_[(i + n - 1) % n], *gtok_[i],
                                          cfg_, &get_dom_, i == 0);

    // Data-validity controller: the paper's SR latch (set on put, reset on
    // get, both asynchronous to the opposite clock -- Section 3.1 actions
    // (b)), or the serialized conservative net (see DvKind).
    cells_.add_state(i);
    const std::string dv = nl_.qualified("c" + std::to_string(i) + ".dv");
    if (cfg_.dv_kind == DvKind::kSrLatch) {
      nl_.add<gates::SrLatch>(sim, dv, put_part.we(), get_part.re(),
                              cells_.f(i), cells_.e(i), dm.sr_latch, false);
    } else {
      nl_.add<ctrl::PetriEngine>(
          sim, dv, ctrl::dv_linear_net(),
          std::vector<sim::Wire*>{&put_part.we(), &get_part.re()},
          std::vector<sim::Wire*>{&cells_.e(i), &cells_.f(i)}, dm.sr_latch);
    }

    cells_.connect(i, put_part.we(), get_part.re(), put_part.reg_q(),
                   &put_part.v_q());
  }

  // --- interface sides: detectors, synchronizers, controllers ---
  auto& put_side = nl_.add<SyncPutSide>(nl_, clk_put, cfg_, put_dom_,
                                        cells_.e(), *req_put_, *en_put_b_);
  full_raw_ = &put_side.full_raw();
  full_ext_ = &put_side.full_ext();

  auto& get_side = nl_.add<SyncGetSide>(nl_, clk_get, cfg_, get_dom_,
                                        cells_.f(), *req_get_, *stop_in_,
                                        *valid_bus_, *valid_ext_, *empty_w_,
                                        *en_get_b_);
  ne_raw_ = &get_side.ne_raw();
  oe_raw_ = &get_side.oe_raw();

  cells_.observe_sync_get(clk_get, *empty_w_, *stop_in_);

  // --- protocol-invariant monitors (armed runs only) ---
  cells_.monitor([&](verify::Hub& hub, verify::MonitorSet& mon) {
    const unsigned full_win = cfg_.full_kind == FullDetectorKind::kAnticipating
                                  ? anticipation_window(cfg_.sync.depth)
                                  : 1;
    const unsigned ne_win = anticipation_window(cfg_.sync.depth);
    // Worst-case detector tree latency after a DV-latch commit, plus one
    // 2-input gate of margin: a mismatch older than this is a real fault.
    const sim::Time settle =
        dm.sr_latch + detector_delay(n, ne_win, dm) + dm.gate(2);
    mon.rings.push_back(std::make_unique<verify::TokenRingMonitor>(
        hub, sim, nl_.prefix() + ".ptok", ptok_, clk_put));
    mon.rings.push_back(std::make_unique<verify::TokenRingMonitor>(
        hub, sim, nl_.prefix() + ".gtok", gtok_, clk_get));
    mon.detectors.push_back(std::make_unique<verify::DetectorMonitor>(
        hub, sim, nl_.prefix() + ".full", verify::Invariant::kFullDetector,
        cells_.e(), *full_raw_, full_win, clk_put, settle));
    mon.detectors.push_back(std::make_unique<verify::DetectorMonitor>(
        hub, sim, nl_.prefix() + ".ne", verify::Invariant::kEmptyDetector,
        cells_.f(), *ne_raw_, ne_win, clk_get, settle));
    mon.detectors.push_back(std::make_unique<verify::DetectorMonitor>(
        hub, sim, nl_.prefix() + ".oe", verify::Invariant::kEmptyDetector,
        cells_.f(), *oe_raw_, 1, clk_get, settle));
  });
}

sim::Time MixedClockFifo::put_min_period() const {
  return SyncPutSide::min_period(cfg_);
}

sim::Time MixedClockFifo::get_min_period() const {
  return SyncGetSide::min_period(cfg_);
}

}  // namespace mts::fifo
