#include "fifo/sync_async_fifo.hpp"

#include <memory>

#include "ctrl/specs.hpp"
#include "fifo/detectors.hpp"
#include "fifo/interface_sides.hpp"
#include "gates/combinational.hpp"
#include "sim/error.hpp"

namespace mts::fifo {

SyncAsyncFifo::SyncAsyncFifo(sim::Simulation& sim, const std::string& name,
                             const FifoConfig& cfg, sim::Wire& clk_put)
    : cfg_(cfg),
      nl_(sim, name),
      put_dom_(sim, name + ".put"),
      cells_(nl_, cfg_) {
  if (cfg_.controller != ControllerKind::kFifo) {
    throw ConfigError("SyncAsyncFifo: no relay-station variant is defined "
                      "(the paper's relay chains terminate in a synchronous "
                      "domain)");
  }
  const unsigned n = cfg_.capacity;
  const gates::DelayModel& dm = cfg_.dm;

  cells_.observe(clk_put.name(), "async");

  req_put_ = &nl_.wire("req_put");
  data_put_ = &nl_.word("data_put");
  get_req_ = &nl_.wire("get_req");
  get_data_ = &nl_.word("get_data");
  en_put_b_ = &nl_.wire("en_put_b");

  sim::Wire& req_b =
      gates::make_delay(nl_, "get_req_b", *get_req_, dm.broadcast(n, 1));

  // --- token rings ---
  std::vector<sim::Wire*> ptok(n);
  std::vector<sim::Wire*> re(n);
  for (unsigned i = 0; i < n; ++i) {
    ptok[i] = &nl_.wire("c" + std::to_string(i) + ".ptok", i == 0);
    re[i] = &nl_.wire("c" + std::to_string(i) + ".re");
  }

  cells_.add_buses(*data_put_, req_put_, *get_data_, nullptr);

  // --- cells: sync put part + async get part + serialized DV ---
  for (unsigned i = 0; i < n; ++i) {
    cells_.add_state(i);
    auto& put_part = nl_.add<SyncPutPart>(nl_, i, clk_put, *en_put_b_,
                                          *ptok[(i + n - 1) % n], *ptok[i],
                                          *data_put_, *req_put_, cfg_, &put_dom_,
                                          i == 0);
    nl_.add<AsyncGetPart>(nl_, i, req_b, *re[(i + n - 1) % n], cells_.f(i),
                          *re[i], cfg_, i == 0);

    nl_.add<ctrl::PetriEngine>(
        sim, nl_.qualified("c" + std::to_string(i) + ".dv"),
        ctrl::dv_linear_net(), std::vector<sim::Wire*>{&put_part.we(), re[i]},
        std::vector<sim::Wire*>{&cells_.e(i), &cells_.f(i)}, dm.sr_latch);

    cells_.connect(i, put_part.we(), *re[i], put_part.reg_q(), nullptr);
  }

  // get_ack: OR tree over the per-cell re signals, padded by a matched
  // delay covering the tri-state bus (single-rail bundling constraint: data
  // must be valid when ack rises).
  sim::Wire& ack_tree = gates::make_or_tree(nl_, "ackTree", re, dm);
  get_ack_ = &gates::make_delay(nl_, "get_ack", ack_tree,
                                dm.tristate_bus(n, cfg_.width));

  // --- put side: identical block to the mixed-clock design ---
  auto& put_side = nl_.add<SyncPutSide>(nl_, clk_put, cfg_, put_dom_,
                                        cells_.e(), *req_put_, *en_put_b_);
  full_ext_ = &put_side.full_ext();

  // --- protocol-invariant monitors (armed runs only) ---
  cells_.monitor([&](verify::Hub& hub, verify::MonitorSet& mon) {
    const unsigned full_win = cfg_.full_kind == FullDetectorKind::kAnticipating
                                  ? anticipation_window(cfg_.sync.depth)
                                  : 1;
    const sim::Time settle = dm.sr_latch +
                             detector_delay(n, full_win, dm) + dm.gate(2);
    mon.rings.push_back(std::make_unique<verify::TokenRingMonitor>(
        hub, sim, nl_.prefix() + ".ptok", ptok, clk_put));
    mon.detectors.push_back(std::make_unique<verify::DetectorMonitor>(
        hub, sim, nl_.prefix() + ".full", verify::Invariant::kFullDetector,
        cells_.e(), put_side.full_raw(), full_win, clk_put, settle));
  });
}

sim::Time SyncAsyncFifo::put_min_period() const {
  return SyncPutSide::min_period(cfg_);
}

}  // namespace mts::fifo
