#include "fifo/async_async_fifo.hpp"

#include <vector>

#include "ctrl/specs.hpp"
#include "gates/combinational.hpp"
#include "sim/error.hpp"

namespace mts::fifo {

AsyncAsyncFifo::AsyncAsyncFifo(sim::Simulation& sim, const std::string& name,
                               const FifoConfig& cfg)
    : cfg_(cfg), nl_(sim, name), cells_(nl_, cfg_) {
  if (cfg_.controller != ControllerKind::kFifo) {
    throw ConfigError("AsyncAsyncFifo: asynchronous relay chains use "
                      "micropipelines (lip::Micropipeline), not this FIFO");
  }
  const unsigned n = cfg_.capacity;
  const gates::DelayModel& dm = cfg_.dm;

  cells_.observe("async", "async");

  put_req_ = &nl_.wire("put_req");
  put_data_ = &nl_.word("put_data");
  get_req_ = &nl_.wire("get_req");
  get_data_ = &nl_.word("get_data");

  sim::Wire& put_req_b =
      gates::make_delay(nl_, "put_req_b", *put_req_, dm.broadcast(n, 1));
  sim::Wire& get_req_b =
      gates::make_delay(nl_, "get_req_b", *get_req_, dm.broadcast(n, 1));

  std::vector<sim::Wire*> we(n);
  std::vector<sim::Wire*> re(n);
  for (unsigned i = 0; i < n; ++i) {
    we[i] = &nl_.wire("c" + std::to_string(i) + ".we");
    re[i] = &nl_.wire("c" + std::to_string(i) + ".re");
  }

  cells_.add_buses(*put_data_, nullptr, *get_data_, nullptr);

  for (unsigned i = 0; i < n; ++i) {
    cells_.add_state(i);
    auto& put_part = nl_.add<AsyncPutPart>(nl_, i, put_req_b, *put_data_,
                                           *we[(i + n - 1) % n], cells_.e(i),
                                           *we[i], cfg_, i == 0);
    nl_.add<AsyncGetPart>(nl_, i, get_req_b, *re[(i + n - 1) % n],
                          cells_.f(i), *re[i], cfg_, i == 0);

    nl_.add<ctrl::PetriEngine>(
        sim, nl_.qualified("c" + std::to_string(i) + ".dv"),
        ctrl::dv_linear_net(), std::vector<sim::Wire*>{we[i], re[i]},
        std::vector<sim::Wire*>{&cells_.e(i), &cells_.f(i)}, dm.sr_latch);

    cells_.connect(i, *we[i], *re[i], put_part.reg_q(), nullptr);
  }

  sim::Wire& put_ack_tree = gates::make_or_tree(nl_, "putAckTree", we, dm);
  put_ack_ = &gates::make_delay(nl_, "put_ack", put_ack_tree, dm.gate(2, 4));
  sim::Wire& get_ack_tree = gates::make_or_tree(nl_, "getAckTree", re, dm);
  get_ack_ = &gates::make_delay(nl_, "get_ack", get_ack_tree,
                                dm.tristate_bus(n, cfg_.width));

  // No clocks, detectors or handshake checkers of its own: an armed hub
  // gets the stream order and over/underflow checks only.
  cells_.monitor({});
}

}  // namespace mts::fifo
