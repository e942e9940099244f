#include "fifo/cell_array.hpp"

#include <utility>

namespace mts::fifo {

/// One side of the over/underflow policy: an enabled put on a full cell or
/// an enabled get on an empty cell is a protocol failure (the max-frequency
/// search and the detector ablations count these).
struct CellArray::FlowError {
  const char* category;
  verify::Invariant invariant;
  const char* observed;
  const char* expected;
};

CellArray::CellArray(gates::Netlist& nl, const FifoConfig& cfg)
    : nl_(nl), cfg_(cfg) {
  cfg.validate();
  e_.resize(cfg.capacity);
  f_.resize(cfg.capacity);
  reg_q_.resize(cfg.capacity);
  valid_q_.resize(cfg.capacity);
}

void CellArray::observe(const std::string& put_track,
                        const std::string& get_track) {
  if (sim::Observability* o = nl_.sim().observability()) {
    obs_ = std::make_unique<sim::TransitObserver>(
        *o, nl_.sim(), nl_.prefix(), put_track, get_track, cfg_.capacity);
  }
}

void CellArray::add_buses(sim::Word& put_data, sim::Wire* put_valid,
                          sim::Word& get_data, sim::Wire* get_valid) {
  put_data_ = &put_data;
  put_valid_ = put_valid;
  const unsigned n = cfg_.capacity;
  data_bus_ = &nl_.add<gates::TristateBus<std::uint64_t>>(
      nl_.sim(), nl_.qualified("get_data_bus"), get_data,
      cfg_.dm.tristate_bus(n, cfg_.width));
  if (get_valid != nullptr) {
    valid_bus_ = &nl_.add<gates::TristateBus<bool>>(
        nl_.sim(), nl_.qualified("valid_bus_ts"), *get_valid,
        cfg_.dm.tristate_bus(n, 1));
  }
}

void CellArray::add_state(unsigned i) {
  const std::string ci = "c" + std::to_string(i);
  e_.at(i) = &nl_.wire(ci + ".e", true);
  f_.at(i) = &nl_.wire(ci + ".f", false);
}

void CellArray::connect(unsigned i, sim::Wire& we, sim::Wire& re,
                        sim::Word& reg_q, sim::Wire* valid_q) {
  data_bus_->attach_driver(re, reg_q);
  if (valid_bus_ != nullptr) valid_bus_->attach_driver(re, *valid_q);
  reg_q_.at(i) = &reg_q;
  valid_q_.at(i) = valid_q;
  we.on_rise([this, i] { on_put(i); });
  re.on_rise([this, i] { on_get(i); });
}

void CellArray::on_put(unsigned i) {
  ++data_moves_;
  if (f_[i]->read()) {
    flow_error({"overflow", verify::Invariant::kOverflow,
                "put into a full cell", "puts only while a cell is empty"},
               overflows_);
  }
  // we rises before the item is latched (mid-cycle on a sync put side; with
  // the bundled data stable on an async one): the put port still carries
  // the committing item.
  if (put_valid_ != nullptr && !put_valid_->read()) return;
  std::uint64_t txn = 0;
  if (obs_ != nullptr) {
    txn = obs_->put_committed(put_data_->read(), occupancy() + 1);
  }
  if (mon_ != nullptr) mon_->stream->put(put_data_->read(), txn);
}

void CellArray::on_get(unsigned i) {
  if (!f_[i]->read()) {
    flow_error({"underflow", verify::Invariant::kUnderflow,
                "get from an empty cell",
                "gets only while an item is resident"},
               underflows_);
  }
  // At re rise the cell's registered outputs hold the departing item.
  const sim::Wire* valid = valid_q_[i];
  if (valid != nullptr && !valid->read()) return;
  const sim::Word& rq = *reg_q_[i];
  std::uint64_t txn = 0;
  if (obs_ != nullptr) {
    const unsigned occ = occupancy();
    txn = obs_->get_observed(rq.read(), occ > 0 ? occ - 1 : 0);
  }
  if (mon_ != nullptr) mon_->stream->get(rq.read(), txn);
}

void CellArray::flow_error(const FlowError& err, std::uint64_t& count) {
  ++count;
  sim::Simulation& sim = nl_.sim();
  sim.report().add(sim.now(), sim::Severity::kError, err.category,
                   nl_.prefix() + ": " + err.observed);
  if (mon_ != nullptr) {
    verify::Violation v;
    v.time = sim.now();
    v.invariant = err.invariant;
    v.site = nl_.prefix();
    v.observed = err.observed;
    v.expected = err.expected;
    mon_->hub->report(std::move(v));
  }
}

void CellArray::observe_sync_get(sim::Wire& clk_get, sim::Wire& empty,
                                 sim::Wire& stop_in) {
  if (obs_ == nullptr) return;
  sim::TransitObserver* obs = obs_.get();
  empty.on_fall([obs] { obs->sync_crossed(); });
  if (cfg_.controller == ControllerKind::kRelayStation) {
    clk_get.on_rise([obs, &stop_in, &empty] {
      if (stop_in.read() && !empty.read()) obs->stalled_by_stop_in();
    });
  }
}

void CellArray::monitor(const DesignChecks& design_checks) {
  verify::Hub* hub = nl_.sim().monitors();
  if (hub == nullptr) return;
  mon_ = std::make_unique<verify::MonitorSet>();
  mon_->hub = hub;
  if (design_checks) design_checks(*hub, *mon_);
  mon_->stream =
      std::make_unique<verify::StreamMonitor>(*hub, nl_.sim(), nl_.prefix());
}

unsigned CellArray::occupancy() const {
  unsigned count = 0;
  for (const sim::Wire* f : f_) count += f->read() ? 1u : 0u;
  return count;
}

}  // namespace mts::fifo
