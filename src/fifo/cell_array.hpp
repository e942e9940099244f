// The cell array every FIFO design is built around (Section 2: "a circular
// array of identical cells"). A design composes one CellArray with its own
// put part, get part and data-validity controller per cell; the array owns
// what all four designs share:
//
//   - the per-cell DV state wires c<i>.e / c<i>.f and the shared tri-state
//     output buses (get_data_bus, valid_bus_ts);
//   - the over/underflow policy: a counter, an error report line and, when
//     a verify::Hub is armed, a kOverflow / kUnderflow violation;
//   - the transit hooks at we_i / re_i rise feeding the TransitObserver and
//     the StreamMonitor, and occupancy().
//
// Each method creates its wires, elements and listeners when the design
// calls it, so the design keeps its own creation order -- and with it the
// event sequence numbers and VCD bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fifo/config.hpp"
#include "gates/netlist.hpp"
#include "gates/tristate.hpp"
#include "sim/observe.hpp"
#include "sim/signal.hpp"
#include "verify/checkers.hpp"

namespace mts::fifo {

class CellArray {
 public:
  /// Adds a design's own checkers (token rings, detectors, handshakes) to
  /// the armed MonitorSet, ahead of the array's StreamMonitor.
  using DesignChecks = std::function<void(verify::Hub&, verify::MonitorSet&)>;

  /// Validates `cfg` (throws ConfigError) and sizes the array; creates
  /// nothing in the netlist yet.
  CellArray(gates::Netlist& nl, const FifoConfig& cfg);

  CellArray(const CellArray&) = delete;
  CellArray& operator=(const CellArray&) = delete;

  /// Creates the TransitObserver when observability is armed. The track
  /// names are the put and get clocks ("async" for a clockless side).
  void observe(const std::string& put_track, const std::string& get_track);

  /// Creates get_data_bus onto `get_data` and, when `get_valid` is given,
  /// valid_bus_ts onto it. Records the put port the put hook samples:
  /// `put_valid` marks real items (relay mode enqueues void packets every
  /// cycle); null means every enqueue is an item.
  void add_buses(sim::Word& put_data, sim::Wire* put_valid,
                 sim::Word& get_data, sim::Wire* get_valid);

  /// Creates cell `i`'s DV state wires c<i>.e (initially set) and c<i>.f.
  void add_state(unsigned i);

  /// Drives the buses from cell `i`'s `reg_q` (and `valid_q`, required with
  /// a valid bus) while `re` is high, and hooks `we`/`re` rise. A get whose
  /// `valid_q` is low is a relay bubble, not a transaction.
  void connect(unsigned i, sim::Wire& we, sim::Wire& re, sim::Word& reg_q,
               sim::Wire* valid_q);

  /// Transit hooks of a synchronous get side: `empty` falling is the
  /// sync-crossing span; in relay mode a CLK_get cycle where `stop_in`
  /// holds back a resident item is a back-pressure stall.
  void observe_sync_get(sim::Wire& clk_get, sim::Wire& empty,
                        sim::Wire& stop_in);

  /// Builds the MonitorSet when a hub is armed: `design_checks` (may be
  /// empty), then the StreamMonitor. Call last, once every checked wire
  /// exists; every checker is read-only and draws from no RNG.
  void monitor(const DesignChecks& design_checks);

  const std::vector<sim::Wire*>& e() const noexcept { return e_; }
  const std::vector<sim::Wire*>& f() const noexcept { return f_; }
  sim::Wire& e(unsigned i) const { return *e_.at(i); }
  sim::Wire& f(unsigned i) const { return *f_.at(i); }

  /// Number of cells currently holding a data item (f_i set).
  unsigned occupancy() const;
  std::uint64_t overflows() const noexcept { return overflows_; }
  std::uint64_t underflows() const noexcept { return underflows_; }
  /// Register writes (one per enqueue; immobile data never moves again).
  std::uint64_t data_moves() const noexcept { return data_moves_; }

 private:
  struct FlowError;
  void on_put(unsigned i);
  void on_get(unsigned i);
  void flow_error(const FlowError& err, std::uint64_t& count);

  gates::Netlist& nl_;
  const FifoConfig& cfg_;
  std::vector<sim::Wire*> e_;
  std::vector<sim::Wire*> f_;
  std::vector<sim::Word*> reg_q_;
  std::vector<sim::Wire*> valid_q_;
  sim::Word* put_data_ = nullptr;
  sim::Wire* put_valid_ = nullptr;
  gates::TristateBus<std::uint64_t>* data_bus_ = nullptr;
  gates::TristateBus<bool>* valid_bus_ = nullptr;

  std::uint64_t overflows_ = 0;
  std::uint64_t underflows_ = 0;
  std::uint64_t data_moves_ = 0;
  /// Non-null only when observability was armed when observe() ran.
  std::unique_ptr<sim::TransitObserver> obs_;
  /// Non-null only when a verify::Hub was armed when monitor() ran.
  std::unique_ptr<verify::MonitorSet> mon_;
};

}  // namespace mts::fifo
