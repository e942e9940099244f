// Reusable FIFO cell parts (Section 4: "Each cell can be divided into 3
// distinct parts: a put part..., a get part..., and a data validity
// controller (DV)... these parts can be glued together ... to obtain a cell
// implementation.").
//
// The four FIFO designs are assembled from these parts around one
// CellArray (fifo/cell_array.hpp), which owns each cell's e_i/f_i state:
//
//   mixed-clock  = SyncPutPart  + SyncGetPart  + SR-latch DV
//   async-sync   = AsyncPutPart + SyncGetPart  + DV_as Petri net
//   sync-async   = SyncPutPart  + AsyncGetPart + DV_linear Petri net
//   async-async  = AsyncPutPart + AsyncGetPart + DV_linear Petri net  ([4])
#pragma once

#include "ctrl/burst_mode.hpp"
#include "ctrl/petri.hpp"
#include "fifo/config.hpp"
#include "gates/flops.hpp"
#include "gates/netlist.hpp"
#include "gates/timing.hpp"
#include "sim/signal.hpp"

namespace mts::fifo {

/// One-sided timing constraint of the token-ring cell (present in the real
/// design and made explicit here): after a clock edge, a cell's freshly
/// arrived token must not reach the we_i/re_i AND gate before the enable
/// broadcast has had time to deassert, or the new token holder would see a
/// spurious enable pulse and corrupt its DV latch. The token flop's output
/// buffering is therefore matched to the controller-response path
/// (environment reaction + controller gate + broadcast network, plus one
/// gate of margin). These return that matched delay for each side.
sim::Time put_token_match_delay(const FifoConfig& cfg);
sim::Time get_token_match_delay(const FifoConfig& cfg);

/// Synchronous put part (Fig. 5, upper half): put-token ETDFF, the we_i
/// enable (ptok & en_put), the REG write port and the validity flop.
/// Data and tokens latch on the CLK_put edge that ends an enabled cycle.
class SyncPutPart {
 public:
  /// `tok_in`/`tok_out` are this cell's slice of the put-token ring;
  /// `en_broadcast` is the buffered global en_put.
  SyncPutPart(gates::Netlist& nl, unsigned index, sim::Wire& clk,
              sim::Wire& en_broadcast, sim::Wire& tok_in, sim::Wire& tok_out,
              sim::Word& data_put, sim::Wire& req_put, const FifoConfig& cfg,
              gates::TimingDomain* domain, bool initial_token);

  /// ptok_i & en_put: REG write enable and the DV "put is happening" input.
  sim::Wire& we() const noexcept { return *we_; }
  sim::Word& reg_q() const noexcept { return *reg_q_; }
  sim::Wire& v_q() const noexcept { return *v_q_; }

 private:
  sim::Wire* we_ = nullptr;
  sim::Word* reg_q_ = nullptr;
  sim::Wire* v_q_ = nullptr;
};

/// Synchronous get part (Fig. 5, lower half): get-token ETDFF and the re_i
/// enable (gtok & en_get) that drives the tri-state buses and the DV reset.
class SyncGetPart {
 public:
  SyncGetPart(gates::Netlist& nl, unsigned index, sim::Wire& clk,
              sim::Wire& en_broadcast, sim::Wire& tok_in, sim::Wire& tok_out,
              const FifoConfig& cfg, gates::TimingDomain* domain,
              bool initial_token);

  sim::Wire& re() const noexcept { return *re_; }

 private:
  sim::Wire* re_ = nullptr;
};

/// Asynchronous put part ([4], reused in Section 4): ObtainPutToken
/// burst-mode machine, asymmetric C-element gating we, and a transparent
/// word latch as the REG write port. we_i doubles as the cell's
/// acknowledgment (merged into put_ack by an OR tree) and as the token
/// pulse we1 for the next cell.
class AsyncPutPart {
 public:
  /// `req_broadcast` is the buffered global put_req; `we1` is the previous
  /// cell's we; `e_i` is the DV empty state (C-element guard); `we_out` is
  /// the caller-owned wire this part drives (the cells' we wires form a
  /// ring, so they must pre-exist).
  AsyncPutPart(gates::Netlist& nl, unsigned index, sim::Wire& req_broadcast,
               sim::Word& put_data, sim::Wire& we1, sim::Wire& e_i,
               sim::Wire& we_out, const FifoConfig& cfg, bool initial_token);

  sim::Wire& we() const noexcept { return *we_; }
  sim::Wire& ptok() const noexcept { return *ptok_; }
  sim::Word& reg_q() const noexcept { return *reg_q_; }

 private:
  sim::Wire* we_ = nullptr;
  sim::Wire* ptok_ = nullptr;
  sim::Word* reg_q_ = nullptr;
};

/// Asynchronous get part ([4]): ObtainGetToken machine (same burst-mode
/// spec as OPT) and an asymmetric C-element gating re. re_i enables this
/// cell's tri-state driver and is merged into get_ack.
class AsyncGetPart {
 public:
  AsyncGetPart(gates::Netlist& nl, unsigned index, sim::Wire& req_broadcast,
               sim::Wire& re1, sim::Wire& f_i, sim::Wire& re_out,
               const FifoConfig& cfg, bool initial_token);

  sim::Wire& re() const noexcept { return *re_; }
  sim::Wire& gtok() const noexcept { return *gtok_; }

 private:
  sim::Wire* re_ = nullptr;
  sim::Wire* gtok_ = nullptr;
};

}  // namespace mts::fifo
