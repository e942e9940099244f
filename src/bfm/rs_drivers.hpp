// Bus-functional models for latency-insensitive links (relay-station
// chains): a packet source, a randomly stalling sink and a sink that
// stalls in a fixed burst pattern.
//
// Both follow the library-wide transfer convention: a transfer occurs on a
// link at a clock edge iff the link's stop wire was low during the cycle
// ending at that edge.
#pragma once

#include <cstdint>
#include <random>
#include <string>

#include "bfm/scoreboard.hpp"
#include "gates/delay_model.hpp"
#include "sim/signal.hpp"
#include "sim/simulation.hpp"

namespace mts::bfm {

/// Registered packet source: on every edge where the link's stop is low it
/// emits the next packet (valid with probability `valid_rate`, void
/// otherwise) and records the consumption of the previous one.
class RsSource {
 public:
  RsSource(sim::Simulation& sim, std::string name, sim::Wire& clk,
           sim::Word& out_data, sim::Wire& out_valid, sim::Wire& stop,
           const gates::DelayModel& dm, double valid_rate,
           std::uint64_t value_mask, Scoreboard& sb);

  RsSource(const RsSource&) = delete;
  RsSource& operator=(const RsSource&) = delete;

  void set_enabled(bool on) noexcept { enabled_ = on; }
  std::uint64_t sent_valid() const noexcept { return sent_valid_; }

 private:
  void on_edge();

  sim::Simulation& sim_;
  sim::Word& out_data_;
  sim::Wire& out_valid_;
  sim::Wire& stop_;
  sim::Time clk_to_q_;
  double valid_rate_;
  std::uint64_t value_mask_;
  Scoreboard& sb_;

  std::uint64_t next_value_ = 1;
  std::uint64_t pending_data_ = 0;
  bool pending_valid_ = false;
  std::uint64_t sent_valid_ = 0;
  bool enabled_ = true;
};

/// Stalling sink: consumes the packet on its link at every edge where its
/// own (registered) stop output was low, and raises stop with probability
/// `stall_rate` each cycle.
class RsSink {
 public:
  RsSink(sim::Simulation& sim, std::string name, sim::Wire& clk,
         sim::Word& in_data, sim::Wire& in_valid, sim::Wire& stop,
         const gates::DelayModel& dm, double stall_rate, Scoreboard& sb);

  RsSink(const RsSink&) = delete;
  RsSink& operator=(const RsSink&) = delete;

  std::uint64_t received_valid() const noexcept { return received_valid_; }
  sim::Time last_receive_time() const noexcept { return last_time_; }

 private:
  void on_edge();

  sim::Simulation& sim_;
  sim::Word& in_data_;
  sim::Wire& in_valid_;
  sim::Wire& stop_;
  sim::Time clk_to_q_;
  double stall_rate_;
  Scoreboard& sb_;

  bool prev_stop_ = false;
  std::uint64_t received_valid_ = 0;
  sim::Time last_time_ = 0;
};

/// Burst-stalling sink: consumes like RsSink, but drives stop from a fixed
/// cycle pattern instead of the RNG -- `burst` stop cycles out of every
/// `period`, starting after `warmup` cycles. The same waveform every run,
/// so a back-pressure storm's timeline is reproducible byte for byte.
class RsBurstSink {
 public:
  RsBurstSink(sim::Wire& clk, sim::Word& in_data, sim::Wire& in_valid,
              sim::Wire& stop, const gates::DelayModel& dm, unsigned warmup,
              unsigned period, unsigned burst, Scoreboard& sb);

  RsBurstSink(const RsBurstSink&) = delete;
  RsBurstSink& operator=(const RsBurstSink&) = delete;

  std::uint64_t received() const noexcept { return received_; }
  bool stalling() const noexcept { return prev_stop_; }
  std::uint64_t stall_cycles() const noexcept { return stall_cycles_; }

 private:
  void on_edge();

  sim::Word& in_data_;
  sim::Wire& in_valid_;
  sim::Wire& stop_;
  sim::Time clk_to_q_;
  unsigned warmup_;
  unsigned period_;
  unsigned burst_;
  Scoreboard& sb_;
  bool prev_stop_ = false;
  unsigned cycle_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t stall_cycles_ = 0;
};

}  // namespace mts::bfm
