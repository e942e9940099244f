#include "bfm/rs_drivers.hpp"

namespace mts::bfm {

RsSource::RsSource(sim::Simulation& sim, std::string name, sim::Wire& clk,
                   sim::Word& out_data, sim::Wire& out_valid, sim::Wire& stop,
                   const gates::DelayModel& dm, double valid_rate,
                   std::uint64_t value_mask, Scoreboard& sb)
    : sim_(sim),
      out_data_(out_data),
      out_valid_(out_valid),
      stop_(stop),
      clk_to_q_(dm.flop.clk_to_q),
      valid_rate_(valid_rate),
      value_mask_(value_mask),
      sb_(sb) {
  (void)name;
  clk.on_rise([this] { on_edge(); });
}

void RsSource::on_edge() {
  if (stop_.read()) return;  // link frozen: hold the pending packet

  // The packet that was on the wire is consumed at this edge.
  if (pending_valid_) {
    sb_.push(pending_data_);
    ++sent_valid_;
  }

  std::uniform_real_distribution<double> dist(0.0, 1.0);
  pending_valid_ =
      enabled_ && (valid_rate_ >= 1.0 || dist(sim_.rng()) < valid_rate_);
  if (pending_valid_) {
    pending_data_ = next_value_ & value_mask_;
    ++next_value_;
  }
  out_data_.write(pending_data_, clk_to_q_, sim::DelayKind::kInertial);
  out_valid_.write(pending_valid_, clk_to_q_, sim::DelayKind::kInertial);
}

RsSink::RsSink(sim::Simulation& sim, std::string name, sim::Wire& clk,
               sim::Word& in_data, sim::Wire& in_valid, sim::Wire& stop,
               const gates::DelayModel& dm, double stall_rate, Scoreboard& sb)
    : sim_(sim),
      in_data_(in_data),
      in_valid_(in_valid),
      stop_(stop),
      clk_to_q_(dm.flop.clk_to_q),
      stall_rate_(stall_rate),
      sb_(sb) {
  (void)name;
  clk.on_rise([this] { on_edge(); });
}

void RsSink::on_edge() {
  // Consume iff our registered stop was low during the ending cycle.
  if (!prev_stop_ && in_valid_.read()) {
    sb_.pop_check(in_data_.read());
    ++received_valid_;
    last_time_ = sim_.now();
  }
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  const bool stall = stall_rate_ > 0.0 && dist(sim_.rng()) < stall_rate_;
  prev_stop_ = stall;
  stop_.write(stall, clk_to_q_, sim::DelayKind::kInertial);
}

RsBurstSink::RsBurstSink(sim::Wire& clk, sim::Word& in_data,
                         sim::Wire& in_valid, sim::Wire& stop,
                         const gates::DelayModel& dm, unsigned warmup,
                         unsigned period, unsigned burst, Scoreboard& sb)
    : in_data_(in_data),
      in_valid_(in_valid),
      stop_(stop),
      clk_to_q_(dm.flop.clk_to_q),
      warmup_(warmup),
      period_(period),
      burst_(burst),
      sb_(sb) {
  clk.on_rise([this] { on_edge(); });
}

void RsBurstSink::on_edge() {
  if (!prev_stop_ && in_valid_.read()) {
    sb_.pop_check(in_data_.read());
    ++received_;
  }
  const bool stall =
      cycle_ >= warmup_ && (cycle_ - warmup_) % period_ < burst_;
  ++cycle_;
  if (stall) ++stall_cycles_;
  prev_stop_ = stall;
  stop_.write(stall, clk_to_q_, sim::DelayKind::kInertial);
}

}  // namespace mts::bfm
