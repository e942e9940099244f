// Structured protocol-violation records (the monitor framework's currency).
//
// A runtime checker that catches a broken paper invariant -- a corrupted
// token ring, an inconsistent detector, a bundled-data hazard -- does not
// decide policy. It fills in a Violation (sim time, site, invariant,
// transaction id, observed vs expected) and hands it to the verify::Hub,
// which records, counts or throws according to the armed severity policy
// (see verify/hub.hpp).
#pragma once

#include <cstdint>
#include <string>

#include "sim/error.hpp"
#include "sim/json_writer.hpp"
#include "sim/time.hpp"

namespace mts::verify {

/// The paper invariants the monitors assert (Sections 3-5), plus the run
/// liveness classes diagnosed by sim::Watchdog.
enum class Invariant {
  kTokenRing,            ///< != 1 circulating put/get token (Section 3.1)
  kFullDetector,         ///< full/oe raw output vs true cell state (Fig. 6a)
  kEmptyDetector,        ///< ne/oe raw output vs true cell state (Fig. 6b/c)
  kOverflow,             ///< put reached the data array of a full cell
  kUnderflow,            ///< get reached the data array of an empty cell
  kHandshakeOrder,       ///< 4-phase req/ack edge out of sequence (Fig. 3b)
  kBundledData,          ///< data moved inside the bundled window (Section 4)
  kPacketOrder,          ///< item left out of FIFO order (loss/dup/reorder)
  kPacketSpurious,       ///< item left with nothing in flight
  kMetastabilityEscape,  ///< unresolved metastability past the final stage
  kClockPeriod,          ///< generated period beyond the configured envelope
  kDeadlock,             ///< queue drained with transactions in flight
  kLivelock,             ///< events executing, zero token movement
};

/// Stable short name ("token-ring", "bundled-data", ...): used as metric /
/// report keys, so renaming one is a breaking change for dashboards.
inline const char* invariant_name(Invariant inv) noexcept {
  switch (inv) {
    case Invariant::kTokenRing: return "token-ring";
    case Invariant::kFullDetector: return "full-detector";
    case Invariant::kEmptyDetector: return "empty-detector";
    case Invariant::kOverflow: return "overflow";
    case Invariant::kUnderflow: return "underflow";
    case Invariant::kHandshakeOrder: return "handshake-order";
    case Invariant::kBundledData: return "bundled-data";
    case Invariant::kPacketOrder: return "packet-order";
    case Invariant::kPacketSpurious: return "packet-spurious";
    case Invariant::kMetastabilityEscape: return "meta-escape";
    case Invariant::kClockPeriod: return "clock-period";
    case Invariant::kDeadlock: return "deadlock";
    case Invariant::kLivelock: return "livelock";
  }
  return "unknown";
}

/// One caught violation: everything a repro needs, no policy attached.
struct Violation {
  sim::Time time = 0;          ///< sim time of detection
  Invariant invariant = Invariant::kTokenRing;
  std::string site;            ///< instance prefix or wire ("fig3.ptok")
  std::uint64_t txn = 0;       ///< TraceSession txn id when known, else 0
  std::string observed;        ///< what the monitor read
  std::string expected;        ///< what the invariant requires

  /// One-line human form: "t=12.3ns token-ring @ fig3.ptok: observed 2
  /// tokens, expected exactly 1 circulating token [txn 7]".
  std::string to_string() const {
    std::string s = "t=" + sim::format_time(time) + " " +
                    invariant_name(invariant) + " @ " + site + ": observed " +
                    observed + ", expected " + expected;
    if (txn != 0) s += " [txn " + std::to_string(txn) + "]";
    return s;
  }

  /// JSON object form (embedded in hub logs and campaign repro bundles).
  std::string to_json() const {
    std::string out;
    sim::JsonWriter w(out);
    w.begin_object().key("t").u64(time)
        .key("invariant").str(invariant_name(invariant)).key("site").str(site);
    if (txn != 0) w.key("txn").u64(txn);
    w.key("observed").str(observed).key("expected").str(expected).end_object();
    return out;
  }
};

/// What the hub does with a reported violation.
enum class Policy {
  kRecord,  ///< keep the full Violation in the log + Report, continue
  kCount,   ///< count (metrics/per-invariant totals) only, continue
  kThrow,   ///< record, then throw ProtocolViolationError
};

/// Thrown by the hub under Policy::kThrow. Carries the violation that
/// triggered it so campaign supervision can classify and bundle it.
class ProtocolViolationError : public SimulationError {
 public:
  explicit ProtocolViolationError(Violation v)
      : SimulationError("protocol violation: " + v.to_string()),
        violation_(std::move(v)) {}

  const Violation& violation() const noexcept { return violation_; }

 private:
  Violation violation_;
};

}  // namespace mts::verify
