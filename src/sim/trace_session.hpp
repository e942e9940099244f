// End-to-end transaction tracing.
//
// A TraceSession assigns a monotonically increasing transaction id to every
// item entering a traced component (FIFO cell array, relay station) and
// records timestamped spans as the item moves through the system:
//
//   put_committed     the item was latched into a cell / main register
//   sync_crossed      the item's presence became visible across a timing
//                     boundary (empty detector deasserted after the
//                     synchronizer chain settled)
//   get_observed      the item was driven onto the get-side bus (valid_get)
//   stalled_by_stopIn back-pressure parked the item (relay-station AUX)
//
// Components are *streams* (keyed by instance name) and timing domains are
// *tracks*. Because every FIFO and relay station in this library preserves
// order, a stream's in-flight transactions form a queue: put_committed
// pushes, get_observed pops. link(upstream, downstream) joins two streams so
// an id survives a hop -- the upstream's get_observed hands the id to the
// downstream's next put_committed -- which is how a packet keeps one id from
// an async producer through an ASRS and a whole SRS chain to the sink.
//
// Export is the Chrome trace-event JSON format (write_json / to_json),
// loadable in Perfetto (https://ui.perfetto.dev) and chrome://tracing:
// domains map to named threads ("tracks"), span kinds to instant events on
// their domain's track, and each transaction to one async slice spanning
// first put_committed -> final get_observed. Timestamps are emitted in
// microseconds with 1 ps resolution (the simulator's native unit).
//
// Memory: events are buffered in flat vectors (~32 B each) until export;
// set_max_events caps the buffer for long soaks (drops are counted, id
// accounting continues so latency metrics stay exact).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/json_writer.hpp"
#include "sim/time.hpp"

namespace mts::sim {

class TraceSession {
 public:
  using TxnId = std::uint64_t;
  using TrackId = std::uint32_t;
  using StreamId = std::uint32_t;

  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  TraceSession() = default;
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Resolves (or creates) the track named `name` -- one per timing domain,
  /// e.g. "clk_put", "clk_display", "async".
  TrackId track(const std::string& name);

  /// Resolves (or creates) the stream for component `instance`. Tracks tell
  /// the exporter where the stream's put- and get-side events belong.
  StreamId stream(const std::string& instance, TrackId put_track,
                  TrackId get_track);

  /// Joins two streams: ids popped by `upstream`'s get_observed are adopted
  /// by `downstream`'s subsequent put_committed calls (FIFO order).
  void link(StreamId upstream, StreamId downstream);

  /// Name-based convenience for chain builders: links the streams of two
  /// already-constructed instances. Throws ConfigError when either instance
  /// never registered a stream (i.e. was built with observability disarmed).
  void link(const std::string& upstream_instance,
            const std::string& downstream_instance);

  /// The item now latched in `s`. Takes the oldest handed-off id when a
  /// linked upstream has produced one, otherwise mints a fresh id. Returns
  /// the id so callers can correlate.
  TxnId put_committed(StreamId s, Time t, std::uint64_t data);

  /// The oldest in-flight item of `s` became visible across the stream's
  /// timing boundary (synchronizer settled, empty deasserted).
  void sync_crossed(StreamId s, Time t);

  /// The oldest in-flight item of `s` left on the get side (valid_get /
  /// out_valid). Returns the id and its put timestamp (forward latency =
  /// t - put_time), or {0, 0} if no item was in flight (protocol error --
  /// also reported by the FIFO's own underflow monitors).
  struct Departure {
    TxnId id = 0;
    Time put_time = 0;
  };
  Departure get_observed(StreamId s, Time t, std::uint64_t data);

  /// Back-pressure stalled the oldest in-flight item of `s`.
  void stalled_by_stop_in(StreamId s, Time t);

  /// Number of transaction ids minted so far.
  TxnId transactions() const noexcept { return next_txn_ - 1; }
  std::uint64_t events_recorded() const noexcept { return events_.size(); }
  std::uint64_t events_dropped() const noexcept { return dropped_; }

  /// Caps the event buffer (default 4M events ~ 128 MB); id accounting
  /// continues past the cap so latency numbers stay exact.
  void set_max_events(std::size_t n) noexcept { max_events_ = n; }

  /// Extra trace-event objects appended inside the traceEvents array by
  /// to_json() -- how sim::Telemetry merges its counter tracks into the
  /// same trace file as the transaction spans. The provider writes its
  /// (possibly no) events into the writer's open array; it must stay valid
  /// until the last export or be cleared with nullptr.
  void set_extra_events_provider(std::function<void(JsonWriter&)> fn) {
    extra_events_ = std::move(fn);
  }

  /// Chrome trace-event JSON ({"displayTimeUnit":"ns","traceEvents":[...]}),
  /// loadable in Perfetto / chrome://tracing.
  std::string to_json() const;

  /// Writes to_json() to `path`; throws ConfigError when the file cannot be
  /// opened.
  void write_json(const std::string& path) const;

 private:
  enum class Kind : std::uint8_t {
    kPutCommitted,
    kSyncCrossed,
    kGetObserved,
    kStalled,
    kBegin,  ///< async-slice open (first put_committed of a fresh id)
    kEnd,    ///< async-slice close (get_observed on an unlinked stream tail)
  };

  struct EventRec {
    Time t = 0;
    TxnId txn = 0;
    std::uint64_t data = 0;
    StreamId stream = 0;
    Kind kind = Kind::kPutCommitted;
  };

  struct Stream {
    std::string instance;
    TrackId put_track = 0;
    TrackId get_track = 0;
    StreamId downstream = kNone;         ///< link target, if any
    std::deque<EventRec> in_flight;      ///< t = put time, txn = id
    std::deque<Departure> handoff;       ///< ids awaiting adoption downstream
    bool has_upstream = false;
  };

  void record(Kind kind, StreamId s, Time t, TxnId txn, std::uint64_t data) {
    if (events_.size() >= max_events_) {
      ++dropped_;
      return;
    }
    events_.push_back(EventRec{t, txn, data, s, kind});
  }

  std::vector<std::string> tracks_;
  std::unordered_map<std::string, TrackId> track_index_;
  std::vector<Stream> streams_;
  std::unordered_map<std::string, StreamId> stream_index_;
  std::vector<EventRec> events_;
  std::function<void(JsonWriter&)> extra_events_;  ///< counter tracks
  TxnId next_txn_ = 1;
  std::uint64_t dropped_ = 0;
  std::size_t max_events_ = 4'000'000;
};

}  // namespace mts::sim
