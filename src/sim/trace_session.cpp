#include "sim/trace_session.hpp"

#include <fstream>

#include "sim/error.hpp"

namespace mts::sim {

TraceSession::TrackId TraceSession::track(const std::string& name) {
  const auto it = track_index_.find(name);
  if (it != track_index_.end()) return it->second;
  const auto id = static_cast<TrackId>(tracks_.size());
  tracks_.push_back(name);
  track_index_.emplace(name, id);
  return id;
}

TraceSession::StreamId TraceSession::stream(const std::string& instance,
                                            TrackId put_track,
                                            TrackId get_track) {
  const auto it = stream_index_.find(instance);
  if (it != stream_index_.end()) return it->second;
  const auto id = static_cast<StreamId>(streams_.size());
  Stream s;
  s.instance = instance;
  s.put_track = put_track;
  s.get_track = get_track;
  streams_.push_back(std::move(s));
  stream_index_.emplace(instance, id);
  return id;
}

void TraceSession::link(StreamId upstream, StreamId downstream) {
  streams_[upstream].downstream = downstream;
  streams_[downstream].has_upstream = true;
}

void TraceSession::link(const std::string& upstream_instance,
                        const std::string& downstream_instance) {
  const auto up = stream_index_.find(upstream_instance);
  const auto down = stream_index_.find(downstream_instance);
  if (up == stream_index_.end() || down == stream_index_.end()) {
    throw ConfigError(
        "TraceSession::link: unknown instance '" +
        (up == stream_index_.end() ? upstream_instance : downstream_instance) +
        "' (was the component built before observability was armed?)");
  }
  link(up->second, down->second);
}

TraceSession::TxnId TraceSession::put_committed(StreamId s, Time t,
                                                std::uint64_t data) {
  Stream& st = streams_[s];
  TxnId id;
  if (st.has_upstream && !st.handoff.empty()) {
    id = st.handoff.front().id;
    st.handoff.pop_front();
  } else {
    id = next_txn_++;
    record(Kind::kBegin, s, t, id, data);
  }
  st.in_flight.push_back(EventRec{t, id, data, s, Kind::kPutCommitted});
  record(Kind::kPutCommitted, s, t, id, data);
  return id;
}

void TraceSession::sync_crossed(StreamId s, Time t) {
  const Stream& st = streams_[s];
  const TxnId id = st.in_flight.empty() ? 0 : st.in_flight.front().txn;
  record(Kind::kSyncCrossed, s, t, id, 0);
}

TraceSession::Departure TraceSession::get_observed(StreamId s, Time t,
                                                   std::uint64_t data) {
  Stream& st = streams_[s];
  if (st.in_flight.empty()) return Departure{};  // underflow: FIFO reports it
  const EventRec put = st.in_flight.front();
  st.in_flight.pop_front();
  record(Kind::kGetObserved, s, t, put.txn, data);
  if (st.downstream != kNone) {
    streams_[st.downstream].handoff.push_back(Departure{put.txn, put.t});
  } else {
    record(Kind::kEnd, s, t, put.txn, data);
  }
  return Departure{put.txn, put.t};
}

void TraceSession::stalled_by_stop_in(StreamId s, Time t) {
  const Stream& st = streams_[s];
  const TxnId id = st.in_flight.empty() ? 0 : st.in_flight.front().txn;
  record(Kind::kStalled, s, t, id, 0);
}

namespace {

const char* kind_name(int k) {
  switch (k) {
    case 0: return "put_committed";
    case 1: return "sync_crossed";
    case 2: return "get_observed";
    case 3: return "stalled_by_stopIn";
  }
  return "?";
}

}  // namespace

std::string TraceSession::to_json() const {
  std::string out;
  JsonWriter w(out);
  w.begin_object().key("displayTimeUnit").str("ns")
      .key("traceEvents").begin_array(JsonWriter::Layout::kLines);
  w.begin_object().key("name").str("process_name").key("ph").str("M")
      .key("pid").u64(1).key("args").begin_object()
      .key("name").str("mts simulation").end_object().end_object();
  // One named thread per timing-domain track (tid 0 is reserved).
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    w.begin_object().key("name").str("thread_name").key("ph").str("M")
        .key("pid").u64(1).key("tid").u64(i + 1).key("args").begin_object()
        .key("name").str(tracks_[i]).end_object().end_object();
  }
  for (const EventRec& e : events_) {
    const Stream& st = streams_[e.stream];
    w.begin_object();
    switch (e.kind) {
      case Kind::kBegin:
      case Kind::kEnd:
        // One async slice per transaction: opened at the first
        // put_committed of a fresh id, closed at the last get_observed.
        // Perfetto matches b/e pairs on (cat, id, name).
        w.key("name").str("txn").key("cat").str("txn")
            .key("ph").str(e.kind == Kind::kBegin ? "b" : "e")
            .key("id").u64(e.txn).key("pid").u64(1)
            .key("tid").u64(
                (e.kind == Kind::kBegin ? st.put_track : st.get_track) + 1)
            .key("ts").ts_us(e.t).key("args").begin_object()
            .key("instance").str(st.instance);
        break;
      default:
        w.key("name").str(kind_name(static_cast<int>(e.kind)))
            .key("cat").str("span").key("ph").str("i").key("s").str("t")
            .key("pid").u64(1)
            .key("tid").u64(
                (e.kind == Kind::kPutCommitted ? st.put_track : st.get_track) +
                1)
            .key("ts").ts_us(e.t).key("args").begin_object()
            .key("txn").u64(e.txn).key("instance").str(st.instance)
            .key("data").u64(e.data);
        break;
    }
    w.end_object().end_object();
  }
  if (extra_events_) extra_events_(w);
  w.end_array().end_object();
  out += '\n';
  return out;
}

void TraceSession::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw ConfigError("TraceSession: cannot open '" + path + "' for writing");
  }
  out << to_json();
}

}  // namespace mts::sim
