#include "replays.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "bond/reorder_window.hpp"
#include "cc/gcc/gcc_controller.hpp"
#include "cc/scream/scream_controller.hpp"
#include "cellular/link_queue.hpp"
#include "cellular/radio_model.hpp"
#include "ledger.hpp"
#include "net/packet.hpp"
#include "obs/recorder.hpp"
#include "rtp/fec.hpp"
#include "rtp/feedback.hpp"
#include "rtp/jitter_buffer.hpp"
#include "rtp/packetizer.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "video/frame.hpp"

namespace perfbench {

namespace {

using namespace rpv;

constexpr std::uint64_t kPrime = 1099511628211ULL;

std::uint64_t ops_of(double base, double scale) {
  return std::max<std::uint64_t>(64, static_cast<std::uint64_t>(base * scale));
}

// --- sim::EventQueue ------------------------------------------------------

// `chains` self-rescheduling event chains with delays drawn up front. The
// cancel pattern also re-arms one far timer per event and cancels the
// previous one (the RAII Timer re-arm every layer does); the overflow
// pattern draws delays past the calendar wheel's ~262 ms window.
struct QueueReplay {
  enum class Pattern { kSteady, kCancel, kOverflow };

  sim::EventQueue q;
  sim::TimePoint clock;
  std::vector<std::int64_t> delays_us;
  std::size_t next = 0;
  std::uint64_t remaining = 0;
  std::uint64_t checksum = 0;
  Pattern pattern = Pattern::kSteady;
  sim::EventQueue::Handle far{};

  struct Tick {
    QueueReplay* r;
    void operator()() const { r->fire(); }
  };
  struct Noop {
    std::uint64_t* checksum;
    void operator()() const { *checksum += 1; }
  };

  void fire() {
    checksum = checksum * kPrime + static_cast<std::uint64_t>(clock.us());
    if (pattern == Pattern::kCancel) {
      q.cancel(far);
      far = q.schedule(clock + sim::Duration::millis(150), Noop{&checksum});
    }
    if (remaining == 0) return;
    --remaining;
    q.schedule(clock + sim::Duration::micros(delays_us[next++ % delays_us.size()]),
               Tick{this});
  }
};

ReplayResult replay_queue(const ReplayInput& in, QueueReplay::Pattern pattern,
                          std::string metric) {
  auto r = std::make_unique<QueueReplay>();
  r->pattern = pattern;
  sim::Rng rng{in.seed ^ 0x51ULL};
  const bool far = pattern == QueueReplay::Pattern::kOverflow;
  for (int i = 0; i < 4096; ++i) {
    r->delays_us.push_back(far ? rng.uniform_int(300'000, 3'000'000)
                               : rng.uniform_int(0, 20'000));
  }
  const std::uint64_t events = ops_of(2'000'000, in.scale);
  constexpr int kChains = 256;
  r->remaining = events - kChains;
  for (int i = 0; i < kChains; ++i) {
    r->q.schedule(sim::TimePoint::from_us(r->delays_us[r->next++]),
                  QueueReplay::Tick{r.get()});
  }
  std::uint64_t executed = 0;
  const auto t0 = CpuClock::now();
  while (r->q.run_one(sim::TimePoint::never(), &r->clock)) ++executed;
  const double cpu = seconds_since(t0);
  return {std::move(metric), 1e9 * cpu / static_cast<double>(executed),
          executed, executed, r->checksum};
}

// --- shared input streams --------------------------------------------------

// Frames of a stream at the workload's media rate: 30 FPS, an IDR every
// two seconds at four times the mean size.
std::vector<video::Frame> make_frames(const ReplayInput& in, std::size_t n) {
  sim::Rng rng{in.seed ^ 0xF7ULL};
  const double mean_bytes = in.packet_rate_pps * in.packet_bytes / video::kFps;
  std::vector<video::Frame> frames(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& f = frames[i];
    f.id = static_cast<std::uint32_t>(i);
    f.capture_time = sim::TimePoint::from_us(static_cast<std::int64_t>(
        static_cast<double>(i) * 1e6 / video::kFps));
    f.encode_time = f.capture_time;
    f.keyframe = i % 60 == 0;
    const double size = mean_bytes * (f.keyframe ? 4.0 : rng.uniform(0.7, 1.2));
    f.size_bytes = static_cast<std::size_t>(std::max(200.0, size));
  }
  return frames;
}

std::vector<net::Packet> make_packets(const ReplayInput& in, std::size_t n) {
  rtp::Packetizer packetizer;
  std::vector<net::Packet> out, frame_packets;
  const auto frames = make_frames(in, n / 4 + 64);
  for (const auto& f : frames) {
    packetizer.packetize(f, frame_packets);
    for (const auto& p : frame_packets) {
      if (out.size() == n) return out;
      out.push_back(p);
    }
  }
  return out;
}

// Arrival of one packet copy at `at` on `path`.
struct Arrival {
  sim::TimePoint at;
  std::uint32_t index = 0;
  int path = 0;
};

// Feeds sorted arrivals to `deliver` one engine event at a time, the way a
// link delivers them.
template <typename Deliver>
struct ArrivalChain {
  sim::Simulator& sim;
  const std::vector<Arrival>& arrivals;
  Deliver deliver;
  std::size_t next = 0;

  void arm() {
    if (next >= arrivals.size()) return;
    sim.schedule_at(arrivals[next].at, [this] {
      deliver(arrivals[next]);
      ++next;
      arm();
    });
  }
};

// Prices a simulator-driven replay per operation, engine events included.
ReplayResult per_op(std::string metric, double cpu_s, std::uint64_t ops,
                    std::uint64_t events, std::uint64_t checksum) {
  return {std::move(metric), 1e9 * cpu_s / static_cast<double>(ops), ops, events,
          checksum};
}

// --- cellular ---------------------------------------------------------------

ReplayResult replay_link_queue(const ReplayInput& in) {
  const std::uint64_t n = ops_of(300'000, in.scale);
  sim::Rng rng{in.seed ^ 0x11ULL};
  std::vector<std::uint32_t> sizes(4096);
  for (auto& s : sizes)
    s = static_cast<std::uint32_t>(rng.uniform(0.5, 1.5) * in.packet_bytes);
  const double offered_bps = in.packet_rate_pps * in.packet_bytes * 8.0;

  sim::Simulator sim;
  std::uint64_t checksum = 0, delivered = 0, dropped = 0;
  double rate_bps = offered_bps * 1.2;
  cellular::LinkQueue queue{
      sim, cellular::LinkQueueConfig{}, [&rate_bps] { return rate_bps; },
      [&](net::Packet p, cellular::LinkQueue::DoneFn done) {
        ++delivered;
        checksum = checksum * kPrime + p.id + static_cast<std::uint64_t>(sim.now().us());
        if (done) done(std::move(p));
      },
      [&](const net::Packet&) { ++dropped; }};

  // Arrivals at the workload's packet rate; every 2 s the radio pauses for a
  // handover and then runs at half rate, so the deep buffer fills and drains.
  const auto gap = sim::Duration::micros(
      static_cast<std::int64_t>(1e6 / in.packet_rate_pps));
  std::uint64_t sent = 0;
  struct Source {
    sim::Simulator& sim;
    cellular::LinkQueue& queue;
    const std::vector<std::uint32_t>& sizes;
    sim::Duration gap;
    std::uint64_t n;
    std::uint64_t& sent;
    void operator()() const {
      net::Packet p;
      p.id = sent + 1;
      p.size_bytes = sizes[sent % sizes.size()];
      p.enqueued = sim.now();
      queue.enqueue(p, [](net::Packet) {});
      if (++sent < n) sim.schedule_in(gap, *this);
    }
  };
  sim.schedule_at(sim::TimePoint::origin(), Source{sim, queue, sizes, gap, n, sent});
  const auto horizon = sim::TimePoint::origin() +
                       sim::Duration::seconds(static_cast<double>(n) / in.packet_rate_pps + 5.0);
  for (auto t = sim::TimePoint::origin() + sim::Duration::seconds(2.0); t < horizon;
       t += sim::Duration::seconds(2.0)) {
    sim.schedule_at(t, [&queue, &rate_bps, offered_bps] {
      queue.pause();
      rate_bps = offered_bps * 0.5;
    });
    sim.schedule_at(t + sim::Duration::millis(150), [&queue] { queue.resume(); });
    sim.schedule_at(t + sim::Duration::millis(900),
                    [&rate_bps, offered_bps] { rate_bps = offered_bps * 1.2; });
  }
  const auto t0 = CpuClock::now();
  sim.run_all();
  const double cpu = seconds_since(t0);
  checksum = checksum * kPrime + delivered * 3 + dropped;
  return per_op("cellular.link_queue.ns_per_packet", cpu, n,
                sim.executed_events(), checksum);
}

ReplayResult replay_radio_model(const ReplayInput& in) {
  experiment::Scenario s;
  s.env = in.env;
  s.seed = in.seed;
  sim::Rng rng{in.seed ^ 0x22ULL};
  const auto layout = experiment::make_layout(s, rng);
  const auto trajectory = experiment::make_trajectory(s, rng);
  const auto cfg = experiment::make_session_config(s).link.radio;
  const std::uint64_t n = ops_of(100'000, in.scale);
  // Measurement ticks spread over the flight.
  std::vector<geo::Vec3> positions(n);
  const double span_us = static_cast<double>(trajectory.duration().us());
  for (std::uint64_t i = 0; i < n; ++i) {
    positions[i] = trajectory.position(
        trajectory.start() +
        sim::Duration::micros(static_cast<std::int64_t>(
            span_us * static_cast<double>(i) / static_cast<double>(n))));
  }
  cellular::RadioModel radio{cfg, layout, rng.fork()};
  double total = 0.0;
  const auto t0 = CpuClock::now();
  for (const auto& pos : positions) {
    radio.update(pos);
    total += radio.capacity_mbps(radio.measurements().front().cell_id);
  }
  const double cpu = seconds_since(t0);
  return {"cellular.radio_model.ns_per_capacity_call",
          1e9 * cpu / static_cast<double>(n), n, 0,
          static_cast<std::uint64_t>(total * 1000.0)};
}

// --- cc ---------------------------------------------------------------------

// Sent packets and the feedback reports a receiver-side collector builds
// for them, one report per feedback interval.
struct FeedbackStream {
  std::vector<std::vector<cc::SentPacket>> sent;
  std::vector<rtp::FeedbackReport> reports;
};

template <typename Collector>
FeedbackStream make_feedback(const ReplayInput& in, Collector collector,
                             sim::Duration interval, std::size_t n_reports) {
  sim::Rng rng{in.seed ^ 0x33ULL};
  FeedbackStream fs;
  std::uint16_t seq = 0;
  double queue_ms = 0.0;
  const double per_interval = in.packet_rate_pps * interval.sec();
  for (std::size_t k = 0; k < n_reports; ++k) {
    const auto start = sim::TimePoint::origin() + interval * static_cast<double>(k);
    const int n = std::max(1, static_cast<int>(per_interval * rng.uniform(0.8, 1.2)));
    std::vector<cc::SentPacket> batch;
    for (int i = 0; i < n; ++i) {
      cc::SentPacket p;
      p.transport_seq = seq++;
      p.size_bytes = static_cast<std::size_t>(in.packet_bytes * rng.uniform(0.5, 1.5));
      p.send_time = start + interval * (static_cast<double>(i) / n);
      // Queueing delay wanders like a loaded radio bearer.
      queue_ms = std::clamp(queue_ms + rng.normal(0.0, 2.0), 0.0, 400.0);
      if (!rng.chance(0.005)) {
        collector.on_packet(p.transport_seq,
                            p.send_time + sim::Duration::millis_f(35.0 + queue_ms));
      }
      batch.push_back(p);
    }
    fs.sent.push_back(std::move(batch));
    fs.reports.push_back(collector.build_report(start + interval +
                                                sim::Duration::millis(40)));
  }
  return fs;
}

template <typename Controller>
ReplayResult replay_controller(std::string metric, Controller& cc,
                               const FeedbackStream& fs) {
  std::uint64_t checksum = 0;
  const auto t0 = CpuClock::now();
  for (std::size_t k = 0; k < fs.reports.size(); ++k) {
    for (const auto& p : fs.sent[k]) cc.on_packet_sent(p);
    cc.on_tick(fs.reports[k].generated);
    cc.on_feedback(fs.reports[k], fs.reports[k].generated);
    checksum = checksum * kPrime +
               static_cast<std::uint64_t>(cc.target_bitrate_bps());
  }
  const double cpu = seconds_since(t0);
  return {std::move(metric), 1e9 * cpu / static_cast<double>(fs.reports.size()),
          fs.reports.size(), 0, checksum};
}

ReplayResult replay_gcc(const ReplayInput& in) {
  const auto fs = make_feedback(in, rtp::TwccCollector{}, sim::Duration::millis(50),
                                ops_of(6000, in.scale));
  cc::gcc::GccController gcc;
  return replay_controller("cc.gcc.ns_per_feedback", gcc, fs);
}

ReplayResult replay_scream(const ReplayInput& in) {
  const auto fs = make_feedback(in, rtp::Rfc8888Collector{256},
                                sim::Duration::millis(10), ops_of(30000, in.scale));
  cc::scream::ScreamController scream;
  return replay_controller("cc.scream.ns_per_feedback", scream, fs);
}

// --- rtp ----------------------------------------------------------------------

ReplayResult replay_packetizer(const ReplayInput& in) {
  const auto frames = make_frames(in, ops_of(9000, in.scale));
  rtp::Packetizer packetizer;
  std::vector<net::Packet> out;
  std::uint64_t checksum = 0;
  const auto t0 = CpuClock::now();
  for (const auto& f : frames) {
    packetizer.packetize(f, out);
    checksum = checksum * kPrime + out.size() + out.back().size_bytes;
  }
  const double cpu = seconds_since(t0);
  return {"rtp.packetizer.ns_per_frame", 1e9 * cpu / static_cast<double>(frames.size()),
          frames.size(), 0, checksum};
}

ReplayResult replay_fec(const ReplayInput& in) {
  const auto packets = make_packets(in, ops_of(300'000, in.scale));
  sim::Rng rng{in.seed ^ 0x44ULL};
  std::vector<bool> lost(packets.size());
  for (std::size_t i = 0; i < lost.size(); ++i) lost[i] = rng.chance(0.01);
  auto table = std::make_shared<rtp::FecGroupTable>();
  rtp::FecEncoder encoder{rtp::FecConfig{}, table};
  rtp::FecDecoder decoder{table};
  std::uint64_t checksum = 0;
  const auto t0 = CpuClock::now();
  for (std::size_t i = 0; i < packets.size(); ++i) {
    net::Packet p = packets[i];
    const auto now = sim::TimePoint::from_us(static_cast<std::int64_t>(i) * 1000);
    const auto parity = encoder.on_media_packet(p);
    if (!lost[i]) {
      if (const auto fixed = decoder.on_media_packet(p, now)) checksum += fixed->id;
    }
    if (parity) {
      if (const auto fixed = decoder.on_parity_packet(*parity, now))
        checksum += fixed->id;
    }
  }
  const double cpu = seconds_since(t0);
  checksum = checksum * kPrime + encoder.parity_packets() * 7 +
             decoder.recovered_packets();
  return {"rtp.fec.ns_per_packet", 1e9 * cpu / static_cast<double>(packets.size()),
          packets.size(), 0, checksum};
}

ReplayResult replay_jitter_buffer(const ReplayInput& in) {
  const auto packets = make_packets(in, ops_of(150'000, in.scale));
  sim::Rng rng{in.seed ^ 0x55ULL};
  std::vector<Arrival> arrivals;
  arrivals.reserve(packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (rng.chance(0.003)) continue;
    const double t_s = packets[i].rtp_timestamp.sec();
    // 50 ms path, exponential jitter, and a 400 ms handover spike every 10 s.
    double owd_ms = 50.0 + rng.exponential(5.0);
    if (std::fmod(t_s, 10.0) < 0.5) owd_ms += 400.0;
    arrivals.push_back({packets[i].rtp_timestamp + sim::Duration::millis_f(owd_ms),
                        static_cast<std::uint32_t>(i), 0});
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) { return a.at < b.at; });

  sim::Simulator sim;
  std::uint64_t checksum = 0;
  rtp::JitterBuffer jb{sim, rtp::JitterBufferConfig{},
                       [&checksum](const rtp::FrameReleaseEvent& e) {
                         checksum = checksum * kPrime + e.frame_id +
                                    (e.corrupted ? 1u << 31 : 0u) +
                                    static_cast<std::uint64_t>(e.release_time.us());
                       }};
  auto deliver = [&](const Arrival& a) { jb.on_packet(packets[a.index]); };
  ArrivalChain<decltype(deliver)> chain{sim, arrivals, deliver};
  chain.arm();
  const auto t0 = CpuClock::now();
  sim.run_all();
  const double cpu = seconds_since(t0);
  return per_op("rtp.jitter_buffer.ns_per_packet", cpu, arrivals.size(),
                sim.executed_events(), checksum);
}

// --- bond ---------------------------------------------------------------------

ReplayResult replay_reorder_window(const ReplayInput& in) {
  const auto packets = make_packets(in, ops_of(150'000, in.scale));
  sim::Rng rng{in.seed ^ 0x66ULL};
  // Two operator paths with different latency and jitter; a third of the
  // packets is duplicated on both (high-reliability), the rest alternate.
  std::vector<Arrival> arrivals;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const auto send = packets[i].rtp_timestamp;
    const bool both = rng.chance(0.3);
    for (int path = 0; path < 2; ++path) {
      if (!both && static_cast<int>(i % 2) != path) continue;
      if (rng.chance(0.01)) continue;
      const double owd_ms = path == 0 ? 40.0 + rng.exponential(4.0)
                                      : 70.0 + rng.exponential(10.0);
      arrivals.push_back({send + sim::Duration::millis_f(owd_ms),
                          static_cast<std::uint32_t>(i), path});
    }
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) { return a.at < b.at; });

  sim::Simulator sim;
  std::uint64_t checksum = 0;
  bond::ReorderWindow window{sim, bond::ReorderWindowConfig{},
                             [&](net::Packet p, int path) {
                               checksum = checksum * kPrime + p.id * 2 +
                                          static_cast<std::uint64_t>(path);
                             }};
  auto deliver = [&](const Arrival& a) {
    window.on_packet(packets[a.index], a.path);
  };
  ArrivalChain<decltype(deliver)> chain{sim, arrivals, deliver};
  chain.arm();
  const auto t0 = CpuClock::now();
  sim.run_all();
  window.flush_all();
  const double cpu = seconds_since(t0);
  checksum = checksum * kPrime + window.duplicates_suppressed() * 5 +
             window.flushes();
  return per_op("bond.reorder_window.ns_per_packet", cpu, arrivals.size(),
                sim.executed_events(), checksum);
}

// --- obs ----------------------------------------------------------------------

ReplayResult replay_recorder(const ReplayInput& in) {
  sim::Rng rng{in.seed ^ 0x77ULL};
  std::vector<obs::Event> events(8192);
  for (std::size_t i = 0; i < events.size(); ++i) {
    auto& e = events[i];
    e.t = sim::TimePoint::from_us(static_cast<std::int64_t>(i) * 10'000);
    e.seq = i;
    switch (i % 4) {
      case 0:
        e.component = obs::Component::kCellular;
        e.kind = obs::EventKind::kLinkMeasurement;
        e.payload = obs::MeasurementPayload{
            static_cast<std::uint32_t>(rng.uniform_int(0, 31)),
            rng.uniform(-110, -70), 3, -100.0, rng.uniform(2, 40), 5.0,
            false, false, 0};
        break;
      case 1:
        e.component = obs::Component::kLinkQueue;
        e.kind = obs::EventKind::kQueueDepth;
        e.payload = obs::QueuePayload{i, 1200,
                                      static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)),
                                      40, 0};
        break;
      case 2:
        e.component = obs::Component::kCc;
        e.kind = obs::EventKind::kTargetRate;
        e.payload = obs::RatePayload{rng.uniform(2e6, 30e6)};
        break;
      default:
        e.component = obs::Component::kReceiver;
        e.kind = obs::EventKind::kFrameDecoded;
        e.payload = obs::FramePayload{static_cast<std::uint32_t>(i), 30000,
                                      i % 60 == 3, false};
        break;
    }
  }
  const std::uint64_t n = ops_of(1'000'000, in.scale);
  obs::RingBufferRecorder recorder;
  const auto t0 = CpuClock::now();
  for (std::uint64_t i = 0; i < n; ++i) recorder.on_event(events[i % events.size()]);
  const double cpu = seconds_since(t0);
  const std::uint64_t checksum = recorder.recorded() * kPrime + recorder.dropped() +
                                 recorder.size();
  return {"obs.recorder.ns_per_event", 1e9 * cpu / static_cast<double>(n), n, 0,
          checksum};
}

}  // namespace

std::vector<ReplayResult> run_replays(const ReplayInput& in) {
  std::vector<ReplayResult> out;
  out.push_back(replay_queue(in, QueueReplay::Pattern::kSteady,
                             "sim.queue.ns_per_event"));
  out.push_back(replay_queue(in, QueueReplay::Pattern::kCancel,
                             "sim.queue.cancel_ns_per_event"));
  out.push_back(replay_queue(in, QueueReplay::Pattern::kOverflow,
                             "sim.queue.overflow_ns_per_event"));
  out.push_back(replay_link_queue(in));
  out.push_back(replay_radio_model(in));
  out.push_back(replay_gcc(in));
  out.push_back(replay_scream(in));
  out.push_back(replay_jitter_buffer(in));
  out.push_back(replay_packetizer(in));
  out.push_back(replay_fec(in));
  out.push_back(replay_reorder_window(in));
  out.push_back(replay_recorder(in));
  return out;
}

}  // namespace perfbench
