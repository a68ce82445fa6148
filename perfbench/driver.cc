// perfbench_driver: the in-process half of the repository benchmark.
//
// perfbench/run.py owns the workloads, the pps_serve launches and the
// result line; this program runs the parts that must live inside one
// process with the simulator:
//
//   uniform    pps/rr-per-output N=64 K=8 r'=4 under uniform Bernoulli
//              load 0.8, through core::SlotEngine::Run (threads = 1);
//   topo       the pps_topo --emit-clos=8x8x8 Clos of pps/rr-per-output
//              nodes at uniform load 0.7, through topo::NetworkEngine::Run
//              with its default single node lane;
//   serve      the serve-hotspot64 trace under serve::Supervisor, the
//              in-process twin of `pps_serve --supervise=1` (traced runs
//              only: the untraced numbers come from pps_serve itself);
//   gen-trace  writes the serve-hotspot64 binary trace for a seed.
//
// Each timing mode repeats the workload until --seconds have passed.
// With --trace=0 it times the public entry point only.  With --trace=1 it
// alternates an untraced rep with a traced re-drive: the engine's public
// stage classes driven from this file, each stage call per slot inside
// its own span, which must produce the same result bit for bit (window
// rows and the final checkpoint's CRC included) or the rep fails.
//
// Every host time is reported at a fixed reference machine speed: each
// rep is preceded by a fixed calibration kernel (benchmark code, never
// the simulator's), and the rep's times are scaled by
// kReferenceCalibrationS / (the kernel's time).  A shared host's speed
// drifts (by +-25% over minutes on a 4-vCPU Xeon VM); the drift moves the
// kernel and the simulator alike, and their ratio stays within a few
// percent (README.md, "Calibration").
//
// The last stdout line is one JSON object: per-rep samples (run.py takes
// the medians and percentiles), the canonical text whose hash run.py
// compares with the recorded digest, and the failures.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "audit/enabled.h"
#include "ckpt/io.h"
#include "ckpt/serializer.h"
#include "core/harness.h"
#include "core/metrics_json.h"
#include "core/slot_engine.h"
#include "fabric/registry.h"
#include "serve/checkpoint_rotation.h"
#include "serve/supervisor.h"
#include "sim/error.h"
#include "switch/output_queued.h"
#include "topo/clos.h"
#include "topo/network_engine.h"
#include "topo/topology.h"
#include "traffic/random_sources.h"
#include "traffic/trace.h"

namespace {

using Clock = std::chrono::steady_clock;
using json = core::json::Value;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// The calibration kernel: hash-map churn and random reads over a 16 MiB
// table, the same mix of work the simulator's flow maps and queues do, so
// that contention for caches and memory slows both alike.  The reference
// is about its time on an idle 4-vCPU Xeon VM.
constexpr double kReferenceCalibrationS = 0.0125;

class Calibrator {
 public:
  Calibrator() : table_(std::size_t{2} << 20) { Measure(); }

  // Seconds one pass of the kernel takes now.
  double Measure() {
    std::uint64_t x = 88172645463325252ull;
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    map.reserve(std::size_t{1} << 15);
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < 200'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      map[x & 0xffff] += static_cast<std::uint64_t>(i);
      sink_ += table_[x & (table_.size() - 1)]++;
      if ((i & 3) == 0) map.erase((x >> 20) & 0xffff);
    }
    const double s = Seconds(Clock::now() - start);
    sink_ += map.size();
    return s;
  }

  // Factor from host seconds now to reference seconds, measured now.
  double Scale() { return kReferenceCalibrationS / Measure(); }

 private:
  std::vector<std::uint64_t> table_;
  std::uint64_t sink_ = 0;  // keeps the kernel's work observable
};

// ---------------------------------------------------------------------------
// Build provenance: timing a Debug, audited or sanitized build would
// measure a different program, so the timing modes refuse to run one.

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

json BuildInfo() {
  json v = json::MakeObject();
  v.Set("build_type", PERFBENCH_BUILD_TYPE);
  v.Set("compiler", PERFBENCH_CXX);
  v.Set("optimized", kOptimized);
  v.Set("pps_audit", PPS_AUDIT_ENABLED != 0);
  v.Set("sanitized", kSanitized);
  return v;
}

std::string UntimeableReason() {
  if (!kOptimized) return "not an optimized NDEBUG build";
  if (PPS_AUDIT_ENABLED) return "built with PPS_AUDIT";
  if (kSanitized) return "built with a sanitizer";
  return "";
}

// ---------------------------------------------------------------------------
// Flags: --name=value pairs.

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const auto eq = arg.find('=');
      SIM_CHECK(arg.starts_with("--") && eq != std::string_view::npos,
                "expected --flag=value, got '" << arg << "'");
      values_[std::string(arg.substr(2, eq - 2))] =
          std::string(arg.substr(eq + 1));
    }
  }

  std::string Str(const std::string& name) const {
    const auto it = values_.find(name);
    SIM_CHECK(it != values_.end(), "missing --" << name);
    return it->second;
  }
  std::int64_t Int(const std::string& name) const {
    const std::string s = Str(name);
    std::size_t used = 0;
    const long long v = std::stoll(s, &used);
    SIM_CHECK(used == s.size(), "bad integer for --" << name << ": " << s);
    return v;
  }
  double Real(const std::string& name) const { return std::stod(Str(name)); }

 private:
  std::map<std::string, std::string> values_;
};

// ---------------------------------------------------------------------------
// Canonical records: every simulated output of a run, doubles by bit
// pattern (OnlineStats::SaveState writes the Welford state exactly), so
// two runs agree on a record only if they agree bit for bit.

void PutLoss(ckpt::Writer& w, const fault::LossBreakdown& l) {
  w.U64(l.input_drops);
  w.U64(l.stranded_cells);
  w.U64(l.stale_dispatches);
  w.U64(l.link_drops);
  w.U64(l.late_arrivals);
  w.U64(l.buffer_overflows);
}

void PutResult(ckpt::Writer& w, const core::RunResult& r) {
  w.U64(r.cells);
  w.I64(r.duration);
  w.Bool(r.drained);
  w.Bool(r.interrupted);
  w.U64(r.dropped);
  PutLoss(w, r.losses);
  w.I64(r.max_relative_delay);
  w.I64(r.max_relative_jitter);
  r.relative_delay.SaveState(w);
  r.pps_delay.SaveState(w);
  r.shadow_delay.SaveState(w);
  w.I64(r.traffic_burstiness);
  w.Bool(r.order_preserved);
  w.U64(r.resequencing_stalls);
  w.U64(r.audit_violations);
  w.Size(r.timeline.size());
  for (const core::CellRelative& c : r.timeline) {
    w.I64(c.arrival);
    w.I64(c.relative_delay);
    w.I32(c.input);
    w.I32(c.output);
  }
}

void PutRow(ckpt::Writer& w, const core::WindowRow& row) {
  w.U64(row.index);
  w.I64(row.from);
  w.I64(row.to);
  w.U64(row.offered);
  w.U64(row.finalized);
  w.U64(row.dropped);
  PutLoss(w, row.losses);
  w.I64(row.max_relative_delay);
  row.relative_delay.SaveState(w);
  w.I64(row.max_relative_jitter);
  w.I64(row.backlog);
  w.I64(row.shadow_backlog);
}

void PutNetwork(ckpt::Writer& w, const topo::NetworkRunResult& r) {
  w.U64(r.cells);
  w.I64(r.duration);
  w.Bool(r.drained);
  w.Bool(r.interrupted);
  w.U64(r.delivered);
  w.U64(r.dropped);
  PutLoss(w, r.losses);
  w.I32(r.max_hops);
  w.I64(r.max_relative_delay);
  w.I64(r.max_relative_jitter);
  r.relative_delay.SaveState(w);
  r.net_delay.SaveState(w);
  r.shadow_delay.SaveState(w);
  w.Bool(r.order_preserved);
  w.U64(r.audit_violations);
  w.I64(r.node_backlog);
  w.I64(r.link_cells);
  w.Size(r.node_stats.size());
  for (const topo::NodeStats& ns : r.node_stats) {
    w.Str(ns.name);
    w.U64(ns.forwarded);
    w.I64(ns.max_hop_delay);
    ns.hop_delay.SaveState(w);
    w.I64(ns.backlog);
    PutLoss(w, ns.losses);
  }
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

// pps_serve's stdout for a run, byte for byte (tools/pps_serve.cc PrintRow
// and PrintSummary), so a traced serve re-drive hashes to the same digest
// run.py computes from the served process.
json LossJson(const fault::LossBreakdown& l) {
  json v = json::MakeObject();
  v.Set("input_drops", l.input_drops);
  v.Set("stranded_cells", l.stranded_cells);
  v.Set("stale_dispatches", l.stale_dispatches);
  v.Set("link_drops", l.link_drops);
  v.Set("late_arrivals", l.late_arrivals);
  v.Set("buffer_overflows", l.buffer_overflows);
  return v;
}

std::string ServeStdout(const std::vector<core::WindowRow>& rows,
                        const core::RunResult& result) {
  std::string out;
  for (const core::WindowRow& row : rows) {
    json v = json::MakeObject();
    v.Set("kind", "window");
    v.Set("index", row.index);
    v.Set("from", row.from);
    v.Set("to", row.to);
    v.Set("offered", row.offered);
    v.Set("finalized", row.finalized);
    v.Set("dropped", row.dropped);
    v.Set("losses", LossJson(row.losses));
    v.Set("max_relative_delay", row.max_relative_delay);
    v.Set("max_relative_jitter", row.max_relative_jitter);
    v.Set("mean_relative_delay", row.relative_delay.mean());
    v.Set("backlog", row.backlog);
    v.Set("shadow_backlog", row.shadow_backlog);
    out += v.Dump() + "\n";
  }
  json v = json::MakeObject();
  v.Set("kind", "summary");
  v.Set("cells", result.cells);
  v.Set("duration", result.duration);
  v.Set("drained", result.drained);
  v.Set("interrupted", result.interrupted);
  v.Set("dropped", result.dropped);
  v.Set("losses", LossJson(result.losses));
  v.Set("max_relative_delay", result.max_relative_delay);
  v.Set("max_relative_jitter", result.max_relative_jitter);
  v.Set("mean_relative_delay", result.relative_delay.mean());
  v.Set("traffic_burstiness", result.traffic_burstiness);
  v.Set("order_preserved", result.order_preserved);
  v.Set("resequencing_stalls", result.resequencing_stalls);
  out += v.Dump() + "\n";
  return out;
}

// ---------------------------------------------------------------------------
// Spans.  A traced run sums, per layer, the host time of every span of
// that layer; spans of different layers never overlap except the source
// span, which nests in the feeder's and is subtracted from it.

enum Layer {
  kSource,
  kFeeder,
  kInject,
  kAdvance,
  kShadow,
  kLedger,
  kWindow,
  kTaps,
  kSerialize,
  kWrite,
  kNumLayers
};

struct LayerTimes {
  std::int64_t ns[kNumLayers] = {};
  std::vector<double> serialize_ms;
  std::vector<double> write_ms;
  std::uint64_t checkpoint_bytes_last = 0;
  std::int64_t backlog_peak = 0;
};

class Span {
 public:
  explicit Span(std::int64_t& total_ns)
      : total_ns_(total_ns), start_(Clock::now()) {}
  ~Span() {
    total_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - start_)
                     .count();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t& total_ns_;
  Clock::time_point start_;
};

// Times TrafficSource::ArrivalsAt; everything else passes through.
class TimedSource final : public traffic::TrafficSource {
 public:
  TimedSource(traffic::TrafficSource& inner, std::int64_t& total_ns)
      : inner_(inner), total_ns_(total_ns) {}

  std::vector<sim::Arrival> ArrivalsAt(sim::Slot t) override {
    Span span(total_ns_);
    return inner_.ArrivalsAt(t);
  }
  bool Exhausted(sim::Slot t) const override { return inner_.Exhausted(t); }
  bool checkpointable() const override { return inner_.checkpointable(); }
  void SaveState(ckpt::Writer& w) const override { inner_.SaveState(w); }
  void LoadState(ckpt::Reader& r) override { inner_.LoadState(r); }

 private:
  traffic::TrafficSource& inner_;
  std::int64_t& total_ns_;
};

// ---------------------------------------------------------------------------
// The traced re-drive of core::SlotEngine::Run: the serial path of
// src/core/slot_engine.cc, stage for stage and in the same order per
// stage, for a fresh (not resumed) run without sharding.  Per-cell calls
// are grouped per stage within a slot, which is order-preserving because
// the stages share no state except through the calls kept in order
// (ledger before window, measured departures before the shadow's).
// Checkpoints replicate the engine's WriteCheckpoint section by section
// and go through a serve::CheckpointRotation, as under the supervisor.

core::RunResult TracedSlotEngineRun(fabric::Fabric& fabric,
                                    traffic::TrafficSource& inner_source,
                                    const core::RunOptions& options,
                                    serve::CheckpointRotation* rotation,
                                    LayerTimes& lt) {
  SIM_CHECK(options.resume_from.empty() && options.threads <= 1 &&
                options.auditor == nullptr,
            "the traced re-drive covers fresh serial runs only");
  SIM_CHECK(options.checkpoint_every == 0 || rotation != nullptr,
            "checkpointing re-drive needs a rotation");
  const sim::PortId n = fabric.num_ports();
  TimedSource source(inner_source, lt.ns[kSource]);

  pps::OutputQueuedSwitch shadow(n);
  core::RunResult result;
  core::FaultScheduleApplier faults(fabric, options);
  core::ArrivalFeeder feeder(source, n, options.source_cutoff);
  core::AuditTaps taps(fabric, options);
  core::WindowAccumulator window(options.window_slots, options.on_window);
  core::RelativeDelayLedger ledger(n, options.keep_timeline, taps, &window);
  core::DrainController drain(options.drain_grace);

  const fault::LossBreakdown losses_base = fabric.losses();
  const std::uint64_t lost_base = losses_base.total();
  std::uint64_t known_lost = fabric.losses().total();
  const bool checkpointing = options.checkpoint_every > 0;
  std::vector<sim::CellId> inject_dropped;

  sim::Slot t = 0;
  for (; t < options.max_slots; ++t) {
    if (faults.ApplyDue(t)) known_lost = fabric.losses().total();

    const std::vector<sim::Cell>* cells = nullptr;
    {
      Span span(lt.ns[kFeeder]);
      cells = &feeder.CellsAt(t);
    }
    {
      Span span(lt.ns[kLedger]);
      for (const sim::Cell& cell : *cells) ledger.Track(cell);
    }
    {
      Span span(lt.ns[kTaps]);
      for (const sim::Cell& cell : *cells) taps.OnInject(cell, t);
    }
    inject_dropped.clear();
    {
      Span span(lt.ns[kInject]);
      for (const sim::Cell& cell : *cells) {
        fabric.Inject(cell, t);
        const std::uint64_t lost = fabric.losses().total();
        if (lost != known_lost) {
          known_lost = lost;
          inject_dropped.push_back(cell.id);
        }
      }
    }
    {
      Span span(lt.ns[kShadow]);
      for (const sim::Cell& cell : *cells) shadow.Inject(cell, t);
    }
    result.cells += cells->size();
    if (!inject_dropped.empty()) {
      Span span(lt.ns[kLedger]);
      for (const sim::CellId id : inject_dropped) {
        ledger.MarkInjectDropped(id, result);
      }
    }

    const std::vector<sim::Cell>* departed = nullptr;
    {
      Span span(lt.ns[kAdvance]);
      departed = &fabric.Advance(t);
    }
    {
      Span span(lt.ns[kTaps]);
      for (const sim::Cell& cell : *departed) taps.OnMeasuredDepart(cell, t);
    }
    {
      Span span(lt.ns[kLedger]);
      for (const sim::Cell& cell : *departed) {
        ledger.OnMeasuredDepart(cell, result);
      }
    }
    const std::vector<sim::Cell>* shadow_departed = nullptr;
    {
      Span span(lt.ns[kShadow]);
      shadow_departed = &shadow.Advance(t);
    }
    {
      Span span(lt.ns[kTaps]);
      for (const sim::Cell& cell : *shadow_departed) {
        taps.OnShadowDepart(cell, t);
      }
    }
    {
      Span span(lt.ns[kLedger]);
      for (const sim::Cell& cell : *shadow_departed) {
        ledger.OnShadowDepart(cell, result);
      }
    }

    known_lost = fabric.losses().total();
    const std::int64_t backlog = fabric.TotalBacklog();
    lt.backlog_peak = std::max(lt.backlog_peak, backlog);
    {
      Span span(lt.ns[kTaps]);
      taps.OnSlotEnd(t, backlog, known_lost - lost_base,
                     shadow.TotalBacklog());
    }
    constexpr sim::Slot kReconcilePeriod = 1024;  // the engine's period
    if (known_lost > 0 && sim::SlotPlus(t, 1) % kReconcilePeriod == 0 &&
        fabric.Drained()) {
      Span span(lt.ns[kLedger]);
      ledger.SweepLossLeaks(result);
    }
    if (window.enabled()) {
      Span span(lt.ns[kWindow]);
      window.OnSlotEnd(t, result, fabric.losses() - losses_base, backlog,
                       shadow.TotalBacklog());
    }

    if (!drain.exhausted() && feeder.ExhaustedAfter(t)) {
      drain.NoteExhausted(sim::SlotPlus(t, 1));
    }
    const bool stop =
        drain.ShouldStop(t, fabric.Drained() && shadow.Drained());
    if (checkpointing && sim::SlotPlus(t, 1) % options.checkpoint_every == 0) {
      ckpt::Writer w;
      const Clock::time_point s0 = Clock::now();
      {
        Span span(lt.ns[kSerialize]);
        w.Marker("ENG0");
        w.Str(fabric.name());
        w.I32(fabric.num_ports());
        w.I64(sim::SlotPlus(t, 1));
        w.Bool(stop);
        PutLoss(w, losses_base);  // the engine's SaveLoss layout
        w.Marker("RES0");
        w.U64(result.cells);
        w.U64(result.dropped);
        w.I64(result.max_relative_delay);
        result.relative_delay.SaveState(w);
        w.Bool(options.keep_timeline);
        w.Size(result.timeline.size());
        for (const core::CellRelative& c : result.timeline) {
          w.I64(c.arrival);
          w.I64(c.relative_delay);
          w.I32(c.input);
          w.I32(c.output);
        }
        w.Marker("FAB0");
        fabric.SaveState(w);
        w.Marker("SHD0");
        shadow.SaveState(w);
        w.Marker("SRC0");
        inner_source.SaveState(w);
        feeder.SaveState(w);
        ledger.SaveState(w);
        drain.SaveState(w);
        faults.SaveState(w);
        w.Bool(window.enabled());
        if (window.enabled()) window.SaveState(w);
      }
      const Clock::time_point s1 = Clock::now();
      {
        Span span(lt.ns[kWrite]);
        rotation->Write(w);
      }
      const Clock::time_point s2 = Clock::now();
      lt.serialize_ms.push_back(Seconds(s1 - s0) * 1e3);
      lt.write_ms.push_back(Seconds(s2 - s1) * 1e3);
      lt.checkpoint_bytes_last = w.bytes().size();
    }
    if (stop) {
      ++t;
      break;
    }
  }
  result.duration = t;
  result.drained = fabric.Drained() && shadow.Drained();
  if (fabric.Drained()) {
    Span span(lt.ns[kLedger]);
    ledger.ReconcileUndeparted(result);
  }
  result.losses = fabric.losses() - losses_base;
  result.traffic_burstiness = feeder.OfferedBurstiness();
  result.resequencing_stalls = fabric.resequencing_stalls();
  {
    Span span(lt.ns[kWindow]);
    window.Finish(t, result, result.losses, fabric.TotalBacklog(),
                  shadow.TotalBacklog());
  }
  {
    Span span(lt.ns[kLedger]);
    ledger.Finish(result);
  }
  {
    Span span(lt.ns[kTaps]);
    taps.Finish(result, t, fabric.TotalBacklog(),
                fabric.losses().total() - lost_base, shadow.TotalBacklog());
  }
  return result;
}

// ---------------------------------------------------------------------------
// Samples.

// Everything a timing mode reports: samples per name (one per rep unless
// noted), the record every rep must reproduce, and the failures.
struct Report {
  std::map<std::string, std::vector<double>> samples;
  std::string digest_text;  // canonical text of the first good rep
  std::optional<std::string> record;  // bitwise record of the first rep
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;

  void Add(const std::string& name, double v) { samples[name].push_back(v); }

  // Counts a rep; a rep whose record differs from the first rep's, or
  // whose conservation checks failed, is a failure.
  void Rep(const std::string& rec, const std::string& text,
           const std::string& check_error) {
    ++attempted;
    if (!check_error.empty()) {
      Fail(check_error);
      return;
    }
    if (!record) {
      record = rec;
      digest_text = text;
    } else if (*record != rec) {
      Fail("rep " + std::to_string(attempted) +
           " is not bit-identical to rep 1");
    }
  }

  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(why);
  }

  json ToJson() const {
    json v = json::MakeObject();
    v.Set("attempted", attempted);
    v.Set("failed", failed);
    auto errs = json::MakeArray();
    for (const std::string& e : errors) errs.Append(e);
    v.Set("errors", errs);
    v.Set("digest_text", digest_text);
    auto s = json::MakeObject();
    for (const auto& [name, values] : samples) {
      auto arr = json::MakeArray();
      for (const double x : values) arr.Append(x);
      s.Set(name, arr);
    }
    v.Set("samples", s);
    return v;
  }
};

// Per-layer metrics of one traced single-switch rep; `wall` and the span
// totals are host time, `scale` converts them to reference time.
void AddLayerSamples(Report& rep, const LayerTimes& lt,
                     const core::RunResult& result, Clock::duration wall,
                     Clock::duration fabric_make, double scale) {
  const double cells = static_cast<double>(result.cells);
  const auto per_cell = [cells, scale](std::int64_t ns) {
    return static_cast<double>(ns) * scale / cells;
  };
  const std::int64_t feeder_self = lt.ns[kFeeder] - lt.ns[kSource];
  std::int64_t spans = lt.ns[kFeeder];  // includes the nested source
  for (int l = kInject; l < kNumLayers; ++l) spans += lt.ns[l];
  const std::int64_t loop =
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count() -
      spans;
  SIM_CHECK(feeder_self >= 0 && loop >= 0,
            "layer spans overlap: they cover more than the traced wall time");
  rep.Add("traffic.source.ns_per_cell", per_cell(lt.ns[kSource]));
  rep.Add("core.feeder.ns_per_cell", per_cell(feeder_self));
  rep.Add("fabric.inject.ns_per_cell", per_cell(lt.ns[kInject]));
  rep.Add("fabric.advance.ns_per_cell", per_cell(lt.ns[kAdvance]));
  rep.Add("shadow.ns_per_cell", per_cell(lt.ns[kShadow]));
  rep.Add("core.ledger.ns_per_cell", per_cell(lt.ns[kLedger]));
  rep.Add("core.window.ns_per_cell", per_cell(lt.ns[kWindow]));
  rep.Add("core.taps.ns_per_cell", per_cell(lt.ns[kTaps]));
  rep.Add("core.loop.ns_per_cell", per_cell(loop));
  rep.Add("fabric.backlog_peak", static_cast<double>(lt.backlog_peak));
  rep.Add("fabric.reseq_stalls",
          static_cast<double>(result.resequencing_stalls));
  rep.Add("fabric.make_ms", Seconds(fabric_make) * scale * 1e3);
  rep.Add("topo.hops_per_cell", 1.0);
  for (const double ms : lt.serialize_ms) {
    rep.Add("ckpt.serialize_ms", ms * scale);
  }
  for (const double ms : lt.write_ms) rep.Add("ckpt.write_ms", ms * scale);
  if (!lt.serialize_ms.empty()) {
    rep.Add("ckpt.bytes_last",
            static_cast<double>(lt.checkpoint_bytes_last));
  }
}

// Conservation for a drained single-switch run.
std::string CheckSwitchResult(const core::RunResult& r) {
  if (!r.drained) return "run did not drain";
  if (r.audit_violations != 0) return "audit violations reported";
  if (r.relative_delay.count() + r.dropped != r.cells) {
    return "cells != finalized + dropped";
  }
  return "";
}

// Runs `body(traced, scale)` until `seconds` have passed (at least
// `min_reps` reps, or pairs when tracing), alternating untraced and traced
// reps; `scale` converts the rep's host times to reference times and is
// measured just before it (1 without a calibrator).
void RepeatFor(Calibrator* cal, double seconds, bool tracing, int min_reps,
               Report& rep,
               const std::function<void(bool, double)>& body) {
  const Clock::time_point start = Clock::now();
  for (int i = 0;; ++i) {
    const int done = tracing ? i / 2 : i;
    if (done >= min_reps && (!tracing || i % 2 == 0) &&
        Seconds(Clock::now() - start) >= seconds) {
      break;
    }
    const double scale = cal != nullptr ? cal->Scale() : 1.0;
    rep.Add("calibration_scale", scale);
    body(tracing && i % 2 == 1, scale);
  }
}

// Set-up is microseconds to a millisecond, so each rep sets up this many
// times (keeping the last) and every set-up is a sample.
constexpr int kSetupsPerRep = 20;

// ---------------------------------------------------------------------------
// uniform-pps64

pps::SwitchConfig Geometry(const Flags& f) {
  return pps::SwitchConfig{.num_ports = static_cast<sim::PortId>(f.Int("ports")),
                           .num_planes = static_cast<int>(f.Int("planes")),
                           .rate_ratio = static_cast<int>(f.Int("rate-ratio"))};
}

Report RunUniform(const Flags& f, bool tracing, Calibrator* cal) {
  const std::string name = f.Str("fabric");
  const pps::SwitchConfig config = Geometry(f);
  const double load = f.Real("load");
  const auto seed = static_cast<std::uint64_t>(f.Int("seed"));
  core::RunOptions options;
  options.source_cutoff = f.Int("slots");
  options.threads = 1;

  Report rep;
  RepeatFor(cal, f.Real("seconds"), tracing, 3, rep, [&](bool traced,
                                                          double scale) {
    try {
      std::unique_ptr<fabric::Fabric> fab;
      std::optional<traffic::BernoulliSource> source;
      Clock::duration make{};
      for (int k = 0; k < kSetupsPerRep; ++k) {
        fab.reset();
        source.reset();
        const Clock::time_point t0 = Clock::now();
        fab = fabric::Make(name, config);
        const Clock::time_point t1 = Clock::now();
        source.emplace(config.num_ports, load, traffic::Pattern::kUniform,
                       sim::Rng(seed));
        make = t1 - t0;
        if (!traced) rep.Add("setup_s", Seconds(Clock::now() - t0) * scale);
      }
      const Clock::time_point t2 = Clock::now();
      LayerTimes lt;
      const core::RunResult result =
          traced ? TracedSlotEngineRun(*fab, *source, options, nullptr, lt)
                 : core::SlotEngine{}.Run(*fab, *source, options);
      const Clock::duration run = Clock::now() - t2;
      const double run_s = Seconds(run) * scale;
      ckpt::Writer w;
      PutResult(w, result);
      const double cells = static_cast<double>(result.cells);
      if (traced) {
        AddLayerSamples(rep, lt, result, run, make, scale);
        rep.Add("traced_run_s", run_s);
      } else {
        rep.Add("run_s", run_s);
        rep.Add("cells_per_s", cells / run_s);
      }
      rep.Rep(w.bytes(), Hex(w.bytes()), CheckSwitchResult(result));
    } catch (const std::exception& e) {
      ++rep.attempted;
      rep.Fail(e.what());
    }
  });
  return rep;
}

// ---------------------------------------------------------------------------
// serve-hotspot64 (traced runs; the untraced twin is the supervisor, the
// very loop pps_serve --supervise=1 runs).

std::uint32_t NewestCheckpointCrc(const std::string& base, int keep) {
  serve::CheckpointRotation rotation(ckpt::DefaultIo(), base, keep);
  const std::optional<std::string> newest = rotation.NewestValidPath();
  SIM_CHECK(newest.has_value(), "no checkpoint generation under " << base);
  return ckpt::Crc32(ckpt::ReadFile(*newest));
}

std::string FreshDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Report RunServe(const Flags& f, Calibrator* cal) {
  const std::string name = f.Str("fabric");
  const pps::SwitchConfig config = Geometry(f);
  const std::string trace_path = f.Str("trace-file");
  const std::string work = f.Str("work");
  const int keep = static_cast<int>(f.Int("keep-checkpoints"));
  const std::atomic<bool> never_stop{false};
  core::RunOptions base;
  base.window_slots = f.Int("window");
  base.checkpoint_every = f.Int("checkpoint-every");
  base.drain_grace = f.Int("drain-grace");
  base.stop_flag = &never_stop;

  Report rep;
  RepeatFor(cal, f.Real("seconds"), true, 3, rep, [&](bool traced,
                                                       double scale) {
    try {
      const std::string ckpt_base =
          FreshDir(work + (traced ? "/traced" : "/untraced")) + "/run.ckpt";
      std::vector<core::WindowRow> rows;
      core::RunOptions options = base;
      options.on_window = [&rows](const core::WindowRow& row) {
        rows.push_back(row);
      };
      core::RunResult result;
      LayerTimes lt;
      double run_s = 0.0;
      if (traced) {
        const Clock::time_point t0 = Clock::now();
        std::unique_ptr<fabric::Fabric> fab = fabric::Make(name, config);
        const Clock::time_point t1 = Clock::now();
        traffic::StreamingTraceSource source(trace_path);
        serve::CheckpointRotation rotation(ckpt::DefaultIo(), ckpt_base, keep);
        const Clock::time_point t2 = Clock::now();
        result = TracedSlotEngineRun(*fab, source, options, &rotation, lt);
        const Clock::duration run = Clock::now() - t2;
        run_s = Seconds(run) * scale;
        AddLayerSamples(rep, lt, result, run, t1 - t0, scale);
        rep.Add("traced_run_s", run_s);
      } else {
        serve::SupervisorOptions sup;
        sup.checkpoint_base = ckpt_base;
        sup.keep_checkpoints = keep;
        serve::Supervisor supervisor(std::move(sup));
        const Clock::time_point t0 = Clock::now();
        result = supervisor.Run(
            [&] { return fabric::Make(name, config); },
            [&] {
              return std::make_unique<traffic::StreamingTraceSource>(
                  trace_path);
            },
            options);
        run_s = Seconds(Clock::now() - t0) * scale;
        rep.Add("run_s", run_s);
      }
      const std::uint32_t crc = NewestCheckpointCrc(ckpt_base, keep);
      ckpt::Writer w;
      for (const core::WindowRow& row : rows) PutRow(w, row);
      PutResult(w, result);
      w.U32(crc);
      char crc_hex[16];
      std::snprintf(crc_hex, sizeof(crc_hex), "%08x", crc);
      rep.Rep(w.bytes(),
              ServeStdout(rows, result) + "ckpt_crc=" + crc_hex + "\n",
              result.audit_violations != 0 ? "audit violations reported"
                                           : "");
    } catch (const std::exception& e) {
      ++rep.attempted;
      rep.Fail(e.what());
    }
  });
  return rep;
}

int GenTrace(const Flags& f) {
  const auto ports = static_cast<sim::PortId>(f.Int("ports"));
  traffic::BernoulliSource source(ports, f.Real("load"),
                                  traffic::Pattern::kHotspot,
                                  sim::Rng(static_cast<std::uint64_t>(
                                      f.Int("seed"))),
                                  f.Real("hotspot"));
  traffic::Trace trace;
  const sim::Slot slots = f.Int("slots");
  for (sim::Slot t = 0; t < slots; ++t) {
    for (const sim::Arrival& a : source.ArrivalsAt(t)) {
      trace.Add(t, a.input, a.output);
    }
  }
  trace.Normalize();
  const std::string out = f.Str("out");
  const std::string tmp = out + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    SIM_CHECK(os.good(), "cannot open " << tmp);
    trace.SaveBinary(os);
    SIM_CHECK(os.good(), "write failed for " << tmp);
  }
  std::filesystem::rename(tmp, out);
  return 0;
}

// ---------------------------------------------------------------------------
// clos-topo24: the topology pps_topo --emit-clos=LxSxE --fabric=F builds,
// run the way pps_topo runs a scenario (topo::RunScenario's wiring).

Report RunTopo(const Flags& f, bool tracing, Calibrator* cal) {
  const int leaves = static_cast<int>(f.Int("leaves"));
  const int spines = static_cast<int>(f.Int("spines"));
  const int externals = static_cast<int>(f.Int("externals"));
  const std::string fabric_name = f.Str("fabric");

  Report rep;
  RepeatFor(cal, f.Real("seconds"), tracing, 3, rep, [&](bool traced,
                                                          double scale) {
    try {
      std::optional<topo::Topology> topology;
      traffic::SourcePtr source;
      Clock::duration build{};
      for (int k = 0; k < kSetupsPerRep; ++k) {
        topology.reset();
        source.reset();
        const Clock::time_point t0 = Clock::now();
        topo::Scenario scenario = topo::MakeClos3(
            leaves, spines, externals, fabric_name,
            pps::SwitchConfig{
                .num_ports = 1, .num_planes = 2, .rate_ratio = 2},
            0);
        scenario.traffic.load = f.Real("load");
        scenario.traffic.seed = static_cast<std::uint64_t>(f.Int("seed"));
        scenario.traffic.cutoff = f.Int("slots");
        topology.emplace(topo::Topology::Build(std::move(scenario)));
        const Clock::time_point t1 = Clock::now();
        source = topo::MakeTrafficSource(topology->scenario(),
                                         topology->num_ingress(),
                                         topology->num_egress());
        build = t1 - t0;
        if (!traced) rep.Add("setup_s", Seconds(Clock::now() - t0) * scale);
      }
      topo::NetworkRunOptions opts;
      opts.source_cutoff = topology->scenario().traffic.cutoff;
      const Clock::time_point t2 = Clock::now();
      std::int64_t source_ns = 0;
      topo::NetworkRunResult result;
      if (traced) {
        TimedSource timed(*source, source_ns);
        result = topo::NetworkEngine{}.Run(*topology, timed, opts);
      } else {
        result = topo::NetworkEngine{}.Run(*topology, *source, opts);
      }
      const double run_s = Seconds(Clock::now() - t2) * scale;

      ckpt::Writer w;
      PutNetwork(w, result);
      std::string check;
      if (!result.drained) check = "network did not drain";
      if (result.audit_violations != 0) check = "audit violations reported";
      if (result.delivered + result.dropped != result.cells) {
        check = "delivered + dropped != cells";
      }
      rep.Rep(w.bytes(), Hex(w.bytes()), check);

      const double cells = static_cast<double>(result.cells);
      if (traced) {
        std::uint64_t hops = 0;
        for (const topo::NodeStats& ns : result.node_stats) {
          hops += ns.forwarded;
        }
        const double source_ref_ns = static_cast<double>(source_ns) * scale;
        const double source_per_cell = source_ref_ns / cells;
        rep.Add("traced_run_s", run_s);
        rep.Add("topo.source.ns_per_cell", source_per_cell);
        rep.Add("traffic.source.ns_per_cell", source_per_cell);
        rep.Add("topo.engine.ns_per_hop",
                (run_s * 1e9 - source_ref_ns) /
                    static_cast<double>(hops));
        rep.Add("topo.hops_per_cell",
                static_cast<double>(hops) /
                    static_cast<double>(result.delivered));
        rep.Add("topo.build_ms", Seconds(build) * scale * 1e3);
      } else {
        rep.Add("run_s", run_s);
        rep.Add("cells_per_s", cells / run_s);
      }
    } catch (const std::exception& e) {
      ++rep.attempted;
      rep.Fail(e.what());
    }
  });
  return rep;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_driver uniform|serve|topo|gen-trace|"
                 "calibrate|provenance --flag=value ...\n";
    return 2;
  }
  const std::string mode = argv[1];
  const Flags f(argc, argv);
  if (mode == "provenance") {
    std::cout << BuildInfo().Dump() << "\n";
    return 0;
  }
  if (mode == "gen-trace") return GenTrace(f);
  if (mode == "calibrate") {
    Calibrator cal;
    auto scales = json::MakeArray();
    for (std::int64_t i = f.Int("passes"); i > 0; --i) {
      scales.Append(cal.Scale());
    }
    json v = json::MakeObject();
    v.Set("calibration_scales", scales);
    std::cout << v.Dump() << "\n";
    return 0;
  }

  const std::string refuse = UntimeableReason();
  if (!refuse.empty()) {
    std::cerr << "perfbench_driver: refusing to time this build: " << refuse
              << "\n";
    return 3;
  }
  const bool tracing = f.Int("trace") != 0;
  std::optional<Calibrator> cal;
  if (f.Int("calibrate") != 0) {
    cal.emplace();
  }
  Calibrator* calp = cal ? &*cal : nullptr;
  Report rep;
  if (mode == "uniform") {
    rep = RunUniform(f, tracing, calp);
  } else if (mode == "serve") {
    SIM_CHECK(tracing, "serve mode only runs traced (pps_serve is untraced)");
    rep = RunServe(f, calp);
  } else if (mode == "topo") {
    rep = RunTopo(f, tracing, calp);
  } else {
    std::cerr << "perfbench_driver: unknown mode " << mode << "\n";
    return 2;
  }
  std::cout << rep.ToJson().Dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
