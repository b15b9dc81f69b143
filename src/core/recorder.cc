#include "core/recorder.h"

#include <csignal>
#include <unistd.h>

#include <cstring>
#include <string_view>
#include <thread>
#include <vector>

#include "common/fileutil.h"
#include "common/session_registry.h"
#include "common/spin.h"
#include "common/stringutil.h"
#include "core/runtime.h"
#include "faultsim/fault.h"
#include "faultsim/fault_points.h"
#include "obs/metric_names.h"
#include "core/symbol_dump.h"
#include "obs/export.h"

namespace teeperf {

// Auto shard count for v2 logs: a power of two covering the hardware
// concurrency (so tid % N spreads threads evenly), clamped to [1, 64] and
// then reduced until each shard keeps >= 1024 entries — small test logs
// collapse to one shard, whose drop arithmetic is exactly v1's.
static u32 pick_shard_count(const RecorderOptions& options) {
  if (options.shards == 0) return 0;
  if (options.shards > 0) {
    u32 n = static_cast<u32>(options.shards);
    return n > kMaxLogShards ? kMaxLogShards : n;
  }
  u32 hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  u32 n = 1;
  while (n < hw && n < 64) n <<= 1;
  while (n > 1 && options.max_entries / n < 1024) n >>= 1;
  return n;
}

std::unique_ptr<Recorder> Recorder::create(const RecorderOptions& options) {
  auto rec = std::unique_ptr<Recorder>(new Recorder());
  rec->options_ = options;
  u32 shards = pick_shard_count(options);
  if (options.spill_drain && shards == 0) return nullptr;  // spill needs v2
  // Replicated trusted time applies only to the software counter; TSC and
  // the steady clock are per-core hardware sources with nothing to replicate.
  u32 replicas = options.counter_mode == CounterMode::kSoftware
                     ? (options.counter_replicas > kMaxCounterReplicas
                            ? kMaxCounterReplicas
                            : options.counter_replicas)
                     : 0;
  rec->options_.counter_replicas = replicas;
  usize bytes =
      ProfileLog::bytes_for_replicated(options.max_entries, shards, replicas);
  bool ok;
  if (options.shm_name == "auto") {
    // Fresh multi-session name "/teeperf.<pid>.<nonce>.log"; the nonce
    // makes concurrent sessions (and pid reuse) collision-free, and names
    // the registry dir whose GC may reclaim the segments. create() is
    // O_EXCL, so a nonce collision just retries with a new one.
    std::string dir = options.session_dir.empty()
                          ? session_registry::registry_dir()
                          : options.session_dir;
    ok = false;
    for (int attempt = 0; attempt < 4 && !ok; ++attempt) {
      rec->options_.shm_name =
          session_registry::shm_base(static_cast<u64>(getpid()),
                                     session_registry::make_nonce(dir)) +
          ".log";
      ok = rec->shm_.create(rec->options_.shm_name, bytes);
    }
  } else {
    ok = options.shm_name.empty()
             ? rec->shm_.create_anonymous(bytes)
             : rec->shm_.create(options.shm_name, bytes);
  }
  if (!ok) return nullptr;

  u64 flags = log_flags::kMultithread;
  if (options.ring_buffer) flags |= log_flags::kRingBuffer;
  if (options.spill_drain) flags |= log_flags::kSpillDrain;
  if (options.start_active) flags |= log_flags::kActive;
  if (options.record_calls) flags |= log_flags::kRecordCalls;
  if (options.record_returns) flags |= log_flags::kRecordReturns;
  if (!rec->log_.init(rec->shm_.data(), bytes, static_cast<u64>(getpid()), flags,
                      shards, replicas)) {
    return nullptr;
  }
  rec->log_.header()->counter_mode = static_cast<u32>(options.counter_mode);

  // The telemetry region shares the session's shm base: "<base>.obs" next
  // to "<base>.log" in the multi-session scheme, legacy "<name>.obs" for
  // names without the ".log" suffix.
  const std::string& log_name = rec->options_.shm_name;
  std::string obs_base = log_name;
  if (ends_with(obs_base, ".log")) obs_base.resize(obs_base.size() - 4);
  if (options.telemetry) {
    obs::TelemetryOptions topts;
    if (!log_name.empty()) topts.shm_name = obs_base + ".obs";
    rec->telemetry_ = obs::SelfTelemetry::create(topts);
    // A failed telemetry region (e.g. shm exhaustion) degrades to a blind
    // session rather than failing the profile.
  }

  // Named sessions announce themselves in the on-disk registry so
  // host-side observers (teeperf_monitord, teeperf_stats --list) can
  // discover and attach without guessing shm names. Withdrawn in the
  // destructor; a crashed session is reclaimed by stale-session GC.
  if (!log_name.empty() && options.publish_session) {
    session_registry::SessionDescriptor desc;
    std::string name = obs_base;
    for (char& c : name) {
      if (c == '/') c = '.';
    }
    while (!name.empty() && name.front() == '.') name.erase(name.begin());
    desc.name = name;
    desc.pid = static_cast<u64>(getpid());
    desc.log_shm = log_name;
    if (rec->telemetry_) desc.obs_shm = rec->telemetry_->shm_name();
    desc.prefix = options.dump_prefix;
    desc.capacity = options.max_entries;
    desc.shards = rec->log_.shard_count();
    desc.start_ns = monotonic_ns();
    desc.pid_start = session_registry::process_start_time(desc.pid);
    rec->session_dir_ = options.session_dir.empty()
                            ? session_registry::registry_dir()
                            : options.session_dir;
    if (session_registry::publish_session(rec->session_dir_, desc)) {
      rec->session_name_ = desc.name;
    }
  }
  return rec;
}

Recorder::~Recorder() {
  detach();
  if (!session_name_.empty()) {
    session_registry::unpublish_session(session_dir_, session_name_);
  }
  if (telemetry_) obs::uninstall(telemetry_.get());
}

bool Recorder::attach() {
  if (attached_) return true;
  if (!runtime::attach(&log_, options_.counter_mode, options_.filter)) return false;
  attach_host();
  host_only_ = false;  // this process's probes record too
  return true;
}

void Recorder::attach_host() {
  if (attached_) return;
  host_only_ = true;
  if (options_.counter_mode == CounterMode::kSoftware) {
    if (log_.counter_replica_count() > 0) {
      ReplicatedCounterOptions ropts;
      ropts.yield_every = options_.software_counter_yield;
      replicated_ = std::make_unique<ReplicatedCounter>(
          log_.header(), log_.replica_directory(), log_.replica_slot(0),
          ropts);
      if (telemetry_) {
        // Elections and replica backjumps are journaled by the owner (the
        // detector thread invokes these synchronously, after republishing
        // the directory), so a scraper sees the event and the updated
        // counter.failover gauge in the same watchdog window.
        obs::EventJournal* journal = &telemetry_->journal();
        replicated_->set_failover_callback(
            [journal](u32 from, u32 to, u64 at_value) {
              (void)at_value;
              journal->record(obs::EventType::kCounterFailover, from, to,
                              "replica");
            });
        replicated_->set_backjump_callback(
            [journal](u32 replica, u64 from, u64 to) {
              journal->record(obs::EventType::kCounterBackjump, to, from,
                              "replica");
              (void)replica;
            });
      }
      replicated_->start();
    } else {
      counter_ = std::make_unique<SoftwareCounter>(
          log_.header(), options_.software_counter_yield);
      counter_->start();
    }
  }
  // Start of the attach → detach calibration window (see calibrate()).
  attach_counter_ = read_counter(options_.counter_mode, log_.header());
  attach_ns_ = monotonic_ns();
  if (telemetry_) {
    // Publish process-wide (the in-process hook instrumentation and the
    // external fault-arming bridge read it), then start the counter-health
    // watchdog against the live counter and log.
    obs::install(telemetry_.get());
    telemetry_->journal().record(obs::EventType::kAttach,
                                 static_cast<u64>(getpid()), 0,
                                 counter_mode_name(options_.counter_mode));
    if (log_.active()) telemetry_->journal().record(obs::EventType::kActivate);
    telemetry_->registry().gauge(obs::metric_names::kLogCapacity).set(log_.capacity());
    obs::WatchdogOptions wopts;
    wopts.interval_ms = options_.watchdog_interval_ms;
    LogHeader* header = log_.header();
    CounterMode mode = options_.counter_mode;
    watchdog_ = std::make_unique<obs::Watchdog>(
        &telemetry_->registry(), &telemetry_->journal(),
        [mode, header] { return read_counter(mode, header); },
        counter_mode_name(mode), wopts);
    watchdog_->watch_log([this] {
      obs::LogSample s = sample_log(log_);
      if (s.spill && drain_sampler_) {
        DrainSample d = drain_sampler_();
        s.drain_lag = d.lag_entries;
        s.drain_spilled_bytes = d.spilled_bytes;
        s.drained_entries = d.drained_entries;
      }
      return s;
    });
    if (replicated_) {
      ReplicatedCounter* rc = replicated_.get();
      watchdog_->watch_replicas([rc] {
        ReplicatedCounter::Health h = rc->health();
        obs::ReplicaSample s;
        s.replicas = h.replicas;
        s.primary = h.primary;
        s.failovers = h.failovers;
        s.backjumps = h.backjumps;
        s.stalled_replicas = h.stalled_replicas;
        s.drift_permille = h.drift_permille;
        return s;
      });
      telemetry_->registry()
          .gauge(obs::metric_names::kCounterReplicas)
          .set(log_.counter_replica_count());
    }
    watchdog_->start();
  }
  attached_ = true;
}

void Recorder::detach() {
  if (!attached_) return;
  if (!host_only_) runtime::detach();
  if (watchdog_) {
    watchdog_->stop();
    watchdog_.reset();
  }
  if (telemetry_) {
    telemetry_->journal().record(obs::EventType::kDetach, log_.size(),
                                 log_.dropped());
  }
  // Calibrate while the counter still runs: once it stops, no window can
  // measure it, and a later dump would record the session uncalibrated.
  ns_per_tick_ = calibrate();
  if (counter_) {
    counter_->stop();
    counter_.reset();
  }
  if (replicated_) {
    replicated_->stop();
    replicated_.reset();
  }
  attached_ = false;
}

std::optional<double> Recorder::calibrate() const {
  CounterMode mode = options_.counter_mode;
  if (mode == CounterMode::kSteadyClock) return 1.0;  // ticks ARE nanoseconds
  // A replicated session has calibrated continuously over every healthy
  // detector window; prefer that long-window estimate.
  if (replicated_) {
    if (std::optional<double> npt = replicated_->calibrated_ns_per_tick()) {
      return npt;
    }
  }
  // A single software counter measures its own run: ticks against
  // CLOCK_MONOTONIC since the thread's first increment, which excludes the
  // thread's start-up delay an attach-time reading would include.
  if (counter_) return counter_->ns_per_tick();
  // Otherwise the attach → now window of counter against CLOCK_MONOTONIC.
  u64 c = read_counter(mode, log_.header());
  u64 t = monotonic_ns();
  if (c <= attach_counter_ || t <= attach_ns_) return std::nullopt;
  return static_cast<double>(t - attach_ns_) /
         static_cast<double>(c - attach_counter_);
}

void Recorder::start() {
  log_.set_active(true);
  if (telemetry_) telemetry_->journal().record(obs::EventType::kActivate);
}

void Recorder::stop() {
  log_.set_active(false);
  if (telemetry_) telemetry_->journal().record(obs::EventType::kDeactivate);
}

Recorder::Stats Recorder::stats() const {
  Stats s;
  s.entries = log_.size();
  s.dropped = log_.dropped();
  s.capacity = log_.capacity();
  s.attempted = log_.attempted();
  s.shards = log_.shard_count();
  s.torn_tail = log_.count_torn_tail();
  s.counter_stalled = watchdog_ && watchdog_->stalled();
  s.counter_replicas = log_.counter_replica_count();
  if (replicated_) {
    ReplicatedCounter::Health h = replicated_->health();
    s.counter_failovers = h.failovers;
    s.counter_backjumps = h.backjumps;
  }
  return s;
}

bool Recorder::dump(const std::string& prefix) {
  // Fault point: the whole session dying at dump time — nothing persisted,
  // descriptor and shm segments left orphaned for stale-session GC.
  if (fault::fires(fault_points::kRecorderDumpDie)) {
    raise(SIGKILL);  // teeperf-lint: allow(r1): the fault IS the syscall
  }

  // Tick rate for the analyzer's ns conversion: taken at detach, while the
  // counter still ran, or now when the session is still attached. 0 in the
  // header means "uncalibrated"; the analyzer then reports raw ticks.
  if (attached_) ns_per_tick_ = calibrate();
  log_.header()->ns_per_tick = ns_per_tick_.value_or(0.0);

  // Fault point: the dump failing outright (disk full, signal mid-exit).
  if (fault::fires(fault_points::kDumpFail)) return false;

  // The dump goes to disk straight out of shm; only an armed fault needs
  // the serialized copy, so the torn/bit-flip faults mangle the file, never
  // the live log.
  if (!fault::Registry::instance().any_armed()) {
    if (!log_.write_dump(prefix + ".log")) return false;
  } else {
    std::string out = log_.dump_bytes();
    fault::apply_byte_faults(fault_points::kDumpPrefix, &out);
    if (!write_file(prefix + ".log", out)) return false;
  }

  // Self-telemetry sidecars: the health snapshot embedded in analyzer
  // reports, and the event journal as JSON-lines. A dying writer is the
  // moment torn tails become detectable, so scan now.
  if (telemetry_) {
    if (u64 torn = log_.count_torn_tail()) {
      telemetry_->journal().record(obs::EventType::kTornTail, torn,
                                   log_.attempted());
      telemetry_->registry().gauge(obs::metric_names::kLogTornTail).set(torn);
    }
    write_file(prefix + ".health",
               obs::health_text(telemetry_->registry(), telemetry_->journal()));
    write_file(prefix + ".events.jsonl",
               obs::events_jsonl(telemetry_->journal()));
  }

  // Symbol file: every registered symbol, then dladdr resolutions for raw
  // addresses recorded via the -finstrument-functions route. dladdr plays
  // the role of the paper's addr2line/DWARF lookup (see DESIGN.md). A
  // host-only session's probes ran in another address space, which writes
  // its own ".sym"; resolving its addresses here would overwrite real names
  // with hex.
  if (host_only_) return true;
  return write_file(prefix + ".sym", build_symbol_file(log_));
}

obs::LogSample sample_log(const ProfileLog& log) {
  obs::LogSample s;
  s.tail = log.attempted();
  s.capacity = log.capacity();
  s.active = log.active();
  s.ring = (log.flags() & log_flags::kRingBuffer) != 0;
  s.spill = log.spill();
  s.dropped = log.dropped();
  for (u32 i = 0; i < log.shard_count(); ++i) {
    s.shard_tails.push_back(log.shard(i)->tail.load(std::memory_order_relaxed));
  }
  return s;
}

}  // namespace teeperf
