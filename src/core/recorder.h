// The recorder wrapper (§II-B, stage #2): sets up the shared-memory log,
// manages the counter, installs the runtime session, and persists the log
// (plus a symbol file) for the offline analyzer. In-process callers and the
// teeperf_record CLI both run their sessions through it.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common/shm.h"
#include "common/types.h"
#include "core/counter.h"
#include "core/filter.h"
#include "core/log_format.h"
#include "core/replicated_counter.h"
#include "obs/session.h"
#include "obs/watchdog.h"

namespace teeperf {

struct RecorderOptions {
  // Log capacity. 1M entries = 32 MiB of untrusted host memory.
  u64 max_entries = 1ull << 20;

  // Shard layout (log format v2, DESIGN.md): -1 picks a power of two near
  // the hardware concurrency (clamped to [1, 64], and reduced until every
  // shard holds at least 1024 entries, so tiny test logs degrade to one
  // shard and keep exact v1 drop arithmetic). 0 forces the classic v1
  // single-tail layout. 1..kMaxLogShards forces an explicit v2 directory.
  i32 shards = -1;

  // Time source. kTsc by default: on the single-core CI machine a software
  // counter thread starves the workload (see counter.h); pass kSoftware to
  // reproduce the paper's portable configuration.
  CounterMode counter_mode = CounterMode::kTsc;

  // When using kSoftware: sched_yield after this many increments (0 = the
  // paper's pure tight loop, appropriate when a spare core exists).
  u64 software_counter_yield = 4096;

  // Replicated trusted time (DESIGN.md §13), kSoftware only: run this many
  // counter replicas on distinct cores, each with a cache-line-isolated shm
  // word, plus a detector that cross-checks them, fails over when the
  // elected primary stalls or jumps backwards, and calibrates ticks→ns
  // against CLOCK_MONOTONIC. 0 keeps the classic single counter thread;
  // values are clamped to kMaxCounterReplicas. Ignored for kTsc /
  // kSteadyClock (those sources have nothing to replicate).
  u32 counter_replicas = 0;

  // Start with measurement active; flags can be toggled at runtime.
  bool start_active = true;

  // Ring mode: when the log fills, overwrite the oldest entries instead of
  // dropping new ones — long-running sessions keep the most recent window.
  bool ring_buffer = false;

  // Spill-drain mode (DESIGN.md §10): a host-side drainer (drain::Drainer,
  // owned by the embedding tool — teeperf_record — not by the Recorder)
  // continuously consumes published windows and writers reclaim the space,
  // so sessions are unbounded without ring-mode data loss. Requires a v2
  // layout (shards >= 1) and excludes ring_buffer; create() fails on a
  // conflicting combination.
  bool spill_drain = false;
  bool record_calls = true;
  bool record_returns = true;

  // Named POSIX shared memory when set; anonymous shared mapping otherwise.
  // Named shm is the cross-process path. The sentinel "auto" picks a fresh
  // collision-free session name "/teeperf.<pid>.<nonce>.log" (the
  // multi-session scheme session_registry.h documents); an explicit name is
  // used verbatim. The telemetry region lives at the same base with ".obs"
  // (for names not ending in ".log", legacy "<name>.obs").
  std::string shm_name;

  // Named sessions publish a discovery descriptor into the session registry
  // (session_registry.h) so teeperf_monitord / teeperf_stats can find them,
  // and withdraw it on destruction. Off for tests that want invisibility.
  bool publish_session = true;

  // Registry directory override; empty uses $TEEPERF_SESSION_DIR / the
  // per-host default.
  std::string session_dir;

  // Dump prefix published in the session descriptor, so a monitor can load
  // "<dump_prefix>.sym" once the probed process writes it. Set by wrappers
  // whose probes run in a child (teeperf_record's -o); empty otherwise.
  std::string dump_prefix;

  // Selective profiling filter; must outlive the recorder. May be null.
  const Filter* filter = nullptr;

  // Self-telemetry (src/obs): a shared-memory metrics/events region named
  // "<shm_name>.obs" (anonymous for anonymous sessions) that a host process
  // can scrape live with tools/teeperf_stats, plus a counter-health
  // watchdog thread that runs while the session is attached.
  bool telemetry = true;
  u64 watchdog_interval_ms = 50;
};

class Recorder {
 public:
  // Creates the shared memory and formats the log. Null on failure.
  static std::unique_ptr<Recorder> create(const RecorderOptions& options);

  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // Installs the in-process runtime session, so this process's probes
  // record into the log, then runs attach_host(). False if another session
  // is already attached.
  bool attach();

  // The host half of a session on its own: the software counter (single or
  // replicated), the telemetry watchdog and the start of the calibration
  // window. For a wrapper whose probes run in a child that adopts the log
  // by shm_name(); that child writes the ".sym" itself, so dump() skips it.
  void attach_host();
  void detach();

  // Spill sessions: drainer health fed into the watchdog's log sample. The
  // embedding tool owns the drain::Drainer (core sits below drain in the
  // layering) and registers this callback before attach(); without it the
  // watchdog still suppresses wrap/saturation alarms for spill logs but
  // publishes no drain.* gauges.
  struct DrainSample {
    u64 lag_entries = 0;
    u64 spilled_bytes = 0;
    u64 drained_entries = 0;
  };
  void set_drain_sampler(std::function<DrainSample()> sampler) {
    drain_sampler_ = std::move(sampler);
  }

  // Dynamic de/activation (§II-B: flags are changed atomically while the
  // application executes). Toggles are journaled as telemetry events.
  void start();
  void stop();

  ProfileLog& log() { return log_; }
  const ProfileLog& log() const { return log_; }

  struct Stats {
    u64 entries = 0;
    u64 dropped = 0;
    u64 capacity = 0;
    u64 attempted = 0;       // appends tried, including dropped/wrapped
    u64 torn_tail = 0;       // tombstone slots found at the written tail
    u32 shards = 0;          // shard directory size (0 = v1 single tail)
    bool counter_stalled = false;  // watchdog's live verdict (false when
                                   // telemetry is off or not attached)
    u32 counter_replicas = 0;      // replica block size (0 = single counter)
    u64 counter_failovers = 0;     // primary elections since attach
    u64 counter_backjumps = 0;     // replica words seen moving backwards
  };
  Stats stats() const;

  // The live telemetry region (null when options.telemetry is false).
  obs::SelfTelemetry* telemetry() { return telemetry_.get(); }

  // The log's shm name ("" for an anonymous session; "auto" resolved to the
  // name create() picked).
  const std::string& shm_name() const { return options_.shm_name; }

  // The registry key this session published under ("" when unpublished —
  // anonymous sessions, publish_session=false, or a failed publish).
  const std::string& session_name() const { return session_name_; }

  // Writes "<prefix>.log" (raw header + entries, with the tick rate
  // calibrated at detach — or now, while still attached — stored into the
  // header), the telemetry sidecars "<prefix>.health" and
  // "<prefix>.events.jsonl", and, unless the session ran through
  // attach_host(), "<prefix>.sym" (registered symbols plus dladdr
  // resolutions of raw addresses found in the log). Returns false on I/O
  // failure.
  bool dump(const std::string& prefix);

 private:
  Recorder() = default;

  // ns per counter tick over the session so far; nullopt when the counter
  // has not advanced (never attached, stalled from the start, or a
  // backjump left it below its starting value).
  std::optional<double> calibrate() const;

  RecorderOptions options_;
  std::string session_name_;
  std::string session_dir_;
  SharedMemoryRegion shm_;
  ProfileLog log_;
  std::function<DrainSample()> drain_sampler_;
  std::unique_ptr<SoftwareCounter> counter_;
  std::unique_ptr<ReplicatedCounter> replicated_;
  std::unique_ptr<obs::SelfTelemetry> telemetry_;
  std::unique_ptr<obs::Watchdog> watchdog_;
  bool attached_ = false;
  bool host_only_ = false;             // attached by attach_host()
  u64 attach_counter_ = 0;             // counter and CLOCK_MONOTONIC at
  u64 attach_ns_ = 0;                  // attach: the calibration window start
  std::optional<double> ns_per_tick_;  // calibrated at the last detach
};

// The log's side of a watchdog sample: attempted and dropped entries,
// capacity, flags and shard tails. Owners add their drainer's fields.
obs::LogSample sample_log(const ProfileLog& log);

}  // namespace teeperf
