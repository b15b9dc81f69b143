// Replicated trusted time (DESIGN.md §13; Triad direction, PAPERS.md).
//
// The paper's software counter is one host thread incrementing one shared
// word — a single scheduling stall (or a malicious host descheduling exactly
// that thread) silently freezes every timestamp. This subsystem runs 2–3
// counter replicas pinned to distinct cores, each incrementing its own
// cache-line-isolated shm word (CounterReplicaSlot), with a detector thread
// that cross-checks the replicas, elects a primary, and fails over when the
// primary stalls or jumps backwards.
//
// The probe path is unchanged: the elected primary *mirrors* its ticks into
// LogHeader::counter, so the application still performs exactly one relaxed
// load per probe and pre-replica readers (watchdog, teeperf_stats, old
// dumps) keep working. On failover the new primary rebases its local value
// to max(own, header word) before mirroring, so the published timeline stays
// monotonic across elections.
//
// The detector doubles as the calibration pass: it accumulates (Δwall-ns,
// Δticks) pairs of the probe-visible header word, and
// calibrated_ns_per_tick() = Σdt / Σdc maps ticks to real time. Zero-tick
// windows are *included* (profiled code accrues no ticks while the counter
// is descheduled either, so including the elapsed time keeps tick→wall
// conversion faithful end-to-end), and so is the forward jump a fail-over
// rebase makes (the ticks the frozen word missed); windows in which the
// word or the primary's slot moved backwards are excluded.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/types.h"
#include "core/log_format.h"

namespace teeperf {

struct ReplicatedCounterOptions {
  // sched_yield after this many increments per replica (0 = pure tight
  // loop). Replicas default to yielding so single-core CI machines still
  // make workload progress with several counter threads alive.
  u64 yield_every = 4096;
  // Detector cross-check cadence. Much finer than the watchdog's 50 ms so
  // fail-over completes within a few milliseconds of a primary stall.
  u64 detect_interval_us = 2000;
  // Consecutive zero-delta detector windows before a replica counts as
  // stalled (and, if primary, triggers an election).
  u32 stall_windows = 2;
  // Pin replica i to core i % ncores (best-effort; failures are ignored —
  // a constrained CI container still works, just without the isolation).
  bool pin_cores = true;
};

class ReplicatedCounter {
 public:
  // `log` must carry a replica block (ProfileLog::counter_replica_count()
  // > 0); the log region must outlive this object.
  ReplicatedCounter(LogHeader* header, CounterReplicaDirectory* dir,
                    CounterReplicaSlot* slots,
                    ReplicatedCounterOptions options = {});
  ~ReplicatedCounter();

  ReplicatedCounter(const ReplicatedCounter&) = delete;
  ReplicatedCounter& operator=(const ReplicatedCounter&) = delete;

  // Race-free and idempotent, same lifecycle discipline as SoftwareCounter.
  void start();
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // Cross-replica health, as sampled by the detector thread.
  struct Health {
    u32 replicas = 0;
    u32 primary = 0;            // currently elected replica index
    u64 failovers = 0;          // elections after the initial one
    u64 backjumps = 0;          // replica words observed moving backwards
    u32 stalled_replicas = 0;   // replicas currently past the stall window
    u64 drift_permille = 0;     // max relative per-replica rate deviation
                                // from the median, in permille
  };
  Health health() const;

  // Σdt / Σdc over the elected primary's healthy windows; nullopt until at
  // least one window with forward progress has been accumulated.
  std::optional<double> calibrated_ns_per_tick() const;

  // Invoked from the detector thread on every election (after dir->primary
  // is republished). Must be set before start(). `at_value` is the counter
  // value the new primary takes over from.
  using FailoverCallback =
      std::function<void(u32 from, u32 to, u64 at_value)>;
  void set_failover_callback(FailoverCallback cb) {
    on_failover_ = std::move(cb);
  }

  // Invoked from the detector thread when a replica's word moves backwards.
  using BackjumpCallback =
      std::function<void(u32 replica, u64 from, u64 to)>;
  void set_backjump_callback(BackjumpCallback cb) {
    on_backjump_ = std::move(cb);
  }

 private:
  void replica_run(u32 index);
  void detector_run();

  LogHeader* header_;
  CounterReplicaDirectory* dir_;
  CounterReplicaSlot* slots_;
  ReplicatedCounterOptions options_;
  u32 replicas_;

  FailoverCallback on_failover_;
  BackjumpCallback on_backjump_;

  std::mutex lifecycle_mu_;
  std::vector<std::thread> threads_;  // replicas + the detector (last)
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  mutable std::mutex detector_mu_;  // guards detector sleep + published health
  std::condition_variable detector_cv_;

  // Detector state, published under detector_mu_ for health()/calibration.
  Health health_{};
  double calib_dt_ = 0.0;  // Σ wall-ns over accumulated windows
  double calib_dc_ = 0.0;  // Σ primary ticks over the same windows
};

}  // namespace teeperf
