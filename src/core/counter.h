// Time sources for the recorder (§II-B, stage #2).
//
// TEE-Perf must work without architecture-specific timers, so its portable
// time source is a *software counter*: a host thread incrementing a 64-bit
// word in a tight loop. The word lives in the log header, so the counter
// thread's cache footprint is a single line. Because TEE-Perf does
// method-level *relative* profiling, the counter only needs to be monotonic
// and fine-grained, not calibrated.
//
// Where hardware counters are available the recorder "is responsible for
// making [them] accessible" — here as a TSC-based and a clock_gettime-based
// source. On the single-core CI machine these are the default for benches,
// because a dedicated counter thread would starve the workload (the paper
// runs on 4 cores and explicitly accepts sacrificing one).
#pragma once

#include <atomic>
#include <mutex>
#include <optional>
#include <thread>

#include "common/types.h"
#include "core/log_format.h"

namespace teeperf {

enum class CounterMode {
  kSoftware,     // dedicated thread incrementing LogHeader::counter
  kTsc,          // rdtsc (falls back to kSteadyClock on non-x86)
  kSteadyClock,  // CLOCK_MONOTONIC nanoseconds
};

const char* counter_mode_name(CounterMode mode);

// Reads the current counter value for `mode`. `header` is only used by
// kSoftware. Marked always_inline adjacent: this is the hook hot path.
u64 read_counter(CounterMode mode, const LogHeader* header);

// Nanoseconds per counter tick for `mode`, measured empirically against
// CLOCK_MONOTONIC. Used by the analyzer to convert tick deltas into human
// time; relative profiles do not depend on it being exact.
//
// Returns nullopt when the measurement window is degenerate — the counter
// did not advance (stalled software counter) or the clock did not — instead
// of a value indistinguishable from a real 1 ns/tick calibration. Callers
// retry or record an uncalibrated dump (ns_per_tick = 0).
std::optional<double> counter_ns_per_tick(CounterMode mode,
                                          const LogHeader* header);

// The software counter thread (§II-B). Increments header->counter in a tight
// loop until stopped. `yield_every` optionally inserts sched_yield every N
// increments so that single-core machines still make workload progress; 0
// reproduces the paper's pure tight loop.
class SoftwareCounter {
 public:
  explicit SoftwareCounter(LogHeader* header, u64 yield_every = 0);
  ~SoftwareCounter();

  SoftwareCounter(const SoftwareCounter&) = delete;
  SoftwareCounter& operator=(const SoftwareCounter&) = delete;

  // Race-free and idempotent: concurrent or repeated start()/stop() pairs
  // are serialized on an internal mutex and keyed on thread_.joinable(), so
  // a stop() racing a start() always joins the thread it observed instead
  // of skipping the join and letting ~thread() call std::terminate.
  void start();
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // Measured increment rate (ticks/second) of the last run; 0 if never run.
  double ticks_per_second() const { return ticks_per_second_; }

  // Nanoseconds per tick over the current run so far: the counter word
  // against CLOCK_MONOTONIC since the thread's first increment. nullopt
  // when not running (or not started yet) or when the word has not moved
  // forward.
  std::optional<double> ns_per_tick() const;

 private:
  void run();

  LogHeader* header_;
  u64 yield_every_;
  std::mutex lifecycle_mu_;  // serializes start()/stop(); never on a hot path
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  double ticks_per_second_ = 0.0;
  std::atomic<u64> run_start_value_{0};  // word and CLOCK_MONOTONIC when the
  std::atomic<u64> run_start_ns_{0};     // thread started (ns 0: not yet)
};

}  // namespace teeperf
