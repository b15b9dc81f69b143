#include "core/counter.h"

#include <sched.h>

#include "common/spin.h"
#include "faultsim/fault.h"
#include "faultsim/fault_points.h"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace teeperf {

const char* counter_mode_name(CounterMode mode) {
  switch (mode) {
    case CounterMode::kSoftware: return "software";
    case CounterMode::kTsc: return "tsc";
    case CounterMode::kSteadyClock: return "steady_clock";
  }
  return "?";
}

u64 read_counter(CounterMode mode, const LogHeader* header) {
  switch (mode) {
    case CounterMode::kSoftware:
      return header->counter.load(std::memory_order_relaxed);
    case CounterMode::kTsc:
#if defined(__x86_64__) || defined(__i386__)
      return __rdtsc();
#else
      return monotonic_ns();
#endif
    case CounterMode::kSteadyClock:
      return monotonic_ns();
  }
  return 0;
}

SoftwareCounter::SoftwareCounter(LogHeader* header, u64 yield_every)
    : header_(header), yield_every_(yield_every) {}

SoftwareCounter::~SoftwareCounter() { stop(); }

void SoftwareCounter::start() {
  // The lifecycle used to publish running_ only *after* spawning: a stop()
  // racing that store saw running_ == false, skipped the join, and the
  // std::thread destructor called std::terminate. Serialize on the mutex and
  // key the decision on thread_.joinable() — the one fact that cannot race
  // the spawn — with running_ published before the thread exists.
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (thread_.joinable()) return;  // already started; idempotent
  stop_.store(false, std::memory_order_release);
  run_start_ns_.store(0, std::memory_order_relaxed);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
}

void SoftwareCounter::stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!thread_.joinable()) return;  // never started / already stopped
  stop_.store(true, std::memory_order_release);
  thread_.join();
  thread_ = std::thread();
  running_.store(false, std::memory_order_release);
}

std::optional<double> SoftwareCounter::ns_per_tick() const {
  if (!running()) return std::nullopt;  // a stopped word measures nothing
  u64 t0 = run_start_ns_.load(std::memory_order_acquire);
  if (t0 == 0) return std::nullopt;
  u64 c0 = run_start_value_.load(std::memory_order_relaxed);
  u64 c1 = header_->counter.load(std::memory_order_relaxed);
  u64 t1 = monotonic_ns();
  if (c1 <= c0 || t1 <= t0) return std::nullopt;
  return static_cast<double>(t1 - t0) / static_cast<double>(c1 - c0);
}

void SoftwareCounter::run() {
  u64 t0 = monotonic_ns();
  u64 start_value = header_->counter.load(std::memory_order_relaxed);
  run_start_value_.store(start_value, std::memory_order_relaxed);
  run_start_ns_.store(t0, std::memory_order_release);
  u64 local = start_value;
  u64 since_yield = 0;
  // The paper's tight loop: one relaxed store per increment. The stop flag
  // is polled on a coarse stride so the loop body stays one store wide.
  bool frozen = false;
  while (true) {
    if (!frozen) {
      for (int i = 0; i < 1024; ++i) {
        header_->counter.store(++local, std::memory_order_relaxed);
      }
      since_yield += 1024;
    } else {
      sched_yield();  // stalled clock: the thread lives, the word does not move
    }
    if (stop_.load(std::memory_order_relaxed)) break;
    // Fault points, checked once per 1024-increment batch (one relaxed load
    // when nothing is armed): a stalled counter thread, and a counter word
    // jumping backwards (a tampered or wrapped time source).
    if (fault::fires(fault_points::kCounterStall)) frozen = true;
    if (fault::fires(fault_points::kCounterBackjump)) {
      u64 jump = 4096 + fault::value_below(fault_points::kCounterBackjump, 4096);
      local = local > jump ? local - jump : 0;
      header_->counter.store(local, std::memory_order_relaxed);
    }
    if (yield_every_ && since_yield >= yield_every_) {
      since_yield = 0;
      sched_yield();
    }
  }
  u64 t1 = monotonic_ns();
  if (t1 > t0 && local > start_value) {  // backjump faults can end below start
    ticks_per_second_ = static_cast<double>(local - start_value) * 1e9 /
                        static_cast<double>(t1 - t0);
  }
}

}  // namespace teeperf
