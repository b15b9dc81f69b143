#include "core/replicated_counter.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "common/spin.h"
#include "faultsim/fault.h"
#include "faultsim/fault_points.h"

#if defined(__linux__)
#include <pthread.h>
#endif

namespace teeperf {

namespace {

// Best-effort core pinning: replica i lands on core i % ncores so that on a
// machine with spare cores every replica owns one (the paper sacrifices a
// core for the counter; we sacrifice up to three small slices). Failure is
// fine — a cpuset-restricted container just runs unpinned.
void pin_to_core(std::thread& t, u32 index) {
#if defined(__linux__)
  long ncores = sysconf(_SC_NPROCESSORS_ONLN);
  if (ncores <= 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(index % static_cast<u32>(ncores)), &set);
  pthread_setaffinity_np(t.native_handle(), sizeof(set), &set);
#else
  (void)t;
  (void)index;
#endif
}

}  // namespace

ReplicatedCounter::ReplicatedCounter(LogHeader* header,
                                     CounterReplicaDirectory* dir,
                                     CounterReplicaSlot* slots,
                                     ReplicatedCounterOptions options)
    : header_(header), dir_(dir), slots_(slots), options_(options) {
  replicas_ = dir_ ? dir_->replica_count : 0;
  health_.replicas = replicas_;
}

ReplicatedCounter::~ReplicatedCounter() { stop(); }

void ReplicatedCounter::start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!threads_.empty()) return;  // already started; idempotent
  if (replicas_ == 0) return;
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  threads_.reserve(replicas_ + 1);
  for (u32 r = 0; r < replicas_; ++r) {
    threads_.emplace_back([this, r] { replica_run(r); });
    if (options_.pin_cores) pin_to_core(threads_.back(), r);
  }
  threads_.emplace_back([this] { detector_run(); });
}

void ReplicatedCounter::stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (threads_.empty()) return;  // never started / already stopped
  stop_.store(true, std::memory_order_release);
  detector_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  running_.store(false, std::memory_order_release);
}

void ReplicatedCounter::replica_run(u32 index) {
  CounterReplicaSlot& slot = slots_[index];
  u64 local = slot.value.load(std::memory_order_relaxed);
  u64 since_yield = 0;
  bool frozen = false;
  bool was_primary = false;
  while (true) {
    bool primary =
        dir_->primary.load(std::memory_order_relaxed) == index && !frozen;
    if (primary && !was_primary) {
      // Just elected: rebase onto the published timeline so the mirrored
      // header word never moves backwards across a fail-over.
      u64 h = header_->counter.load(std::memory_order_relaxed);
      if (h > local) local = h;
    }
    was_primary = primary;
    if (!frozen) {
      // The paper's tight loop, per replica: one relaxed store per tick to
      // a private cache line. Only the elected primary pays the second
      // store that mirrors into the probe-visible header word.
      if (primary) {
        for (int i = 0; i < 1024; ++i) {
          ++local;
          slot.value.store(local, std::memory_order_relaxed);
          header_->counter.store(local, std::memory_order_relaxed);
        }
      } else {
        for (int i = 0; i < 1024; ++i) {
          slot.value.store(++local, std::memory_order_relaxed);
        }
      }
      since_yield += 1024;
    } else {
      sched_yield();  // stalled clock: the thread lives, the word does not
    }
    if (stop_.load(std::memory_order_relaxed)) break;
    // Fault points, once per 1024-tick batch. The plain stall/backjump
    // points hit whichever replica consumes the arming first; the .primary
    // variants fire only in the currently elected replica, which is what
    // "armed against the primary" scenarios need to be deterministic.
    if (fault::fires(fault_points::kCounterStall)) frozen = true;
    if (primary && fault::fires(fault_points::kCounterStallPrimary)) {
      frozen = true;
    }
    bool jump_armed = fault::fires(fault_points::kCounterBackjump) ||
                      (primary &&
                       fault::fires(fault_points::kCounterBackjumpPrimary));
    if (jump_armed) {
      u64 jump =
          4096 + fault::value_below(fault_points::kCounterBackjump, 4096);
      local = local > jump ? local - jump : 0;
      slot.value.store(local, std::memory_order_relaxed);
    }
    if (options_.yield_every && since_yield >= options_.yield_every) {
      since_yield = 0;
      sched_yield();
    }
  }
}

void ReplicatedCounter::detector_run() {
  std::vector<u64> last(replicas_, 0);
  std::vector<u32> zero_windows(replicas_, 0);
  for (u32 r = 0; r < replicas_; ++r) {
    last[r] = slots_[r].value.load(std::memory_order_relaxed);
  }
  u64 last_ns = monotonic_ns();
  u64 last_header = header_->counter.load(std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(detector_mu_);
  while (!stop_.load(std::memory_order_acquire)) {
    detector_cv_.wait_for(lock,
                          std::chrono::microseconds(options_.detect_interval_us));
    if (stop_.load(std::memory_order_acquire)) break;
    u64 now = monotonic_ns();
    u64 dt = now - last_ns;
    last_ns = now;
    if (dt == 0) continue;

    u32 primary = dir_->primary.load(std::memory_order_relaxed);
    bool primary_bad = false;
    bool primary_jumped = false;
    std::vector<double> rates;
    rates.reserve(replicas_);
    for (u32 r = 0; r < replicas_; ++r) {
      u64 v = slots_[r].value.load(std::memory_order_relaxed);
      if (v < last[r]) {
        // Backjump: a tampered or wrapped replica word. Journaled by the
        // owner via the callback; the replica itself keeps running (its
        // word is monotonic again from the lower value).
        dir_->backjumps.fetch_add(1, std::memory_order_relaxed);
        health_.backjumps = dir_->backjumps.load(std::memory_order_relaxed);
        if (on_backjump_) on_backjump_(r, last[r], v);
        if (r == primary) {
          primary_bad = true;
          primary_jumped = true;
        }
        zero_windows[r] = 0;
        last[r] = v;
        continue;
      }
      u64 dc = v - last[r];
      last[r] = v;
      if (dc == 0) {
        ++zero_windows[r];
        if (r == primary && zero_windows[r] >= options_.stall_windows) {
          primary_bad = true;
        }
      } else {
        zero_windows[r] = 0;
        rates.push_back(static_cast<double>(dc) / static_cast<double>(dt));
      }
    }

    // Drift across replicas: max relative deviation from the median rate of
    // the replicas that advanced this window. Scheduling makes individual
    // windows noisy, so this is a health signal, not an alarm by itself —
    // the watchdog publishes it and its own baseline logic decides.
    health_.drift_permille = 0;
    if (rates.size() >= 2) {
      std::vector<double> sorted = rates;
      std::sort(sorted.begin(), sorted.end());
      double med = sorted[sorted.size() / 2];
      if (med > 0) {
        double worst = 0;
        for (double rr : rates) {
          double dev = rr > med ? rr - med : med - rr;
          if (dev / med > worst) worst = dev / med;
        }
        health_.drift_permille = static_cast<u64>(worst * 1000.0);
      }
    }

    u32 stalled = 0;
    for (u32 r = 0; r < replicas_; ++r) {
      if (zero_windows[r] >= options_.stall_windows) ++stalled;
    }
    health_.stalled_replicas = stalled;

    if (primary_bad && replicas_ > 1) {
      // Elect the healthy replica with the largest value: it has made the
      // most progress, so rebasing onto it loses the least resolution and
      // the mirrored timeline only ever moves forward.
      u32 best = primary;
      u64 best_v = 0;
      for (u32 r = 0; r < replicas_; ++r) {
        if (r == primary) continue;
        if (zero_windows[r] >= options_.stall_windows) continue;
        u64 v = slots_[r].value.load(std::memory_order_relaxed);
        if (best == primary || v > best_v) {
          best = r;
          best_v = v;
        }
      }
      if (best != primary) {
        dir_->primary.store(best, std::memory_order_release);
        dir_->failovers.fetch_add(1, std::memory_order_relaxed);
        health_.failovers = dir_->failovers.load(std::memory_order_relaxed);
        health_.primary = best;
        if (on_failover_) {
          on_failover_(primary, best,
                       header_->counter.load(std::memory_order_relaxed));
        }
      }
    } else {
      health_.primary = primary;
    }

    // Calibration: accumulate (dt, Δheader) — the probe-visible word, the
    // one timestamps are taken from — unless it moved backwards. Zero-tick
    // windows are included on purpose (see the header comment), and so is
    // the forward jump a new primary's rebase makes: it is the time the
    // stalled primary froze the word, which frames spanning the stall
    // measure too. Without the jump, a stall's zero-tick windows would
    // inflate ns/tick by the stall's whole length.
    u64 h = header_->counter.load(std::memory_order_relaxed);
    if (h >= last_header && !primary_jumped) {
      calib_dt_ += static_cast<double>(dt);
      calib_dc_ += static_cast<double>(h - last_header);
    }
    last_header = h;
  }
}

ReplicatedCounter::Health ReplicatedCounter::health() const {
  std::lock_guard<std::mutex> lock(detector_mu_);
  Health h = health_;
  h.replicas = replicas_;
  if (dir_) {
    h.primary = dir_->primary.load(std::memory_order_relaxed);
    h.failovers = dir_->failovers.load(std::memory_order_relaxed);
    h.backjumps = dir_->backjumps.load(std::memory_order_relaxed);
  }
  return h;
}

std::optional<double> ReplicatedCounter::calibrated_ns_per_tick() const {
  std::lock_guard<std::mutex> lock(detector_mu_);
  if (calib_dc_ <= 0.0 || calib_dt_ <= 0.0) return std::nullopt;
  return calib_dt_ / calib_dc_;
}

}  // namespace teeperf
