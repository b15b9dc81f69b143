#include "drain/drainer.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include "common/fileutil.h"
#include "faultsim/fault.h"
#include "faultsim/fault_points.h"

namespace teeperf::drain {

Drainer::Drainer(ProfileLog* log, DrainerOptions opts)
    : log_(log), opts_(std::move(opts)) {}

Drainer::~Drainer() { stop(); }

bool Drainer::start() {
  if (!log_ || !log_->spill()) return false;
  // Resume scan: continue the chunk sequence where the previous incarnation
  // stopped. If its last chunk is torn (died mid-write), adopt that number
  // for overwrite — the window it holds was never marked drained, so the
  // rewrite loses nothing and the loader never sees the torn file.
  seq_ = 0;
  while (file_exists(chunk_path(opts_.prefix, seq_))) ++seq_;
  if (seq_ > 0) {
    auto last = read_file(chunk_path(opts_.prefix, seq_ - 1));
    if (!last || !parse_chunk(*last, nullptr, nullptr, nullptr)) --seq_;
  }
  stop_.store(false, std::memory_order_release);
  dead_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
  return true;
}

void Drainer::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

bool Drainer::restart() {
  if (!log_ || !log_->spill()) return false;
  stop();  // joins the dead thread
  stop_.store(false, std::memory_order_release);
  dead_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
  return true;
}

bool Drainer::final_drain() {
  stop();
  if (!log_ || !log_->spill()) return false;
  for (;;) {
    bool idle = false;
    if (!round(&idle)) {
      dead_.store(true, std::memory_order_release);
      return false;
    }
    if (idle) return true;
  }
}

void Drainer::run() {
  // One round writes one chunk file. Draining every trickle as soon as it is
  // published makes many small files, and each costs a create (and later a
  // delete) on top of its bytes; a create alone can cost more than writing
  // the bytes. So a round waits until some shard has three quarters of a
  // round's cap reserved, or the poll interval has passed since the last
  // round. A writer waits for space only when its shard is fully reserved,
  // past that mark, so the wait never holds one up.
  using Clock = std::chrono::steady_clock;
  constexpr auto kNap = std::chrono::microseconds(50);
  const auto poll = std::chrono::microseconds(opts_.poll_interval_us);
  const u64 cap = log_->shard(0)->capacity;  // spill logs are sharded
  const u64 mark = std::min(cap, opts_.chunk_entries) / 4 * 3;
  Clock::time_point last_round = Clock::now();
  while (!stop_.load(std::memory_order_acquire)) {
    if (max_backlog() < mark && Clock::now() - last_round < poll) {
      std::this_thread::sleep_for(kNap);
      continue;
    }
    bool idle = false;
    if (!round(&idle)) {
      dead_.store(true, std::memory_order_release);
      return;
    }
    last_round = Clock::now();
    if (idle) std::this_thread::sleep_for(poll);
  }
}

u64 Drainer::max_backlog() const {
  u64 most = 0;
  for (u32 s = 0; s < log_->shard_count(); ++s) {
    const LogShard* sh = log_->shard(s);
    u64 t = sh->tail.load(std::memory_order_acquire);
    u64 d = sh->drained.load(std::memory_order_acquire);
    if (t > d && t - d > most) most = t - d;
  }
  return most;
}

bool Drainer::round(bool* idle) {
  *idle = true;
  // Fault point: the drainer process/thread dying between rounds. Nothing
  // is in flight, so the only observable effect is growing lag until a
  // supervisor restarts us — the protocol must lose nothing either way.
  if (fault::fires(fault_points::kDrainDie)) return false;

  // Each shard's consumable window [drained, published), capped per round,
  // viewed in place as at most two spans. The writer copies out of these
  // spans piecewise; it never checksums shm directly (see ChunkWriter).
  u32 nshards = log_->shard_count();
  std::vector<LogWindow> windows(nshards);
  u64 total = 0;
  for (u32 s = 0; s < nshards; ++s) {
    const LogShard* sh = log_->shard(s);
    u64 p = sh->published.load(std::memory_order_acquire);
    u64 d = sh->drained.load(std::memory_order_acquire);
    if (p <= d) continue;
    u64 len = p - d;
    if (len > opts_.chunk_entries) len = opts_.chunk_entries;
    u64 cap = sh->capacity;
    const LogEntry* seg = log_->entries() + sh->entry_offset;
    u64 start = d % cap;
    u64 head = cap - start < len ? cap - start : len;
    windows[s].start = d;
    windows[s].first = std::span<const LogEntry>(seg + start, head);
    windows[s].second = std::span<const LogEntry>(seg, len - head);
    total += len;
  }
  if (total == 0) return true;
  *idle = false;

  // Fault point: dying mid-write, leaving a torn chunk on disk. The cursors
  // are not advanced and seq_ is not bumped, so a resumed drainer rewrites
  // the same chunk number and the window drains again — the loader never
  // has to trust a torn file that is followed by good ones.
  bool torn = fault::fires(fault_points::kDrainChunkTorn);
  u64 bytes = writer_.write(chunk_path(opts_.prefix, seq_), *log_->header(),
                            windows, seq_, torn);
  if (bytes == 0) return false;

  // Reclaim, per shard: zero the consumed slots first (restores the
  // tombstone invariant for the next lap), then advance the drain cursor —
  // the release store is what hands the space back to writers. The CAS loop
  // tolerates a concurrent writer force-advance (dead-drainer overflow
  // path): a cursor already at or past our target is never moved back.
  for (u32 s = 0; s < nshards; ++s) {
    const LogWindow& w = windows[s];
    u64 len = w.size();
    if (len == 0) continue;
    LogShard* sh = log_->shard(s);
    u64 d = w.start;
    for (std::span<const LogEntry> span : {w.first, w.second}) {
      std::memset(static_cast<void*>(const_cast<LogEntry*>(span.data())), 0,
                  span.size_bytes());
    }
    u64 expect = d;
    while (expect < d + len &&
           !sh->drained.compare_exchange_weak(expect, d + len,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
    }
  }
  drained_entries_.fetch_add(total, std::memory_order_relaxed);
  spilled_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  chunks_.fetch_add(1, std::memory_order_relaxed);
  ++seq_;
  return true;
}

Drainer::Stats Drainer::stats() const {
  Stats st;
  st.drained_entries = drained_entries_.load(std::memory_order_relaxed);
  st.spilled_bytes = spilled_bytes_.load(std::memory_order_relaxed);
  st.chunks = chunks_.load(std::memory_order_relaxed);
  st.dead = dead_.load(std::memory_order_acquire);
  if (log_ && log_->sharded()) {
    for (u32 s = 0; s < log_->shard_count(); ++s) {
      const LogShard* sh = log_->shard(s);
      u64 p = sh->published.load(std::memory_order_acquire);
      u64 d = sh->drained.load(std::memory_order_acquire);
      if (p > d) st.lag_entries += p - d;
    }
  }
  return st;
}

}  // namespace teeperf::drain
