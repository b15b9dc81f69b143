#include "core/log_format.h"

#include <csignal>
#include <new>

#include "common/fileutil.h"
#include "faultsim/fault.h"
#include "faultsim/fault_points.h"

namespace teeperf {

namespace {

// A reserved-but-never-written slot: the writer died between the tail
// fetch-and-add and the stores. A legitimate entry always has a nonzero
// address, so the all-zero pattern is a reliable tombstone.
inline bool is_tombstone(const LogEntry& e) {
  return e.kind_and_counter == 0 && e.addr == 0 && e.tid == 0;
}

// Spill-mode space-wait budget (ProfileLog::set_spill_wait_spins). Process-
// wide rather than per-log: it is a tuning knob, not log state, and keeping
// it out of the shared header means a misbehaving peer cannot zero it.
std::atomic<u64> g_spill_wait_spins{u64{1} << 27};

}  // namespace

void ProfileLog::set_spill_wait_spins(u64 n) {
  g_spill_wait_spins.store(n, std::memory_order_relaxed);
}

u64 ProfileLog::spill_wait_spins() {
  return g_spill_wait_spins.load(std::memory_order_relaxed);
}

bool ProfileLog::init(void* buffer, usize size, u64 pid, u64 initial_flags,
                      u32 shard_count, u32 counter_replicas) {
  if (!buffer) return false;
  if (shard_count > kMaxLogShards) return false;
  if (counter_replicas > kMaxCounterReplicas) return false;
  // Spill-drain is a v2 protocol (the cursors live in the shard directory)
  // and supersedes ring wrap: the two reclaim policies cannot coexist.
  if ((initial_flags & log_flags::kSpillDrain) &&
      (shard_count == 0 || (initial_flags & log_flags::kRingBuffer))) {
    return false;
  }
  usize overhead =
      sizeof(LogHeader) + static_cast<usize>(shard_count) * sizeof(LogShard);
  if (size < overhead + sizeof(LogEntry) * (shard_count ? shard_count : 1)) {
    return false;
  }
  // Fault point: the shard directory failing to come up (e.g. the shm grant
  // shrank under us between sizing and formatting). Modeled as init failure
  // so callers exercise their no-log degradation path.
  if (shard_count > 0 && fault::fires(fault_points::kLogShardAllocFail)) return false;

  // The trailing replica block (plus its alignment pad) comes off the entry
  // budget; shrink until the aligned layout fits (the pad depends on the
  // entry count, so the closed form is not exact).
  usize replica_bytes =
      counter_replicas ? sizeof(CounterReplicaDirectory) +
                             static_cast<usize>(counter_replicas) *
                                 sizeof(CounterReplicaSlot)
                       : 0;
  if (counter_replicas && size < overhead + replica_bytes + 64) return false;
  u64 total = (size - overhead - replica_bytes) / sizeof(LogEntry);
  while (total > 0 &&
         bytes_for_replicated(total, shard_count, counter_replicas) > size) {
    --total;
  }
  if (shard_count) total -= total % shard_count;  // equal segments
  if (total < (shard_count ? shard_count : 1)) return false;

  auto* h = new (buffer) LogHeader();
  h->magic = kLogMagic;
  h->version = shard_count ? kLogVersionSharded : kLogVersion;
  h->shard_count = shard_count;
  h->shm_base = reinterpret_cast<u64>(buffer);
  h->pid = pid;
  h->counter_replicas = counter_replicas;
  h->max_entries = total;
  h->tail.store(0, std::memory_order_relaxed);
  h->counter.store(0, std::memory_order_relaxed);
  h->profiler_anchor = reinterpret_cast<u64>(&kLogMagic);
  h->flags.store(initial_flags, std::memory_order_release);
  header_ = h;
  u8* base = static_cast<u8*>(buffer);
  if (shard_count) {
    shards_ = reinterpret_cast<LogShard*>(base + sizeof(LogHeader));
    u64 per_shard = total / shard_count;
    for (u32 s = 0; s < shard_count; ++s) {
      auto* sh = new (&shards_[s]) LogShard();
      sh->entry_offset = static_cast<u64>(s) * per_shard;
      sh->capacity = per_shard;
    }
  } else {
    shards_ = nullptr;
  }
  entries_ = reinterpret_cast<LogEntry*>(base + overhead);
  if (counter_replicas) {
    usize block_off =
        (overhead + static_cast<usize>(total) * sizeof(LogEntry) + 63) &
        ~usize{63};
    replica_dir_ = new (base + block_off) CounterReplicaDirectory();
    replica_dir_->replica_count = counter_replicas;
    replica_slots_ = reinterpret_cast<CounterReplicaSlot*>(
        base + block_off + sizeof(CounterReplicaDirectory));
    for (u32 r = 0; r < counter_replicas; ++r) {
      new (&replica_slots_[r]) CounterReplicaSlot();
    }
  } else {
    replica_dir_ = nullptr;
    replica_slots_ = nullptr;
  }
  return true;
}

bool ProfileLog::adopt(void* buffer, usize size) {
  if (!buffer || size < sizeof(LogHeader)) return false;
  auto* h = reinterpret_cast<LogHeader*>(buffer);
  if (h->magic != kLogMagic) return false;
  if (h->version != kLogVersion && h->version != kLogVersionSharded) {
    return false;
  }
  bool v2 = h->version == kLogVersionSharded;
  // v1 headers must not smuggle in a directory; v2 must have a sane one.
  if (!v2 && h->shard_count != 0) return false;
  if (v2 && (h->shard_count == 0 || h->shard_count > kMaxLogShards)) {
    return false;
  }
  usize overhead = sizeof(LogHeader) +
                   static_cast<usize>(h->shard_count) * sizeof(LogShard);
  if (size < overhead) return false;
  // Divide rather than multiply: a corrupt max_entries (from a hostile or
  // truncated region) must not overflow u64 and sneak past the size check.
  if (h->max_entries == 0 ||
      h->max_entries > (size - overhead) / sizeof(LogEntry)) {
    return false;
  }
  u8* base = static_cast<u8*>(buffer);
  if (v2) {
    auto* dir = reinterpret_cast<LogShard*>(base + sizeof(LogHeader));
    for (u32 s = 0; s < h->shard_count; ++s) {
      // Subtraction-form bounds check: offset + capacity computed directly
      // could wrap u64 and pass.
      if (dir[s].entry_offset > h->max_entries ||
          dir[s].capacity > h->max_entries - dir[s].entry_offset) {
        return false;
      }
    }
    shards_ = dir;
  } else {
    shards_ = nullptr;
  }
  header_ = h;
  entries_ = reinterpret_cast<LogEntry*>(base + overhead);
  // Replica block: live shm regions carry it after the entry array; loaded
  // dumps (compact or raw) never do, and a stale/hostile counter_replicas
  // pointing past the region degrades to "no replicas" rather than a reject
  // — every pre-replica consumer of the log proper still works.
  replica_dir_ = nullptr;
  replica_slots_ = nullptr;
  if (h->counter_replicas > 0 &&
      h->counter_replicas <= kMaxCounterReplicas) {
    usize block_off =
        (overhead + static_cast<usize>(h->max_entries) * sizeof(LogEntry) +
         63) &
        ~usize{63};
    usize block_bytes = sizeof(CounterReplicaDirectory) +
                        static_cast<usize>(h->counter_replicas) *
                            sizeof(CounterReplicaSlot);
    if (block_off <= size && block_bytes <= size - block_off) {
      auto* dir = reinterpret_cast<CounterReplicaDirectory*>(base + block_off);
      if (dir->replica_count == h->counter_replicas) {
        replica_dir_ = dir;
        replica_slots_ = reinterpret_cast<CounterReplicaSlot*>(
            base + block_off + sizeof(CounterReplicaDirectory));
      }
    }
  }
  return true;
}

bool ProfileLog::append(EventKind kind, u64 addr, u64 tid, u64 counter) {
  LogEntry e;
  e.kind_and_counter = LogEntry::pack(kind, counter);
  e.addr = addr;
  e.tid = tid;
  e.reserved = 0;
  if (shards_) return store(shards_[tid % header_->shard_count], &e, 1);
  // v1: reserve first, then write: each slot is written exactly once even
  // under contention. Unfair access to the tail is harmless because only
  // per-thread ordering matters to the analyzer (§II-B).
  u64 slot = header_->tail.fetch_add(1, std::memory_order_relaxed);
  if (slot >= header_->max_entries) {
    if (header_->flags.load(std::memory_order_relaxed) & log_flags::kRingBuffer) {
      slot %= header_->max_entries;  // overwrite the oldest window
    } else {
      // Counted in the shared header, not a process-local member, so a
      // reader attached from another process sees the app's drops.
      header_->dropped.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  // Fault point: the writer dying between reserving the slot and filling it
  // in — the exact tear the analyzer's tombstone handling exists for. The
  // site acts out the death itself (SIGKILL, no cleanup) so the torn slot
  // is produced by the real production code path.
  if (fault::fires(fault_points::kLogAppendDie))
    raise(SIGKILL);  // teeperf-lint: allow(r1): the fault IS the syscall
  entries_[slot] = e;
  return true;
}

bool ProfileLog::append_batch(const LogEntry* batch, u32 n, u64 tid) {
  if (n == 0) return true;
  if (shards_) return store(shards_[tid % header_->shard_count], batch, n);
  // v1 has one shared tail; there is nothing a batch can amortize without
  // breaking interleaved reservation, so publish entry by entry.
  bool ok = true;
  for (u32 i = 0; i < n; ++i) {
    const LogEntry& e = batch[i];
    ok &= append(e.kind(), e.addr, e.tid, e.counter());
  }
  return ok;
}

bool ProfileLog::store(LogShard& sh, const LogEntry* run, u32 n) {
  const u64 cap = sh.capacity;
  const u64 f = header_->flags.load(std::memory_order_relaxed);
  const bool spill = (f & log_flags::kSpillDrain) != 0;
  if (spill && n > cap) {
    // A run larger than the whole segment can never have space; refuse it
    // outright rather than deadlocking on a wait that cannot succeed.
    sh.dropped.fetch_add(n, std::memory_order_relaxed);
    return false;
  }
  // One reservation covers the whole run: this fetch-and-add is the only
  // shared-memory RMW the hot path pays per flush.
  const u64 first = sh.tail.fetch_add(n, std::memory_order_relaxed);
  const u64 end = first + n;
  u64 d = sh.drained.load(std::memory_order_acquire);
  if (f & log_flags::kRingBuffer) {
    // Ring rule: reclaim at once, no drop. The cursor moves before the
    // fault point below, so a writer killed there still leaves its reserved
    // run inside the window, as tombstones. CAS so a racing writer that
    // advanced further is never rolled back.
    while (end > d + cap) {
      if (sh.drained.compare_exchange_weak(d, end - cap,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
        d = end - cap;
      }
    }
  }
  // Fault point: the writer dying after reserving the run but before
  // storing any of it — a flush can tear up to a whole run of slots, which
  // the analyzer's tombstone accounting must absorb.
  if (fault::fires(fault_points::kLogFlushDie))
    raise(SIGKILL);  // teeperf-lint: allow(r1): the fault IS the syscall
  if (spill) {
    // Spill rule: the run may only be stored over slots the drainer has
    // already consumed and zeroed. If the drainer is dead or hopelessly
    // behind, the spin budget runs out and the writer force-advances the
    // cursor itself: the oldest undrained entries are sacrificed (keep-
    // newest) and every discarded slot is accounted as dropped.
    u64 budget = g_spill_wait_spins.load(std::memory_order_relaxed);
    while (end > d + cap) {
      if (budget == 0) {
        if (sh.drained.compare_exchange_strong(d, end - cap,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
          sh.dropped.fetch_add(end - cap - d, std::memory_order_relaxed);
          d = end - cap;
        }
        budget = g_spill_wait_spins.load(std::memory_order_relaxed);
        continue;
      }
      --budget;
      d = sh.drained.load(std::memory_order_acquire);
    }
  }
  // What the window [d, d + cap) holds of the run: all of it for ring and
  // spill (a ring run longer than the segment keeps its newest cap
  // entries), the prefix below cap for a bounded log, which never reclaims.
  const u64 lo = first > d ? first : d;
  const u64 hi = end < d + cap ? end : d + cap;
  LogEntry* seg = entries_ + sh.entry_offset;
  if (!spill && fault::Registry::instance().any_armed()) {
    for (u32 i = 0; i < n; ++i) {
      // Per-store fault point, same name and semantics as the v1 append: a
      // run dying at its Nth store leaves the already-reserved remainder of
      // the run as tombstones.
      if (fault::fires(fault_points::kLogAppendDie))
        raise(SIGKILL);  // teeperf-lint: allow(r1): the fault IS the syscall
      if (first + i >= lo && first + i < hi) seg[(first + i) % cap] = run[i];
    }
  } else if (hi > lo) {
    // Modulo capacity: at most two memcpy spans.
    const LogEntry* src = run + (lo - first);
    u64 len = hi - lo;
    u64 start = lo % cap;
    u64 head = cap - start < len ? cap - start : len;
    std::memcpy(seg + start, src, static_cast<usize>(head) * sizeof(LogEntry));
    if (head < len) {
      std::memcpy(seg, src + head,
                  static_cast<usize>(len - head) * sizeof(LogEntry));
    }
  }
  if (spill) {
    // In-order publish: wait for every earlier reservation to commit, then
    // release this run. Commit order == reservation order is what makes
    // [drained, published) a contiguous fully-stored window the drainer can
    // consume while the application keeps writing. Only the drainer reads
    // `published`, so bounded and ring writers never wait here.
    while (sh.published.load(std::memory_order_acquire) != first) {
    }
    // Fault point: dying between store and publish — the run (and
    // everything reserved after it) stays unpublished and surfaces as
    // tombstones in the final residue, never as a torn chunk.
    if (fault::fires(fault_points::kLogAppendDie))
      raise(SIGKILL);  // teeperf-lint: allow(r1): the fault IS the syscall
    sh.published.store(end, std::memory_order_release);
    return true;
  }
  // Bounded rule: whatever lies past the window's end is dropped.
  const u64 over = end - (hi > first ? hi : first);
  if (over > 0) sh.dropped.fetch_add(over, std::memory_order_relaxed);
  return over == 0;
}

LogWindow ProfileLog::window(u32 s) const {
  LogWindow w;
  if (!header_) return w;
  const LogEntry* seg = entries_;
  u64 lo = 0;
  u64 hi = 0;
  u64 cap = 0;
  // The window in absolute slot numbers, [lo, hi); slot a lives at
  // seg[a % cap].
  if (shards_) {
    if (s >= header_->shard_count) return w;
    // v2, every policy: [drained, min(tail, drained + cap)). A bounded log
    // never moves drained; ring writers and the spill drainer do.
    const LogShard& sh = shards_[s];
    seg = entries_ + sh.entry_offset;
    cap = sh.capacity;
    lo = sh.drained.load(std::memory_order_acquire);
    hi = sh.tail.load(std::memory_order_acquire);
    if (hi > lo + cap) hi = lo + cap;
  } else {
    // v1: a bounded log holds [0, min(tail, cap)), a wrapped ring the
    // newest capacity-sized window [tail - cap, tail).
    if (s != 0) return w;
    cap = header_->max_entries;
    hi = header_->tail.load(std::memory_order_acquire);
    if (header_->flags.load(std::memory_order_relaxed) & log_flags::kRingBuffer) {
      if (hi > cap) lo = hi - cap;
    } else if (hi > cap) {
      hi = cap;
    }
  }
  if (cap == 0) return w;
  w.start = lo;
  if (hi <= lo) return w;
  u64 len = hi - lo;
  u64 first = lo % cap;
  u64 head = cap - first < len ? cap - first : len;
  w.first = std::span<const LogEntry>(seg + first, static_cast<usize>(head));
  w.second = std::span<const LogEntry>(seg, static_cast<usize>(len - head));
  return w;
}

void ProfileLog::for_each_window(const WindowFn& fn) const {
  for (u32 s = 0; s < window_count(); ++s) {
    LogWindow w = window(s);
    fn(s, w.first, w.second);
  }
}

void ProfileLog::shard_snapshot(u32 s, std::vector<LogEntry>* out) const {
  LogWindow w = window(s);
  out->clear();
  out->reserve(static_cast<usize>(w.size()));
  out->insert(out->end(), w.first.begin(), w.first.end());
  out->insert(out->end(), w.second.begin(), w.second.end());
}

void ProfileLog::snapshot_ordered(std::vector<LogEntry>* out) const {
  out->clear();
  out->reserve(static_cast<usize>(size()));
  for_each_window([out](u32, std::span<const LogEntry> first,
                        std::span<const LogEntry> second) {
    out->insert(out->end(), first.begin(), first.end());
    out->insert(out->end(), second.begin(), second.end());
  });
}

void ProfileLog::compact_parts(LogHeader* header, std::vector<LogShard>* dir,
                               std::vector<std::string_view>* parts) const {
  std::memcpy(static_cast<void*>(header), header_, sizeof(LogHeader));
  header->flags.store(
      flags() & ~(log_flags::kRingBuffer | log_flags::kSpillDrain),
      std::memory_order_relaxed);
  // The replica block is shm-only: compact dumps never carry it, so the
  // header field is zeroed for byte-deterministic output (and so loaders
  // don't go looking for a block that is not there).
  header->counter_replicas = 0;
  u32 n = window_count();
  std::vector<LogWindow> windows(n);
  for (u32 s = 0; s < n; ++s) windows[s] = window(s);
  if (shards_) {
    // v2: pack the written windows back-to-back and rewrite the directory
    // so offsets are cumulative, capacity == tail == the written count, and
    // no wrap/gap logic survives into the file.
    *dir = std::vector<LogShard>(n);
    u64 total = 0;
    for (u32 s = 0; s < n; ++s) {
      LogShard& d = (*dir)[s];
      d.entry_offset = total;
      d.capacity = windows[s].size();
      d.tail.store(windows[s].size(), std::memory_order_relaxed);
      d.dropped.store(shards_[s].dropped.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
      // On disk `drained` carries the window's absolute start cursor (0 for
      // logs that never drained/wrapped, so plain dumps stay byte-
      // identical). The spill loader uses it to stitch chunk files and the
      // final residue into one stream and to skip overlap after a drainer
      // crash/resume.
      d.drained.store(windows[s].start, std::memory_order_relaxed);
      total += windows[s].size();
    }
    header->max_entries = total;
    header->tail.store(0, std::memory_order_relaxed);
  } else {
    dir->clear();
    header->tail.store(windows[0].size(), std::memory_order_relaxed);
  }
  auto bytes = [](std::span<const LogEntry> span) {
    return std::string_view(reinterpret_cast<const char*>(span.data()),
                            span.size_bytes());
  };
  parts->clear();
  parts->push_back(
      std::string_view(reinterpret_cast<const char*>(header), sizeof(LogHeader)));
  if (!dir->empty()) {
    parts->push_back(std::string_view(reinterpret_cast<const char*>(dir->data()),
                                      dir->size() * sizeof(LogShard)));
  }
  for (const LogWindow& w : windows) {
    if (!w.first.empty()) parts->push_back(bytes(w.first));
    if (!w.second.empty()) parts->push_back(bytes(w.second));
  }
}

std::string ProfileLog::serialize_compact() const {
  std::string out;
  if (!header_) return out;
  LogHeader header;
  std::vector<LogShard> dir;
  std::vector<std::string_view> parts;
  compact_parts(&header, &dir, &parts);
  usize total = 0;
  for (std::string_view p : parts) total += p.size();
  out.reserve(total);
  for (std::string_view p : parts) out.append(p);
  return out;
}

bool ProfileLog::write_compact(const std::string& path) const {
  if (!header_) return false;
  LogHeader header;
  std::vector<LogShard> dir;
  std::vector<std::string_view> parts;
  compact_parts(&header, &dir, &parts);
  return write_file_parts(path, parts);
}

bool ProfileLog::dumps_compact() const {
  return shards_ || ((flags() & log_flags::kRingBuffer) &&
                     header_->tail.load(std::memory_order_acquire) >
                         header_->max_entries);
}

std::string_view ProfileLog::raw_dump() const {
  usize bytes =
      sizeof(LogHeader) + static_cast<usize>(size()) * sizeof(LogEntry);
  return std::string_view(reinterpret_cast<const char*>(header_), bytes);
}

bool ProfileLog::write_dump(const std::string& path) const {
  if (!header_) return false;
  return dumps_compact() ? write_compact(path) : write_file(path, raw_dump());
}

std::string ProfileLog::dump_bytes() const {
  if (!header_) return {};
  return dumps_compact() ? serialize_compact() : std::string(raw_dump());
}

u64 ProfileLog::size() const {
  u64 n = 0;
  for (u32 s = 0; s < window_count(); ++s) n += window(s).size();
  return n;
}

u64 ProfileLog::attempted() const {
  if (!header_) return 0;
  if (shards_) {
    u64 n = 0;
    for (u32 s = 0; s < header_->shard_count; ++s) {
      n += shards_[s].tail.load(std::memory_order_acquire);
    }
    return n;
  }
  return header_->tail.load(std::memory_order_acquire);
}

u64 ProfileLog::dropped() const {
  if (!header_) return 0;
  if (shards_) {
    u64 n = 0;
    for (u32 s = 0; s < header_->shard_count; ++s) {
      n += shards_[s].dropped.load(std::memory_order_relaxed);
    }
    return n;
  }
  return header_->dropped.load(std::memory_order_relaxed);
}

void ProfileLog::set_active(bool on) {
  if (on)
    header_->flags.fetch_or(log_flags::kActive, std::memory_order_acq_rel);
  else
    header_->flags.fetch_and(~log_flags::kActive, std::memory_order_acq_rel);
}

bool ProfileLog::active() const {
  return header_ &&
         (header_->flags.load(std::memory_order_acquire) & log_flags::kActive);
}

void ProfileLog::set_flags(u64 set_mask, u64 clear_mask) {
  u64 old = header_->flags.load(std::memory_order_relaxed);
  while (!header_->flags.compare_exchange_weak(old, (old & ~clear_mask) | set_mask,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
  }
}

u64 ProfileLog::flags() const {
  return header_ ? header_->flags.load(std::memory_order_acquire) : 0;
}

u64 ProfileLog::shard_torn_tail(u32 s, u64 scan) const {
  // Scan the newest `scan` entries of the window, newest last. Walking the
  // window (not raw indices from the clamped tail) is what keeps a wrapped
  // ring right: its newest entry sits at (tail - 1) % cap, not at cap - 1.
  LogWindow w = window(s);
  u64 from = w.size() > scan ? w.size() - scan : 0;
  u64 torn = 0;
  for (u64 i = from; i < w.size(); ++i) {
    const LogEntry& e = i < w.first.size() ? w.first[i]
                                           : w.second[i - w.first.size()];
    if (is_tombstone(e)) ++torn;
  }
  return torn;
}

u64 ProfileLog::count_torn_tail(u64 scan) const {
  u64 torn = 0;
  for (u32 s = 0; s < window_count(); ++s) torn += shard_torn_tail(s, scan);
  return torn;
}

bool LogBatch::record(ProfileLog& log, EventKind kind, u64 addr, u64 tid,
                      u64 counter) {
  if (!log.sharded()) return log.append(kind, addr, tid, counter);
  if (count_ == kCapacity || (count_ > 0 && tid_ != tid)) {
    if (!flush(log)) {
      // The shard is full (non-ring): keep counting drops per event instead
      // of silently buffering into a log that will never take them.
      log.shard(log.shard_of(tid))
          ->dropped.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  tid_ = tid;
  LogEntry& e = pending_[count_++];
  e.kind_and_counter = LogEntry::pack(kind, counter);
  e.addr = addr;
  e.tid = tid;
  e.reserved = 0;
  return true;
}

bool LogBatch::flush(ProfileLog& log) {
  if (count_ == 0) return true;
  u32 n = count_;
  count_ = 0;
  return log.append_batch(pending_, n, tid_);
}

}  // namespace teeperf
