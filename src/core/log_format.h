// The TEE-Perf log format (paper §II-B, Figure 2).
//
// The log lives in shared memory mapped between the profiled application
// (inside the TEE) and the recorder wrapper (outside). Two on-disk/in-shm
// layouts exist:
//
//   v1 (the paper's Figure 2): a fixed-size header followed by one
//   append-only array of fixed-size entries. Appending is lock-free: a
//   writer reserves a slot with a fetch-and-add on the single shared tail
//   and then fills it in. Every probe from every thread contends on that
//   one tail cache line.
//
//   v2 (sharded, DESIGN.md "Log format v2"): the header is followed by a
//   shard directory of N cache-line-padded LogShard records and then the
//   entry array, split into N contiguous per-shard segments. A thread's
//   events go to shard `tid % N`, so with enough shards each thread owns
//   its tail and the hot path never bounces a cache line between cores.
//   Writers normally publish through a small thread-local batch (LogBatch):
//   one tail fetch-and-add per flush instead of per event.
//
// Entry order across threads is not globally consistent in either version,
// but per-thread order is — which is all the analyzer needs (§II-C,
// multithreading support). In v2 a thread's entries additionally all live
// in one shard, which is what lets the analyzer reconstruct shards in
// parallel.
#pragma once

#include <atomic>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace teeperf {

// Header flags (Figure 2a). The flags word is atomically readable and
// writable so measurement can be (de)activated while the application runs
// without introducing a critical section (§II-B, stage #1).
namespace log_flags {
inline constexpr u64 kActive = 1ull << 0;         // measurement currently on
inline constexpr u64 kRecordCalls = 1ull << 1;    // record function entries
inline constexpr u64 kRecordReturns = 1ull << 2;  // record function exits
inline constexpr u64 kMultithread = 1ull << 16;   // entries carry thread ids
// Reclaim policy when a run does not fit the window (DESIGN.md §8). Neither
// flag: bounded, the overflow is dropped.
inline constexpr u64 kRingBuffer = 1ull << 17;    // keep the newest window: v2
                                                  // writers advance `drained`
                                                  // themselves (not a drop)
inline constexpr u64 kSpillDrain = 1ull << 18;    // a host-side drainer reclaims
                                                  // consumed windows (src/drain);
                                                  // v2 only, excludes kRingBuffer
}  // namespace log_flags

inline constexpr u32 kLogVersion = 1;         // single shared tail
inline constexpr u32 kLogVersionSharded = 2;  // per-thread shard segments
inline constexpr u64 kLogMagic = 0x5445455045524631ull;  // "TEEPERF1"

// Upper bound a loader will believe for a v2 shard directory. Far above any
// real configuration (the recorder caps at 64); exists so a hostile header
// cannot make the loader allocate a directory-sized world.
inline constexpr u32 kMaxLogShards = 1024;

enum class EventKind : u64 { kCall = 0, kReturn = 1 };

// Log entry (Figure 2b): the top bit of the first word distinguishes call
// from return; the remaining 63 bits hold the counter value at the event.
// 32 bytes so two entries share a cache line and the array stays aligned.
struct LogEntry {
  static constexpr u64 kKindBit = 1ull << 63;

  u64 kind_and_counter = 0;
  u64 addr = 0;  // call/return target: function address or registered id
  u64 tid = 0;   // profiler-assigned thread id (dense, starts at 0)
  u64 reserved = 0;

  static u64 pack(EventKind kind, u64 counter) {
    return (kind == EventKind::kReturn ? kKindBit : 0) | (counter & ~kKindBit);
  }
  EventKind kind() const {
    return (kind_and_counter & kKindBit) ? EventKind::kReturn : EventKind::kCall;
  }
  u64 counter() const { return kind_and_counter & ~kKindBit; }
};
static_assert(sizeof(LogEntry) == 32);

// Log header (Figure 2a). `flags`, `tail` and `counter` are the only fields
// mutated after initialisation; `version` and the rest are written once and
// never changed (§II-B: the version "is static after it is written once").
// In v2 the global `tail` is unused (each shard has its own); `shard_count`
// is nonzero and a LogShard directory follows the header.
struct LogHeader {
  u64 magic = 0;
  std::atomic<u64> flags{0};
  u32 version = 0;
  u32 shard_count = 0;  // v2: directory size; 0 in v1 logs
  u64 shm_base = 0;    // address the shared memory is mapped at in the app
  u64 pid = 0;         // process id of the profiled application
  u64 max_entries = 0; // immutable capacity; writers past this drop entries
  std::atomic<u64> tail{0};       // v1: index of the next entry to write
  u64 profiler_anchor = 0;        // address of a well-known function, used to
                                  // compute the load offset of relocatable code
  std::atomic<u64> counter{0};    // the software counter lives here so the
                                  // counter thread touches one cache line
  u32 counter_mode = 0;           // CounterMode the entries were taken with
  u32 counter_replicas = 0;       // replicated trusted time (DESIGN.md §13):
                                  // number of CounterReplicaSlot words in the
                                  // trailing replica block; 0 = single counter
                                  // (the layout-compatible pre-replica value)
  double ns_per_tick = 0.0;       // calibrated at detach, written at dump;
                                  // lets the analyzer report human time
                                  // (relative profiles do not depend on its
                                  // accuracy)
  std::atomic<u64> dropped{0};    // v1: appends refused when full. Lives in
                                  // the shared header (not the writer
                                  // process) so cross-process readers — the
                                  // watchdog, teeperf_stats, dump-time
                                  // health — see app-side drops. v2 logs
                                  // keep it 0 and count per shard instead.
  u8 reserved1[128 - 12 * 8] = {};  // pad so entries start cache-aligned;
                                    // zeroed so serialized headers are
                                    // byte-deterministic (corpus --gen)
};
static_assert(sizeof(LogHeader) == 128);

// One v2 shard directory record: a contiguous segment of the entry array
// owned by the threads with `tid % shard_count == index`. Cache-line sized
// and aligned so two shards' tails never share a line — the whole point.
struct alignas(64) LogShard {
  u64 entry_offset = 0;            // segment start, as an entry-array index
  u64 capacity = 0;                // segment length in entries
  std::atomic<u64> tail{0};        // slots reserved (may run past capacity)
  std::atomic<u64> dropped{0};     // entries lost, not stored: a bounded
                                   // run's overflow, a spill force-advance
                                   // or an oversized spill run. A ring
                                   // overwrite is not a drop.
  // Cursors, absolute entry counts like tail; the segment is addressed
  // modulo capacity and the window is [drained, min(tail, drained + cap)):
  //   published — spill only (kSpillDrain, DESIGN.md §10): the contiguous
  //               prefix fully stored. Spill writers commit their runs in
  //               reservation order, so [drained, published) is safe for
  //               the drainer to consume while the application runs.
  //   drained   — the window's start. Stays 0 in a bounded log; a ring
  //               writer advances it to tail - capacity as it wraps; in a
  //               spill log it counts the entries the host-side drainer has
  //               consumed (spilled to a chunk file and zeroed), and writers
  //               reuse the space, which is what makes session length
  //               unbounded.
  // In serialized compact dumps/chunks `drained` is repurposed to carry the
  // window's absolute start cursor, so the multi-chunk loader can stitch
  // and deduplicate; `published` is kept 0 on disk.
  std::atomic<u64> published{0};
  std::atomic<u64> drained{0};
  u8 reserved[64 - 6 * 8] = {};  // zeroed: keeps serialized directories
                                 // byte-deterministic
};
static_assert(sizeof(LogShard) == 64);

// Replicated trusted time (DESIGN.md §13). When LogHeader::counter_replicas
// is nonzero, a 64-byte-aligned block follows the entry array:
//
//   [ CounterReplicaDirectory ][ CounterReplicaSlot × counter_replicas ]
//
// Each replica thread increments only its own slot word, so replicas never
// share a cache line; the elected primary additionally mirrors its value
// into LogHeader::counter, which keeps the probe path (one relaxed load of
// the header word) and every pre-replica reader unchanged. The block is
// shm-only: compact dumps zero `counter_replicas` and never serialize it,
// and adopt() of a region too small to hold it degrades to 0 replicas.
inline constexpr u32 kMaxCounterReplicas = 8;

struct alignas(64) CounterReplicaDirectory {
  std::atomic<u32> primary{0};     // elected replica index; written by the
                                   // detector, read by every replica thread
  u32 replica_count = 0;           // immutable after init
  std::atomic<u64> failovers{0};   // elections after the initial one
  std::atomic<u64> backjumps{0};   // replica words observed moving backwards
  u8 reserved[64 - 3 * 8] = {};    // zeroed for deterministic snapshots
};
static_assert(sizeof(CounterReplicaDirectory) == 64);

struct alignas(64) CounterReplicaSlot {
  std::atomic<u64> value{0};     // this replica's monotonic tick word
  u8 reserved[64 - 8] = {};      // pad: one replica per cache line
};
static_assert(sizeof(CounterReplicaSlot) == 64);

// One shard's written window as it sits in the log (DESIGN.md §8), oldest→
// newest: at most two spans, the second non-empty only when a ring or spill
// window wraps past the end of its segment. `start` is the absolute stream
// cursor of the window's first entry: the shard's `drained` in v2 (0 until
// a ring wraps or a drainer consumes), `tail - capacity` for a wrapped v1
// ring, else 0.
// teeperf-lint: allow(r3): process-local view into the log, not shm-resident
struct LogWindow {
  std::span<const LogEntry> first;
  std::span<const LogEntry> second;
  u64 start = 0;

  u64 size() const { return first.size() + second.size(); }
};

// A view over a header + (directory +) entry array placed in a caller-
// provided region. Does not own the memory (the shared-memory region or
// file buffer does).
class ProfileLog {
 public:
  ProfileLog() = default;

  // Formats `buffer` (of `size` bytes) as an empty log. `shard_count` 0
  // formats the classic v1 single-tail layout; 1..kMaxLogShards formats v2
  // with that many equally sized shard segments (capacity rounds down to a
  // multiple of shard_count). Returns false if the buffer cannot hold the
  // header (plus directory) plus at least one entry per shard.
  // `counter_replicas` > 0 additionally formats the trailing replica block
  // (the buffer must be sized with bytes_for_replicated).
  bool init(void* buffer, usize size, u64 pid, u64 initial_flags,
            u32 shard_count = 0, u32 counter_replicas = 0);

  // Adopts an already-formatted log (the analyzer side / reopened shm).
  // Returns false if the magic or version does not match, sizes disagree,
  // or a v2 shard directory points outside the region.
  bool adopt(void* buffer, usize size);

  // Lock-free append (§II-B stage #2). v1 reserves a slot via fetch-and-add
  // on the global tail, then writes the entry: when full it returns false
  // and counts a drop, unless kRingBuffer is set, in which case the slot
  // wraps and the oldest entry is overwritten. v2 builds the entry and
  // stores it as a run of one in the tid's shard, under that log's policy.
  bool append(EventKind kind, u64 addr, u64 tid, u64 counter);

  // Batched publication (v2): stores `n` entries in the tid's shard with a
  // single reservation. All entries must carry the same tid. On a v1 log
  // this degrades to n individual appends. Returns false if any entry
  // dropped.
  bool append_batch(const LogEntry* batch, u32 n, u64 tid);

  // The one ordered view of the log. window(s) is shard `s`'s written
  // window (a v1 log has one window, s == 0): bounded, ring-wrapped and
  // spill-residue windows alike, viewed in place — nothing is copied.
  // window_count() is shard_count() for v2 and 1 for v1 (0 when invalid).
  LogWindow window(u32 s) const;
  u32 window_count() const {
    return header_ ? (shards_ ? header_->shard_count : 1) : 0;
  }

  // Visits every window in directory order as fn(shard, first, second).
  // Each thread's entries lie in one window in program order, which is the
  // analyzer's only ordering requirement.
  using WindowFn = std::function<void(u32 shard, std::span<const LogEntry> first,
                                      std::span<const LogEntry> second)>;
  void for_each_window(const WindowFn& fn) const;

  // Copies the entries in window order into `out`: v1 oldest→newest
  // (handling ring wrap-around); v2 shard 0's window, then shard 1's, ....
  void snapshot_ordered(std::vector<LogEntry>* out) const;

  // Copies one shard's written window, oldest→newest (ring-aware).
  void shard_snapshot(u32 s, std::vector<LogEntry>* out) const;

  // Serializes header + (directory +) written entries as a compact dump:
  // ring logs are normalized to plain order (the ring flag is cleared) and
  // v2 segments are packed back-to-back with the directory rewritten, so
  // the offline loader needs neither wrap logic nor segment gaps.
  std::string serialize_compact() const;

  // Writes exactly serialize_compact()'s bytes to `path` without building
  // them: the rewritten header and directory, then every window's spans
  // straight out of the log, in one gathered write. False on I/O failure.
  bool write_compact(const std::string& path) const;

  // The session dump. v2 and wrapped v1 rings dump in compact form; any
  // other v1 log dumps the raw region prefix, header plus entries
  // [0, size()). write_dump writes it straight out of the log (false on
  // I/O failure); dump_bytes builds the same bytes in memory, for callers
  // that must mangle a copy rather than the live log.
  bool write_dump(const std::string& path) const;
  std::string dump_bytes() const;

  bool valid() const { return header_ != nullptr; }
  bool sharded() const { return shards_ != nullptr; }
  LogHeader* header() { return header_; }
  const LogHeader* header() const { return header_; }

  u32 shard_count() const { return header_ ? header_->shard_count : 0; }
  u32 shard_of(u64 tid) const {
    return shards_ ? static_cast<u32>(tid % header_->shard_count) : 0;
  }
  LogShard* shard(u32 s) { return shards_ ? &shards_[s] : nullptr; }
  const LogShard* shard(u32 s) const { return shards_ ? &shards_[s] : nullptr; }

  // Number of entries in the windows (the sum of window(s).size()).
  // Entries past capacity were dropped or overwritten; spilled entries live
  // in chunk files; entries at the very tail may be torn if the application
  // was killed mid-write, which the analyzer tolerates.
  u64 size() const;
  u64 capacity() const { return header_ ? header_->max_entries : 0; }

  // Appends attempted, including dropped/wrapped ones: the raw tail (v1) or
  // the sum of shard tails (v2).
  u64 attempted() const;

  // Appends refused because the log was full: the shm-resident header word
  // for v1, the (equally shm-resident) shard counters summed for v2. Either
  // way the count is visible to cross-process readers attached to the same
  // region — the watchdog's log.dropped gauge depends on that.
  u64 dropped() const;

  // True when this log runs the spill-drain protocol (kSpillDrain set): a
  // host-side drainer consumes published windows and writers reclaim the
  // space (DESIGN.md §10).
  bool spill() const {
    return shards_ != nullptr && (flags() & log_flags::kSpillDrain) != 0;
  }

  // Spill mode: how many times a writer re-reads the drain cursor waiting
  // for reclaimed space before it force-advances the cursor and sacrifices
  // the oldest undrained entries (counted as drops). The default is a few
  // hundred ms of spinning — far beyond a healthy drainer's poll interval;
  // tests shrink it to exercise the overflow path deterministically.
  static void set_spill_wait_spins(u64 n);
  static u64 spill_wait_spins();

  const LogEntry& entry(u64 i) const { return entries_[i]; }
  LogEntry* entries() { return entries_; }

  // Bytes needed for a log with `max_entries` entries across `shard_count`
  // shards (0 = v1 layout).
  static usize bytes_for(u64 max_entries, u32 shard_count = 0) {
    return sizeof(LogHeader) +
           static_cast<usize>(shard_count) * sizeof(LogShard) +
           static_cast<usize>(max_entries) * sizeof(LogEntry);
  }

  // Bytes including the trailing replica block (64-byte aligned so replica
  // slots stay cache-line isolated regardless of the entry count).
  static usize bytes_for_replicated(u64 max_entries, u32 shard_count,
                                    u32 counter_replicas) {
    usize base = bytes_for(max_entries, shard_count);
    if (counter_replicas == 0) return base;
    usize aligned = (base + 63) & ~usize{63};
    return aligned + sizeof(CounterReplicaDirectory) +
           static_cast<usize>(counter_replicas) * sizeof(CounterReplicaSlot);
  }

  // Replica-block views (null / 0 for single-counter logs and for loaded
  // dumps, whose regions never carry the block).
  u32 counter_replica_count() const {
    return replica_dir_ ? replica_dir_->replica_count : 0;
  }
  CounterReplicaDirectory* replica_directory() { return replica_dir_; }
  const CounterReplicaDirectory* replica_directory() const {
    return replica_dir_;
  }
  CounterReplicaSlot* replica_slot(u32 i) {
    return replica_slots_ ? &replica_slots_[i] : nullptr;
  }
  const CounterReplicaSlot* replica_slot(u32 i) const {
    return replica_slots_ ? &replica_slots_[i] : nullptr;
  }

  // Flag helpers (atomic; usable while the application runs).
  void set_active(bool on);
  bool active() const;
  void set_flags(u64 set_mask, u64 clear_mask);
  u64 flags() const;

  // Counts torn entries at the tail: slots that were reserved (a tail moved
  // past them) but never filled in — all-zero words — because a writer died
  // between the fetch-and-add and the stores. A batched v2 writer can leave
  // up to a whole batch of them. Scans at most the last `scan` written
  // entries per window; run at dump time, after writers stopped.
  u64 count_torn_tail(u64 scan = 64) const;

  // The per-window torn-tail count (v2; window 0 == the whole log for v1).
  u64 shard_torn_tail(u32 s, u64 scan = 64) const;

 private:
  // The one v2 store (DESIGN.md §8): reserves [first, first + n) in `sh`
  // with one tail fetch-and-add. Where the run does not fit the window
  // [drained, drained + capacity), the log's policy applies — bounded drops
  // the overflow, ring advances `drained` at once, spill waits for the
  // drainer and then force-advances. The part inside the window is stored
  // modulo capacity in at most two memcpy spans; spill then publishes it in
  // reservation order via `sh.published`. False if any entry dropped.
  bool store(LogShard& sh, const LogEntry* run, u32 n);

  // True when the dump is compact; else raw_dump() is the dump.
  bool dumps_compact() const;
  std::string_view raw_dump() const;

  // The compact dump as pieces: `*header` and `*dir` receive the rewritten
  // header and directory, `*parts` views them followed by the windows'
  // spans in the log. serialize_compact and write_compact share it.
  void compact_parts(LogHeader* header, std::vector<LogShard>* dir,
                     std::vector<std::string_view>* parts) const;

  LogHeader* header_ = nullptr;
  LogShard* shards_ = nullptr;  // null for v1 logs
  LogEntry* entries_ = nullptr;
  CounterReplicaDirectory* replica_dir_ = nullptr;  // null unless the region
  CounterReplicaSlot* replica_slots_ = nullptr;     // carries a replica block
};

// Thread-local batching front-end for the hot path (§II-B stage #2, v2):
// events accumulate in a small local buffer and publish with one shard-tail
// reservation per flush, so the per-probe cost is a handful of L1 stores
// plus 1/kCapacity of an atomic RMW. The runtime flushes on batch overflow,
// on a function exit that returns the thread to depth 0, on observing
// deactivation, and at thread exit (DESIGN.md "Batching rules"). On a v1
// log record() appends directly — v1 semantics are exactly the old ones.
class LogBatch {
 public:
  static constexpr u32 kCapacity = 32;

  // Buffers one event (flushing first if the buffer is full or the tid
  // changed). Returns false only when a direct v1 append dropped.
  bool record(ProfileLog& log, EventKind kind, u64 addr, u64 tid, u64 counter);

  // Publishes all pending entries to the tid's shard. False if any dropped.
  bool flush(ProfileLog& log);

  u32 pending() const { return count_; }

  // Discards pending entries without publishing (detached/reset paths).
  void abandon() { count_ = 0; }

 private:
  LogEntry pending_[kCapacity];
  u32 count_ = 0;
  u64 tid_ = 0;
};

}  // namespace teeperf
