// Tests for the TEE-Perf log format (§II-B, Figure 2): layout invariants,
// lock-free append, flag atomics, overflow behaviour, and the concurrent
// reservation property (every slot written exactly once).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/log_format.h"
#include "core/recorder.h"
#include "obs/metric_names.h"

namespace teeperf {
namespace {

TEST(LogFormat, LayoutInvariants) {
  EXPECT_EQ(sizeof(LogEntry), 32u);
  EXPECT_EQ(sizeof(LogHeader), 128u);
  EXPECT_EQ(sizeof(LogHeader) % alignof(LogEntry), 0u);
}

TEST(LogFormat, EntryPackRoundTrip) {
  for (u64 counter : {0ull, 1ull, 123456789ull, (1ull << 62)}) {
    LogEntry e;
    e.kind_and_counter = LogEntry::pack(EventKind::kCall, counter);
    EXPECT_EQ(e.kind(), EventKind::kCall);
    EXPECT_EQ(e.counter(), counter);
    e.kind_and_counter = LogEntry::pack(EventKind::kReturn, counter);
    EXPECT_EQ(e.kind(), EventKind::kReturn);
    EXPECT_EQ(e.counter(), counter);
  }
}

class ProfileLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    buf_.resize(ProfileLog::bytes_for(64));
    ASSERT_TRUE(log_.init(buf_.data(), buf_.size(), 1234,
                          log_flags::kActive | log_flags::kRecordCalls |
                              log_flags::kRecordReturns));
  }
  std::vector<u8> buf_;
  ProfileLog log_;
};

TEST_F(ProfileLogTest, InitSetsHeader) {
  const LogHeader* h = log_.header();
  EXPECT_EQ(h->magic, kLogMagic);
  EXPECT_EQ(h->version, kLogVersion);
  EXPECT_EQ(h->pid, 1234u);
  EXPECT_EQ(h->max_entries, 64u);
  EXPECT_EQ(h->tail.load(), 0u);
  EXPECT_NE(h->profiler_anchor, 0u);
  EXPECT_TRUE(log_.active());
}

TEST_F(ProfileLogTest, InitRejectsTinyBuffer) {
  ProfileLog small;
  u8 tiny[64];
  EXPECT_FALSE(small.init(tiny, sizeof tiny, 1, 0));
  EXPECT_FALSE(small.valid());
}

TEST_F(ProfileLogTest, AppendWritesEntry) {
  ASSERT_TRUE(log_.append(EventKind::kCall, 0xabc, 7, 100));
  ASSERT_EQ(log_.size(), 1u);
  const LogEntry& e = log_.entry(0);
  EXPECT_EQ(e.kind(), EventKind::kCall);
  EXPECT_EQ(e.addr, 0xabcu);
  EXPECT_EQ(e.tid, 7u);
  EXPECT_EQ(e.counter(), 100u);
}

TEST_F(ProfileLogTest, AppendStopsAtCapacity) {
  for (u64 i = 0; i < 64; ++i) {
    EXPECT_TRUE(log_.append(EventKind::kCall, i, 0, i));
  }
  EXPECT_FALSE(log_.append(EventKind::kCall, 99, 0, 99));
  EXPECT_EQ(log_.size(), 64u);
  EXPECT_EQ(log_.dropped(), 1u);
  // Size stays clamped even though the tail keeps advancing.
  EXPECT_FALSE(log_.append(EventKind::kReturn, 100, 0, 100));
  EXPECT_EQ(log_.size(), 64u);
  EXPECT_EQ(log_.dropped(), 2u);
}

TEST_F(ProfileLogTest, FlagToggles) {
  EXPECT_TRUE(log_.active());
  log_.set_active(false);
  EXPECT_FALSE(log_.active());
  log_.set_active(true);
  EXPECT_TRUE(log_.active());

  log_.set_flags(log_flags::kMultithread, log_flags::kRecordReturns);
  EXPECT_TRUE(log_.flags() & log_flags::kMultithread);
  EXPECT_FALSE(log_.flags() & log_flags::kRecordReturns);
  EXPECT_TRUE(log_.flags() & log_flags::kRecordCalls);
}

TEST_F(ProfileLogTest, AdoptExistingLog) {
  log_.append(EventKind::kCall, 0x1, 0, 10);
  log_.append(EventKind::kReturn, 0x1, 0, 20);

  ProfileLog other;
  ASSERT_TRUE(other.adopt(buf_.data(), buf_.size()));
  EXPECT_EQ(other.size(), 2u);
  EXPECT_EQ(other.entry(1).kind(), EventKind::kReturn);
  EXPECT_EQ(other.header()->pid, 1234u);
}

TEST_F(ProfileLogTest, AdoptRejectsBadMagic) {
  log_.header()->magic = 0x1111;
  ProfileLog other;
  EXPECT_FALSE(other.adopt(buf_.data(), buf_.size()));
}

TEST_F(ProfileLogTest, AdoptRejectsBadVersion) {
  log_.header()->version = 99;
  ProfileLog other;
  EXPECT_FALSE(other.adopt(buf_.data(), buf_.size()));
}

TEST_F(ProfileLogTest, AdoptRejectsTruncatedBuffer) {
  ProfileLog other;
  // Claim more entries than the buffer holds.
  log_.header()->max_entries = 10'000;
  EXPECT_FALSE(other.adopt(buf_.data(), buf_.size()));
}

// --- ring-buffer mode ---------------------------------------------------------

TEST(RingLog, WrapsInsteadOfDropping) {
  std::vector<u8> buf(ProfileLog::bytes_for(8));
  ProfileLog log;
  ASSERT_TRUE(log.init(buf.data(), buf.size(), 1,
                       log_flags::kActive | log_flags::kRingBuffer));
  for (u64 i = 0; i < 20; ++i) {
    EXPECT_TRUE(log.append(EventKind::kCall, 100 + i, 0, i));
  }
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_EQ(log.size(), 8u);  // capacity-clamped view

  std::vector<LogEntry> ordered;
  log.snapshot_ordered(&ordered);
  ASSERT_EQ(ordered.size(), 8u);
  // The newest 8 entries (12..19) survive, oldest-first.
  for (u64 i = 0; i < 8; ++i) {
    EXPECT_EQ(ordered[i].addr, 100 + 12 + i);
    EXPECT_EQ(ordered[i].counter(), 12 + i);
  }
}

TEST(RingLog, SnapshotBeforeWrapIsPlainOrder) {
  std::vector<u8> buf(ProfileLog::bytes_for(8));
  ProfileLog log;
  ASSERT_TRUE(log.init(buf.data(), buf.size(), 1,
                       log_flags::kActive | log_flags::kRingBuffer));
  for (u64 i = 0; i < 5; ++i) log.append(EventKind::kCall, i, 0, i);
  std::vector<LogEntry> ordered;
  log.snapshot_ordered(&ordered);
  ASSERT_EQ(ordered.size(), 5u);
  EXPECT_EQ(ordered[0].addr, 0u);
  EXPECT_EQ(ordered[4].addr, 4u);
}

TEST(RingLog, NonRingSnapshotMatchesEntries) {
  std::vector<u8> buf(ProfileLog::bytes_for(8));
  ProfileLog log;
  ASSERT_TRUE(log.init(buf.data(), buf.size(), 1, log_flags::kActive));
  for (u64 i = 0; i < 12; ++i) log.append(EventKind::kCall, i, 0, i);
  EXPECT_EQ(log.dropped(), 4u);
  std::vector<LogEntry> ordered;
  log.snapshot_ordered(&ordered);
  EXPECT_EQ(ordered.size(), 8u);
  EXPECT_EQ(ordered[7].addr, 7u);
}

// Ring writers sharing a shard CAS one drain cursor. After a concurrent
// session each shard's window is exactly its newest capacity entries,
// nothing counts as dropped, and the attempted count and the watchdog's
// log.ring_wraps gauge are what the raw tails say.
//
// Ring writers never wait on each other, so a writer can overwrite a slot
// whose previous store it has no happens-before edge to (the lapped-writer
// race DESIGN.md §8 accepts). The writers fill exactly one lap, meet at a
// barrier, then write exactly one more: every overwrite then follows the
// store it replaces, and the test stays clean under ThreadSanitizer while
// the second lap still races the cursor CAS.
TEST(RingLog, ConcurrentWritersShareOneCursor) {
  constexpr int kThreads = 4;  // two per shard
  constexpr u64 kPerThread = 2048;  // per shard: two laps of 2048
  RecorderOptions opts;
  opts.max_entries = 4096;
  opts.shards = 2;
  opts.ring_buffer = true;
  opts.counter_mode = CounterMode::kSteadyClock;
  opts.publish_session = false;
  opts.watchdog_interval_ms = 5;
  auto rec = Recorder::create(opts);
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->attach());
  ProfileLog& log = rec->log();
  ASSERT_EQ(log.shard_count(), 2u);

  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, &arrived, t] {
      LogBatch b;
      for (u64 i = 0; i < kPerThread; ++i) {
        if (i == kPerThread / 2) {
          b.flush(log);
          arrived.fetch_add(1, std::memory_order_acq_rel);
          while (arrived.load(std::memory_order_acquire) < kThreads) {
            std::this_thread::yield();
          }
        }
        b.record(log, i % 2 ? EventKind::kReturn : EventKind::kCall,
                 0x1000 + static_cast<u64>(t), static_cast<u64>(t), i + 1);
      }
      b.flush(log);
    });
  }
  for (auto& th : threads) th.join();

  const u64 total = kThreads * kPerThread;
  Recorder::Stats st = rec->stats();
  EXPECT_EQ(st.attempted, total);
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_EQ(log.dropped(), 0u);
  for (u32 s = 0; s < log.shard_count(); ++s) {
    const LogShard& sh = *log.shard(s);
    u64 tail = sh.tail.load(std::memory_order_acquire);
    ASSERT_EQ(tail, 2 * sh.capacity);
    EXPECT_EQ(sh.drained.load(std::memory_order_acquire), tail - sh.capacity);
    LogWindow w = log.window(s);
    EXPECT_EQ(w.start, tail - sh.capacity);
    EXPECT_EQ(w.size(), sh.capacity);
    for (std::span<const LogEntry> span : {w.first, w.second}) {
      for (const LogEntry& e : span) {
        EXPECT_EQ(e.tid % log.shard_count(), s);
        EXPECT_NE(e.addr, 0u);
      }
    }
  }
  EXPECT_EQ(log.count_torn_tail(~0ull), 0u);

  obs::Gauge wraps = rec->telemetry()->registry().gauge(
      obs::metric_names::kLogRingWraps);
  const u64 expect_wraps = total / log.capacity();
  for (int i = 0; i < 2000 && wraps.value() != expect_wraps; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(wraps.value(), expect_wraps);
  rec->detach();
}

// Property: under concurrent appends, every slot 0..capacity-1 is written
// exactly once and no entry is torn (each writer uses a distinct addr).
TEST(ProfileLogConcurrency, EverySlotWrittenOnce) {
  constexpr u64 kCapacity = 32768;
  constexpr int kThreads = 8;
  std::vector<u8> buf(ProfileLog::bytes_for(kCapacity));
  ProfileLog log;
  ASSERT_TRUE(log.init(buf.data(), buf.size(), 1, log_flags::kActive));

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      // Each thread writes until the log is full; addr encodes the writer
      // and a per-thread sequence number.
      u64 i = 0;
      while (log.append(EventKind::kCall, (static_cast<u64>(t) << 32) | i,
                        static_cast<u64>(t), i)) {
        ++i;
      }
    });
  }
  for (auto& th : threads) th.join();

  ASSERT_EQ(log.size(), kCapacity);
  // Per-writer sequence numbers must appear in order when filtered by tid
  // (per-thread ordering is the log's contract).
  u64 next_seq[kThreads] = {};
  for (u64 s = 0; s < kCapacity; ++s) {
    const LogEntry& e = log.entry(s);
    u64 writer = e.addr >> 32;
    u64 seq = e.addr & 0xffffffffull;
    ASSERT_LT(writer, static_cast<u64>(kThreads));
    EXPECT_EQ(e.tid, writer);
    EXPECT_EQ(seq, next_seq[writer]) << "slot " << s;
    ++next_seq[writer];
  }
  u64 total = 0;
  for (u64 n : next_seq) total += n;
  EXPECT_EQ(total, kCapacity);
}

}  // namespace
}  // namespace teeperf
