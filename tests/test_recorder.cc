// Tests for the recorder (stage #2): runtime hooks, scopes, filters,
// dynamic activation, multithreaded recording, dump/load round trip.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <map>
#include <span>
#include <thread>

#include "analyzer/profile.h"
#include "common/fileutil.h"
#include "common/spin.h"
#include "core/profiler.h"

namespace teeperf {
namespace {

// RAII: every test leaves the global runtime detached.
class RecorderTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (runtime::attached()) runtime::detach();
    runtime::reset_thread_for_test();
  }

  std::unique_ptr<Recorder> make(RecorderOptions opts = {}) {
    opts.counter_mode = CounterMode::kSteadyClock;
    auto rec = Recorder::create(opts);
    EXPECT_NE(rec, nullptr);
    return rec;
  }
};

TEST_F(RecorderTest, CreateFormatsLog) {
  auto rec = make();
  EXPECT_TRUE(rec->log().valid());
  EXPECT_EQ(rec->log().size(), 0u);
  EXPECT_TRUE(rec->log().active());
  EXPECT_TRUE(rec->log().flags() & log_flags::kMultithread);
}

TEST_F(RecorderTest, ScopeEmitsCallAndReturn) {
  auto rec = make();
  ASSERT_TRUE(rec->attach());
  u64 id = SymbolRegistry::instance().intern("unit::work");
  {
    Scope s(id);
  }
  rec->detach();
  ASSERT_EQ(rec->log().size(), 2u);
  EXPECT_EQ(rec->log().entry(0).kind(), EventKind::kCall);
  EXPECT_EQ(rec->log().entry(0).addr, id);
  EXPECT_EQ(rec->log().entry(1).kind(), EventKind::kReturn);
  EXPECT_EQ(rec->log().entry(1).addr, id);
  EXPECT_GE(rec->log().entry(1).counter(), rec->log().entry(0).counter());
}

TEST_F(RecorderTest, NoEventsWhenDetached) {
  auto rec = make();
  u64 id = SymbolRegistry::instance().intern("unit::ignored");
  {
    Scope s(id);
  }
  EXPECT_EQ(rec->log().size(), 0u);
}

TEST_F(RecorderTest, OnlyOneSessionAtATime) {
  auto rec1 = make();
  auto rec2 = make();
  ASSERT_TRUE(rec1->attach());
  EXPECT_FALSE(rec2->attach());
  rec1->detach();
  EXPECT_TRUE(rec2->attach());
}

TEST_F(RecorderTest, DynamicStartStop) {
  auto rec = make();
  ASSERT_TRUE(rec->attach());
  u64 id = SymbolRegistry::instance().intern("unit::toggled");

  rec->stop();
  { Scope s(id); }
  EXPECT_EQ(rec->log().size(), 0u);

  rec->start();
  { Scope s(id); }
  EXPECT_EQ(rec->log().size(), 2u);

  rec->stop();
  { Scope s(id); }
  EXPECT_EQ(rec->log().size(), 2u);
}

TEST_F(RecorderTest, RecordMaskSelectsEventKinds) {
  RecorderOptions opts;
  opts.record_returns = false;
  auto rec = make(opts);
  ASSERT_TRUE(rec->attach());
  u64 id = SymbolRegistry::instance().intern("unit::calls_only");
  { Scope s(id); }
  ASSERT_EQ(rec->log().size(), 1u);
  EXPECT_EQ(rec->log().entry(0).kind(), EventKind::kCall);
}

TEST_F(RecorderTest, FilterAllowlist) {
  Filter filter(Filter::Mode::kAllowlist);
  u64 wanted = filter.add_name("unit::wanted");
  u64 unwanted = SymbolRegistry::instance().intern("unit::unwanted");

  RecorderOptions opts;
  opts.filter = &filter;
  auto rec = make(opts);
  ASSERT_TRUE(rec->attach());
  {
    Scope a(wanted);
    Scope b(unwanted);
  }
  rec->detach();
  ASSERT_EQ(rec->log().size(), 2u);
  EXPECT_EQ(rec->log().entry(0).addr, wanted);
  EXPECT_EQ(rec->log().entry(1).addr, wanted);
}

TEST_F(RecorderTest, FilterDenylist) {
  Filter filter(Filter::Mode::kDenylist);
  u64 noisy = filter.add_name("unit::noisy");
  u64 kept = SymbolRegistry::instance().intern("unit::kept");

  RecorderOptions opts;
  opts.filter = &filter;
  auto rec = make(opts);
  ASSERT_TRUE(rec->attach());
  {
    Scope a(noisy);
    Scope b(kept);
  }
  rec->detach();
  ASSERT_EQ(rec->log().size(), 2u);
  EXPECT_EQ(rec->log().entry(0).addr, kept);
}

TEST_F(RecorderTest, TeeperfScopeMacroRegistersName) {
  auto rec = make();
  ASSERT_TRUE(rec->attach());
  {
    TEEPERF_SCOPE("unit::macro_scope");
  }
  rec->detach();
  ASSERT_EQ(rec->log().size(), 2u);
  EXPECT_EQ(SymbolRegistry::instance().name_of(rec->log().entry(0).addr),
            "unit::macro_scope");
}

TEST_F(RecorderTest, MultithreadedRecordingKeepsPerThreadOrder) {
  RecorderOptions opts;
  opts.max_entries = 1u << 16;
  auto rec = make(opts);
  ASSERT_TRUE(rec->attach());

  u64 outer = SymbolRegistry::instance().intern("mt::outer");
  u64 inner = SymbolRegistry::instance().intern("mt::inner");

  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        Scope a(outer);
        Scope b(inner);
      }
    });
  }
  for (auto& th : threads) th.join();
  rec->detach();

  // Per thread: perfectly nested call/return sequences. Walk the windows,
  // not entry(i) for i < size(): with auto shards the entry array has
  // per-shard gaps, and a flat index reads unwritten slots.
  std::map<u64, int> depth;
  std::map<u64, u64> events;
  auto walk = [&](std::span<const LogEntry> span) {
    for (const LogEntry& e : span) {
      int& d = depth[e.tid];
      if (e.kind() == EventKind::kCall) {
        ++d;
        EXPECT_LE(d, 2);
      } else {
        --d;
        EXPECT_GE(d, 0);
      }
      ++events[e.tid];
    }
  };
  rec->log().for_each_window([&](u32, std::span<const LogEntry> first,
                                 std::span<const LogEntry> second) {
    walk(first);
    walk(second);
  });
  for (auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "tid " << tid;
  EXPECT_EQ(events.size(), static_cast<usize>(kThreads));
  for (auto& [tid, n] : events) EXPECT_EQ(n, kIters * 4u) << "tid " << tid;
}

TEST_F(RecorderTest, StatsCountDrops) {
  RecorderOptions opts;
  opts.max_entries = 4;
  auto rec = make(opts);
  ASSERT_TRUE(rec->attach());
  u64 id = SymbolRegistry::instance().intern("unit::flood");
  for (int i = 0; i < 10; ++i) {
    Scope s(id);
  }
  rec->detach();
  auto st = rec->stats();
  EXPECT_EQ(st.entries, 4u);
  EXPECT_EQ(st.capacity, 4u);
  EXPECT_EQ(st.dropped, 16u);
}

TEST_F(RecorderTest, DumpAndLoadRoundTrip) {
  std::string dir = make_temp_dir("teeperf_rec_");
  auto rec = make();
  ASSERT_TRUE(rec->attach());
  {
    TEEPERF_SCOPE("dump::parent");
    TEEPERF_SCOPE("dump::child");
  }
  rec->detach();
  ASSERT_TRUE(rec->dump(dir + "/run"));
  EXPECT_TRUE(file_exists(dir + "/run.log"));
  EXPECT_TRUE(file_exists(dir + "/run.sym"));

  auto profile = analyzer::Profile::load(dir + "/run");
  ASSERT_TRUE(profile.has_value());
  EXPECT_EQ(profile->recon_stats().entries, 4u);
  ASSERT_EQ(profile->invocations().size(), 2u);
  EXPECT_EQ(profile->name(profile->invocations()[0].method), "dump::parent");
  EXPECT_EQ(profile->name(profile->invocations()[1].method), "dump::child");
  EXPECT_GT(profile->ns_per_tick(), 0.0);
  remove_tree(dir);
}

TEST_F(RecorderTest, SoftwareCounterCalibratedAtDetach) {
  // The tick rate must be taken while the counter runs. Calibrating at dump
  // time, after detach stopped the counter, measured a frozen word and
  // wrote ns_per_tick = 0 for every detach → dump session.
  std::string dir = make_temp_dir("teeperf_calib_");
  RecorderOptions opts;
  opts.counter_mode = CounterMode::kSoftware;
  opts.software_counter_yield = 1024;  // single-core safety
  auto rec = Recorder::create(opts);
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->attach());
  const LogHeader* h = rec->log().header();
  u64 deadline = monotonic_ns() + 2'000'000'000ull;
  while (h->counter.load(std::memory_order_relaxed) == 0 &&
         monotonic_ns() < deadline) {
    std::this_thread::yield();
  }
  // Reference rate read from the outside over the window the recorder
  // calibrates on: the counter's run (from its first visible tick) up to
  // detach. With a yielding counter on a loaded host the word advances in
  // scheduler-quantum bursts, so the window must also be long enough that
  // the unobservable edges (thread start-up, detach) stay a few quanta —
  // far under the 20% bound.
  u64 c0 = h->counter.load(std::memory_order_relaxed);
  u64 t0 = monotonic_ns();
  while (monotonic_ns() - t0 < 100'000'000ull) {
    TEEPERF_SCOPE("calib::tick");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  u64 c1 = h->counter.load(std::memory_order_relaxed);
  u64 t1 = monotonic_ns();
  rec->detach();
  ASSERT_TRUE(rec->dump(dir + "/run"));

  auto profile = analyzer::Profile::load(dir + "/run");
  ASSERT_TRUE(profile.has_value());
  ASSERT_GT(c1, c0);
  double wall_per_tick =
      static_cast<double>(t1 - t0) / static_cast<double>(c1 - c0);
  EXPECT_GT(profile->ns_per_tick(), 0.0);
  EXPECT_NEAR(profile->ns_per_tick(), wall_per_tick, 0.2 * wall_per_tick);
  remove_tree(dir);
}

TEST_F(RecorderTest, NamedShmSession) {
  RecorderOptions opts;
  opts.shm_name = "/teeperf_rec_" + std::to_string(::getpid());
  auto rec = make(opts);
  ASSERT_TRUE(rec->attach());
  {
    TEEPERF_SCOPE("shm::scoped");
  }
  rec->detach();
  EXPECT_EQ(rec->log().size(), 2u);

  // A second process-side mapping sees the same entries.
  SharedMemoryRegion view;
  ASSERT_TRUE(view.open(opts.shm_name));
  ProfileLog adopted;
  ASSERT_TRUE(adopted.adopt(view.data(), view.size()));
  EXPECT_EQ(adopted.size(), 2u);
}

TEST_F(RecorderTest, SoftwareCounterSessionRecords) {
  RecorderOptions opts;
  opts.counter_mode = CounterMode::kSoftware;
  opts.software_counter_yield = 1024;  // single-core safety
  auto rec = Recorder::create(opts);
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->attach());
  for (int i = 0; i < 50; ++i) {
    TEEPERF_SCOPE("swc::tick");
    std::this_thread::yield();
  }
  rec->detach();
  ASSERT_EQ(rec->log().size(), 100u);
  // The counter must have advanced across the run (monotone overall).
  EXPECT_GE(rec->log().entry(99).counter(), rec->log().entry(0).counter());
}

}  // namespace
}  // namespace teeperf
