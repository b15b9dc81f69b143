// Exhaustive-interleaving verification of the v2 batch-flush / tail-publish
// / torn-tail-tombstone protocol (tests/model/). Every schedule of two
// writers hammering one shard is explored; the dump-time reader must
// recover exactly the committed entries, in per-writer program order, with
// exact tombstone accounting — across ALL interleavings, not the handful a
// stress test happens to hit. The sleep-set reduction is validated against
// the unreduced explorer, and two seeded protocol bugs prove the harness
// actually fails when the protocol is wrong.
#include "tests/model/shm_log_model.h"

#include <gtest/gtest.h>

#include "tests/model/model_checker.h"
#include "tests/model/spill_model.h"

namespace teeperf::model {
namespace {

CheckResult check(const ShmLogModel& m, bool reduce = true) {
  Checker<ShmLogModel> checker(m, reduce);
  return checker.run();
}

TEST(ModelChecker, TinyConfigIsExhaustive) {
  // Two writers, one flush of one entry each: 2 steps per writer, so the
  // full schedule space is C(4,2) = 6 interleavings. The unreduced DFS
  // must execute exactly all of them.
  ShmLogModel m({{{1}}, {{1}}});
  CheckResult naive = check(m, /*reduce=*/false);
  EXPECT_TRUE(naive.ok) << naive.violation;
  EXPECT_EQ(naive.interleavings, 6u);

  CheckResult reduced = check(m, /*reduce=*/true);
  EXPECT_TRUE(reduced.ok) << reduced.violation;
  EXPECT_LE(reduced.interleavings, naive.interleavings);
  // Soundness of the reduction: same reachable terminal states.
  EXPECT_EQ(reduced.terminals, naive.terminals);
}

TEST(ModelChecker, SleepSetReductionPreservesTerminalStates) {
  const std::vector<std::vector<WriterProgram>> configs = {
      {{{2, 1}}, {{1, 2}}},
      {{{3}}, {{3}}},
      {{{1, 1}, 1}, {{2}}},  // writer 0 crashes after its first reserve
      {{{3, 3}}, {{3, 3}}},  // the largest configuration in the sweep
  };
  for (const auto& cfg : configs) {
    ShmLogModel m(cfg);
    CheckResult naive = check(m, false);
    CheckResult reduced = check(m, true);
    EXPECT_TRUE(naive.ok) << naive.violation;
    EXPECT_TRUE(reduced.ok) << reduced.violation;
    EXPECT_EQ(reduced.terminals, naive.terminals);
    EXPECT_LE(reduced.interleavings, naive.interleavings);
    EXPECT_GT(reduced.pruned, 0u);  // the reduction actually reduces
  }
}

TEST(ModelChecker, AllBatchSizesAllInterleavings) {
  // The ISSUE-level property: 2 writers x 2 flushes x batch sizes <= 3,
  // every combination, every interleaving — no loss, no double
  // publication, order preserved.
  u64 total_interleavings = 0;
  for (int a = 1; a <= 3; ++a) {
    for (int b = 1; b <= 3; ++b) {
      for (int c = 1; c <= 3; ++c) {
        for (int d = 1; d <= 3; ++d) {
          ShmLogModel m({{{a, b}}, {{c, d}}});
          CheckResult r = check(m);
          ASSERT_TRUE(r.ok) << "batches (" << a << "," << b << ")/(" << c
                            << "," << d << "): " << r.violation;
          total_interleavings += r.interleavings;
        }
      }
    }
  }
  EXPECT_GT(total_interleavings, 0u);
}

TEST(ModelChecker, CrashAtEveryStepKeepsTombstoneAccountingExact) {
  // Truncate writer 0 after every possible step: each truncation models a
  // SIGKILL mid-flush (the log.append.die / log.flush.die fault points).
  // The reader's tombstone count must stay exact in every interleaving.
  bool saw_tombstones = false;
  const std::vector<int> w0 = {3, 2}, w1 = {2, 3};
  const int w0_steps = 2 + 3 + 2;  // 2 reserves + 5 stores
  for (int crash = 0; crash <= w0_steps; ++crash) {
    ShmLogModel m({{w0, crash}, {w1}});
    if (m.expected_tombstones() > 0) saw_tombstones = true;
    CheckResult r = check(m);
    ASSERT_TRUE(r.ok) << "crash after " << crash << ": " << r.violation;
  }
  // The sweep must actually exercise reserved-but-unwritten slots.
  EXPECT_TRUE(saw_tombstones);

  // Symmetric: writer 1 dies mid-batch while writer 0 runs to completion.
  ShmLogModel m({{w0}, {w1, 1}});
  EXPECT_GT(m.expected_tombstones(), 0);
  CheckResult r = check(m);
  EXPECT_TRUE(r.ok) << r.violation;
}

TEST(ModelChecker, DetectsSplitReservation) {
  // Seeded bug: reservation as load-then-store instead of fetch_add. Two
  // writers can claim the same run; the checker must find a schedule where
  // publication breaks (it is NOT findable in sequential schedules, which
  // is why a bounded-interleaving search is required at all).
  ShmLogModel m({{{1}}, {{1}}}, Bug::kSplitReserve);
  CheckResult r = check(m);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.violation.empty());
  EXPECT_FALSE(r.violating_trace.empty());
  // The unreduced explorer agrees (the reduction lost no violating trace).
  CheckResult naive = check(m, false);
  EXPECT_FALSE(naive.ok);
}

TEST(ModelChecker, DetectsReaderIgnoringTombstones) {
  // Seeded bug: the reader recovers reserved-but-unwritten slots as
  // entries. Only a crashed writer exposes it — with the batch reserved
  // and zero of it stored, every interleaving leaves torn slots behind.
  ShmLogModel m({{{2}, 1}, {{1}}}, Bug::kNoTombstoneScan);
  CheckResult r = check(m);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.violation.find("never committed"), std::string::npos)
      << r.violation;
}

// ---- Spill-drain protocol (tests/model/spill_model.h) ----
//
// Spill configurations always run UNREDUCED: the model blocks threads via
// enabled() conditions over other threads' variables (the space wait, the
// in-order publish wait, the drainer's work wait), which the sleep-set
// reduction does not track. Configurations are sized for plain DFS.

CheckResult check_spill(const SpillLogModel& m) {
  Checker<SpillLogModel> checker(m, /*reduce=*/false);
  return checker.run();
}

TEST(SpillModel, MinimalConfigScheduleCountIsExact) {
  // One writer, one entry, one drain round. The writer's three steps are
  // forced sequential (reserve -> store -> publish), and the drainer's snap
  // blocks until the publish — so exactly ONE schedule exists. This pins
  // down that the waits are modeled as enabledness, not spinning.
  SpillLogModel m({{{1}}}, /*cap=*/2, /*rounds=*/1, /*chunk=*/2);
  CheckResult r = check_spill(m);
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_EQ(r.interleavings, 1u);
}

TEST(SpillModel, ReclaimAllInterleavingsWithWrap) {
  // Two writers through a 3-slot ring, 4 total entries — every schedule
  // wraps, so reclaimed slots are re-reserved and re-stored. Across ALL
  // interleavings: spilled + residue is exactly the committed multiset, in
  // per-writer order, with no tombstone ever reaching a chunk.
  SpillLogModel m({{{2, 1}}, {{1}}}, /*cap=*/3, /*rounds=*/3, /*chunk=*/2);
  CheckResult r = check_spill(m);
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_GT(r.interleavings, 100u);  // genuinely concurrent, not collapsed
}

TEST(SpillModel, CrashAtEveryStepKeepsRecoveryExact) {
  // Truncate writer 0 after every prefix (kLogFlushDie / kLogAppendDie in
  // spill mode): a window reserved but never published wedges later
  // publishers and is never drained — it must surface as residue
  // tombstones, never as chunk content.
  const std::vector<int> w0 = {2, 1};
  const int w0_steps = 2 * 1 + 3 + 1 + 2;  // 2 reserves + 3 stores + 2 pubs
  for (int crash = 0; crash <= w0_steps; ++crash) {
    SpillLogModel m({{w0, crash}, {{1}}}, /*cap=*/3, /*rounds=*/3,
                    /*chunk=*/2);
    CheckResult r = check_spill(m);
    ASSERT_TRUE(r.ok) << "crash after " << crash << ": " << r.violation;
  }
}

TEST(SpillModel, DrainerStoppingEarlyLosesNothing) {
  // The drainer runs fewer rounds than the workload needs (a dead drainer
  // that is never restarted). Writers block on the space wait forever —
  // a legal terminal — and everything already committed is still recovered
  // exactly once from chunks + residue.
  for (int rounds = 0; rounds <= 2; ++rounds) {
    SpillLogModel m({{{2, 2}}, {{1}}}, /*cap=*/3, rounds, /*chunk=*/2);
    CheckResult r = check_spill(m);
    ASSERT_TRUE(r.ok) << "rounds " << rounds << ": " << r.violation;
  }
}

TEST(SpillModel, DetectsMissingSpaceWait) {
  // Seeded bug: writers store without waiting for the drainer to hand the
  // space back. A wrapped window clobbers published-but-undrained slots —
  // some schedule must lose an entry.
  SpillLogModel m({{{2, 2}}}, /*cap=*/2, /*rounds=*/2, /*chunk=*/2,
                  SpillBug::kNoSpaceCheck);
  CheckResult r = check_spill(m);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.violating_trace.empty());
}

TEST(SpillModel, DetectsMissingReclaimZero) {
  // Seeded bug: the drainer advances without zeroing. A writer reserving
  // the recycled slot and crashing before its store leaves the STALE value
  // where recovery expects a tombstone — an already-spilled entry is
  // resurrected (counted twice).
  SpillLogModel m({{{1, 1, 1}, /*crash_after=*/7}}, /*cap=*/2, /*rounds=*/3,
                  /*chunk=*/1, SpillBug::kNoReclaimZero);
  CheckResult r = check_spill(m);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.violation.find("never committed, or twice"), std::string::npos)
      << r.violation;
}

TEST(SpillModel, DetectsConsumingPastPublished) {
  // Seeded bug: the drainer snapshots tail instead of published, spilling
  // reserved-but-unstored slots — torn entries in a durable chunk.
  SpillLogModel m({{{2}}}, /*cap=*/3, /*rounds=*/2, /*chunk=*/2,
                  SpillBug::kConsumeToTail);
  CheckResult r = check_spill(m);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.violation.empty());
}

TEST(SpillModel, DeterministicAcrossRuns) {
  SpillLogModel m({{{2, 1}, 4}, {{1}}}, /*cap=*/3, /*rounds=*/3,
                  /*chunk=*/2);
  CheckResult a = check_spill(m);
  CheckResult b = check_spill(m);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.interleavings, b.interleavings);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.terminals, b.terminals);
}

// ---- Bounded and ring store policies (same model, no drainer) ----
//
// The writers never wait on each other or on a drainer, so every step is
// always enabled; these configurations also run unreduced.

TEST(StoreModel, BoundedKeepsThePrefixAndDropsTheOverflow) {
  // Two writers, 5 entries through a 3-slot segment: in every schedule the
  // window is [0, 3), each slot holds the entry reserved there, and the two
  // positions past cap count exactly two drops. No step ever blocks, so
  // all C(8,3) = 56 orders of the 5 + 3 writer steps run.
  SpillLogModel m(StorePolicy::kBounded, {{{2, 1}}, {{2}}}, /*cap=*/3);
  CheckResult r = check_spill(m);
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_EQ(r.interleavings, 56u);
}

TEST(StoreModel, RingTwoWritersKeepTheNewestWindow) {
  // Two writers through a 3-slot ring, every interleaving: drained ends at
  // tail - cap, so the window is exactly the newest 3 reserved positions,
  // and dropped stays 0 — a ring overwrite is not a drop.
  for (const auto& cfg : std::vector<std::vector<WriterProgram>>{
           {{{2, 1}}, {{2}}},
           {{{1, 1, 1}}, {{1, 1}}},
           {{{3}}, {{3}}},
       }) {
    SpillLogModel m(StorePolicy::kRing, cfg, /*cap=*/3);
    CheckResult r = check_spill(m);
    ASSERT_TRUE(r.ok) << r.violation;
    EXPECT_GT(r.interleavings, 100u);
  }
}

TEST(StoreModel, RingRunLongerThanTheSegmentKeepsItsNewestEntries) {
  // A 4-entry run through a 3-slot ring stores only its newest 3.
  SpillLogModel m(StorePolicy::kRing, {{{4}}, {{1}}}, /*cap=*/3);
  CheckResult r = check_spill(m);
  EXPECT_TRUE(r.ok) << r.violation;
}

TEST(StoreModel, RingCrashAtEveryStepKeepsTheCursorRule) {
  // Truncate writer 0 after every prefix. Its advance runs before any
  // store (where log.flush.die fires), so a writer killed after it still
  // leaves its reserved run inside the window.
  const std::vector<int> w0 = {2, 2};
  const int w0_steps = 2 * 2 + 4;  // 2 reserves + 2 advances + 4 stores
  for (int crash = 0; crash <= w0_steps; ++crash) {
    SpillLogModel m(StorePolicy::kRing, {{w0, crash}, {{2}}}, /*cap=*/3);
    CheckResult r = check_spill(m);
    ASSERT_TRUE(r.ok) << "crash after " << crash << ": " << r.violation;
  }
}

TEST(StoreModel, DetectsRingWrapWithoutAdvance) {
  // Seeded bug: ring writers wrap but never move drained, so the window
  // stays on the oldest lap.
  SpillLogModel m(StorePolicy::kRing, {{{2, 1}}, {{2}}}, /*cap=*/3,
                  SpillBug::kRingNoAdvance);
  CheckResult r = check_spill(m);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.violation.find("newest cap reserved"), std::string::npos)
      << r.violation;
  EXPECT_FALSE(r.violating_trace.empty());
}

TEST(ModelChecker, DeterministicAcrossRuns) {
  ShmLogModel m({{{2, 3}, 3}, {{3, 1}}});
  CheckResult a = check(m);
  CheckResult b = check(m);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.interleavings, b.interleavings);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.pruned, b.pruned);
  EXPECT_EQ(a.terminals, b.terminals);
  EXPECT_EQ(a.violation, b.violation);
  EXPECT_EQ(a.violating_trace, b.violating_trace);

  ShmLogModel bad({{{1}}, {{1}}}, Bug::kSplitReserve);
  CheckResult c = check(bad);
  CheckResult d = check(bad);
  EXPECT_EQ(c.violation, d.violation);
  EXPECT_EQ(c.violating_trace, d.violating_trace);
}

}  // namespace
}  // namespace teeperf::model
