// Model of the v2 store policies (DESIGN.md §8, §10; core side in
// ProfileLog::store, host side in drain::Drainer::round) for the model
// checker. One shard, storage a ring of `cap` slots indexed by
// absolute-count % cap; three monotonic cursors:
//
//   tail       writer reservation (fetch_add)
//   published  in-order commit: a writer stores its window, waits until
//              published == its base, then publishes base + n
//   drained    drainer consumption: snapshot published, copy the window
//              [drained, snap) (capped at chunk_entries) out to the spill
//              file, zero the consumed slots, then advance drained
//
// Writer steps per flush: reserve; store × n (blocked until the window fits
// the free space, i.e. base + n <= drained + cap — the space wait);
// publish (blocked until published == base). Drainer steps per round:
// snap (blocked until there is consumable work); consume (copy + zero);
// advance. A writer may crash after any step (kLogFlushDie /
// kLogAppendDie), leaving a reserved-but-unpublished window that wedges
// later publishers — exactly the real protocol's behavior when the app is
// SIGKILLed mid-flush.
//
// IMPORTANT: this model blocks threads through enabled() conditions that
// read OTHER threads' variables (drained, published). The checker's
// sleep-set reduction only tracks next_action() footprints, so it can put
// to sleep a thread whose wake-up is another thread's step on a variable
// the sleeper never names — unsound here. Spill configurations must run
// with reduce = false; they are sized for the plain exhaustive DFS.
//
// The force-advance overflow path (a dead drainer exhausting the writer's
// spin budget, entries discarded and counted dropped) is runtime policy,
// not protocol: the model has no drop path, writers block forever and the
// checker treats the blocked state as terminal. tests/test_drain.cc covers
// force-advance behaviorally.
//
// Bounded and ring policies (StorePolicy) run writers only — no drainer
// thread and no publish step, as in ProfileLog::store:
//
//   bounded  reserve; store × n. Nothing reclaims (drained stays 0): a
//            position past cap is not stored and counts one drop.
//   ring     reserve; advance; store × n. The advance moves drained to
//            base + n - cap when the run does not fit — before any store;
//            the real log.flush.die fault point sits between the two — and
//            remembers lo = max(base, drained): positions below lo are
//            outside the window already and are not stored. No drop is
//            ever counted. A late store (one whose position another
//            writer's advance has already passed) still lands in its slot:
//            ring writers never wait on each other, so a writer lapped by
//            a full segment can overwrite a newer entry. The terminal check
//            allows exactly that, and nothing else.
//
// Four seeded protocol bugs prove the checker can see a violation:
//   kNoSpaceCheck   — writers skip the space wait: a wrapped store clobbers
//                     a published-but-undrained slot (entry lost).
//   kNoReclaimZero  — the drainer consumes without zeroing: a later writer
//                     that reserves the recycled slot and crashes before
//                     storing leaves the STALE value behind, and recovery
//                     resurrects an entry that was already spilled.
//   kConsumeToTail  — the drainer snapshots tail instead of published:
//                     reserved-but-unstored slots are spilled as zeros
//                     (torn entries in a chunk file).
//   kRingNoAdvance  — a ring writer wraps without advancing drained: the
//                     window [drained, drained + cap) keeps the oldest lap
//                     instead of the newest cap reserved entries.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "tests/model/model_checker.h"
#include "tests/model/shm_log_model.h"  // WriterProgram

namespace teeperf::model {

enum class SpillBug {
  kNone,
  kNoSpaceCheck,   // writer side: store without the space wait
  kNoReclaimZero,  // drainer side: advance without zeroing consumed slots
  kConsumeToTail,  // drainer side: consume past published
  kRingNoAdvance,  // ring writer side: wrap without moving drained
};

enum class StorePolicy { kBounded, kRing, kSpill };

class SpillLogModel {
 public:
  static constexpr int kCapacity = 4;    // ring slots (<= this per config)
  static constexpr int kMaxWriters = 2;

  struct WriterState {
    u8 pc = 0;
    u8 base = 0;  // absolute base of the current flush's window
    u8 lo = 0;    // ring: lowest position of the flush still to store
  };
  struct DrainerState {
    u8 pc = 0;
    u8 snap = 0;  // published snapshot for the current round
    u8 len = 0;   // entries consumed this round, pending the advance
  };
  struct State {
    std::array<u8, kCapacity> slots{};  // 0 = never written / reclaimed
    u8 tail = 0;                        // absolute counts, monotonic
    u8 published = 0;
    u8 drained = 0;
    u8 dropped = 0;
    std::array<WriterState, kMaxWriters> w{};
    DrainerState d;
    std::vector<u8> spilled;  // what the drainer copied out, in order
    // Ghost state (not part of the protocol, excluded from fingerprints):
    // the absolute position of every executed store, so the terminal check
    // can tell a genuine tombstone from a never-reserved slot exactly.
    std::vector<u8> stored_abs;
    std::vector<u8> stored_val;    // the value of each store, same order
    std::vector<bool> stored_late;  // position already below drained
    u8 advanced_end = 0;            // ring: highest run end advanced to
    std::vector<std::array<u8, 3>> runs;  // {base, writer, flush} reserved
  };

  // Thread 0..writers-1 are writers; thread writers is the drainer, running
  // `rounds` snap/consume/advance rounds of at most `chunk` entries each.
  SpillLogModel(std::vector<WriterProgram> writers, int cap, int rounds,
                int chunk, SpillBug bug = SpillBug::kNone)
      : cap_(cap), chunk_(chunk), bug_(bug), policy_(StorePolicy::kSpill) {
    build(writers);
    drainer_steps_ = rounds * 3;
  }

  // Bounded or ring: the writers alone, no drainer thread.
  SpillLogModel(StorePolicy policy, std::vector<WriterProgram> writers,
                int cap, SpillBug bug = SpillBug::kNone)
      : cap_(cap), chunk_(0), bug_(bug), policy_(policy) {
    build(writers);
    drainer_steps_ = 0;
  }

  State initial() const { return State{}; }
  int num_threads() const {
    return static_cast<int>(steps_.size()) +
           (policy_ == StorePolicy::kSpill ? 1 : 0);
  }

  bool enabled(const State& s, int t) const {
    if (policy_ == StorePolicy::kSpill && t == drainer_thread()) {
      if (s.d.pc >= drainer_steps_) return false;
      if (s.d.pc % 3 == 0) {
        // Snap blocks until there is consumable work — idle rounds would
        // only multiply equivalent schedules.
        u8 limit = bug_ == SpillBug::kConsumeToTail ? s.tail : s.published;
        return limit > s.drained;
      }
      return true;
    }
    const WriterState& w = s.w[t];
    if (w.pc >= len_[static_cast<usize>(t)]) return false;
    if (policy_ != StorePolicy::kSpill) return true;  // nobody waits
    const Step& st = steps_[static_cast<usize>(t)][w.pc];
    if (st.kind == Step::kStore && bug_ != SpillBug::kNoSpaceCheck) {
      // The space wait: the whole window must fit the reclaimed ring.
      return static_cast<int>(w.base) + st.n <= s.drained + cap_;
    }
    if (st.kind == Step::kPublish) return s.published == w.base;  // in order
    return true;
  }

  // Coarse footprints only — spill configs run unreduced (see header).
  Action next_action(const State&, int) const { return {0, true}; }

  void step(State* s, int t) const {
    if (policy_ == StorePolicy::kSpill && t == drainer_thread()) {
      DrainerState& d = s->d;
      switch (d.pc % 3) {
        case 0:  // snap
          d.snap = bug_ == SpillBug::kConsumeToTail ? s->tail : s->published;
          break;
        case 1: {  // consume: copy out, zero (reclaim)
          int len = d.snap - s->drained;
          if (len > chunk_) len = chunk_;
          if (len < 0) len = 0;
          for (int i = 0; i < len; ++i) {
            u8& slot = s->slots[static_cast<usize>((s->drained + i) % cap_)];
            s->spilled.push_back(slot);
            if (bug_ != SpillBug::kNoReclaimZero) slot = 0;
          }
          d.len = static_cast<u8>(len);
          break;
        }
        case 2:  // advance: hand the space back to the writers
          s->drained = static_cast<u8>(s->drained + d.len);
          d.len = 0;
          break;
      }
      ++d.pc;
      return;
    }
    WriterState& w = s->w[t];
    const Step& st = steps_[static_cast<usize>(t)][w.pc];
    switch (st.kind) {
      case Step::kReserve:
        w.base = s->tail;
        s->tail = static_cast<u8>(s->tail + st.n);
        s->runs.push_back({w.base, static_cast<u8>(t), st.flush});
        break;
      case Step::kAdvance: {
        int end = w.base + st.n;
        if (bug_ != SpillBug::kRingNoAdvance && end > s->drained + cap_) {
          s->drained = static_cast<u8>(end - cap_);
        }
        if (end > s->advanced_end) s->advanced_end = static_cast<u8>(end);
        w.lo = w.base > s->drained ? w.base : s->drained;
        break;
      }
      case Step::kStore: {
        int pos = w.base + st.idx;
        if (policy_ == StorePolicy::kBounded && pos >= cap_) {
          ++s->dropped;  // nothing reclaims: the overflow is dropped
          break;
        }
        if (policy_ == StorePolicy::kRing && pos < w.lo) break;
        u8 v = value_of(t, st.flush, st.idx);
        s->slots[static_cast<usize>(pos % cap_)] = v;
        s->stored_abs.push_back(static_cast<u8>(pos));
        s->stored_val.push_back(v);
        s->stored_late.push_back(pos < s->drained);
        break;
      }
      case Step::kPublish:
        s->published = static_cast<u8>(w.base + st.n);
        break;
    }
    ++w.pc;
  }

  // Recovery = the spilled sequence followed by the live residue
  // [drained, tail) — exactly what load_spill() stitches (chunks, then the
  // compact dump of the remaining windows). Committed work is computed from
  // each thread's RUNTIME pc, not its static program: blocked threads end
  // mid-program and that is a legal terminal.
  std::string check_terminal(const State& s) const {
    if (policy_ == StorePolicy::kBounded) return check_bounded(s);
    if (policy_ == StorePolicy::kRing) return check_ring(s);
    int reserved = 0;
    std::vector<u8> stored;
    for (int t = 0; t < num_threads() - 1; ++t) {
      const auto& prog = steps_[static_cast<usize>(t)];
      for (int i = 0; i < s.w[t].pc; ++i) {
        const Step& st = prog[static_cast<usize>(i)];
        if (st.kind == Step::kReserve) reserved += st.n;
        if (st.kind == Step::kStore) {
          stored.push_back(value_of(t, st.flush, st.idx));
        }
      }
    }
    if (s.tail != reserved) {
      return "tail " + std::to_string(s.tail) + " != reserved " +
             std::to_string(reserved);
    }
    if (!(s.drained <= s.published && s.published <= s.tail)) {
      return "cursor order violated: drained " + std::to_string(s.drained) +
             " published " + std::to_string(s.published) + " tail " +
             std::to_string(s.tail);
    }
    if (s.spilled.size() != s.drained) {
      return "spilled " + std::to_string(s.spilled.size()) +
             " entries but drained cursor is " + std::to_string(s.drained);
    }
    for (u8 v : s.spilled) {
      if (v == 0) return "tombstone / unpublished slot spilled to a chunk";
    }
    // Residue: the undrained window, zeros = torn-tail tombstones. Clamped
    // to one lap of the ring, like the real serializer: reservation is
    // ungated, so blocked writers can run tail past drained + cap, and the
    // absolute positions beyond the lap alias slots already scanned (they
    // are reserved-but-unstorable, physically nonexistent).
    int window_hi = s.tail;
    if (window_hi > s.drained + cap_) window_hi = s.drained + cap_;
    std::vector<u8> residue;
    int tombstones = 0;
    for (int a = s.drained; a < window_hi; ++a) {
      u8 v = s.slots[static_cast<usize>(a % cap_)];
      if (v == 0) {
        ++tombstones;
      } else {
        residue.push_back(v);
      }
    }
    // Exactly-once: spilled + residue is the stored multiset.
    std::vector<u8> recovered = s.spilled;
    recovered.insert(recovered.end(), residue.begin(), residue.end());
    std::vector<u8> pool = stored;
    for (u8 v : recovered) {
      bool found = false;
      for (u8& p : pool) {
        if (p == v) {
          p = 0xff;
          found = true;
          break;
        }
      }
      if (!found) {
        return "recovered entry " + std::to_string(v) +
               " was never committed, or twice (clobber or stale "
               "resurrection)";
      }
    }
    for (u8 p : pool) {
      if (p != 0xff) return "committed entry " + std::to_string(p) + " lost";
    }
    // Zeroing invariant, exact via the ghost store positions: a slot in the
    // live window is zero iff its absolute position was never stored (a
    // crashed writer's tombstone, or reclaimed space not yet re-stored).
    int expected_tombstones = 0;
    for (int a = s.drained; a < window_hi; ++a) {
      bool written = false;
      for (u8 w : s.stored_abs) {
        if (w == a) {
          written = true;
          break;
        }
      }
      if (!written) ++expected_tombstones;
    }
    if (tombstones != expected_tombstones) {
      return "tombstone count " + std::to_string(tombstones) +
             " != never-stored window positions " +
             std::to_string(expected_tombstones) +
             " (reclaimed slot not zeroed, or a store lost)";
    }
    // Per-writer program order across the stitched recovery sequence.
    for (int t = 0; t < num_threads() - 1; ++t) {
      int last = -1;
      for (u8 v : recovered) {
        if (writer_of(v) != t) continue;
        int key = order_key(v);
        if (key <= last) {
          return "writer " + std::to_string(t) +
                 " entries out of program order in recovery";
        }
        last = key;
      }
    }
    return "";
  }

  std::string fingerprint(const State& s) const {
    std::string fp;
    fp.reserve(static_cast<usize>(cap_) * 4 + s.spilled.size() * 4 + 16);
    fp += std::to_string(s.tail);
    fp += '/';
    fp += std::to_string(s.published);
    fp += '/';
    fp += std::to_string(s.drained);
    fp += '/';
    fp += std::to_string(s.dropped);
    for (int i = 0; i < cap_; ++i) {
      fp += ':';
      fp += std::to_string(s.slots[static_cast<usize>(i)]);
    }
    fp += '|';
    for (u8 v : s.spilled) {
      fp += std::to_string(v);
      fp += ',';
    }
    return fp;
  }

 private:
  struct Step {
    enum Kind : u8 { kReserve, kAdvance, kStore, kPublish } kind;
    u8 flush;
    u8 idx;
    u8 n;
  };

  // Per policy: reserve [advance] store × n [publish] for every flush,
  // truncated at crash_after.
  void build(const std::vector<WriterProgram>& writers) {
    for (const WriterProgram& p : writers) {
      std::vector<Step> steps;
      for (usize f = 0; f < p.batches.size(); ++f) {
        u8 fl = static_cast<u8>(f);
        u8 n = static_cast<u8>(p.batches[f]);
        steps.push_back({Step::kReserve, fl, 0, n});
        if (policy_ == StorePolicy::kRing) {
          steps.push_back({Step::kAdvance, fl, 0, n});
        }
        for (u8 i = 0; i < n; ++i) steps.push_back({Step::kStore, fl, i, n});
        if (policy_ == StorePolicy::kSpill) {
          steps.push_back({Step::kPublish, fl, 0, n});
        }
      }
      int len = static_cast<int>(steps.size());
      if (p.crash_after >= 0 && p.crash_after < len) len = p.crash_after;
      steps_.push_back(std::move(steps));
      len_.push_back(len);
    }
  }

  // Entries the writers reserved, from their runtime pcs, and whether
  // every writer ran its whole program.
  void count_reserved(const State& s, int* reserved, bool* finished) const {
    *reserved = 0;
    *finished = true;
    for (usize t = 0; t < steps_.size(); ++t) {
      const auto& prog = steps_[t];
      if (s.w[t].pc < static_cast<int>(prog.size())) *finished = false;
      for (int i = 0; i < s.w[t].pc; ++i) {
        const Step& st = prog[static_cast<usize>(i)];
        if (st.kind == Step::kReserve) *reserved += st.n;
      }
    }
  }

  // Whether the writer that reserved absolute position `pos` has executed
  // the store step for it (a crashed writer's later steps never run).
  bool store_ran(const State& s, int pos) const {
    for (const auto& r : s.runs) {
      const auto& prog = steps_[r[1]];
      for (int i = 0; i < s.w[r[1]].pc; ++i) {
        const Step& st = prog[static_cast<usize>(i)];
        if (st.kind == Step::kStore && st.flush == r[2] &&
            r[0] + st.idx == pos) {
          return true;
        }
      }
    }
    return false;
  }

  // The value last stored at absolute position `pos`, or 0 if none was.
  static u8 stored_at(const State& s, int pos) {
    u8 v = 0;
    for (usize i = 0; i < s.stored_abs.size(); ++i) {
      if (s.stored_abs[i] == pos) v = s.stored_val[i];
    }
    return v;
  }

  // Bounded: the window is [0, min(tail, cap)); every slot in it holds the
  // entry stored at its position, or is a tombstone whose store never ran;
  // per-writer order holds, and every reserved position past cap counts
  // exactly one drop.
  std::string check_bounded(const State& s) const {
    int reserved = 0;
    bool finished = false;
    count_reserved(s, &reserved, &finished);
    if (s.tail != reserved) return "tail != reserved";
    if (s.drained != 0) return "bounded log moved its drain cursor";
    int overflow = s.tail > cap_ ? s.tail - cap_ : 0;
    if (s.dropped > overflow || (finished && s.dropped != overflow)) {
      return "dropped " + std::to_string(s.dropped) + " != overflow " +
             std::to_string(overflow);
    }
    int hi = s.tail < cap_ ? s.tail : cap_;
    std::vector<u8> window;
    for (int a = 0; a < hi; ++a) {
      u8 v = s.slots[static_cast<usize>(a)];
      if (v != stored_at(s, a) || (v == 0 && store_ran(s, a))) {
        return "slot " + std::to_string(a) + " does not hold its entry";
      }
      if (v != 0) window.push_back(v);
    }
    return check_order(window);
  }

  // Ring: drained is exactly the highest advanced end minus cap, so once
  // every reservation has advanced the window [drained, min(tail, drained +
  // cap)) is the newest cap reserved positions; no drop is ever counted.
  // Each window slot holds the entry stored at its position, unless that
  // position's store never ran (a crashed writer: zero, or the previous
  // lap's entry) or a late store of an older lap overwrote it.
  std::string check_ring(const State& s) const {
    int reserved = 0;
    bool finished = false;
    count_reserved(s, &reserved, &finished);
    if (s.tail != reserved) return "tail != reserved";
    if (s.dropped != 0) return "a ring overwrite was counted as a drop";
    int want = s.advanced_end > cap_ ? s.advanced_end - cap_ : 0;
    if (s.drained != want) {
      return "ring window starts at " + std::to_string(s.drained) +
             ", not at the newest cap reserved entries (" +
             std::to_string(want) + ")";
    }
    int hi = s.tail < s.drained + cap_ ? s.tail : s.drained + cap_;
    std::vector<u8> window;
    for (int a = s.drained; a < hi; ++a) {
      u8 v = s.slots[static_cast<usize>(a % cap_)];
      u8 own = stored_at(s, a);
      if (own == 0 && store_ran(s, a)) {
        return "ring position " + std::to_string(a) +
               " is in the window but its store was skipped";
      }
      if (v == own) {
        if (v != 0) window.push_back(v);
        continue;
      }
      // Some older position a' = a - k * cap stored v. Legal only when a
      // was never stored, or when that store came late, after a's.
      bool explained = false;
      bool after_own = false;
      for (usize i = 0; i < s.stored_abs.size(); ++i) {
        int p = s.stored_abs[i];
        if (p == a) after_own = true;
        if (p < a && (a - p) % cap_ == 0 && s.stored_val[i] == v &&
            (own == 0 || (after_own && s.stored_late[i]))) {
          explained = true;
        }
      }
      if (!explained) {
        return "ring slot for position " + std::to_string(a) +
               " lost its entry to an in-window store";
      }
    }
    return check_order(window);
  }

  // Per-writer program order over a recovered sequence.
  std::string check_order(const std::vector<u8>& recovered) const {
    for (usize t = 0; t < steps_.size(); ++t) {
      int last = -1;
      for (u8 v : recovered) {
        if (writer_of(v) != static_cast<int>(t)) continue;
        if (order_key(v) <= last) {
          return "writer " + std::to_string(t) +
                 " entries out of program order in the window";
        }
        last = order_key(v);
      }
    }
    return "";
  }

  int drainer_thread() const { return static_cast<int>(steps_.size()); }

  // Same encoding as ShmLogModel: unique nonzero value per
  // (writer, flush, index), decodable for the order check.
  static u8 value_of(int writer, int flush, int idx) {
    return static_cast<u8>(1 + writer * 100 + flush * 10 + idx);
  }
  static int writer_of(u8 v) { return (v - 1) / 100; }
  static int order_key(u8 v) { return (v - 1) % 100; }

  std::vector<std::vector<Step>> steps_;
  std::vector<int> len_;
  int drainer_steps_;
  int cap_;
  int chunk_;
  SpillBug bug_;
  StorePolicy policy_;
};

}  // namespace teeperf::model
