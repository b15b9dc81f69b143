// Streaming, bounded-memory analysis (DESIGN.md §12).
//
// Profile::load_spill stitches a whole session into memory before
// reconstructing — fine for sessions near the shm window, hopeless for the
// multi-GB chunk streams the spill drainer produces. StreamAnalyzer runs
// the same call-stack reconstruction as Profile::build in a single pass
// over the chunk sequence, holding only:
//
//   - per-shard open-invocation stacks (bounded by live call depth),
//   - a per-shard calling-context tree: one node per distinct call path,
//     carrying that path's count / inclusive / exclusive / min / max
//     (bounded by the number of *distinct* paths),
//   - one chunk file at a time.
//
// No Invocation is ever materialized, and the per-event work is integer
// updates: a call is one child lookup in the tree, a return updates its
// node. Names appear only in finish(), which derives the method, edge and
// folded-stack tables from the nodes and folds shards in directory order
// into a MergeableProfile. The shards of one dump reconstruct in parallel
// (a thread's entries are confined to one shard, and every aggregate is a
// sum/min/max, so worker scheduling cannot change the result). The result
// is held byte-identical to MergeableProfile::from_profile(Profile::load(...))
// by the differential tests in tests/test_analyze_stream.cc.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analyzer/dump_reader.h"
#include "analyzer/mprof.h"
#include "common/types.h"
#include "core/log_format.h"

namespace teeperf::analyzer {

class StreamAnalyzer {
 public:
  explicit StreamAnalyzer(std::unordered_map<u64, std::string> symbols = {});

  // Feeds one span of a shard's stream, in per-shard order. Distinct shards
  // may feed concurrently (their state is disjoint); one shard must not.
  // Call ensure_shards() first when feeding from multiple threads.
  void feed(u32 shard, const LogEntry* entries, u64 n);

  // Feeds every window of a parsed dump, shards in parallel.
  void feed_dump(const ParsedDump& dump);

  // Grows the shard table (never shrinks). Required before concurrent
  // feed() calls so the table is not resized under a reader.
  void ensure_shards(usize n);

  void set_ns_per_tick(double ns) { ns_per_tick_ = ns; }

  // Closes every still-open frame (incomplete, ended at the thread's last
  // counter — the same policy as Profile::build) and folds all shards, in
  // shard order, into one aggregate with sessions == 1.
  MergeableProfile finish();

  // One-call entry points mirroring Profile::load / load_spill but reading
  // one chunk file at a time. analyze() auto-detects spill sessions by the
  // presence of "<prefix>.seg.0000"; both load "<prefix>.sym" when present.
  static std::optional<MergeableProfile> analyze(const std::string& prefix,
                                                 std::string* error = nullptr);
  static std::optional<MergeableProfile> analyze_spill(
      const std::string& prefix, std::string* error = nullptr);

 private:
  static constexpr u64 kRoot = 0;      // node 0: the shard's sentinel root
  static constexpr u64 kNoNode = ~0ull;

  // One calling-context-tree node: a distinct root→self call path of one
  // shard, with the aggregates of every invocation that ran on it. Nodes
  // are appended on first entry, so a parent's index is below its
  // children's.
  struct Node {
    u64 method = 0;
    u64 parent = kRoot;
    u64 last_child = kNoNode;  // memo: the child most recently entered
    u64 count = 0;
    u64 inclusive_total = 0;
    u64 exclusive_total = 0;
    u64 min_inclusive = ~0ull;
    u64 max_inclusive = 0;
  };

  // One open invocation. `method` duplicates the node's so the unwind scan
  // on a return reads only the stack.
  struct Frame {
    u64 node = kRoot;
    u64 method = 0;
    u64 start = 0;
    u64 children = 0;  // inclusive time of the closed callees
  };

  struct ThreadState {
    std::vector<Frame> open;
    u64 last_counter = 0;
  };

  struct ChildKey {
    u64 parent = 0;
    u64 method = 0;
    bool operator==(const ChildKey&) const = default;
  };
  struct ChildKeyHash {
    usize operator()(const ChildKey& k) const {
      return std::hash<u64>{}(k.parent * 1099511628211ull ^ k.method);
    }
  };

  // All state one shard's reconstruction touches — disjoint across shards,
  // which is what makes parallel feeding safe without locks.
  struct ShardState {
    ShardState() : nodes(1) {}
    std::vector<Node> nodes;  // nodes[kRoot] is the sentinel
    std::unordered_map<ChildKey, u64, ChildKeyHash> children;
    std::map<u64, ThreadState> threads;
    // The thread of the previous entry: batches keep one tid for up to 32
    // entries, so the map is searched only when the tid changes.
    ThreadState* current = nullptr;
    u64 current_tid = 0;
    // Method-id → name memo for finish(): one registry/symbol lookup per
    // distinct method.
    std::unordered_map<u64, std::string> names;
    ReconstructionStats recon;
  };

  const std::string& cached_name(ShardState& sh, u64 method) const;

  std::string name_of(u64 method) const {
    return resolve_name(symbols_, method);
  }
  // The node for `method` called under node `parent`, created on first sight.
  static u64 child_of(ShardState& sh, u64 parent, u64 method);
  // Closes the top frame of `t` at counter `end_counter`.
  static void close_top(ShardState& sh, ThreadState& t, u64 end_counter);
  // Derives the shard's methods, edges and folded stacks into `m`.
  void fold_shard(ShardState& sh, MergeableProfile* m) const;

  std::vector<std::unique_ptr<ShardState>> shards_;
  std::unordered_map<u64, std::string> symbols_;
  double ns_per_tick_ = 0.0;
};

}  // namespace teeperf::analyzer
