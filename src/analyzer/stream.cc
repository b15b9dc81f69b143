#include "analyzer/stream.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/fileutil.h"
#include "core/symbol_registry.h"
#include "drain/chunk_format.h"

namespace teeperf::analyzer {

namespace {

// Runs fn(0..n-1) on a small worker pool — the build_sharded pattern. Used
// to aggregate the shards of one dump concurrently; every aggregate is a
// sum/min/max over disjoint per-shard state, so scheduling cannot change
// the result.
template <typename F>
void run_parallel(usize n, F&& fn) {
  u32 hw = std::thread::hardware_concurrency();
  usize workers = std::min<usize>(hw == 0 ? 1 : hw, n);
  if (workers <= 1) {
    for (usize i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<usize> next{0};
  auto work = [&] {
    for (usize i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (usize w = 1; w < workers; ++w) pool.emplace_back(work);
  work();
  for (auto& t : pool) t.join();
}

void set_err(std::string* error, const char* why) {
  if (error) *error = why;
}

}  // namespace

StreamAnalyzer::StreamAnalyzer(std::unordered_map<u64, std::string> symbols)
    : symbols_(std::move(symbols)) {}

void StreamAnalyzer::ensure_shards(usize n) {
  while (shards_.size() < n) shards_.push_back(std::make_unique<ShardState>());
}

const std::string& StreamAnalyzer::cached_name(ShardState& sh,
                                               u64 method) const {
  auto it = sh.names.find(method);
  if (it == sh.names.end()) {
    it = sh.names.emplace(method, name_of(method)).first;
  }
  return it->second;
}

u64 StreamAnalyzer::child_of(ShardState& sh, u64 parent, u64 method) {
  // A loop calls the same callee over and over: check the parent's last
  // entered child before the index. Node indices are u64, so the tree can
  // hold one node per call entry of any input the loader accepts.
  u64 memo = sh.nodes[parent].last_child;
  if (memo != kNoNode && sh.nodes[memo].method == method) return memo;
  auto [it, fresh] =
      sh.children.try_emplace(ChildKey{parent, method}, sh.nodes.size());
  if (fresh) {
    Node n;
    n.method = method;
    n.parent = parent;
    sh.nodes.push_back(n);
  }
  sh.nodes[parent].last_child = it->second;
  return it->second;
}

void StreamAnalyzer::close_top(ShardState& sh, ThreadState& t,
                               u64 end_counter) {
  Frame f = t.open.back();
  t.open.pop_back();
  // Clamp against a non-monotonic counter, exactly as Profile::build does.
  u64 end = std::max(end_counter, f.start);
  u64 incl = end - f.start;
  u64 excl = f.children <= incl ? incl - f.children : 0;

  Node& n = sh.nodes[f.node];
  ++n.count;
  n.inclusive_total += incl;
  n.exclusive_total += excl;
  n.min_inclusive = std::min(n.min_inclusive, incl);
  n.max_inclusive = std::max(n.max_inclusive, incl);

  // The frame below is still open (pops go top-down), so its children sum
  // accumulates exactly as the parent Invocation's would in build().
  if (!t.open.empty()) t.open.back().children += incl;
}

void StreamAnalyzer::feed(u32 shard, const LogEntry* entries, u64 n) {
  ensure_shards(static_cast<usize>(shard) + 1);
  ShardState& sh = *shards_[shard];
  sh.recon.entries += n;

  for (u64 i = 0; i < n; ++i) {
    const LogEntry& e = entries[i];
    // Tombstones: all-zero slots a dead writer reserved but never filled.
    if (e.kind_and_counter == 0 && e.addr == 0 && e.tid == 0 &&
        e.reserved == 0) {
      ++sh.recon.tombstones;
      continue;
    }
    if (!sh.current || e.tid != sh.current_tid) {
      sh.current = &sh.threads[e.tid];  // map nodes never move
      sh.current_tid = e.tid;
    }
    ThreadState& t = *sh.current;
    t.last_counter = e.counter();

    if (e.kind() == EventKind::kCall) {
      u64 parent = t.open.empty() ? kRoot : t.open.back().node;
      t.open.push_back({child_of(sh, parent, e.addr), e.addr, e.counter(), 0});
      continue;
    }

    // Return: same repair policy as build() — stray if the stack is empty,
    // mismatched if nothing on the stack matches, otherwise unwind to the
    // nearest matching frame.
    if (t.open.empty()) {
      ++sh.recon.stray_returns;
      continue;
    }
    usize match = t.open.size();
    for (usize k = t.open.size(); k-- > 0;) {
      if (t.open[k].method == e.addr) {
        match = k;
        break;
      }
    }
    if (match == t.open.size()) {
      ++sh.recon.mismatched_returns;
      continue;
    }
    while (t.open.size() > match) {
      close_top(sh, t, e.counter());
      if (t.open.size() != match) ++sh.recon.unwound_frames;
    }
  }
}

void StreamAnalyzer::feed_dump(const ParsedDump& dump) {
  ensure_shards(dump.shards.size());
  std::vector<u32> live;
  for (usize s = 0; s < dump.shards.size(); ++s) {
    if (!dump.shards[s].empty()) live.push_back(static_cast<u32>(s));
  }
  run_parallel(live.size(), [&](usize i) {
    u32 s = live[i];
    feed(s, dump.shards[s].data(), dump.shards[s].size());
  });
}

void StreamAnalyzer::fold_shard(ShardState& sh, MergeableProfile* m) const {
  const std::vector<Node>& nodes = sh.nodes;

  // Methods by name, edges by the parent node's method name (or root).
  // Keying by name here, not per event, is what adds up distinct ids that
  // share a name.
  for (usize i = 1; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    MprofMethod& mm = m->methods[cached_name(sh, n.method)];
    mm.id = std::min(mm.id, n.method);
    mm.count += n.count;
    mm.inclusive_total += n.inclusive_total;
    mm.exclusive_total += n.exclusive_total;
    mm.min_inclusive = std::min(mm.min_inclusive, n.min_inclusive);
    mm.max_inclusive = std::max(mm.max_inclusive, n.max_inclusive);
    bool from_root = n.parent == kRoot;
    MprofEdge& me = m->edges[MprofEdgeKey{
        from_root ? std::string() : cached_name(sh, nodes[n.parent].method),
        cached_name(sh, n.method), from_root}];
    me.count += n.count;
    me.inclusive_total += n.inclusive_total;
  }

  // Folded stacks: a depth-first walk keeps one rolling path string, so
  // each node's root→self path is built once, from its parent's, and only
  // a node with exclusive time records it. Nodes with the same path (ids
  // sharing names) add up in the map.
  std::vector<u64> first_child(nodes.size(), kNoNode);
  std::vector<u64> next_sibling(nodes.size(), kNoNode);
  for (usize i = nodes.size(); i-- > 1;) {
    next_sibling[i] = first_child[nodes[i].parent];
    first_child[nodes[i].parent] = i;
  }
  struct Visit {
    u64 node;
    usize parent_len;  // length of the parent's path
  };
  std::vector<Visit> todo;
  for (u64 c = first_child[kRoot]; c != kNoNode; c = next_sibling[c]) {
    todo.push_back({c, 0});
  }
  std::string path;
  while (!todo.empty()) {
    Visit v = todo.back();
    todo.pop_back();
    const Node& n = nodes[v.node];
    path.resize(v.parent_len);
    if (n.parent != kRoot) path += ';';
    path += cached_name(sh, n.method);
    if (n.exclusive_total > 0) m->stacks[path] += n.exclusive_total;
    for (u64 c = first_child[v.node]; c != kNoNode; c = next_sibling[c]) {
      todo.push_back({c, path.size()});
    }
  }
}

MergeableProfile StreamAnalyzer::finish() {
  MergeableProfile m;
  m.sessions = 1;
  m.ns_per_tick = ns_per_tick_;

  ReconstructionStats recon;
  u64 threads = 0;
  for (auto& shp : shards_) {
    ShardState& sh = *shp;
    // Close whatever is still open with each thread's last counter; build()
    // flags these incomplete, and only the counters feed the aggregates.
    for (auto& [tid, t] : sh.threads) {
      (void)tid;
      while (!t.open.empty()) {
        close_top(sh, t, t.last_counter);
        ++sh.recon.incomplete;
      }
    }

    recon.add(sh.recon);
    // tid % shard_count confines a thread to one shard: disjoint, sums exactly.
    threads += sh.threads.size();
    fold_shard(sh, &m);
  }
  m.stats = MprofStats::from(recon, threads);
  return m;
}

std::optional<MergeableProfile> StreamAnalyzer::analyze_spill(
    const std::string& prefix, std::string* error) {
  std::unordered_map<u64, std::string> symbols;
  if (auto sym = read_file(prefix + ".sym")) symbols = SymbolRegistry::parse(*sym);
  StreamAnalyzer sa(std::move(symbols));
  SpillStitcher st;

  // One dump at a time, each deduplicated span fed as the stitcher yields
  // it (a view into the dump, alive for this call). Spawning workers per
  // chunk would cost more than reconstructing the chunk.
  auto absorb = [&](const ParsedDump& pd) {
    return st.absorb(pd, [&](u32 s, const LogEntry* e, u64 n) {
      sa.feed(s, e, n);
    });
  };

  bool bad = false;
  drain::ChunkScan scan = drain::for_each_chunk(
      prefix, [&](u32, std::string_view payload) {
        auto pd = parse_dump(payload);
        if (!pd || !absorb(*pd)) {
          bad = true;
          return false;
        }
        return true;
      });
  if (bad || scan == drain::ChunkScan::kCorrupt) {
    set_err(error, "corrupt chunk sequence");
    return std::nullopt;
  }

  // The final residue dump — optional, as in Profile::load_spill.
  if (auto raw = map_file(prefix + ".log")) {
    auto pd = parse_dump(raw->bytes());
    if (!pd || !absorb(*pd)) {
      set_err(error, "bad residue dump");
      return std::nullopt;
    }
  }

  if (!st.any()) {
    set_err(error, "no chunks and no residue dump");
    return std::nullopt;
  }
  sa.set_ns_per_tick(st.ns_per_tick());
  return sa.finish();
}

std::optional<MergeableProfile> StreamAnalyzer::analyze(
    const std::string& prefix, std::string* error) {
  if (file_exists(drain::chunk_path(prefix, 0))) {
    return analyze_spill(prefix, error);
  }
  // Mapped, not read: the windows are analyzed where the page cache holds
  // them, and no entry is copied on the way in.
  auto raw = map_file(prefix + ".log");
  if (!raw) {
    set_err(error, "cannot read log");
    return std::nullopt;
  }
  std::unordered_map<u64, std::string> symbols;
  if (auto sym = read_file(prefix + ".sym")) symbols = SymbolRegistry::parse(*sym);
  auto pd = parse_dump(raw->bytes());
  if (!pd) {
    set_err(error, "unparseable dump");
    return std::nullopt;
  }
  StreamAnalyzer sa(std::move(symbols));
  sa.feed_dump(*pd);
  sa.set_ns_per_tick(pd->ns_per_tick);
  return sa.finish();
}

}  // namespace teeperf::analyzer
