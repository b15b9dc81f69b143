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

void StreamAnalyzer::close_top(ShardState& sh, ThreadState& t,
                               u64 end_counter) {
  Frame f = t.open.back();
  t.open.pop_back();
  // Clamp against a non-monotonic counter, exactly as Profile::build does.
  u64 end = std::max(end_counter, f.start);
  u64 incl = end - f.start;
  u64 excl = f.children <= incl ? incl - f.children : 0;

  MethodAgg& ma = sh.methods[f.method];
  ++ma.count;
  ma.inclusive_total += incl;
  ma.exclusive_total += excl;
  ma.min_inclusive = std::min(ma.min_inclusive, incl);
  ma.max_inclusive = std::max(ma.max_inclusive, incl);

  EdgeAgg& ea = sh.edges[EdgeKey{f.from_root ? 0 : f.parent_method, f.method,
                                 f.from_root}];
  ++ea.count;
  ea.inclusive_total += incl;

  // t.path currently ends with this frame's name — it IS the root→self
  // folded path; record it, then truncate back to the parent's path.
  if (excl > 0) sh.folded[t.path] += excl;
  t.path.resize(f.path_len);

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
    ThreadState& t = sh.threads[e.tid];
    t.last_counter = e.counter();

    if (e.kind() == EventKind::kCall) {
      Frame f;
      f.method = e.addr;
      f.start = e.counter();
      f.from_root = t.open.empty();
      f.parent_method = f.from_root ? 0 : t.open.back().method;
      f.path_len = t.path.size();
      if (!t.open.empty()) t.path += ';';
      t.path += cached_name(sh, e.addr);
      t.open.push_back(f);
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

MergeableProfile StreamAnalyzer::finish() {
  MergeableProfile m;
  m.sessions = 1;
  m.ns_per_tick = ns_per_tick_;

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

    m.stats.entries += sh.recon.entries;
    m.stats.stray_returns += sh.recon.stray_returns;
    m.stats.mismatched_returns += sh.recon.mismatched_returns;
    m.stats.unwound_frames += sh.recon.unwound_frames;
    m.stats.incomplete += sh.recon.incomplete;
    m.stats.tombstones += sh.recon.tombstones;
    // tid % shard_count confines a thread to one shard: disjoint, sums exactly.
    m.stats.thread_count += sh.threads.size();

    for (auto& [id, agg] : sh.methods) {
      MprofMethod& mm = m.methods[cached_name(sh, id)];
      mm.id = std::min(mm.id, id);
      mm.count += agg.count;
      mm.inclusive_total += agg.inclusive_total;
      mm.exclusive_total += agg.exclusive_total;
      mm.min_inclusive = std::min(mm.min_inclusive, agg.min_inclusive);
      mm.max_inclusive = std::max(mm.max_inclusive, agg.max_inclusive);
    }
    for (auto& [key, agg] : sh.edges) {
      MprofEdgeKey k{key.from_root ? std::string() : cached_name(sh, key.caller),
                     cached_name(sh, key.callee), key.from_root};
      MprofEdge& me = m.edges[std::move(k)];
      me.count += agg.count;
      me.inclusive_total += agg.inclusive_total;
    }
    for (auto& [path, ticks] : sh.folded) m.stacks[path] += ticks;
  }
  return m;
}

std::optional<MergeableProfile> StreamAnalyzer::analyze_spill(
    const std::string& prefix, std::string* error) {
  std::unordered_map<u64, std::string> symbols;
  if (auto sym = read_file(prefix + ".sym")) symbols = SymbolRegistry::parse(*sym);
  StreamAnalyzer sa(std::move(symbols));
  SpillStitcher st;

  // One dump at a time: collect the stitcher's deduplicated spans (views
  // into the dump, alive for this call), then aggregate them in parallel —
  // each span is a distinct shard, so the workers share nothing.
  struct Span {
    u32 shard;
    const LogEntry* entries;
    u64 n;
  };
  auto absorb = [&](const ParsedDump& pd) -> bool {
    std::vector<Span> spans;
    if (!st.absorb(pd, [&](u32 s, const LogEntry* e, u64 n) {
          spans.push_back({s, e, n});
        })) {
      return false;
    }
    sa.ensure_shards(st.shard_count());
    run_parallel(spans.size(), [&](usize i) {
      sa.feed(spans[i].shard, spans[i].entries, spans[i].n);
    });
    return true;
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
