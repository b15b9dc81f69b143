// Golden-file regression tests for the analyzer (TESTING.md "Golden
// files"): every seed_*.log in tests/corpus has a checked-in reference
// rendering — folded stacks and method-stat JSON — and analysis output must
// stay bit-identical to it. Any intentional analyzer change regenerates the
// references with TEEPERF_UPDATE_GOLDEN=1 and reviews the diff.
//
// Plus the v1-vs-v2 differential: the same scripted workload recorded
// through the single-tail v1 path and the sharded/batched v2 path must
// produce identical method stats — the shard layout is a performance
// change, never a semantic one. And the copy-free report path
// differentials: the gathered dump writer, the in-place .sym scan and the
// span-based dump parser against the copying code they replaced.
#include <dirent.h>
#include <dlfcn.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "analyzer/dump_reader.h"
#include "analyzer/profile.h"
#include "common/fileutil.h"
#include "common/stringutil.h"
#include "core/log_format.h"
#include "core/profiler.h"
#include "core/symbol_dump.h"
#include "faultsim/fault.h"
#include "faultsim/fault_points.h"

namespace teeperf {
namespace {

std::string corpus_dir() {
  const char* dir = std::getenv("TEEPERF_CORPUS_DIR");
  return dir && *dir ? dir : "tests/corpus";
}

bool update_mode() {
  const char* u = std::getenv("TEEPERF_UPDATE_GOLDEN");
  return u && *u && std::string(u) != "0";
}

std::vector<std::string> seed_logs() {
  std::vector<std::string> names;
  DIR* d = opendir(corpus_dir().c_str());
  if (!d) return names;
  while (dirent* entry = readdir(d)) {
    std::string name = entry->d_name;
    if (starts_with(name, "seed_") && name.size() > 4 &&
        name.compare(name.size() - 4, 4, ".log") == 0) {
      names.push_back(name.substr(0, name.size() - 4));
    }
  }
  closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

// Canonical folded-stacks rendering: already sorted by path in the API.
std::string render_folded(const analyzer::Profile& p) {
  std::string out;
  for (const auto& [path, ticks] : p.folded_stacks()) {
    out += path;
    out += ' ';
    out += std::to_string(ticks);
    out += '\n';
  }
  return out;
}

// Method stats as JSON lines, sorted by method id — method_stats() sorts by
// exclusive time, where ties would make the golden nondeterministic.
std::string render_stats_json(const analyzer::Profile& p) {
  auto stats = p.method_stats();
  std::sort(stats.begin(), stats.end(),
            [](const analyzer::MethodStats& a, const analyzer::MethodStats& b) {
              return a.method < b.method;
            });
  std::string out = "[\n";
  for (usize i = 0; i < stats.size(); ++i) {
    const auto& s = stats[i];
    out += str_format(
        "  {\"method\": \"%s\", \"count\": %llu, \"inclusive\": %llu, "
        "\"exclusive\": %llu, \"min\": %llu, \"max\": %llu}%s\n",
        p.name(s.method).c_str(), static_cast<unsigned long long>(s.count),
        static_cast<unsigned long long>(s.inclusive_total),
        static_cast<unsigned long long>(s.exclusive_total),
        static_cast<unsigned long long>(s.min_inclusive),
        static_cast<unsigned long long>(s.max_inclusive),
        i + 1 < stats.size() ? "," : "");
  }
  out += "]\n";
  return out;
}

void check_golden(const std::string& golden_path, const std::string& actual) {
  if (update_mode()) {
    ASSERT_TRUE(write_file(golden_path, actual)) << golden_path;
    return;
  }
  auto expected = read_file(golden_path);
  ASSERT_TRUE(expected) << "missing golden " << golden_path
                        << " — regenerate with TEEPERF_UPDATE_GOLDEN=1";
  EXPECT_EQ(*expected, actual)
      << "analyzer output drifted from " << golden_path
      << " — if intentional, regenerate with TEEPERF_UPDATE_GOLDEN=1";
}

TEST(GoldenCorpus, HasSeeds) {
  // The suite below silently passes on an empty list; make that loud.
  EXPECT_GE(seed_logs().size(), 8u) << "corpus dir: " << corpus_dir();
}

TEST(GoldenCorpus, FoldedStacksAndMethodStatsBitIdentical) {
  for (const std::string& name : seed_logs()) {
    SCOPED_TRACE(name);
    auto raw = read_file(corpus_dir() + "/" + name + ".log");
    ASSERT_TRUE(raw);
    auto profile = analyzer::Profile::load_bytes(*raw);
    ASSERT_TRUE(profile) << "loader rejected a trusted seed";
    std::string golden_base = corpus_dir() + "/golden/" + name;
    check_golden(golden_base + ".folded", render_folded(*profile));
    check_golden(golden_base + ".stats.json", render_stats_json(*profile));
  }
}

// ------------------------------------------------------- v1/v2 differential

// A deterministic multi-thread workload scripted as (kind, addr, tid,
// counter) tuples: nested calls, a stray return, interleaved threads.
struct Step {
  EventKind kind;
  u64 addr;
  u64 tid;
  u64 counter;
};

std::vector<Step> scripted_workload() {
  std::vector<Step> steps;
  u64 c = 1000;
  for (u64 rep = 0; rep < 50; ++rep) {
    for (u64 tid = 0; tid < 4; ++tid) {
      steps.push_back({EventKind::kCall, 0x1000 + tid, tid, c += 3});
      steps.push_back({EventKind::kCall, 0x2000 + tid, tid, c += 3});
      steps.push_back({EventKind::kReturn, 0x2000 + tid, tid, c += 3});
    }
    for (u64 tid = 0; tid < 4; ++tid) {
      steps.push_back({EventKind::kCall, 0x3000, tid, c += 3});
      steps.push_back({EventKind::kReturn, 0x3000, tid, c += 3});
      steps.push_back({EventKind::kReturn, 0x1000 + tid, tid, c += 3});
    }
  }
  return steps;
}

std::string stats_signature(const analyzer::Profile& p) {
  return render_stats_json(p);
}

TEST(V1V2Differential, SameWorkloadIdenticalMethodStats) {
  std::vector<Step> steps = scripted_workload();

  // v1: every step through the classic single-tail append.
  std::vector<u8> v1_buf(ProfileLog::bytes_for(4096));
  ProfileLog v1;
  ASSERT_TRUE(v1.init(v1_buf.data(), v1_buf.size(), 1,
                      log_flags::kActive | log_flags::kMultithread));
  for (const Step& s : steps) {
    ASSERT_TRUE(v1.append(s.kind, s.addr, s.tid, s.counter));
  }

  // v2: the same steps through per-thread batches into a sharded log, with
  // deliberately unflushed remainders published at the end (as the runtime
  // does at thread exit / detach).
  std::vector<u8> v2_buf(ProfileLog::bytes_for(4096, 4));
  ProfileLog v2;
  ASSERT_TRUE(v2.init(v2_buf.data(), v2_buf.size(), 1,
                      log_flags::kActive | log_flags::kMultithread, 4));
  LogBatch batches[4];
  for (const Step& s : steps) {
    ASSERT_TRUE(batches[s.tid].record(v2, s.kind, s.addr, s.tid, s.counter));
  }
  for (LogBatch& b : batches) ASSERT_TRUE(b.flush(v2));

  ASSERT_EQ(v1.size(), v2.size());
  auto p1 = analyzer::Profile::from_log(v1, {}, 1.0);
  auto p2 = analyzer::Profile::from_log(v2, {}, 1.0);
  EXPECT_EQ(p1.thread_count(), p2.thread_count());
  EXPECT_EQ(stats_signature(p1), stats_signature(p2));
  EXPECT_EQ(render_folded(p1), render_folded(p2));
}

TEST(V1V2Differential, DumpRoundTripIdenticalMethodStats) {
  // The serialized compact form must analyze identically to the live log.
  std::vector<Step> steps = scripted_workload();
  std::vector<u8> buf(ProfileLog::bytes_for(4096, 4));
  ProfileLog log;
  ASSERT_TRUE(log.init(buf.data(), buf.size(), 1,
                       log_flags::kActive | log_flags::kMultithread, 4));
  LogBatch batches[4];
  for (const Step& s : steps) {
    ASSERT_TRUE(batches[s.tid].record(log, s.kind, s.addr, s.tid, s.counter));
  }
  for (LogBatch& b : batches) ASSERT_TRUE(b.flush(log));

  auto live = analyzer::Profile::from_log(log, {}, 1.0);
  auto loaded = analyzer::Profile::load_bytes(log.serialize_compact());
  ASSERT_TRUE(loaded);
  EXPECT_EQ(stats_signature(live), stats_signature(*loaded));
  EXPECT_EQ(render_folded(live), render_folded(*loaded));
}

// ------------------------------------------- copy-free report path differentials
//
// The dump is written straight out of the shm windows (write_compact), the
// .sym scan reads the windows in place, and parse_dump views the caller's
// bytes. Each is held byte-identical to the copying code it replaced.

// A log of one layout filled with a known per-shard sequence, plus the
// windows that sequence must leave behind.
struct BuiltLog {
  std::vector<u8> buf;
  ProfileLog log;
  std::vector<std::vector<LogEntry>> expected;  // per window, oldest→newest
  std::vector<u64> starts;                      // per window start cursor
};

LogEntry make_entry(u64 tid, u64 i) {
  LogEntry e;
  e.kind_and_counter = LogEntry::pack(
      i % 2 ? EventKind::kReturn : EventKind::kCall, 1000 + i);
  e.addr = 0x4000 + 16 * (i / 2);
  e.tid = tid;
  return e;
}

// `shards` 0 = v1. Shard s receives appends[s] entries (tid s). Bounded
// logs keep the first `cap` per shard, rings the newest `cap`. Spill logs
// play a drainer that consumed `drained` entries of shard 0 halfway (so the
// residue window wraps the segment end).
std::unique_ptr<BuiltLog> build_log(u32 shards, u64 extra_flags, u64 cap,
                                    std::vector<u64> appends,
                                    u64 drained = 0) {
  auto b = std::make_unique<BuiltLog>();
  u32 windows = shards ? shards : 1;
  b->buf.resize(ProfileLog::bytes_for(cap * windows, shards));
  EXPECT_TRUE(b->log.init(b->buf.data(), b->buf.size(), 7,
                          log_flags::kActive | log_flags::kMultithread |
                              extra_flags,
                          shards));
  bool ring = extra_flags & log_flags::kRingBuffer;
  bool spill = extra_flags & log_flags::kSpillDrain;
  b->expected.resize(windows);
  b->starts.resize(windows, 0);
  for (u32 s = 0; s < windows; ++s) {
    // v2 publishes in runtime-sized batches; v1 entry by entry.
    std::vector<LogEntry> batch;
    auto publish = [&] {
      if (shards) {
        b->log.append_batch(batch.data(), static_cast<u32>(batch.size()), s);
      } else {
        for (const LogEntry& e : batch) {
          b->log.append(e.kind(), e.addr, e.tid, e.counter());
        }
      }
      batch.clear();
    };
    for (u64 i = 0; i < appends[s]; ++i) {
      batch.push_back(make_entry(s, i));
      if (batch.size() == LogBatch::kCapacity) publish();
      if (spill && s == 0 && i + 1 == appends[s] / 2) {
        publish();
        b->log.shard(0)->drained.store(drained, std::memory_order_release);
      }
    }
    if (!batch.empty()) publish();
    u64 n = appends[s];
    u64 lo = 0;
    u64 hi = std::min(n, cap);
    if (ring && n > cap) {
      lo = n - cap;
      hi = n;
    }
    if (spill && s == 0) {
      lo = drained;
      hi = n;
    }
    for (u64 i = lo; i < hi; ++i) b->expected[s].push_back(make_entry(s, i));
    b->starts[s] = lo;
  }
  return b;
}

struct NamedLayout {
  const char* name;
  std::function<std::unique_ptr<BuiltLog>()> make;
};

std::vector<NamedLayout> compact_layouts() {
  return {
      {"v1_bounded", [] { return build_log(0, 0, 64, {40}); }},
      {"v1_ring_wrapped",
       [] { return build_log(0, log_flags::kRingBuffer, 64, {150}); }},
      {"v2_bounded", [] { return build_log(4, 0, 64, {40, 0, 64, 90}); }},
      {"v2_ring_wrapped",
       [] { return build_log(3, log_flags::kRingBuffer, 64, {150, 30, 64}); }},
      {"spill_residue",
       [] { return build_log(2, log_flags::kSpillDrain, 64, {100, 20}, 44); }},
  };
}

bool same_entries(std::span<const LogEntry> a, std::span<const LogEntry> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

TEST(CompactWriter, WindowViewMatchesAppendedSequence) {
  for (const NamedLayout& l : compact_layouts()) {
    SCOPED_TRACE(l.name);
    auto b = l.make();
    ASSERT_EQ(b->log.window_count(), b->expected.size());
    u32 visited = 0;
    b->log.for_each_window([&](u32 s, std::span<const LogEntry> first,
                               std::span<const LogEntry> second) {
      ++visited;
      std::vector<LogEntry> got(first.begin(), first.end());
      got.insert(got.end(), second.begin(), second.end());
      EXPECT_TRUE(same_entries(got, b->expected[s])) << "window " << s;
      EXPECT_EQ(b->log.window(s).start, b->starts[s]) << "window " << s;
    });
    EXPECT_EQ(visited, b->expected.size());
  }
}

TEST(CompactWriter, WriteCompactBytesEqualSerializeCompact) {
  std::string dir = make_temp_dir("teeperf_compact_");
  for (const NamedLayout& l : compact_layouts()) {
    SCOPED_TRACE(l.name);
    auto b = l.make();
    std::string path = dir + "/" + l.name + ".log";
    ASSERT_TRUE(b->log.write_compact(path));
    auto written = read_file(path);
    ASSERT_TRUE(written);
    std::string serialized = b->log.serialize_compact();
    EXPECT_EQ(*written, serialized);
    // And the bytes hold exactly the expected windows, in plain order.
    auto pd = analyzer::parse_dump(serialized);
    ASSERT_TRUE(pd);
    ASSERT_EQ(pd->shards.size(), b->expected.size());
    for (usize s = 0; s < b->expected.size(); ++s) {
      EXPECT_TRUE(same_entries(pd->shards[s], b->expected[s])) << s;
      if (b->log.sharded()) {
        EXPECT_EQ(pd->starts[s], b->starts[s]) << s;
      }
    }
  }
  remove_tree(dir);
}

TEST(CompactWriter, RecorderDumpWritesSerializedBytesAndFaultedCopy) {
  std::string dir = make_temp_dir("teeperf_compact_dump_");
  RecorderOptions opts;
  opts.counter_mode = CounterMode::kSteadyClock;
  opts.shards = 4;
  opts.max_entries = 1 << 14;
  opts.telemetry = false;
  auto rec = Recorder::create(opts);
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->attach());
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 200; ++i) {
        TEEPERF_SCOPE("compact::outer");
        TEEPERF_SCOPE("compact::inner");
      }
    });
  }
  for (auto& th : threads) th.join();
  rec->detach();

  // Nothing armed: the gathered write of the shm windows.
  ASSERT_TRUE(rec->dump(dir + "/plain"));
  auto plain = read_file(dir + "/plain.log");
  ASSERT_TRUE(plain);
  EXPECT_EQ(*plain, rec->log().serialize_compact());

  // A dump byte fault armed: the serialized copy, mangled exactly as the
  // same seed mangles serialize_compact() — never the live log.
  auto& faults = fault::Registry::instance();
  faults.reset();
  faults.set_seed(11);
  ASSERT_TRUE(faults.arm_from_spec("dump.bitflip:nth=1"));
  ASSERT_TRUE(rec->dump(dir + "/faulted"));
  faults.reset();
  faults.set_seed(11);
  ASSERT_TRUE(faults.arm_from_spec("dump.bitflip:nth=1"));
  std::string expect = rec->log().serialize_compact();
  EXPECT_TRUE(fault::apply_byte_faults(fault_points::kDumpPrefix, &expect));
  faults.reset();
  auto faulted = read_file(dir + "/faulted.log");
  ASSERT_TRUE(faulted);
  EXPECT_EQ(*faulted, expect);
  EXPECT_NE(*faulted, *plain);
  remove_tree(dir);
}

// The .sym builder before the in-place scan: copy the windows out, then
// scan. Kept as the oracle for the in-place builder's bytes (insertion
// order into the set decides the file's line order).
std::string copying_symbol_file(const ProfileLog& log) {
  std::string sym = SymbolRegistry::instance().serialize();
  std::unordered_set<u64> raw_addrs;
  std::vector<LogEntry> entries;
  log.snapshot_ordered(&entries);
  for (const LogEntry& e : entries) {
    if (!SymbolRegistry::is_registered_id(e.addr)) raw_addrs.insert(e.addr);
  }
  std::vector<u64> seen;
  runtime::seen_addresses(&seen);
  for (u64 a : seen) {
    if (!SymbolRegistry::is_registered_id(a)) raw_addrs.insert(a);
  }
  for (u64 a : raw_addrs) {
    Dl_info info{};
    std::string name;
    if (dladdr(reinterpret_cast<void*>(a), &info) && info.dli_sname) {
      name = demangle(info.dli_sname);
    } else {
      name = str_format("0x%llx", static_cast<unsigned long long>(a));
    }
    sym += str_format("%llu\t", static_cast<unsigned long long>(a));
    sym += name;
    sym += '\n';
  }
  return sym;
}

TEST(SymbolFile, InPlaceScanMatchesCopyingBuilder) {
  for (const NamedLayout& l : compact_layouts()) {
    SCOPED_TRACE(l.name);
    auto b = l.make();
    EXPECT_EQ(build_symbol_file(b->log), copying_symbol_file(b->log));
  }
  // Real raw addresses (dladdr-resolvable) mixed with registered ids.
  std::vector<u8> buf(ProfileLog::bytes_for(256, 2));
  ProfileLog log;
  ASSERT_TRUE(log.init(buf.data(), buf.size(), 7,
                       log_flags::kActive | log_flags::kRingBuffer, 2));
  u64 fns[] = {reinterpret_cast<u64>(&dladdr), reinterpret_cast<u64>(&std::memcmp),
               SymbolRegistry::instance().intern("sym::registered")};
  for (u64 i = 0; i < 600; ++i) {
    log.append(EventKind::kCall, fns[i % 3] + (i % 7), i % 5, i);
  }
  EXPECT_EQ(build_symbol_file(log), copying_symbol_file(log));
}

// parse_dump before the views: every window copied into owned vectors.
// Kept as the oracle for accept/reject decisions and window contents.
struct CopiedDump {
  std::vector<std::vector<LogEntry>> shards;
  std::vector<u64> starts;
  double ns_per_tick = 0.0;
};

std::optional<CopiedDump> copying_parse_dump(std::string_view bytes) {
  if (bytes.size() < sizeof(LogHeader)) return std::nullopt;
  alignas(LogHeader) unsigned char header_buf[sizeof(LogHeader)];
  std::memcpy(header_buf, bytes.data(), sizeof(LogHeader));
  const auto* h = reinterpret_cast<const LogHeader*>(header_buf);
  if (h->magic != kLogMagic) return std::nullopt;
  if (h->version != kLogVersion && h->version != kLogVersionSharded) {
    return std::nullopt;
  }
  CopiedDump d;
  d.ns_per_tick = h->ns_per_tick;
  if (!std::isfinite(d.ns_per_tick) || d.ns_per_tick < 0.0) d.ns_per_tick = 0.0;
  auto copy = [](const char* at, u64 n) {
    std::vector<LogEntry> v(static_cast<usize>(n));
    if (n) std::memcpy(static_cast<void*>(v.data()), at, n * sizeof(LogEntry));
    return v;
  };
  if (h->version == kLogVersion) {
    u64 available = (bytes.size() - sizeof(LogHeader)) / sizeof(LogEntry);
    u64 n = std::min({available, h->tail.load(std::memory_order_relaxed),
                      h->max_entries});
    d.shards.push_back(copy(bytes.data() + sizeof(LogHeader), n));
    d.starts.push_back(0);
    return d;
  }
  u32 nshards = h->shard_count;
  if (nshards == 0 || nshards > kMaxLogShards) return std::nullopt;
  usize dir_bytes = static_cast<usize>(nshards) * sizeof(LogShard);
  if (bytes.size() - sizeof(LogHeader) < dir_bytes) return std::nullopt;
  std::vector<LogShard> dir(nshards);
  std::memcpy(static_cast<void*>(dir.data()), bytes.data() + sizeof(LogHeader),
              dir_bytes);
  const char* base = bytes.data() + sizeof(LogHeader) + dir_bytes;
  u64 available = (bytes.size() - sizeof(LogHeader) - dir_bytes) / sizeof(LogEntry);
  u64 budget = available;
  d.shards.resize(nshards);
  d.starts.resize(nshards, 0);
  for (u32 s = 0; s < nshards; ++s) {
    d.starts[s] = dir[s].drained.load(std::memory_order_relaxed);
    u64 off = dir[s].entry_offset;
    if (off >= available) continue;
    u64 n = std::min({dir[s].tail.load(std::memory_order_relaxed),
                      dir[s].capacity, available - off, budget});
    budget -= n;
    d.shards[s] = copy(base + off * sizeof(LogEntry), n);
  }
  return d;
}

// Same decision and same windows as the copying oracle; `where` names the
// input in failures.
void expect_parse_matches_oracle(std::string_view bytes, const std::string& where) {
  auto got = analyzer::parse_dump(bytes);
  auto want = copying_parse_dump(bytes);
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!want) return;
  ASSERT_EQ(got->shards.size(), want->shards.size()) << where;
  EXPECT_EQ(got->starts, want->starts) << where;
  EXPECT_EQ(std::memcmp(&got->ns_per_tick, &want->ns_per_tick, sizeof(double)), 0)
      << where;
  for (usize s = 0; s < want->shards.size(); ++s) {
    EXPECT_TRUE(same_entries(got->shards[s], want->shards[s]))
        << where << " window " << s;
  }
}

std::vector<std::string> corpus_logs() {
  std::vector<std::string> names;
  DIR* d = opendir(corpus_dir().c_str());
  if (!d) return names;
  while (dirent* entry = readdir(d)) {
    std::string name = entry->d_name;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".log") == 0) {
      names.push_back(name);
    }
  }
  closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

TEST(ParseDumpViews, MisalignedCopyParsesSameWindows) {
  std::vector<std::string> names = corpus_logs();
  ASSERT_GE(names.size(), 12u) << "corpus dir: " << corpus_dir();
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    auto raw = read_file(corpus_dir() + "/" + name);
    ASSERT_TRUE(raw);
    auto aligned = map_file(corpus_dir() + "/" + name);
    ASSERT_TRUE(aligned);
    ASSERT_EQ(aligned->bytes(), *raw);
    // The same bytes one past an 8-byte boundary.
    std::vector<char> shifted(raw->size() + 8);
    char* at = shifted.data() + 1;
    while (reinterpret_cast<uintptr_t>(at) % alignof(LogEntry) != 1) ++at;
    std::memcpy(at, raw->data(), raw->size());
    std::string_view misaligned(at, raw->size());

    auto a = analyzer::parse_dump(aligned->bytes());
    auto m = analyzer::parse_dump(misaligned);
    ASSERT_EQ(a.has_value(), m.has_value());
    if (!a) continue;
    EXPECT_TRUE(a->owned.empty()) << "aligned input must be viewed in place";
    EXPECT_EQ(a->starts, m->starts);
    EXPECT_EQ(a->ns_per_tick, m->ns_per_tick);
    ASSERT_EQ(a->shards.size(), m->shards.size());
    for (usize s = 0; s < a->shards.size(); ++s) {
      EXPECT_TRUE(same_entries(a->shards[s], m->shards[s])) << "window " << s;
      if (!m->shards[s].empty()) {
        // Misaligned windows view the one owned, aligned copy.
        const LogEntry* lo = m->owned.data();
        EXPECT_GE(m->shards[s].data(), lo);
        EXPECT_LE(m->shards[s].data() + m->shards[s].size(), lo + m->owned.size());
      }
    }
    expect_parse_matches_oracle(*raw, name);
    expect_parse_matches_oracle(misaligned, name + " (misaligned)");
  }
}

TEST(ParseDumpViews, HostileInputsRejectAsCopyingParser) {
  // Every corpus file, hostile regressions included, plus deterministic
  // mutations: each truncation through the header and directory, and each
  // single-bit flip of the header and the first directory records.
  for (const std::string& name : corpus_logs()) {
    SCOPED_TRACE(name);
    auto raw = read_file(corpus_dir() + "/" + name);
    ASSERT_TRUE(raw);
    expect_parse_matches_oracle(*raw, name);
    usize structural = std::min<usize>(raw->size(), sizeof(LogHeader) + 4 * sizeof(LogShard));
    for (usize cut = 0; cut <= structural; ++cut) {
      expect_parse_matches_oracle(std::string_view(*raw).substr(0, cut),
                                  name + " cut " + std::to_string(cut));
    }
    std::string flipped = *raw;
    for (usize bit = 0; bit < structural * 8; ++bit) {
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
      expect_parse_matches_oracle(flipped, name + " flip " + std::to_string(bit));
      flipped[bit / 8] = (*raw)[bit / 8];
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ParseDumpViews, MappedLoadMatchesInMemoryLoad) {
  // Profile::load maps the file; load_bytes reads a string. Same decision,
  // same reconstruction, for every corpus file.
  std::string dir = make_temp_dir("teeperf_mapped_");
  for (const std::string& name : corpus_logs()) {
    SCOPED_TRACE(name);
    auto raw = read_file(corpus_dir() + "/" + name);
    ASSERT_TRUE(raw);
    std::string prefix = dir + "/" + name.substr(0, name.size() - 4);
    ASSERT_TRUE(write_file(prefix + ".log", *raw));
    auto mapped = analyzer::Profile::load(prefix);
    auto bytes = analyzer::Profile::load_bytes(*raw);
    ASSERT_EQ(mapped.has_value(), bytes.has_value());
    if (!mapped) continue;
    EXPECT_EQ(render_folded(*mapped), render_folded(*bytes));
    EXPECT_EQ(render_stats_json(*mapped), render_stats_json(*bytes));
    auto issues_mapped = analyzer::Profile::validate_file(prefix);
    ASSERT_TRUE(issues_mapped);
    std::vector<LogEntry> flat;
    auto pd = analyzer::parse_dump(*raw);
    ASSERT_TRUE(pd);
    for (auto span : pd->shards) flat.insert(flat.end(), span.begin(), span.end());
    auto issues_flat = analyzer::Profile::validate(flat.data(), flat.size());
    ASSERT_EQ(issues_mapped->size(), issues_flat.size());
    for (usize i = 0; i < issues_flat.size(); ++i) {
      EXPECT_EQ((*issues_mapped)[i].kind, issues_flat[i].kind);
      EXPECT_EQ((*issues_mapped)[i].entry_index, issues_flat[i].entry_index);
      EXPECT_EQ((*issues_mapped)[i].detail, issues_flat[i].detail);
    }
  }
  remove_tree(dir);
}

}  // namespace
}  // namespace teeperf
