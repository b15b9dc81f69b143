// Differential tests for the streaming analyzer (analyzer/stream.h,
// DESIGN.md §12): StreamAnalyzer must produce the byte-identical
// MergeableProfile that the in-memory pipeline
// (Profile::load / load_spill → MergeableProfile::from_profile) produces —
// over every corpus seed, over real drainer sessions (healthy, fault-seeded
// and torn), and over rejection decisions. Plus the golden `.mprof` layer
// (regenerate with TEEPERF_UPDATE_GOLDEN=1) and the bounded-memory property
// the streaming pass exists for: analyzing a spill session far larger than
// the shm window without ever holding it in memory.
#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analyzer/mprof.h"
#include "analyzer/profile.h"
#include "analyzer/stream.h"
#include "common/fileutil.h"
#include "common/stringutil.h"
#include "core/log_format.h"
#include "drain/chunk_format.h"
#include "drain/drainer.h"
#include "faultsim/fault.h"

namespace teeperf {
namespace {

using analyzer::MergeableProfile;
using analyzer::Profile;
using analyzer::StreamAnalyzer;

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

void check_golden(const std::string& golden_path, const std::string& actual) {
  if (update_mode()) {
    ASSERT_TRUE(write_file(golden_path, actual)) << golden_path;
    return;
  }
  auto expected = read_file(golden_path);
  ASSERT_TRUE(expected) << "missing golden " << golden_path
                        << " — regenerate with TEEPERF_UPDATE_GOLDEN=1";
  EXPECT_EQ(*expected, actual)
      << "streaming analyzer output drifted from " << golden_path
      << " — if intentional, regenerate with TEEPERF_UPDATE_GOLDEN=1";
}

std::string tmp_prefix(const char* name) {
  return testing::TempDir() + "teeperf_stream_" + name + "." +
         std::to_string(getpid());
}

void remove_session(const std::string& prefix) {
  std::remove((prefix + ".log").c_str());
  for (u32 seq = 0;; ++seq) {
    std::string p = drain::chunk_path(prefix, seq);
    if (!file_exists(p)) break;
    std::remove(p.c_str());
  }
}

// Process-lifetime peak RSS — gtest_discover_tests runs each TEST in its
// own process, so deltas of this measure the enclosed phase's true peak,
// not just its settled footprint.
u64 peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<u64>(ru.ru_maxrss) * 1024;
}

// The in-memory reference pipeline the streaming pass is held equal to.
std::string reference_bytes(const std::string& prefix) {
  auto ref = Profile::load(prefix);
  EXPECT_TRUE(ref.has_value());
  return ref ? MergeableProfile::from_profile(*ref).save() : std::string();
}

// ------------------------------------------------ drainer-session plumbing
// (the test_drain workload, sized down: 4 writers x 400 reps x 4 entries
// against a 1024-entry window — still ~6x the shm capacity)

constexpr int kWriters = 4;
constexpr u64 kReps = 400;
constexpr u64 kTotalEntries = kWriters * kReps * 4;
constexpr u64 kSpillCapacity = 1024;
constexpr u32 kShards = 2;

struct PatientWriters {
  PatientWriters() { ProfileLog::set_spill_wait_spins(~0ull); }
  ~PatientWriters() { ProfileLog::set_spill_wait_spins(u64{1} << 27); }
};

void run_workload(ProfileLog& log) {
  std::vector<std::thread> ws;
  ws.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    ws.emplace_back([&log, t] {
      LogBatch batch;
      const u64 tid = 100 + static_cast<u64>(t);
      const u64 base = 0x1000ull * static_cast<u64>(t + 1);
      u64 c = 1;
      for (u64 i = 0; i < kReps; ++i) {
        batch.record(log, EventKind::kCall, base, tid, c++);
        batch.record(log, EventKind::kCall, base + 1, tid, c++);
        batch.record(log, EventKind::kReturn, base + 1, tid, c++);
        batch.record(log, EventKind::kReturn, base, tid, c++);
      }
      batch.flush(log);
    });
  }
  for (auto& th : ws) th.join();
}

struct SpillLog {
  std::vector<u8> buf;
  ProfileLog log;
  explicit SpillLog(u64 capacity = kSpillCapacity, u32 shards = kShards) {
    buf.resize(ProfileLog::bytes_for(capacity, shards));
    EXPECT_TRUE(log.init(buf.data(), buf.size(), /*pid=*/1,
                         log_flags::kActive | log_flags::kMultithread |
                             log_flags::kSpillDrain,
                         shards));
  }
};

int run_supervised(ProfileLog& log, drain::Drainer& drainer) {
  std::atomic<bool> done{false};
  std::thread workload([&] {
    run_workload(log);
    done.store(true, std::memory_order_release);
  });
  int restarts = 0;
  while (!done.load(std::memory_order_acquire)) {
    if (drainer.dead()) {
      ++restarts;
      EXPECT_TRUE(drainer.restart());
    }
    usleep(500);
  }
  workload.join();
  if (drainer.dead()) {
    ++restarts;
    EXPECT_TRUE(drainer.restart());
  }
  return restarts;
}

// Runs one spill session to completion (chunks + residue dump on disk) and
// returns the drainer restart count.
int record_spill_session(const std::string& prefix, const char* fault_spec) {
  SpillLog s;
  drain::DrainerOptions dopts;
  dopts.prefix = prefix;
  dopts.chunk_entries = 256;
  dopts.poll_interval_us = 100;
  drain::Drainer drainer(&s.log, dopts);
  EXPECT_TRUE(drainer.start());
  int restarts;
  if (fault_spec) {
    fault::ScopedFault fault(fault_spec);
    restarts = run_supervised(s.log, drainer);
  } else {
    run_workload(s.log);
    restarts = 0;
  }
  EXPECT_TRUE(drainer.final_drain());
  EXPECT_EQ(s.log.dropped(), 0u);
  EXPECT_TRUE(write_file(prefix + ".log", s.log.serialize_compact()));
  return restarts;
}

// ------------------------------------------------------ corpus differential

TEST(AnalyzeStream, CorpusDifferentialByteIdentical) {
  std::vector<std::string> names = seed_logs();
  ASSERT_GE(names.size(), 8u) << "corpus dir: " << corpus_dir();
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    std::string prefix = corpus_dir() + "/" + name;
    auto ref = Profile::load(prefix);
    ASSERT_TRUE(ref.has_value()) << "loader rejected a trusted seed";
    std::string err;
    auto streamed = StreamAnalyzer::analyze(prefix, &err);
    ASSERT_TRUE(streamed.has_value()) << err;
    EXPECT_EQ(streamed->save(), MergeableProfile::from_profile(*ref).save());
    EXPECT_EQ(streamed->sessions, 1u);
  }
}

TEST(AnalyzeStream, CorpusGoldenMprofBitIdentical) {
  for (const std::string& name : seed_logs()) {
    SCOPED_TRACE(name);
    auto streamed = StreamAnalyzer::analyze(corpus_dir() + "/" + name);
    ASSERT_TRUE(streamed.has_value());
    std::string bytes = streamed->save();
    check_golden(corpus_dir() + "/golden/" + name + ".mprof", bytes);
    // The checked-in golden must itself load and re-serialize canonically.
    std::string err;
    auto loaded = MergeableProfile::load_bytes(bytes, &err);
    ASSERT_TRUE(loaded.has_value()) << err;
    EXPECT_EQ(loaded->save(), bytes);
  }
}

// ------------------------------------------------- spill-session differential

TEST(AnalyzeStream, SpillSessionDifferentialByteIdentical) {
  PatientWriters patient;
  std::string prefix = tmp_prefix("spill");
  remove_session(prefix);
  record_spill_session(prefix, nullptr);

  std::string ref = reference_bytes(prefix);
  std::string err;
  auto streamed = StreamAnalyzer::analyze_spill(prefix, &err);
  ASSERT_TRUE(streamed.has_value()) << err;
  EXPECT_EQ(streamed->save(), ref);
  EXPECT_EQ(streamed->stats.entries, kTotalEntries);
  EXPECT_EQ(streamed->stats.tombstones, 0u);

  // analyze() auto-detects the chunk sequence, like Profile::load.
  auto auto_detected = StreamAnalyzer::analyze(prefix, &err);
  ASSERT_TRUE(auto_detected.has_value()) << err;
  EXPECT_EQ(auto_detected->save(), ref);
  remove_session(prefix);
}

TEST(AnalyzeStream, FaultSeededDrainerDeathDifferential) {
  // The drainer dies and restarts mid-session: chunk overlap and resume
  // stitching in play. Both pipelines must agree to the byte.
  PatientWriters patient;
  std::string prefix = tmp_prefix("die");
  remove_session(prefix);
  int restarts = record_spill_session(prefix, "drain.die:nth=2");
  EXPECT_GE(restarts, 1);

  std::string err;
  auto streamed = StreamAnalyzer::analyze(prefix, &err);
  ASSERT_TRUE(streamed.has_value()) << err;
  EXPECT_EQ(streamed->save(), reference_bytes(prefix));
  EXPECT_EQ(streamed->stats.entries, kTotalEntries);
  remove_session(prefix);
}

TEST(AnalyzeStream, FaultSeededTornChunkDifferential) {
  // A chunk torn mid-write and rewritten whole on resume: the overwritten
  // sequence must analyze identically through both pipelines.
  PatientWriters patient;
  std::string prefix = tmp_prefix("torn");
  remove_session(prefix);
  int restarts = record_spill_session(prefix, "drain.chunk.torn:nth=2");
  EXPECT_GE(restarts, 1);

  std::string err;
  auto streamed = StreamAnalyzer::analyze(prefix, &err);
  ASSERT_TRUE(streamed.has_value()) << err;
  EXPECT_EQ(streamed->save(), reference_bytes(prefix));
  EXPECT_EQ(streamed->stats.entries, kTotalEntries);
  remove_session(prefix);
}

TEST(AnalyzeStream, TornTrailingChunkParityCorruptMiddleRejectsBoth) {
  PatientWriters patient;
  std::string prefix = tmp_prefix("parity");
  remove_session(prefix);
  record_spill_session(prefix, nullptr);
  u32 chunks = 0;
  while (file_exists(drain::chunk_path(prefix, chunks))) ++chunks;
  ASSERT_GE(chunks, 3u);

  // Truncate the trailing chunk: both pipelines degrade to the surviving
  // prefix — and to the same bytes.
  std::string last_path = drain::chunk_path(prefix, chunks - 1);
  auto last_raw = read_file(last_path);
  ASSERT_TRUE(last_raw.has_value());
  ASSERT_TRUE(write_file(
      last_path, std::string_view(last_raw->data(), last_raw->size() / 2)));
  auto ref = Profile::load(prefix);
  ASSERT_TRUE(ref.has_value());
  std::string err;
  auto streamed = StreamAnalyzer::analyze(prefix, &err);
  ASSERT_TRUE(streamed.has_value()) << err;
  EXPECT_EQ(streamed->save(), MergeableProfile::from_profile(*ref).save());
  EXPECT_LT(streamed->stats.entries, kTotalEntries);  // genuinely degraded

  // A corrupt chunk in the middle rejects through both pipelines.
  ASSERT_TRUE(write_file(last_path, *last_raw));
  std::string mid_path = drain::chunk_path(prefix, 1);
  auto mid_raw = read_file(mid_path);
  ASSERT_TRUE(mid_raw.has_value());
  (*mid_raw)[mid_raw->size() / 2] ^= 0x40;
  ASSERT_TRUE(write_file(mid_path, *mid_raw));
  EXPECT_FALSE(Profile::load(prefix).has_value());
  EXPECT_FALSE(StreamAnalyzer::analyze(prefix).has_value());
  remove_session(prefix);
}

TEST(AnalyzeStream, RejectionParityWithInMemoryLoader) {
  std::string prefix = tmp_prefix("reject");
  remove_session(prefix);

  // Nothing on disk at all.
  EXPECT_EQ(Profile::load(prefix).has_value(),
            StreamAnalyzer::analyze(prefix).has_value());
  EXPECT_FALSE(StreamAnalyzer::analyze(prefix).has_value());

  // A .log that is not a dump.
  ASSERT_TRUE(write_file(prefix + ".log", "this is not a profile dump"));
  EXPECT_EQ(Profile::load(prefix).has_value(),
            StreamAnalyzer::analyze(prefix).has_value());
  EXPECT_FALSE(StreamAnalyzer::analyze(prefix).has_value());
  remove_session(prefix);

  // A lone unparseable chunk with no residue: torn-trailing tolerance has
  // nothing left to analyze — both pipelines must make the same call.
  ASSERT_TRUE(write_file(drain::chunk_path(prefix, 0), "torn"));
  EXPECT_EQ(Profile::load(prefix).has_value(),
            StreamAnalyzer::analyze(prefix).has_value());
  remove_session(prefix);
}

// ------------------------------------------ calling-context-tree edge cases
// The streaming pass reconstructs into a per-shard calling-context tree and
// names nothing until finish(); these inputs aim at what that could get
// wrong. Each is analyzed twice — as one v2 dump, and as a spill chunk
// sequence cut into at most ~40 chunks (at least 7 entries each) so open
// frames straddle chunks — and both must equal the in-memory reference to
// the byte.

using ShardStreams = std::vector<std::vector<LogEntry>>;  // per shard, in order

LogEntry event(EventKind kind, u64 addr, u64 tid, u64 counter) {
  LogEntry e{};
  e.kind_and_counter = LogEntry::pack(kind, counter);
  e.addr = addr;
  e.tid = tid;
  return e;
}

void write_dump_session(const std::string& prefix, const ShardStreams& streams) {
  u64 longest = 0;
  for (const auto& s : streams) longest = std::max<u64>(longest, s.size());
  u32 shards = static_cast<u32>(streams.size());
  // Capacity is split evenly across shards.
  std::vector<u8> buf(ProfileLog::bytes_for(longest * shards, shards));
  ProfileLog log;
  ASSERT_TRUE(log.init(buf.data(), buf.size(), /*pid=*/1,
                       log_flags::kMultithread, shards));
  for (u32 s = 0; s < shards; ++s) {
    // append_batch routes by its tid argument and stores entries verbatim,
    // so every shard receives exactly its stream, mixed tids included.
    for (usize i = 0; i < streams[s].size(); i += LogBatch::kCapacity) {
      u32 n = static_cast<u32>(
          std::min<usize>(LogBatch::kCapacity, streams[s].size() - i));
      ASSERT_TRUE(log.append_batch(streams[s].data() + i, n, s));
    }
  }
  ASSERT_TRUE(write_file(prefix + ".log", log.serialize_compact()));
}

void write_chunked_session(const std::string& prefix,
                           const ShardStreams& streams, u64 per_chunk) {
  LogHeader session{};
  session.magic = kLogMagic;
  session.version = kLogVersionSharded;
  u64 longest = 0;
  for (const auto& s : streams) longest = std::max<u64>(longest, s.size());
  for (u32 seq = 0; u64{seq} * per_chunk < longest; ++seq) {
    std::vector<drain::ShardWindow> windows(streams.size());
    for (usize s = 0; s < streams.size(); ++s) {
      u64 start = std::min<u64>(u64{seq} * per_chunk, streams[s].size());
      u64 end = std::min<u64>(start + per_chunk, streams[s].size());
      windows[s].start = start;
      windows[s].entries.assign(streams[s].begin() + static_cast<i64>(start),
                                streams[s].begin() + static_cast<i64>(end));
    }
    ASSERT_TRUE(write_file(drain::chunk_path(prefix, seq),
                           drain::serialize_chunk(session, windows, seq)));
  }
}

// Analyzes `streams` (with `sym` as the .sym file, when non-empty) through
// both pipelines, as a dump and as a chunk sequence; returns the streamed
// profile of the dump for case-specific checks.
MergeableProfile expect_cct_differential(const char* name,
                                         const ShardStreams& streams,
                                         const std::string& sym = {}) {
  SCOPED_TRACE(name);
  std::string prefix = tmp_prefix(name);
  remove_session(prefix);
  if (!sym.empty()) {
    EXPECT_TRUE(write_file(prefix + ".sym", sym));
  }

  write_dump_session(prefix, streams);
  std::string err;
  auto dumped = StreamAnalyzer::analyze(prefix, &err);
  EXPECT_TRUE(dumped.has_value()) << err;
  std::string ref = reference_bytes(prefix);
  EXPECT_EQ(dumped ? dumped->save() : std::string(), ref);
  remove_session(prefix);

  u64 longest = 0;
  for (const auto& st : streams) longest = std::max<u64>(longest, st.size());
  write_chunked_session(prefix, streams, std::max<u64>(7, longest / 40));
  auto chunked = StreamAnalyzer::analyze_spill(prefix, &err);
  EXPECT_TRUE(chunked.has_value()) << err;
  std::string chunked_ref = reference_bytes(prefix);
  EXPECT_EQ(chunked ? chunked->save() : std::string(), chunked_ref);
  // Cutting the streams into chunks changes nothing but where they are cut.
  EXPECT_EQ(chunked_ref, ref);
  remove_session(prefix);
  std::remove((prefix + ".sym").c_str());
  return dumped ? std::move(*dumped) : MergeableProfile{};
}

// 0x10 and 0x20 are both "dup": on the same path (main;dup twice, from
// different ids) and on different paths (main;dup vs main;helper;dup),
// nested in each other, and as thread roots. Shard 1 adds one more 0x20
// under 0x30, whose symbol is empty, so the higher id arrives last and 0x30
// is named by its hex address.
constexpr u64 kSameNameBlank = 0x30;
const char kSameNameSym[] = "1\tmain\n2\thelper\n16\tdup\n32\tdup\n48\t\n";

ShardStreams same_name_streams() {
  constexpr u64 kMain = 0x1, kHelper = 0x2, kDupA = 0x10, kDupB = 0x20;
  ShardStreams streams(2);
  u64 c = 1;
  u32 shard = 0;
  auto call = [&](u64 m) {
    streams[shard].push_back(event(EventKind::kCall, m, 6 + shard, c));
    c += 3;
  };
  auto ret = [&](u64 m) {
    streams[shard].push_back(event(EventKind::kReturn, m, 6 + shard, c));
    c += 2;
  };
  call(kMain);
  call(kDupA), ret(kDupA);
  call(kDupB), ret(kDupB);
  call(kHelper), call(kDupB), call(kDupA), ret(kDupA), ret(kDupB), ret(kHelper);
  call(kDupA), call(kDupB), ret(kDupB), ret(kDupA);
  ret(kMain);
  call(kDupB), ret(kDupB);
  call(kDupA), ret(kDupA);
  shard = 1;
  call(kSameNameBlank), call(kDupB), ret(kDupB), ret(kSameNameBlank);
  return streams;
}

TEST(AnalyzeStream, CctIdsSharingANameAddUp) {
  constexpr u64 kDupA = 0x10;
  MergeableProfile m =
      expect_cct_differential("samename", same_name_streams(), kSameNameSym);
  ASSERT_EQ(m.methods.count("dup"), 1u);
  EXPECT_EQ(m.methods.at("dup").count, 9u);
  EXPECT_EQ(m.methods.at("dup").id, kDupA);  // the minimum contributing id
  EXPECT_EQ(m.edges.at({"main", "dup", false}).count, 3u);
  EXPECT_EQ(m.edges.at({"dup", "dup", false}).count, 2u);
  EXPECT_EQ(m.edges.at({"", "dup", true}).count, 2u);
  EXPECT_EQ(m.stacks.count("main;dup"), 1u);
  EXPECT_EQ(m.stacks.count("main;helper;dup;dup"), 1u);
  EXPECT_EQ(m.stacks.count("0x30;dup"), 1u);
}

TEST(AnalyzeStream, EmptySymbolNameSavesALoadableMprof) {
  // The same input saved and loaded back: with the empty name taken as a
  // name, save() wrote a method keyed "" that load_bytes rejects.
  MergeableProfile m =
      expect_cct_differential("blankname", same_name_streams(), kSameNameSym);
  EXPECT_EQ(m.methods.count(""), 0u);
  EXPECT_EQ(m.methods.at("0x30").id, kSameNameBlank);
  std::string bytes = m.save();
  std::string err;
  auto loaded = MergeableProfile::load_bytes(bytes, &err);
  ASSERT_TRUE(loaded.has_value()) << err;
  EXPECT_EQ(loaded->save(), bytes);
}

TEST(AnalyzeStream, SymbolNamesThatSplitFoldedPathsFallBackToHex) {
  // A ';' inside a name would add a frame to every folded path through it.
  // The .sym line is dropped and both builders name the method by address.
  ShardStreams streams(1);
  streams[0] = {event(EventKind::kCall, 0x1, 1, 10),
                event(EventKind::kCall, 0x2, 1, 12),
                event(EventKind::kReturn, 0x2, 1, 20),
                event(EventKind::kReturn, 0x1, 1, 25)};
  MergeableProfile m =
      expect_cct_differential("semicolon", streams, "1\tmain\n2\ta;b\n");
  EXPECT_EQ(m.stacks.count("main;0x2"), 1u);
  EXPECT_EQ(m.stacks.count("main;a;b"), 0u);
  std::string err;
  EXPECT_TRUE(MergeableProfile::load_bytes(m.save(), &err).has_value()) << err;
}

TEST(AnalyzeStream, CctDeepRecursion) {
  // 12,000 nested calls of one method. Time advances only every 1,000
  // levels, so a handful of depths carry exclusive time and the folded
  // paths stay small enough to compare.
  constexpr u64 kDepth = 12000;
  constexpr u64 kRec = 0x40;
  std::vector<LogEntry> s;
  u64 c = 10;
  for (u64 d = 0; d < kDepth; ++d) {
    if (d % 1000 == 0) c += 5;
    s.push_back(event(EventKind::kCall, kRec, 3, c));
  }
  c += 7;
  for (u64 d = 0; d < kDepth; ++d) s.push_back(event(EventKind::kReturn, kRec, 3, c));

  MergeableProfile m = expect_cct_differential("deep", {s}, "64\tr\n");
  EXPECT_EQ(m.methods.at("r").count, kDepth);
  EXPECT_EQ(m.edges.at({"r", "r", false}).count, kDepth - 1);
  EXPECT_EQ(m.stacks.size(), kDepth / 1000);  // 11 steps below, 1 leaf
  EXPECT_EQ(m.stats.incomplete, 0u);
}

TEST(AnalyzeStream, CctWideFanOutOfRawAddresses) {
  // One parent calls 10,000 distinct unsymbolized callees, then repeats
  // every tenth: past the last-child memo, every call is an index lookup.
  constexpr u64 kFan = 10000;
  std::vector<LogEntry> s;
  u64 c = 1;
  s.push_back(event(EventKind::kCall, 0x1, 9, c++));
  for (u64 pass = 0; pass < 2; ++pass) {
    for (u64 i = 0; i < kFan; i += pass == 0 ? 1 : 10) {
      s.push_back(event(EventKind::kCall, 0x100000 + i, 9, c++));
      s.push_back(event(EventKind::kReturn, 0x100000 + i, 9, c += 1 + i % 3));
    }
  }
  s.push_back(event(EventKind::kReturn, 0x1, 9, c++));

  MergeableProfile m = expect_cct_differential("wide", {s});
  EXPECT_EQ(m.methods.size(), kFan + 1);
  EXPECT_EQ(m.stacks.size(), kFan + 1);
}

TEST(AnalyzeStream, CctTwoTidsInterleavedInOneShardWithRepairs) {
  // Tids 2 and 4 share shard 0 of two (tid % 2), alternating in runs of
  // uneven length, sharing call paths, with a stray return, mismatched
  // returns and an unwind on the way. Shard 1 holds a third thread.
  ShardStreams streams(2);
  u64 c = 1;
  auto run = [&](u64 tid, std::initializer_list<std::pair<EventKind, u64>> evs) {
    for (auto [kind, addr] : evs) streams[0].push_back(event(kind, addr, tid, c++));
  };
  constexpr auto kC = EventKind::kCall, kR = EventKind::kReturn;
  run(4, {{kR, 0x9}});  // stray: tid 4 has nothing open
  for (u64 round = 0; round < 40; ++round) {
    run(2, {{kC, 0x1}, {kC, 0x2}, {kR, 0x2}, {kC, 0x3}});
    run(4, {{kC, 0x1}, {kC, 0x3}, {kR, 0x7}, {kR, 0x3}, {kC, 0x2}});  // 0x7: mismatched
    run(2, {{kC, 0x4}, {kR, 0x4}, {kR, 0x3}, {kR, 0x1}});
    run(4, {{kC, 0x4}, {kR, 0x1}});  // unwinds 0x4 and 0x2
  }
  u64 d = 1;
  for (u64 i = 0; i < 50; ++i) {
    streams[1].push_back(event(kC, 0x1, 5, d++));
    streams[1].push_back(event(kC, 0x2 + i % 2, 5, d += 2));
    streams[1].push_back(event(kR, 0x2 + i % 2, 5, d++));
    streams[1].push_back(event(kR, 0x1, 5, d++));
  }

  MergeableProfile m = expect_cct_differential("interleaved", streams);
  EXPECT_EQ(m.stats.thread_count, 3u);
  EXPECT_EQ(m.stats.stray_returns, 1u);
  EXPECT_EQ(m.stats.mismatched_returns, 40u);
  EXPECT_EQ(m.stats.unwound_frames, 80u);
  EXPECT_EQ(m.stats.incomplete, 0u);
}

TEST(AnalyzeStream, CctUnwindAndOpenFramesAwayFromTheMemo) {
  // Tids 1 and 3 share shard 0 and the main→{a,b} nodes. Tid 1 enters a
  // then tid 3 enters b, so main's last-child memo names b when tid 1
  // unwinds out of a (return of main) and again when tid 1's re-entered a
  // and its callee are closed as incomplete at the end of the log.
  constexpr auto kC = EventKind::kCall, kR = EventKind::kReturn;
  constexpr u64 kMain = 0x1, kA = 0x2, kB = 0x3, kLeaf = 0x4;
  std::vector<LogEntry> s;
  u64 c = 1;
  auto ev = [&](EventKind k, u64 addr, u64 tid) {
    s.push_back(event(k, addr, tid, c));
    c += 4;
  };
  ev(kC, kMain, 1);
  ev(kC, kA, 1);
  ev(kC, kLeaf, 1);
  ev(kC, kMain, 3);
  ev(kC, kB, 3);
  ev(kR, kMain, 1);  // unwinds leaf and a; memo on main is b
  ev(kC, kMain, 1);
  ev(kC, kA, 1);
  ev(kC, kLeaf, 1);
  ev(kR, kB, 3);
  ev(kC, kB, 3);  // memo back on b; tid 1's a and leaf stay open
  ev(kC, kLeaf, 3);

  MergeableProfile m = expect_cct_differential("unwind_open", {s});
  EXPECT_EQ(m.stats.unwound_frames, 2u);
  EXPECT_EQ(m.stats.incomplete, 6u);
  EXPECT_EQ(m.methods.at("0x2").count, 2u);
  EXPECT_EQ(m.edges.at({"0x1", "0x3", false}).count, 2u);
}

// --------------------------------------------------------- bounded memory

// Synthesizes a spill session far larger than any shm window directly as
// chunk files: per shard one thread running 3-deep nested calls over a
// 16-method rotation, counters and cursors continuous across chunks.
void write_synthetic_session(const std::string& prefix, u32 chunks,
                             u64 per_shard) {
  LogHeader session{};
  session.magic = kLogMagic;
  session.version = kLogVersionSharded;
  constexpr u32 kSynthShards = 2;
  u64 counter[kSynthShards] = {1, 1};
  u64 phase[kSynthShards] = {0, 0};
  u64 cycle[kSynthShards] = {0, 0};
  for (u32 seq = 0; seq < chunks; ++seq) {
    std::vector<drain::ShardWindow> windows(kSynthShards);
    for (u32 s = 0; s < kSynthShards; ++s) {
      windows[s].start = static_cast<u64>(seq) * per_shard;
      windows[s].entries.reserve(per_shard);
      for (u64 i = 0; i < per_shard; ++i) {
        u64 level = phase[s] < 3 ? phase[s] : 5 - phase[s];
        u64 addr = 0x100 * (level + 1) + cycle[s];
        LogEntry e{};
        e.kind_and_counter = LogEntry::pack(
            phase[s] < 3 ? EventKind::kCall : EventKind::kReturn, counter[s]++);
        e.addr = addr;
        e.tid = s;
        windows[s].entries.push_back(e);
        if (++phase[s] == 6) {
          phase[s] = 0;
          cycle[s] = (cycle[s] + 1) % 16;
        }
      }
    }
    ASSERT_TRUE(write_file(drain::chunk_path(prefix, seq),
                           drain::serialize_chunk(session, windows, seq)));
  }
}

TEST(AnalyzeStream, BoundedMemoryOverLargeSyntheticSession) {
  std::string prefix = tmp_prefix("large");
  remove_session(prefix);
  // 160 chunks x 2 shards x 2048 entries = 655,360 entries (~20 MB on
  // disk), hundreds of times any realistic shm window.
  constexpr u32 kChunks = 160;
  constexpr u64 kPerShard = 2048;
  constexpr u64 kSynthTotal = u64{kChunks} * 2 * kPerShard;
  write_synthetic_session(prefix, kChunks, kPerShard);

  u64 peak_before = peak_rss_bytes();
  std::string err;
  auto streamed = StreamAnalyzer::analyze_spill(prefix, &err);
  u64 peak_after = peak_rss_bytes();
  ASSERT_TRUE(streamed.has_value()) << err;
  EXPECT_EQ(streamed->stats.entries, kSynthTotal);
  EXPECT_EQ(streamed->stats.thread_count, 2u);
  EXPECT_EQ(streamed->methods.size(), 3 * 16u);

  // The bounded-memory property: streaming one chunk at a time must never
  // approach the session's size. The in-memory pipeline materializes the
  // stitched streams plus every Invocation (~40+ MB here); the streaming
  // pass holds one chunk and the rolling aggregates.
  ASSERT_GT(peak_before, 0u);
  EXPECT_LT(peak_after, peak_before + (24ull << 20))
      << "streaming analysis peaked " << (peak_after - peak_before)
      << " bytes over baseline for a "
      << (kSynthTotal * sizeof(LogEntry) >> 20) << " MB session";

  // And it is still the exact same aggregate the in-memory loader derives.
  auto ref = Profile::load_spill(prefix);
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(streamed->save(), MergeableProfile::from_profile(*ref).save());
  remove_session(prefix);
}

}  // namespace
}  // namespace teeperf
