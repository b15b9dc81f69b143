// Stale-session reclamation after a recorder crash (TESTING.md fault
// "recorder.dump.die"): a session SIGKILLed mid-dump leaves its registry
// descriptor and named shm segments orphaned; gc_stale_sessions() must
// reclaim both once the owner pid is dead — and must keep reclaiming
// nothing for sessions whose owner is alive.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <dirent.h>

#include <string>
#include <vector>

#include "common/fileutil.h"
#include "common/session_registry.h"
#include "core/recorder.h"
#include "faultsim/fault.h"

using namespace teeperf;

namespace {

bool shm_exists(const std::string& name) {
  int fd = shm_open(name.c_str(), O_RDONLY, 0600);
  if (fd >= 0) {
    close(fd);
    return true;
  }
  return false;
}

// Every /dev/shm session segment whose name embeds `pid`.
std::vector<std::string> segments_of(pid_t pid) {
  std::vector<std::string> out;
  std::string stem = "teeperf." + std::to_string(pid) + ".";
  DIR* d = opendir("/dev/shm");
  if (!d) return out;
  while (dirent* ent = readdir(d)) {
    std::string name = ent->d_name;
    if (name.compare(0, stem.size(), stem) == 0) out.push_back("/" + name);
  }
  closedir(d);
  return out;
}

}  // namespace

TEST(SessionGc, CrashedRecorderOrphansAreReclaimed) {
  std::string dir = make_temp_dir("teeperf_sgc_");

  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: a real recorded session that dies inside dump() before
    // anything is persisted — exactly the crash window that leaves both
    // the descriptor and the shm segments behind.
    std::string error;
    if (!fault::Registry::instance().arm_from_spec("recorder.dump.die:nth=1",
                                                   &error)) {
      _exit(3);
    }
    RecorderOptions opts;
    opts.shm_name = "auto";
    opts.session_dir = dir;
    opts.max_entries = 4096;
    auto rec = Recorder::create(opts);
    if (!rec || rec->session_name().empty()) _exit(4);
    rec->log().append(EventKind::kCall, 0x1000, 1, 10);
    rec->dump(dir + "/crashed");  // SIGKILL fires here
    _exit(5);                     // unreachable: the fault did not fire
  }

  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child must die inside dump()";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // The wreckage: descriptor still registered, segments still linked.
  auto stale = session_registry::list_sessions(dir);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].pid, static_cast<u64>(child));
  EXPECT_FALSE(session_registry::pid_alive(stale[0].pid));
  ASSERT_FALSE(stale[0].log_shm.empty());
  ASSERT_FALSE(stale[0].obs_shm.empty());
  EXPECT_TRUE(shm_exists(stale[0].log_shm));
  EXPECT_TRUE(shm_exists(stale[0].obs_shm));

  // Reclaim: the descriptor and both named segments go away.
  auto r = session_registry::gc_stale_sessions(dir);
  EXPECT_GE(r.descriptors, 1u);
  EXPECT_GE(r.segments, 2u);
  EXPECT_TRUE(session_registry::list_sessions(dir).empty());
  EXPECT_FALSE(shm_exists(stale[0].log_shm));
  EXPECT_FALSE(shm_exists(stale[0].obs_shm));

  // Idempotence: a second sweep finds nothing of this session's.
  auto again = session_registry::gc_stale_sessions(dir);
  EXPECT_EQ(again.descriptors, 0u);
}

TEST(SessionGc, LiveSessionSurvivesSweep) {
  std::string dir = make_temp_dir("teeperf_sgl_");
  RecorderOptions opts;
  opts.shm_name = "auto";
  opts.session_dir = dir;
  opts.max_entries = 4096;
  auto rec = Recorder::create(opts);
  ASSERT_NE(rec, nullptr);
  ASSERT_FALSE(rec->session_name().empty());

  auto r = session_registry::gc_stale_sessions(dir);
  EXPECT_EQ(r.descriptors, 0u);
  auto sessions = session_registry::list_sessions(dir);
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].name, rec->session_name());
  EXPECT_TRUE(shm_exists(sessions[0].log_shm));

  // Clean destruction withdraws the descriptor without needing GC.
  rec.reset();
  EXPECT_TRUE(session_registry::list_sessions(dir).empty());
}

TEST(SessionGc, OrphansSurviveAnotherDirsSweep) {
  // A session created for dir A that dies before publishing leaves only
  // its segments. GC of an unrelated dir B (another tenant, or a parallel
  // test) must leave them as evidence; GC of A reclaims them.
  std::string dir_a = make_temp_dir("teeperf_sga_");
  std::string dir_b = make_temp_dir("teeperf_sgb_");

  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    RecorderOptions opts;
    opts.shm_name = "auto";
    opts.session_dir = dir_a;
    opts.publish_session = false;
    opts.max_entries = 4096;
    auto rec = Recorder::create(opts);
    _exit(rec ? 0 : 4);  // no destructor: the segments stay linked
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  std::vector<std::string> orphans = segments_of(child);
  ASSERT_EQ(orphans.size(), 2u) << "expected the .log and .obs segments";
  EXPECT_TRUE(session_registry::list_sessions(dir_a).empty());

  auto other = session_registry::gc_stale_sessions(dir_b);
  EXPECT_EQ(other.segments, 0u);
  for (const std::string& name : orphans) {
    EXPECT_TRUE(shm_exists(name)) << name << " taken by another dir's GC";
  }

  auto own = session_registry::gc_stale_sessions(dir_a);
  EXPECT_GE(own.segments, 2u);
  for (const std::string& name : orphans) EXPECT_FALSE(shm_exists(name)) << name;
  for (const std::string& name : orphans) shm_unlink(name.c_str());
}
