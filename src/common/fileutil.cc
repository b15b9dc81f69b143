#include "common/fileutil.h"

#include <fcntl.h>
#include <limits.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>
#include <utility>
#include <vector>

namespace teeperf {

namespace fs = std::filesystem;

bool write_file(const std::string& path, std::string_view contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  usize n = contents.empty() ? 0 : std::fwrite(contents.data(), 1, contents.size(), f);
  bool ok = (n == contents.size()) && std::fclose(f) == 0;
  return ok;
}

bool write_file_parts(const std::string& path,
                      std::span<const std::string_view> parts) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) return false;
  std::vector<iovec> iov;
  iov.reserve(parts.size());
  for (std::string_view p : parts) {
    if (!p.empty()) {
      iov.push_back(iovec{const_cast<char*>(p.data()), p.size()});
    }
  }
  bool ok = true;
  usize next = 0;  // first iovec not yet fully written
  while (next < iov.size()) {
    int count = static_cast<int>(std::min<usize>(iov.size() - next, IOV_MAX));
    ssize_t n = ::writev(fd, iov.data() + next, count);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    // Short write: skip the fully written iovecs, trim the partial one.
    auto left = static_cast<usize>(n);
    while (next < iov.size() && left >= iov[next].iov_len) {
      left -= iov[next].iov_len;
      ++next;
    }
    if (left > 0) {
      iov[next].iov_base = static_cast<char*>(iov[next].iov_base) + left;
      iov[next].iov_len -= left;
    }
  }
  return ::close(fd) == 0 && ok;
}

bool append_file(const std::string& path, std::string_view contents) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (!f) return false;
  usize n = contents.empty() ? 0 : std::fwrite(contents.data(), 1, contents.size(), f);
  bool ok = (n == contents.size()) && std::fclose(f) == 0;
  return ok;
}

std::optional<std::string> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  std::string out;
  // A regular file is read straight into a buffer of its size; the chunk
  // loop below only picks up growth (and reads pipes and procfs files,
  // which report size 0).
  struct stat st {};
  if (::fstat(fileno(f), &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    out.resize(static_cast<usize>(st.st_size));
    out.resize(std::fread(out.data(), 1, out.size(), f));
  }
  char buf[1 << 16];
  usize n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

MappedFile::~MappedFile() {
  if (map_) ::munmap(map_, size_);
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      owned_(std::move(other.owned_)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (map_) ::munmap(map_, size_);
    map_ = std::exchange(other.map_, nullptr);
    size_ = std::exchange(other.size_, 0);
    owned_ = std::move(other.owned_);
  }
  return *this;
}

std::optional<MappedFile> map_file(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  MappedFile f;
  struct stat st {};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    void* p = ::mmap(nullptr, static_cast<usize>(st.st_size), PROT_READ,
                     MAP_PRIVATE, fd, 0);
    if (p != MAP_FAILED) {
      f.map_ = p;
      f.size_ = static_cast<usize>(st.st_size);
    }
  }
  ::close(fd);
  if (!f.map_) {
    // Empty files, pipes, procfs-style files that report size 0: read.
    auto bytes = read_file(path);
    if (!bytes) return std::nullopt;
    f.owned_ = std::move(*bytes);
  }
  return f;
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec);
}

bool remove_file(const std::string& path) {
  std::error_code ec;
  return fs::remove(path, ec);
}

bool make_dirs(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  return !ec || fs::exists(path);
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

std::string make_temp_dir(const std::string& prefix) {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = std::string(base ? base : "/tmp") + "/" + prefix + "XXXXXX";
  std::string buf = tmpl;
  char* got = mkdtemp(buf.data());
  return got ? buf : tmpl;
}

}  // namespace teeperf
