// Minimal filesystem helpers used by the recorder (log persistence), the
// kvstore substrate (WAL / SSTables) and the bench harnesses.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/types.h"

namespace teeperf {

bool write_file(const std::string& path, std::string_view contents);
// Writes the concatenation of `parts` with gathered writes (writev), looping
// on short writes: no intermediate buffer however large the parts are.
bool write_file_parts(const std::string& path,
                      std::span<const std::string_view> parts);
bool append_file(const std::string& path, std::string_view contents);
std::optional<std::string> read_file(const std::string& path);

// A read-only view of a whole file. Regular files are mapped (MAP_PRIVATE,
// PROT_READ), so reading costs no copy; empty and special files, or a
// refused mmap, fall back to an owned buffer, so callers never care which.
// The view is page aligned when mapped. Caveat: truncating a file while it
// is mapped makes a later read of the lost range raise SIGBUS — only map
// files nobody rewrites in place (a dump is written once, never rewritten).
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::string_view bytes() const {
    return map_ ? std::string_view(static_cast<const char*>(map_), size_)
                : std::string_view(owned_);
  }

 private:
  friend std::optional<MappedFile> map_file(const std::string& path);

  void* map_ = nullptr;
  usize size_ = 0;
  std::string owned_;
};

// Maps `path`; nullopt when it cannot be opened (as read_file).
std::optional<MappedFile> map_file(const std::string& path);
bool file_exists(const std::string& path);
bool remove_file(const std::string& path);
// Creates the directory (and parents). Returns false only on hard failure.
bool make_dirs(const std::string& path);
// Removes a directory tree created by tests/benches.
void remove_tree(const std::string& path);
// A fresh unique directory under $TMPDIR (or /tmp) with the given prefix.
std::string make_temp_dir(const std::string& prefix);

}  // namespace teeperf
