// Read-only memory-mapped file access for the out-of-core snapshot path
// (DESIGN.md §14). A sealed v5 dataset file is mapped once at open; the
// whole-file CRC check then touches every page sequentially, so a file
// that passes validation can be read through the mapping without further
// I/O error handling — immutable files cannot SIGBUS after that pass (the
// store never truncates or rewrites a published dataset in place, and
// unlink(2) does not invalidate existing mappings).
//
// This is the only translation unit allowed to call raw mmap/munmap (repo
// lint [no-raw-mmap]); everything else goes through MemMap or io::Reader.
#pragma once

#include <cstddef>
#include <string>

#include "util/status.h"

namespace colgraph::io {

/// \brief RAII owner of a read-only, private file mapping.
///
/// Move-only; the mapping is released on destruction. A zero-length file
/// maps to {data() == nullptr, size() == 0}, which every consumer treats
/// as an empty byte range.
class MemMap {
 public:
  /// Maps `path` read-only; anything but a regular file is IOError.
  /// Failpoint: "io:mmap" (forces the error path).
  static StatusOr<MemMap> Open(const std::string& path);

  MemMap(MemMap&& other) noexcept : data_(other.data_), size_(other.size_) {
    other.data_ = nullptr;
    other.size_ = 0;
  }
  MemMap& operator=(MemMap&& other) noexcept;
  MemMap(const MemMap&) = delete;
  MemMap& operator=(const MemMap&) = delete;
  ~MemMap();

  const char* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  MemMap() = default;

  const char* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace colgraph::io
