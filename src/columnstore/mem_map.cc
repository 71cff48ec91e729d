#include "columnstore/mem_map.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "util/failpoint.h"

namespace colgraph::io {

namespace {

// Storage telemetry (DESIGN.md §15): how many bytes of sealed column data
// the process reads through mappings, cumulatively and right now. The
// gauge decrements on unmap so it tracks live address-space usage.
obs::Counter& MapsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("io.mmap_maps");
  return c;
}
obs::Counter& BytesMappedCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("io.mmap_bytes_mapped");
  return c;
}
obs::Gauge& ActiveBytesGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("io.mmap_active_bytes");
  return g;
}

}  // namespace

StatusOr<MemMap> MemMap::Open(const std::string& path) {
  COLGRAPH_FAILPOINT("io:mmap");
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open for mmap: " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat for mmap: " + path);
  }
  if (!S_ISREG(st.st_mode)) {
    // A directory opens read-only too; its st_size is not a byte count.
    ::close(fd);
    return Status::IOError("not a regular file: " + path);
  }
  MemMap map;
  map.size_ = static_cast<size_t>(st.st_size);
  if (map.size_ == 0) {
    // mmap(2) rejects zero-length mappings; an empty file is simply an
    // empty byte range (which the snapshot readers then reject as a
    // truncated preamble).
    ::close(fd);
    return map;
  }
  void* addr = ::mmap(nullptr, map.size_, PROT_READ, MAP_PRIVATE, fd, 0);
  // The descriptor is not needed once the mapping exists; the kernel keeps
  // the file pinned through the mapping itself.
  ::close(fd);
  if (addr == MAP_FAILED) {
    return Status::IOError("mmap failed: " + path);
  }
  map.data_ = static_cast<const char*>(addr);
  MapsCounter().Increment();
  BytesMappedCounter().Add(map.size_);
  ActiveBytesGauge().Add(static_cast<int64_t>(map.size_));
  return map;
}

MemMap& MemMap::operator=(MemMap&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) {
      ::munmap(const_cast<char*>(data_), size_);
      ActiveBytesGauge().Add(-static_cast<int64_t>(size_));
    }
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

MemMap::~MemMap() {
  if (data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
    ActiveBytesGauge().Add(-static_cast<int64_t>(size_));
  }
}

}  // namespace colgraph::io
