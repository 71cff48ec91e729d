// Internal binary-stream helpers shared by the relation and engine
// persistence codecs. POD values are written in host byte order (the files
// are machine-local artifacts, like a database directory, not an exchange
// format).
//
// Snapshot format (see DESIGN.md "Durability & failure model"):
//
//   [u32 codec magic][u32 version]
//   section*:  [u64 payload_len][u32 crc32c(payload)][payload]
//   extent*:   raw column payloads on 8-byte boundaries (relation/engine
//              images)
//   footer:    [u32 crc32c(file[0, len))][u64 len][u32 footer magic]
//
// Each codec owns one version and the Reader rejects any other as
// Status::Corruption. Relation and engine images (v5, DESIGN.md §14) keep
// their headers and definitions in sections and place column payloads in
// packed raw extents between the last section and the footer, located by
// an extent directory section, so sealed dataset files can be read
// through an mmap without deserializing columns that a query never
// touches. Extents start on 8-byte boundaries, not pages: readers copy
// out of them with memcpy and accept any ascending, in-bounds directory,
// so images written with page-aligned extents load unchanged. The extents
// sit inside the footer-checksummed body, so the open-time whole-file CRC
// still validates every byte (and, on the mapped path, faults in every
// page once — which is why post-open reads cannot SIGBUS). Every bitmap
// on disk is in the container codec (HybridBitmap::ToRaw).
//
// Writer buffers the whole snapshot, then commits it atomically through
// WriteFileAtomic, the one publish routine: the bytes go to `<path>.tmp`,
// are fsync'd, the tmp is rename(2)'d over the final path, and the parent
// directory is fsync'd, so a crash at any point leaves the previous
// snapshot intact. Reader loads the file once (or maps it via
// OpenMapped), verifies the footer and every section CRC, and bounds every
// read by the bytes actually present — a corrupt length prefix surfaces
// as Status::Corruption, never as a multi-GB resize or an out-of-bounds
// read.
//
// All file I/O in the library goes through this module: the repo lint
// bans raw std::ifstream/std::ofstream elsewhere in src/ ([raw-stream]),
// and every durable change — fsync, rename, unlink, directory creation —
// is made only in io_util.cc ([durable-io]), so there is one place that
// knows how a file is published or retired.
#pragma once

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bitmap/hybrid_bitmap.h"
#include "columnstore/column.h"
#include "columnstore/mem_map.h"
#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace colgraph::io {

/// Sanity cap on record / bit counts claimed by a snapshot header. A count
/// above this (an 8 GiB bitmap per column) is treated as corruption rather
/// than attempted as an allocation.
inline constexpr uint64_t kMaxSnapshotRecords = uint64_t{1} << 33;

/// Shared validation of the record count claimed by a snapshot header, so
/// the relation and engine readers cannot drift on the sanity cap. The
/// boundary is inclusive: exactly kMaxSnapshotRecords is accepted, one
/// more is Corruption. `label` names the file in the error message.
[[nodiscard]] inline Status ValidateRecordCount(uint64_t num_records,
                                                const std::string& label) {
  if (num_records > kMaxSnapshotRecords) {
    return Status::Corruption("implausible record count in " + label);
  }
  return Status::OK();
}

/// Best-effort sweep of the orphaned `<path>.tmp` that a crash between
/// WriteFileAtomic()'s tmp write and its rename leaves behind. Call on the
/// open/read path (single-writer discipline makes this safe: nobody can be
/// mid-Commit on `path` while its owner is opening it).
void RemoveStaleTemp(const std::string& path);

/// The one unlink primitive. Best-effort: a missing file (the common case
/// for sweeps) and any other failure are ignored, because every caller's
/// leftover is unreferenced and the next DatasetStore::Open or
/// RemoveStaleTemp sweeps it again.
void RemoveFile(const std::string& path);

/// Creates `dir` and any missing parents; an existing directory is fine.
[[nodiscard]] Status CreateDirectories(const std::string& dir);

/// \brief Buffered, checksummed, crash-atomic snapshot writer.
///
/// Usage: construct with the final path, bracket logical groups of values
/// in BeginSection()/EndSection(), then Commit() once. Nothing touches the
/// filesystem until Commit().
class Writer {
 public:
  Writer(std::string path, uint32_t magic, uint32_t version);

  /// Payload-mode writer: encodes values into an in-memory buffer with no
  /// preamble, sections, or footer (a column's encoding on its own).
  /// Commit() is forbidden; fetch the bytes with TakePayload().
  Writer() : payload_only_(true) {}

  /// Opens / closes a checksummed section. Sections must not nest.
  void BeginSection();
  void EndSection();

  /// Overwrites the payload of the section whose header starts at
  /// `section_pos` (bytes_buffered() just before its BeginSection) with
  /// `n` bytes, exactly its length, and recomputes its CRC. For a
  /// directory whose entries are known only once the extents it locates
  /// are written.
  void RewriteSection(size_t section_pos, const void* data, size_t n);

  template <typename T>
  void WritePod(const T& value) {
    Append(&value, sizeof(T));
  }

  template <typename T>
  void WriteVec(const std::vector<T>& v) {
    WritePod(static_cast<uint64_t>(v.size()));
    Append(v.data(), v.size() * sizeof(T));
  }

  /// Writes a bitmap column in the container codec:
  /// [u64 num_bits][u64 word count][BitmapColumn::EncodeContainers words].
  void WriteBitmap(const BitmapColumn& col);

  /// Writes a sealed measure column: compressed presence + packed values
  /// (the column's value array as stored, already in rank order).
  void WriteMeasureColumn(const MeasureColumn& col);

  /// Bytes buffered so far: the absolute offset the next write lands at
  /// (extent offsets and lengths are taken from it).
  size_t bytes_buffered() const { return body_.size(); }

  /// Zero-pads the buffer up to absolute offset `target` (>= current
  /// size), the gap before an aligned extent. Must not be called inside a
  /// section — padding is part of the whole-file CRC but no section's.
  void PadTo(size_t target);

  /// Appends `n` raw bytes outside any section (a column extent).
  void AppendRaw(const void* data, size_t n);

  /// Payload-mode only: returns the encoded bytes. The writer is spent.
  std::vector<char> TakePayload();

  /// Appends the footer and publishes the snapshot through
  /// WriteFileAtomic (same steps, same failpoints). On failure the
  /// previous snapshot at `path` is untouched.
  [[nodiscard]] Status Commit();

 private:
  void Append(const void* data, size_t n) {
    if (n == 0) return;
    const size_t old = body_.size();
    body_.resize(old + n);
    std::memcpy(body_.data() + old, data, n);
  }

  std::string path_;
  std::vector<char> body_;
  size_t section_header_pos_ = 0;
  bool in_section_ = false;
  bool committed_ = false;
  bool payload_only_ = false;
};

/// \brief Bounds-checked, checksum-verified snapshot reader.
///
/// Open() loads the whole file and validates the codec magic, the codec's
/// version (any other is Corruption), the footer, and the whole-file CRC
/// before any parsing. Every Read* is bounded by the current section (or
/// extent); running out of bytes is Status::Corruption, never UB.
class Reader {
 public:
  /// Failpoint: "io:open_read".
  static StatusOr<Reader> Open(const std::string& path, uint32_t magic,
                               uint32_t version);

  /// mmap-backed variant of Open(): maps the file read-only instead of
  /// copying it into memory, then runs the identical validation (the
  /// whole-file CRC pass faults in every page once, so later reads through
  /// the mapping cannot SIGBUS for an immutable file). Falls back to the
  /// copying Open() when the mapping itself fails — the caller never
  /// needs to care which storage backs the reader. Sub-readers from
  /// AtExtent() share the mapping, so decoding a column keeps the file
  /// mapped only as long as some reader is alive.
  /// Failpoints: "io:open_read", "io:mmap" (forces the fallback).
  static StatusOr<Reader> OpenMapped(const std::string& path, uint32_t magic,
                                     uint32_t version);

  /// In-memory variant of Open(): validates and reads `data` as a snapshot
  /// without touching the filesystem. `label` stands in for the path in
  /// error messages. This is the entry point the fuzz harnesses drive —
  /// identical validation to Open() (which delegates here), zero I/O.
  static StatusOr<Reader> FromBytes(std::vector<char> data, std::string label,
                                    uint32_t magic, uint32_t version);

  /// A bounds-checked sub-reader over `[offset, offset + len)` of the
  /// checksummed body — the access path for column extents. The
  /// sub-reader shares this reader's storage (copying it is cheap), reads
  /// without section framing (the extent bytes are covered by the
  /// whole-file CRC validated at open), and fails with Corruption when the
  /// range falls outside the body.
  StatusOr<Reader> AtExtent(uint64_t offset, uint64_t len) const;

  /// Bytes left in the current window (section or extent).
  uint64_t remaining() const { return limit_ - pos_; }
  /// Absolute offset of the read cursor (extent-directory validation).
  uint64_t position() const { return pos_; }
  /// One past the last checksummed body byte (the footer starts here).
  uint64_t body_size() const { return body_end_; }

  /// Enters the next section: validates its header and payload CRC.
  /// `what` names the section in error messages.
  [[nodiscard]] Status BeginSection(const char* what);
  /// Leaves a section; the payload must be fully consumed.
  [[nodiscard]] Status EndSection(const char* what);
  /// Verifies no trailing sections/bytes remain.
  [[nodiscard]] Status ExpectEnd();

  template <typename T>
  [[nodiscard]] Status ReadPod(T* value) {
    if (sizeof(T) > limit_ - pos_) {
      return Corrupt("unexpected end of data");
    }
    std::memcpy(value, base_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  template <typename T>
  [[nodiscard]] Status ReadVec(std::vector<T>* v) {
    uint64_t n = 0;
    COLGRAPH_RETURN_NOT_OK(ReadPod(&n));
    // Bound by the bytes actually present: a corrupt length prefix must
    // fail cleanly instead of triggering a multi-GB resize.
    if (n > (limit_ - pos_) / sizeof(T)) {
      return Corrupt("vector length exceeds remaining data");
    }
    v->resize(static_cast<size_t>(n));
    const size_t bytes = static_cast<size_t>(n) * sizeof(T);
    // n == 0 leaves v->data() null; memcpy's arguments are nonnull even
    // for zero sizes (found by fuzz_snapshot under UBSan).
    if (bytes != 0) {
      std::memcpy(v->data(), base_ + pos_, bytes);
    }
    pos_ += bytes;
    return Status::OK();
  }

  /// Reads a bitmap written by WriteBitmap; its length must equal
  /// `expected_bits` and the words must pass every check of
  /// HybridBitmap::FromRawChecked.
  StatusOr<Bitmap> ReadBitmap(uint64_t expected_bits);

  /// Reads a column written by WriteMeasureColumn; the presence bitmap
  /// must span exactly `expected_bits` records.
  StatusOr<MeasureColumn> ReadMeasureColumn(uint64_t expected_bits);

 private:
  Reader() = default;

  /// Validates preamble, footer, and whole-file CRC over [base_, size_).
  /// Shared by the owned and mapped open paths.
  [[nodiscard]] Status Validate(uint32_t magic, uint32_t version);

  Status Corrupt(const std::string& what) const {
    return Status::Corruption(what + " in " + path_);
  }

  std::string path_;
  // Storage: exactly one of `owned_` / `map_` is set; `base_`/`size_`
  // point into it. shared_ptr so AtExtent() sub-readers (and copies) keep
  // the backing bytes alive without duplicating them.
  std::shared_ptr<const std::vector<char>> owned_;
  std::shared_ptr<const MemMap> map_;
  const char* base_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
  size_t limit_ = 0;     // end of the current read window
  size_t body_end_ = 0;  // end of the checksummed body (or extent)
};

/// Opens a text file for line-based reading (trace ingest) through the
/// instrumented path. Failpoint: "trace:open".
StatusOr<std::ifstream> OpenTextForRead(const std::string& path);

/// Loads a whole file into memory. The read is sized by fstat of the open
/// file (never by an untrusted header), so corrupt inputs cannot trigger
/// oversized allocations here; anything but a regular file (a directory,
/// say) is IOError naming the path. Failpoint: "io:open_read".
StatusOr<std::vector<char>> ReadFileBytes(const std::string& path);

/// The one publish routine: atomically replaces `path` with `n` bytes.
/// Write to `<path>.tmp`, fsync, rename(2) over the final path, fsync the
/// parent directory (best-effort: a failure there cannot un-publish the
/// file). Writer::Commit publishes every snapshot, relation image, engine
/// image and MANIFEST through it; the metrics exporter publishes its
/// documents with it directly. On failure the previous contents of `path`
/// are untouched and the .tmp is removed. Failpoints, in order:
/// "io:short_write" (a lying filesystem: only the first B bytes persist
/// and success is reported; a snapshot reader's footer check catches
/// it), "io:open_write", "io:fsync", "persist:before_rename" (crash:
/// leaves the .tmp behind, skips the rename).
[[nodiscard]] Status WriteFileAtomic(const std::string& path,
                                     const void* data, size_t n);

/// \brief Append-only streaming file, for logs that grow while the process
/// runs (the query log) — the one durability shape the snapshot Writer's
/// write-tmp-then-rename discipline cannot provide. The caller does its own
/// framing and checksumming (obs/query_log.h); this class owns the raw
/// descriptor so all file I/O stays inside io_util (repo lint
/// [raw-stream]). Failpoints: "io:open_append", "io:short_write" (shared
/// with WriteFileAtomic), "io:fsync".
class AppendFile {
 public:
  /// Creates (or truncates) `path` for appending.
  static StatusOr<AppendFile> Create(const std::string& path);

  AppendFile(AppendFile&& other) noexcept : f_(other.f_), path_(std::move(other.path_)) {
    other.f_ = nullptr;
  }
  AppendFile& operator=(AppendFile&& other) noexcept;
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;
  /// Closes without syncing (call SyncAndClose for durability + a Status).
  ~AppendFile();

  /// Appends `n` bytes. A short write (disk full, injected fault) closes
  /// the file and returns IOError — the log is torn and the caller must
  /// stop appending.
  [[nodiscard]] Status Append(const void* data, size_t n);

  /// Flushes user-space buffers and fsyncs, then closes. Idempotent.
  [[nodiscard]] Status SyncAndClose();

  bool is_open() const { return f_ != nullptr; }

 private:
  AppendFile() = default;

  std::FILE* f_ = nullptr;
  std::string path_;
};

/// \brief Advisory exclusive lock file (O_CREAT|O_EXCL), guarding
/// single-writer operations like dataset compaction. Acquire() fails with
/// Status::Unavailable when another holder exists; the file is unlinked on
/// Release()/destruction. A crashed holder leaves the file behind —
/// RemoveFile() breaks it, which is only safe where single-writer
/// discipline rules out a live holder (e.g. DatasetStore::Open).
class ExclusiveFile {
 public:
  static StatusOr<ExclusiveFile> Acquire(const std::string& path);

  ExclusiveFile(ExclusiveFile&& other) noexcept
      : held_(other.held_), path_(std::move(other.path_)) {
    other.held_ = false;
  }
  ExclusiveFile& operator=(ExclusiveFile&& other) noexcept;
  ExclusiveFile(const ExclusiveFile&) = delete;
  ExclusiveFile& operator=(const ExclusiveFile&) = delete;
  ~ExclusiveFile() { Release(); }

  /// Unlinks the lock file. Idempotent.
  void Release();

 private:
  ExclusiveFile() = default;

  bool held_ = false;
  std::string path_;
};

}  // namespace colgraph::io
