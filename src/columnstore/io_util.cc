#include "columnstore/io_util.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "obs/trace.h"
#include "util/check.h"

namespace colgraph::io {

namespace {

constexpr uint32_t kFooterMagic = 0x43474654;  // "CGFT"
constexpr size_t kSectionHeaderBytes = 12;     // u64 len + u32 crc
constexpr size_t kFooterBytes = 16;            // u32 crc + u64 len + u32 magic

// Durability of rename(2) requires the parent directory entry to reach
// disk too. Best-effort: a failure here cannot un-publish the snapshot.
void SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    (void)::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

Writer::Writer(std::string path, uint32_t magic, uint32_t version)
    : path_(std::move(path)) {
  WritePod(magic);
  WritePod(version);
}

void Writer::BeginSection() {
  COLGRAPH_CHECK(!in_section_) << "sections must not nest";
  in_section_ = true;
  section_header_pos_ = body_.size();
  body_.resize(body_.size() + kSectionHeaderBytes);  // patched by EndSection
}

void Writer::EndSection() {
  COLGRAPH_CHECK(in_section_) << "EndSection without BeginSection";
  in_section_ = false;
  const size_t payload_pos = section_header_pos_ + kSectionHeaderBytes;
  const uint64_t len = body_.size() - payload_pos;
  const uint32_t crc = Crc32c(body_.data() + payload_pos, body_.size() - payload_pos);
  std::memcpy(body_.data() + section_header_pos_, &len, sizeof(len));
  std::memcpy(body_.data() + section_header_pos_ + sizeof(len), &crc,
              sizeof(crc));
}

void Writer::RewriteSection(size_t section_pos, const void* data, size_t n) {
  COLGRAPH_CHECK(section_pos + kSectionHeaderBytes + n <= body_.size())
      << "RewriteSection past the buffered bytes";
  uint64_t len = 0;
  std::memcpy(&len, body_.data() + section_pos, sizeof(len));
  COLGRAPH_CHECK(len == n) << "RewriteSection must keep the section's length";
  char* payload = body_.data() + section_pos + kSectionHeaderBytes;
  std::memcpy(payload, data, n);
  const uint32_t crc = Crc32c(payload, n);
  std::memcpy(body_.data() + section_pos + sizeof(len), &crc, sizeof(crc));
}

void Writer::PadTo(size_t target) {
  COLGRAPH_CHECK(!in_section_) << "PadTo inside an open section";
  COLGRAPH_CHECK(target >= body_.size()) << "PadTo cannot move backwards";
  body_.resize(target);  // value-initialized: zero fill
}

void Writer::AppendRaw(const void* data, size_t n) {
  COLGRAPH_CHECK(!in_section_) << "AppendRaw inside an open section";
  Append(data, n);
}

std::vector<char> Writer::TakePayload() {
  COLGRAPH_CHECK(payload_only_) << "TakePayload on a file-backed writer";
  COLGRAPH_CHECK(!in_section_) << "TakePayload inside an open section";
  return std::move(body_);
}

void Writer::WriteBitmap(const BitmapColumn& col) {
  WritePod(static_cast<uint64_t>(col.size()));
  WriteVec(col.EncodeContainers());
}

void Writer::WriteMeasureColumn(const MeasureColumn& col) {
  WriteBitmap(col.presence());
  WriteVec(col.values());
}

Status Writer::Commit() {
  COLGRAPH_CHECK(!payload_only_) << "Commit on a payload-mode writer";
  COLGRAPH_CHECK(!in_section_) << "Commit inside an open section";
  COLGRAPH_CHECK(!committed_) << "Commit called twice";
  committed_ = true;

  // Footer: CRC of everything before it, the body length, and a marker
  // magic — together they detect truncation and bit rot in one check.
  const uint32_t body_crc = Crc32c(body_.data(), body_.size());
  const uint64_t body_len = body_.size();
  WritePod(body_crc);
  WritePod(body_len);
  WritePod(kFooterMagic);
  return WriteFileAtomic(path_, body_.data(), body_.size());
}

StatusOr<std::vector<char>> ReadFileBytes(const std::string& path) {
  COLGRAPH_FAILPOINT("io:open_read");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open for read: " + path);
  }
  // Sized from the open file itself. A directory opens too, and its
  // stream reports no meaningful length, so anything but a regular file
  // is refused before a byte is allocated.
  struct stat st;
  if (::fstat(fileno(f), &st) != 0) {
    std::fclose(f);
    return Status::IOError("cannot stat: " + path);
  }
  if (!S_ISREG(st.st_mode)) {
    std::fclose(f);
    return Status::IOError("not a regular file: " + path);
  }
  std::vector<char> data(static_cast<size_t>(st.st_size));
  if (!data.empty() &&
      std::fread(data.data(), 1, data.size(), f) != data.size()) {
    std::fclose(f);
    return Status::IOError("read failed: " + path);
  }
  std::fclose(f);
  return data;
}

Status WriteFileAtomic(const std::string& path, const void* data, size_t n) {
  uint64_t short_arg = 0;
  if (failpoint::Hit("io:short_write", &short_arg) ==
      failpoint::Action::kShortWrite) {
    // Simulated lying filesystem: persist only a prefix but report success.
    n = std::min(n, static_cast<size_t>(short_arg));
  }

  const std::string tmp = path + ".tmp";
  COLGRAPH_FAILPOINT("io:open_write");
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open for write: " + tmp);
  }
  if (n > 0 && std::fwrite(data, 1, n, f) != n) {
    std::fclose(f);
    RemoveFile(tmp);
    return Status::IOError("write failed: " + tmp);
  }
  bool sync_ok = std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  if (failpoint::Hit("io:fsync") != failpoint::Action::kOff) sync_ok = false;
  if (std::fclose(f) != 0) sync_ok = false;
  if (!sync_ok) {
    RemoveFile(tmp);
    return Status::IOError("flush/fsync failed: " + tmp);
  }

  if (failpoint::Hit("persist:before_rename") == failpoint::Action::kCrash) {
    // Simulated crash between the durable tmp write and the publish: the
    // .tmp stays behind and the previous contents of `path` are untouched,
    // exactly what a real crash would leave.
    return Status::IOError(
        "failpoint 'persist:before_rename' simulated crash");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    RemoveFile(tmp);
    return Status::IOError("atomic rename failed: " + path);
  }
  SyncParentDir(path);
  return Status::OK();
}

void RemoveFile(const std::string& path) { (void)::unlink(path.c_str()); }

Status CreateDirectories(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create directory " + dir + ": " +
                           ec.message());
  }
  return Status::OK();
}

StatusOr<Reader> Reader::Open(const std::string& path, uint32_t magic,
                              uint32_t version) {
  std::vector<char> bytes;
  COLGRAPH_ASSIGN_OR_RETURN(bytes, ReadFileBytes(path));
  return FromBytes(std::move(bytes), path, magic, version);
}

StatusOr<Reader> Reader::OpenMapped(const std::string& path, uint32_t magic,
                                    uint32_t version) {
  COLGRAPH_FAILPOINT("io:open_read");
  auto mapped = MemMap::Open(path);
  if (!mapped.ok()) {
    // The mapping can fail for environmental reasons (exhausted address
    // space, a filesystem without mmap support) that the copying path
    // survives; an absent file fails either way.
    return Open(path, magic, version);
  }
  Reader r;
  r.path_ = path;
  r.map_ = std::make_shared<MemMap>(std::move(mapped).value());
  r.base_ = r.map_->data();
  r.size_ = r.map_->size();
  {
    // The whole-file CRC pass doubles as the page prefault (header
    // comment): it is the open-time cost that makes mapped reads safe, so
    // its latency is a first-class storage metric (DESIGN.md §15).
    const obs::Span span(obs::Phase::kCrcPrefault, nullptr);
    COLGRAPH_RETURN_NOT_OK(r.Validate(magic, version));
  }
  return r;
}

StatusOr<Reader> Reader::FromBytes(std::vector<char> data, std::string label,
                                   uint32_t magic, uint32_t version) {
  Reader r;
  r.path_ = std::move(label);
  r.owned_ = std::make_shared<const std::vector<char>>(std::move(data));
  r.base_ = r.owned_->data();
  r.size_ = r.owned_->size();
  COLGRAPH_RETURN_NOT_OK(r.Validate(magic, version));
  return r;
}

Status Reader::Validate(uint32_t magic, uint32_t version) {
  if (size_ < 2 * sizeof(uint32_t)) {
    return Corrupt("truncated preamble");
  }
  uint32_t got_magic = 0, got_version = 0;
  std::memcpy(&got_magic, base_, sizeof(got_magic));
  std::memcpy(&got_version, base_ + sizeof(got_magic), sizeof(got_version));
  if (got_magic != magic) {
    return Corrupt("bad magic");
  }
  if (got_version != version) {
    return Corrupt("unsupported snapshot version " +
                   std::to_string(got_version) + " (this build reads v" +
                   std::to_string(version) + ")");
  }
  pos_ = 2 * sizeof(uint32_t);
  if (size_ < pos_ + kFooterBytes) {
    return Corrupt("truncated footer");
  }
  const size_t footer_pos = size_ - kFooterBytes;
  uint32_t file_crc = 0, footer_magic = 0;
  uint64_t body_len = 0;
  std::memcpy(&file_crc, base_ + footer_pos, sizeof(file_crc));
  std::memcpy(&body_len, base_ + footer_pos + 4, sizeof(body_len));
  std::memcpy(&footer_magic, base_ + footer_pos + 12, sizeof(footer_magic));
  if (footer_magic != kFooterMagic) {
    return Corrupt("bad footer magic (truncated or overwritten file)");
  }
  if (body_len != footer_pos) {
    return Corrupt("footer length does not match file size");
  }
  if (Crc32c(base_, footer_pos) != file_crc) {
    return Corrupt("whole-file checksum mismatch");
  }
  body_end_ = footer_pos;
  limit_ = pos_;  // nothing readable until BeginSection
  return Status::OK();
}

StatusOr<Reader> Reader::AtExtent(uint64_t offset, uint64_t len) const {
  if (offset > body_end_ || len > body_end_ - offset) {
    return Corrupt("column extent out of bounds");
  }
  Reader sub = *this;  // shares the backing storage
  sub.pos_ = static_cast<size_t>(offset);
  sub.limit_ = sub.body_end_ = static_cast<size_t>(offset + len);
  // Extents carry no section framing; the bytes were already validated by
  // the whole-file CRC at open time.
  return sub;
}

Status Reader::BeginSection(const char* what) {
  COLGRAPH_DCHECK_EQ(pos_, limit_);
  if (body_end_ - pos_ < kSectionHeaderBytes) {
    return Corrupt(std::string("truncated section header for ") + what);
  }
  uint64_t len = 0;
  uint32_t crc = 0;
  std::memcpy(&len, base_ + pos_, sizeof(len));
  std::memcpy(&crc, base_ + pos_ + sizeof(len), sizeof(crc));
  pos_ += kSectionHeaderBytes;
  if (len > body_end_ - pos_) {
    return Corrupt(std::string("section length for ") + what +
                   " exceeds file size");
  }
  if (Crc32c(base_ + pos_, static_cast<size_t>(len)) != crc) {
    return Corrupt(std::string("section checksum mismatch in ") + what);
  }
  limit_ = pos_ + static_cast<size_t>(len);
  return Status::OK();
}

Status Reader::EndSection(const char* what) {
  if (pos_ != limit_) {
    return Corrupt(std::string("section size mismatch in ") + what);
  }
  return Status::OK();
}

Status Reader::ExpectEnd() {
  if (pos_ != body_end_) {
    return Corrupt("trailing bytes after the final section");
  }
  return Status::OK();
}

StatusOr<Bitmap> Reader::ReadBitmap(uint64_t expected_bits) {
  uint64_t num_bits = 0;
  COLGRAPH_RETURN_NOT_OK(ReadPod(&num_bits));
  if (num_bits != expected_bits) {
    return Corrupt("bitmap bit length does not match the record count");
  }
  std::vector<uint64_t> buffer;
  COLGRAPH_RETURN_NOT_OK(ReadVec(&buffer));
  COLGRAPH_ASSIGN_OR_RETURN(
      HybridBitmap compressed,
      HybridBitmap::FromRawChecked(buffer, static_cast<size_t>(num_bits)));
  return compressed.ToBitmap();
}

StatusOr<MeasureColumn> Reader::ReadMeasureColumn(uint64_t expected_bits) {
  COLGRAPH_ASSIGN_OR_RETURN(Bitmap presence, ReadBitmap(expected_bits));
  std::vector<double> values;
  COLGRAPH_RETURN_NOT_OK(ReadVec(&values));
  return MeasureColumn::FromParts(std::move(presence), std::move(values));
}

void RemoveStaleTemp(const std::string& path) { RemoveFile(path + ".tmp"); }

StatusOr<ExclusiveFile> ExclusiveFile::Acquire(const std::string& path) {
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::Unavailable("exclusive lock held: " + path);
  }
  ::close(fd);
  ExclusiveFile lock;
  lock.held_ = true;
  lock.path_ = path;
  return lock;
}

ExclusiveFile& ExclusiveFile::operator=(ExclusiveFile&& other) noexcept {
  if (this != &other) {
    Release();
    held_ = other.held_;
    path_ = std::move(other.path_);
    other.held_ = false;
  }
  return *this;
}

void ExclusiveFile::Release() {
  if (held_) {
    RemoveFile(path_);
    held_ = false;
  }
}

StatusOr<std::ifstream> OpenTextForRead(const std::string& path) {
  COLGRAPH_FAILPOINT("trace:open");
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open trace file: " + path);
  }
  return in;
}

StatusOr<AppendFile> AppendFile::Create(const std::string& path) {
  COLGRAPH_FAILPOINT("io:open_append");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open for append: " + path);
  }
  AppendFile out;
  out.f_ = f;
  out.path_ = path;
  return out;
}

AppendFile& AppendFile::operator=(AppendFile&& other) noexcept {
  if (this != &other) {
    if (f_ != nullptr) std::fclose(f_);
    f_ = other.f_;
    path_ = std::move(other.path_);
    other.f_ = nullptr;
  }
  return *this;
}

AppendFile::~AppendFile() {
  if (f_ != nullptr) std::fclose(f_);
}

Status AppendFile::Append(const void* data, size_t n) {
  if (f_ == nullptr) {
    return Status::IOError("append to closed file: " + path_);
  }
  size_t write_bytes = n;
  uint64_t short_arg = 0;
  if (failpoint::Hit("io:short_write", &short_arg) ==
      failpoint::Action::kShortWrite) {
    write_bytes = std::min(write_bytes, static_cast<size_t>(short_arg));
  }
  const bool ok = std::fwrite(data, 1, write_bytes, f_) == write_bytes &&
                  write_bytes == n;
  if (!ok) {
    // A torn append leaves the tail of the log unparseable; close so the
    // caller cannot make it worse by appending past the tear.
    std::fclose(f_);
    f_ = nullptr;
    return Status::IOError("append failed: " + path_);
  }
  return Status::OK();
}

Status AppendFile::SyncAndClose() {
  if (f_ == nullptr) return Status::OK();
  bool ok = std::fflush(f_) == 0 && ::fsync(fileno(f_)) == 0;
  if (failpoint::Hit("io:fsync") != failpoint::Action::kOff) ok = false;
  if (std::fclose(f_) != 0) ok = false;
  f_ = nullptr;
  if (!ok) {
    return Status::IOError("flush/fsync failed: " + path_);
  }
  return Status::OK();
}

}  // namespace colgraph::io
