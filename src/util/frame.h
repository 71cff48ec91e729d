// The frame codec: the one unit shared by the colgraphd wire protocol
// (server/protocol.h) and the framed logs (obs/framed_log.h, DESIGN.md
// §10):
//
//   [u8 type][u64 payload_len][u32 crc32c(payload)][payload]
//
// Integers are host byte order, like the snapshot codecs. This file owns
// the 13-byte header (its in-place encode, its parse and its CRC) and the
// bounds-checked cursor every payload decoder reads through. What a type
// byte means, which lengths are acceptable and what a mismatch is called
// belong to the caller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace colgraph {

/// [type][len][crc] — the fixed prefix of every frame.
inline constexpr size_t kFrameHeaderBytes =
    sizeof(uint8_t) + sizeof(uint64_t) + sizeof(uint32_t);

struct FrameHeader {
  uint8_t type = 0;
  uint64_t payload_len = 0;
  uint32_t crc = 0;
};

/// Appends `n` bytes at `data` to `out`.
inline void AppendBytes(std::vector<char>* out, const void* data, size_t n) {
  const char* bytes = static_cast<const char*>(data);
  out->insert(out->end(), bytes, bytes + n);
}

/// Appends the bytes of one trivially copyable value to `out`.
template <typename T>
void AppendPod(std::vector<char>* out, const T& value) {
  AppendBytes(out, &value, sizeof(T));
}

/// A frame's payload is encoded in place: BeginFrame reserves room for the
/// frame, appends the header with its length and CRC still zero and
/// returns where the frame starts; the payload is appended behind it;
/// EndFrame then fills in the length and the CRC of everything after the
/// header. `payload_bytes` only sizes the reservation.
size_t BeginFrame(uint8_t type, size_t payload_bytes, std::vector<char>* out);
void EndFrame(size_t start, std::vector<char>* out);

/// Parses the header in the first kFrameHeaderBytes of `data`. It judges
/// nothing: the type, the length and the CRC are the caller's to check.
FrameHeader ParseFrameHeader(const char* data);

/// The CRC-32C a frame header carries for `payload`.
uint32_t FrameCrc(const char* payload, size_t len);

/// \brief Bounds-checked cursor over untrusted bytes (a frame payload, or
/// a whole log image). A read that would run past the end returns false
/// and consumes nothing; the caller turns that into its own Status.
class FrameCursor {
 public:
  FrameCursor(const char* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  [[nodiscard]] bool Read(T* value) {
    if (sizeof(T) > remaining()) return false;
    std::memcpy(value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  [[nodiscard]] bool ReadString(size_t n, std::string* out) {
    if (n > remaining()) return false;
    out->assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }

  /// Steps over `n` bytes and returns where they start, or nullptr when
  /// fewer than `n` remain.
  const char* Take(size_t n) {
    if (n > remaining()) return nullptr;
    const char* start = data_ + pos_;
    pos_ += n;
    return start;
  }

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace colgraph
