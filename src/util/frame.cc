#include "util/frame.h"

#include "util/crc32.h"

namespace colgraph {

size_t BeginFrame(uint8_t type, size_t payload_bytes, std::vector<char>* out) {
  const size_t start = out->size();
  out->reserve(start + kFrameHeaderBytes + payload_bytes);
  AppendPod(out, type);
  out->resize(start + kFrameHeaderBytes);
  return start;
}

void EndFrame(size_t start, std::vector<char>* out) {
  const char* payload = out->data() + start + kFrameHeaderBytes;
  const uint64_t len = out->size() - start - kFrameHeaderBytes;
  const uint32_t crc = FrameCrc(payload, len);
  char* header = out->data() + start + sizeof(uint8_t);
  std::memcpy(header, &len, sizeof(len));
  std::memcpy(header + sizeof(len), &crc, sizeof(crc));
}

FrameHeader ParseFrameHeader(const char* data) {
  FrameHeader header;
  std::memcpy(&header.type, data, sizeof(header.type));
  std::memcpy(&header.payload_len, data + sizeof(uint8_t),
              sizeof(header.payload_len));
  std::memcpy(&header.crc, data + sizeof(uint8_t) + sizeof(uint64_t),
              sizeof(header.crc));
  return header;
}

uint32_t FrameCrc(const char* payload, size_t len) {
  return Crc32c(payload, len);
}

}  // namespace colgraph
