#include "dispatch/wire.hpp"

#include <cstdint>

#include "dispatch/stream.hpp"
#include "runtime/crc32.hpp"
#include "service/protocol.hpp"
#include "util/bytes.hpp"

namespace hoval::dispatch {

namespace {

void put_u32_le(std::string& out, std::uint32_t value) {
  out.push_back(static_cast<char>(value & 0xFF));
  out.push_back(static_cast<char>((value >> 8) & 0xFF));
  out.push_back(static_cast<char>((value >> 16) & 0xFF));
  out.push_back(static_cast<char>((value >> 24) & 0xFF));
}

std::uint32_t get_u32_le(const char* bytes) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[2])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[3])) << 24);
}

}  // namespace

std::string encode_frame(std::string_view payload) {
  if (payload.size() > kMaxFramePayload)
    throw WireError("frame payload of " + std::to_string(payload.size()) +
                    " bytes exceeds the " + std::to_string(kMaxFramePayload) +
                    "-byte cap");
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  put_u32_le(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32_le(frame, crc32(as_byte_span(payload.data(), payload.size())));
  frame.append(payload.data(), payload.size());
  return frame;
}

void FrameDecoder::feed(const void* data, std::size_t size) {
  // Compact lazily: once the consumed prefix dominates, drop it so the
  // buffer stays proportional to the unconsumed tail.
  if (consumed_ > 4096 && consumed_ > buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(static_cast<const char*>(data), size);
}

std::optional<std::string> FrameDecoder::next() {
  // The length is validated as soon as its 4 bytes arrive — a garbage
  // prefix is rejected before we wait for (or allocate) anything else.
  if (pending_bytes() < 4) return std::nullopt;
  const std::uint32_t length = get_u32_le(buffer_.data() + consumed_);
  if (length > kMaxFramePayload)
    throw WireError("frame length prefix " + std::to_string(length) +
                    " exceeds the " + std::to_string(kMaxFramePayload) +
                    "-byte cap (corrupt or misaligned stream)");
  if (pending_bytes() < kFrameHeaderBytes + static_cast<std::size_t>(length))
    return std::nullopt;
  const std::uint32_t expected = get_u32_le(buffer_.data() + consumed_ + 4);
  std::string payload = buffer_.substr(consumed_ + kFrameHeaderBytes, length);
  const std::uint32_t actual = crc32(as_byte_span(payload.data(), payload.size()));
  if (actual != expected)
    throw WireError("frame checksum mismatch (corrupted stream): payload of " +
                    std::to_string(length) + " bytes hashed " +
                    std::to_string(actual) + ", header says " +
                    std::to_string(expected));
  consumed_ += kFrameHeaderBytes + static_cast<std::size_t>(length);
  return payload;
}

bool write_frame(int fd, std::string_view payload) {
  const std::string frame = encode_frame(payload);
  return write_all(fd, frame.data(), frame.size());
}

std::optional<std::string> read_frame(int fd, FrameDecoder& decoder) {
  for (;;) {
    if (auto frame = decoder.next()) return frame;
    char buffer[64 * 1024];
    const ssize_t n = read_some(fd, buffer, sizeof(buffer));
    if (n < 0) return std::nullopt;
    if (n == 0) {
      if (decoder.pending_bytes() > 0)
        throw WireError("stream ended mid-frame (truncated peer)");
      return std::nullopt;
    }
    decoder.feed(buffer, static_cast<std::size_t>(n));
  }
}

std::string encode_result_message(int index, const Json& result) {
  return service::encode_result(index, /*cache_hit=*/false, result);
}

}  // namespace hoval::dispatch
