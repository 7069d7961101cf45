/// The frame codec: framing round-trips under arbitrary stream chunking,
/// and every malformed input — truncated frames, oversized length
/// prefixes, checksum mismatches, garbage payloads — is rejected with a
/// diagnostic, never accepted-then-misparsed.  The messages inside the
/// frames are service/protocol.hpp's, tested by protocol_test.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dispatch/wire.hpp"
#include "service/protocol.hpp"
#include "util/rng.hpp"

namespace hoval::dispatch {
namespace {

std::vector<std::string> drain(FrameDecoder& decoder) {
  std::vector<std::string> frames;
  while (const auto frame = decoder.next()) frames.push_back(*frame);
  return frames;
}

TEST(Wire, FramesRoundTripThroughTheDecoder) {
  const std::vector<std::string> payloads = {
      "", "x", std::string("binary\0payload", 14), std::string(100000, 'q'),
      "{\"type\":\"error\",\"index\":3,\"what\":\"boom\"}"};
  std::string stream;
  for (const std::string& payload : payloads)
    stream += encode_frame(payload);

  FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  EXPECT_EQ(drain(decoder), payloads);
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(Wire, ByteAtATimeFeedingYieldsTheSameFrames) {
  const std::vector<std::string> payloads = {"alpha", "", "gamma delta"};
  std::string stream;
  for (const std::string& payload : payloads)
    stream += encode_frame(payload);

  FrameDecoder decoder;
  std::vector<std::string> frames;
  for (const char byte : stream) {
    decoder.feed(&byte, 1);
    for (auto& frame : drain(decoder)) frames.push_back(std::move(frame));
  }
  EXPECT_EQ(frames, payloads);
}

TEST(Wire, TruncatedFrameIsDetectableNotMisparsed) {
  const std::string frame = encode_frame("a payload that gets cut off");
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    FrameDecoder decoder;
    decoder.feed(frame.data(), cut);
    EXPECT_EQ(decoder.next(), std::nullopt) << "cut at " << cut;
    // A peer that dies here left pending bytes behind — the host's
    // truncation diagnostic keys off exactly this.
    EXPECT_EQ(decoder.pending_bytes(), cut);
  }
}

TEST(Wire, OversizedLengthPrefixThrowsBeforeAllocating) {
  // 0xFFFFFFFF and (cap + 1) as little-endian length prefixes.
  for (const std::uint32_t length :
       {std::uint32_t{0xFFFFFFFFu}, kMaxFramePayload + 1}) {
    std::string stream;
    for (int i = 0; i < 4; ++i)
      stream.push_back(static_cast<char>((length >> (8 * i)) & 0xFF));
    FrameDecoder decoder;
    decoder.feed(stream.data(), stream.size());
    EXPECT_THROW(decoder.next(), WireError);
  }
  EXPECT_THROW(encode_frame(std::string(kMaxFramePayload + 1, 'x')),
               WireError);
}

TEST(Wire, CorruptedBytesAreRejectedByTheChecksumNeverMisparsed) {
  // Flip every bit position of a frame in turn: whatever the fault model
  // does to the bytes, the decoder must either throw (checksum or length
  // violation) or keep waiting — it may never deliver altered payload.
  const std::string payload = R"({"type":"error","index":1,"what":"ok"})";
  const std::string frame = encode_frame(payload);
  int rejected = 0;
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::string corrupted = frame;
    corrupted[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    FrameDecoder decoder;
    try {
      decoder.feed(corrupted.data(), corrupted.size());
      while (const auto out = decoder.next()) {
        ADD_FAILURE() << "bit " << bit << " delivered a frame";
        EXPECT_EQ(*out, payload);
      }
      // A length-field flip can leave the decoder waiting for more bytes;
      // that is detection-by-truncation, also safe.
    } catch (const WireError&) {
      ++rejected;
    }
  }
  // The overwhelming majority of flips (all payload and CRC bits, most
  // length bits) must be caught outright.
  EXPECT_GT(rejected, static_cast<int>(frame.size() * 8 / 2));
}

TEST(Wire, ChecksumMismatchDiagnosticNamesTheCorruption) {
  std::string frame = encode_frame("checksummed payload");
  frame[frame.size() - 1] ^= 0x01;  // corrupt the payload's last byte
  FrameDecoder decoder;
  decoder.feed(frame.data(), frame.size());
  try {
    decoder.next();
    FAIL() << "corrupted frame was accepted";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(Wire, RandomBytesNeverCrashTheDecoderOrParser) {
  Rng rng(0xD15F);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes(rng.below(256), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.below(256));
    FrameDecoder decoder;
    // Random chunking exercises the buffered/compaction paths.
    std::size_t offset = 0;
    try {
      while (offset < bytes.size()) {
        const std::size_t chunk =
            std::min(bytes.size() - offset, 1 + rng.below(64));
        decoder.feed(bytes.data() + offset, chunk);
        offset += chunk;
        while (const auto frame = decoder.next()) {
          // What a dispatch host parses its workers' frames with; only
          // ServiceError may escape it.
          try {
            (void)service::parse_server_message(*frame);
          } catch (const service::ServiceError&) {
          }
        }
      }
    } catch (const WireError&) {
      // an oversized length prefix ends the stream — fine
    }
  }
}

TEST(Wire, DecoderCompactionPreservesTheStream) {
  // Many frames through one decoder forces the lazy-compaction path; every
  // frame must still come out intact and in order.
  FrameDecoder decoder;
  int received = 0;
  for (int i = 0; i < 500; ++i) {
    const std::string payload(static_cast<std::size_t>(i % 97) * 7, 'a' + i % 26);
    const std::string frame = encode_frame(payload);
    decoder.feed(frame.data(), frame.size());
    while (const auto out = decoder.next()) {
      EXPECT_EQ(*out, payload);
      ++received;
    }
  }
  EXPECT_EQ(received, 500);
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

}  // namespace
}  // namespace hoval::dispatch
