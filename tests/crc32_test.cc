#include "util/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace cpdb {
namespace {

TEST(Crc32Test, KnownVectors) {
  // The standard CRC-32 check value.
  EXPECT_EQ(Crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string("")), 0u);
  // From the zlib test suite.
  EXPECT_EQ(Crc32(std::string("a")), 0xE8B7BE43u);
  EXPECT_EQ(Crc32(std::string("abc")), 0x352441C2u);
}

TEST(Crc32Test, SeedChainsIncrementalComputation) {
  std::string all = "hello, durable world";
  uint32_t one_shot = Crc32(all);
  uint32_t chained = Crc32(all.data(), 5);
  chained = Crc32(all.data() + 5, all.size() - 5, chained);
  EXPECT_EQ(chained, one_shot);
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  std::string data(64, '\x5a');
  uint32_t clean = Crc32(data);
  for (size_t byte : {size_t{0}, data.size() / 2, data.size() - 1}) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = data;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      EXPECT_NE(Crc32(flipped), clean)
          << "undetected flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(VarintTest, RoundTripsBoundaryValues) {
  const uint64_t cases[] = {0,
                            1,
                            127,
                            128,
                            16383,
                            16384,
                            (1ull << 32) - 1,
                            1ull << 32,
                            std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : cases) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_LE(buf.size(), kMaxVarint64Bytes);
    size_t pos = 0;
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint64(buf, &pos, &out)) << v;
    EXPECT_EQ(out, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, EncodingIsCompactAndConcatenable) {
  std::string buf;
  PutVarint64(&buf, 5);
  EXPECT_EQ(buf.size(), 1u);  // one byte below 128
  PutVarint64(&buf, 300);
  PutVarint64(&buf, 0);
  size_t pos = 0;
  uint64_t a, b, c;
  ASSERT_TRUE(GetVarint64(buf, &pos, &a));
  ASSERT_TRUE(GetVarint64(buf, &pos, &b));
  ASSERT_TRUE(GetVarint64(buf, &pos, &c));
  EXPECT_EQ(a, 5u);
  EXPECT_EQ(b, 300u);
  EXPECT_EQ(c, 0u);
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, TruncatedInputFailsWithoutAdvancing) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.pop_back();  // cut the terminating byte
  size_t pos = 0;
  uint64_t out;
  EXPECT_FALSE(GetVarint64(buf, &pos, &out));
  EXPECT_EQ(pos, 0u);
}

TEST(VarintTest, OverlongEncodingRejected) {
  // Eleven continuation bytes can never terminate a 64-bit varint.
  std::string buf(11, '\x80');
  size_t pos = 0;
  uint64_t out;
  EXPECT_FALSE(GetVarint64(buf, &pos, &out));
}

TEST(LengthPrefixedTest, RoundTripsBinaryPayloads) {
  std::string payload("\x00\xff framed \n bytes", 17);
  std::string buf;
  PutLengthPrefixed(&buf, payload);
  PutLengthPrefixed(&buf, "");
  size_t pos = 0;
  std::string a, b;
  ASSERT_TRUE(GetLengthPrefixed(buf, &pos, &a));
  ASSERT_TRUE(GetLengthPrefixed(buf, &pos, &b));
  EXPECT_EQ(a, payload);
  EXPECT_EQ(b, "");
  EXPECT_EQ(pos, buf.size());
}

TEST(LengthPrefixedTest, TruncatedPayloadFails) {
  std::string buf;
  PutLengthPrefixed(&buf, "twelve bytes");
  buf.resize(buf.size() - 3);
  size_t pos = 0;
  std::string out;
  EXPECT_FALSE(GetLengthPrefixed(buf, &pos, &out));
  EXPECT_EQ(pos, 0u);
}

// ----- Frame codec -----------------------------------------------------------

/// A bound on one frame's payload for the reader tests.
constexpr size_t kBound = 8u << 20;

/// `payload` as one frame.
std::string Framed(const std::string& payload) {
  std::string out;
  EncodeFrame(payload, &out);
  return out;
}

TEST(FrameTest, RoundTripsPayloads) {
  for (const std::string& payload :
       {std::string(), std::string("x"), std::string(1000, 'q'),
        std::string("\x00\xff\x7f", 3)}) {
    FrameReader reader(kBound);
    std::string wire = Framed(payload);
    reader.Append(wire.data(), wire.size());
    std::string got;
    ASSERT_EQ(reader.Next(&got), FrameReader::Event::kFrame);
    EXPECT_EQ(got, payload);
    EXPECT_EQ(reader.Next(&got), FrameReader::Event::kNeedMore);
    EXPECT_EQ(reader.buffered(), 0u);
  }
}

TEST(FrameTest, ReassemblesTornDelivery) {
  // Feed a pipelined pair of frames one byte at a time: every prefix is a
  // legal torn read and must parse to exactly the two payloads.
  std::string wire = Framed("first payload") + Framed("second");
  FrameReader reader(kBound);
  std::vector<std::string> got;
  std::string payload;
  for (char c : wire) {
    reader.Append(&c, 1);
    while (reader.Next(&payload) == FrameReader::Event::kFrame) {
      got.push_back(payload);
    }
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "first payload");
  EXPECT_EQ(got[1], "second");
}

TEST(FrameTest, BitFlipFailsCrcAndPoisons) {
  std::string wire = Framed("the payload under test");
  wire[wire.size() - 3] ^= 0x20;  // flip one payload bit
  FrameReader reader(kBound);
  reader.Append(wire.data(), wire.size());
  std::string payload;
  EXPECT_EQ(reader.Next(&payload), FrameReader::Event::kBadCrc);
  // Terminal: even appending a pristine frame cannot revive the stream.
  std::string good = Framed("good");
  reader.Append(good.data(), good.size());
  EXPECT_EQ(reader.Next(&payload), FrameReader::Event::kBadCrc);
}

TEST(FrameTest, OversizedLengthRejectedWithoutAllocating) {
  std::string wire;
  PutVarint64(&wire, kBound + 1);
  wire += std::string(4, '\0');
  FrameReader reader(kBound);
  reader.Append(wire.data(), wire.size());
  std::string payload;
  EXPECT_EQ(reader.Next(&payload), FrameReader::Event::kTooLarge);
}

TEST(FrameTest, GarbageVarintIsMalformed) {
  std::string wire(kMaxVarint64Bytes + 2, '\xff');
  FrameReader reader(kBound);
  reader.Append(wire.data(), wire.size());
  std::string payload;
  EXPECT_EQ(reader.Next(&payload), FrameReader::Event::kMalformed);
}

TEST(FrameTest, GoldenBytes) {
  // varint(3) | crc32("abc") = 0x352441C2, least significant byte first |
  // "abc".
  EXPECT_EQ(Framed("abc"), std::string("\x03\xc2\x41\x24\x35" "abc", 8));
}

TEST(FrameTest, ConsumedCountsWholeFramesOnly) {
  const std::string first = Framed("first");
  const std::string wire = first + Framed("second");
  FrameReader reader(kBound);
  reader.Append(wire.data(), wire.size() - 1);
  std::string payload;
  ASSERT_EQ(reader.Next(&payload), FrameReader::Event::kFrame);
  EXPECT_EQ(reader.consumed(), first.size());
  EXPECT_EQ(reader.Next(&payload), FrameReader::Event::kNeedMore);
  EXPECT_EQ(reader.consumed(), first.size());
  reader.Append(&wire.back(), 1);
  ASSERT_EQ(reader.Next(&payload), FrameReader::Event::kFrame);
  EXPECT_EQ(payload, "second");
  EXPECT_EQ(reader.consumed(), wire.size());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameTest, BoundIsTheReadersOwn) {
  // The same frame is kTooLarge or a frame depending only on the bound
  // its reader was built with.
  const std::string wire = Framed(std::string(100, 'x'));
  FrameReader tight(99);
  tight.Append(wire.data(), wire.size());
  std::string payload;
  EXPECT_EQ(tight.Next(&payload), FrameReader::Event::kTooLarge);
  EXPECT_EQ(tight.consumed(), 0u);
  FrameReader exact(100);
  exact.Append(wire.data(), wire.size());
  EXPECT_EQ(exact.Next(&payload), FrameReader::Event::kFrame);
}

TEST(Fixed32Test, LittleEndianRoundTripAndTruncation) {
  std::string buf;
  PutFixed32(&buf, 0x01020304u);
  PutFixed32(&buf, 0xFFFFFFFFu);
  EXPECT_EQ(buf.substr(0, 4), std::string("\x04\x03\x02\x01", 4));
  size_t pos = 0;
  uint32_t a = 0, b = 0, c = 0;
  ASSERT_TRUE(GetFixed32(buf, &pos, &a));
  ASSERT_TRUE(GetFixed32(buf, &pos, &b));
  EXPECT_EQ(a, 0x01020304u);
  EXPECT_EQ(b, 0xFFFFFFFFu);
  EXPECT_EQ(pos, buf.size());
  EXPECT_FALSE(GetFixed32(buf, &pos, &c));
  pos = buf.size() - 3;
  EXPECT_FALSE(GetFixed32(buf, &pos, &c));
  EXPECT_EQ(pos, buf.size() - 3);
}

}  // namespace
}  // namespace cpdb
