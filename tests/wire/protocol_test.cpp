// Wire protocol robustness: randomized round-trip properties plus a
// corpus of hostile inputs (truncations, bit flips, forged lengths) that
// must all land in kMalformed/kNeedMore — never a bogus kOk, never an
// out-of-bounds read (the unit tier runs under ASan in CI).
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "image/image.hpp"
#include "wire/crc32.hpp"
#include "wire/protocol.hpp"

#include "../simd/crc32_reference.hpp"

namespace lumichat::wire {
namespace {

/// Random plane; with `eight_bit`, every channel is an integer in [0, 255]
/// (the values an 8-bit video frame holds), so the plane travels as u8.
image::Image random_image(std::size_t w, std::size_t h, common::Rng& rng,
                          bool eight_bit = false) {
  const auto channel = [&] {
    return eight_bit ? static_cast<double>(rng.uniform_int(0, 255))
                     : rng.uniform(0.0, 255.0);
  };
  image::Image img(w, h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      img.at(x, y) = image::Pixel{channel(), channel(), channel()};
    }
  }
  return img;
}

/// Recomputes the CRC of the complete message in `buf` after a test has
/// forged a payload field, so only the forged field is wrong.
void reseal(std::vector<std::uint8_t>& buf, std::size_t n) {
  const std::uint32_t crc = crc32_final(
      crc32_update(crc32_update(kCrc32Init, buf.data(), 20),
                   buf.data() + kHeaderSize, n - kHeaderSize));
  std::memcpy(buf.data() + 20, &crc, sizeof(crc));
}

/// Encodes one randomized message of the given type into `buf`; with
/// `eight_bit`, a Frame's planes are 8-bit and travel as u8.
std::size_t encode_random(MsgType type, common::Rng& rng,
                          std::vector<std::uint8_t>& buf,
                          bool eight_bit = false) {
  const auto token = rng.uniform_int(0, ~0ull);
  const auto stream = static_cast<std::uint32_t>(rng.uniform_int(0, ~0u));
  switch (type) {
    case MsgType::kHello: {
      HelloMsg m;
      m.frame_width = static_cast<std::uint32_t>(rng.uniform_int(1, 64));
      m.frame_height = static_cast<std::uint32_t>(rng.uniform_int(1, 64));
      m.client_nonce = rng.uniform_int(0, ~0ull);
      return encode_hello(buf.data(), buf.size(), token, stream, m);
    }
    case MsgType::kHelloAck: {
      HelloAckMsg m;
      m.assigned_session = rng.uniform_int(0, ~0ull);
      m.status = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
      m.shard = static_cast<std::uint32_t>(rng.uniform_int(0, 63));
      return encode_hello_ack(buf.data(), buf.size(), token, stream, m);
    }
    case MsgType::kFrame: {
      common::Rng img_rng(rng.uniform_int(0, ~0ull));
      const std::size_t w = rng.uniform_int(1, 16);
      const std::size_t h = rng.uniform_int(1, 16);
      const image::Image tx = random_image(w, h, img_rng, eight_bit);
      const image::Image rx = random_image(w, h, img_rng, eight_bit);
      return encode_frame(buf.data(), buf.size(), token, stream,
                          static_cast<std::uint32_t>(rng.uniform_int(0, 999)),
                          rng.uniform_int(0, ~0ull), tx, rx);
    }
    case MsgType::kVerdict: {
      VerdictMsg m;
      m.window_index = static_cast<std::uint32_t>(rng.uniform_int(0, 99));
      m.verdict = static_cast<std::uint8_t>(rng.uniform_int(0, 2));
      m.is_attacker = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
      m.lof_score = rng.uniform(-5.0, 5.0);
      m.push_to_verdict_s = rng.uniform(0.0, 1.0);
      return encode_verdict(buf.data(), buf.size(), token, stream, m);
    }
    case MsgType::kHeartbeat: {
      HeartbeatMsg m;
      m.t_us = rng.uniform_int(0, ~0ull);
      return encode_heartbeat(buf.data(), buf.size(), token, stream, m);
    }
    case MsgType::kBye: {
      ByeMsg m;
      m.reason = static_cast<std::uint32_t>(rng.uniform_int(0, 2));
      return encode_bye(buf.data(), buf.size(), token, stream, m);
    }
    case MsgType::kStatsRequest: {
      StatsRequestMsg m;
      m.format = static_cast<std::uint32_t>(rng.uniform_int(0, 1));
      return encode_stats_request(buf.data(), buf.size(), token, stream, m);
    }
    case MsgType::kStatsReply: {
      std::string text(rng.uniform_int(0, 64), 'x');
      for (char& c : text) {
        c = static_cast<char>('a' + rng.uniform_int(0, 25));
      }
      return encode_stats_reply(buf.data(), buf.size(), token, stream,
                                StatsFormat::kJson, text);
    }
  }
  return 0;
}

constexpr MsgType kAllTypes[] = {
    MsgType::kHello,     MsgType::kHelloAck,     MsgType::kFrame,
    MsgType::kVerdict,   MsgType::kHeartbeat,    MsgType::kBye,
    MsgType::kStatsRequest, MsgType::kStatsReply};

TEST(WireProtocol, RandomizedMessagesRoundTrip) {
  common::Rng rng(2024);
  std::vector<std::uint8_t> buf(frame_wire_size(16, 16));
  for (int iter = 0; iter < 200; ++iter) {
    for (const MsgType type : kAllTypes) {
      const std::size_t n = encode_random(type, rng, buf);
      ASSERT_GT(n, 0u);
      MessageView view;
      ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
      EXPECT_EQ(view.header.type, type);
      EXPECT_EQ(view.wire_size, n);
      EXPECT_EQ(view.header.version, kProtocolVersion);
    }
  }
}

TEST(WireProtocol, HelloFieldsSurviveRoundTrip) {
  std::vector<std::uint8_t> buf(256);
  HelloMsg in;
  in.frame_width = 37;
  in.frame_height = 21;
  in.client_nonce = 0xDEADBEEFCAFEull;
  const std::size_t n = encode_hello(buf.data(), buf.size(), 77, 5, in);
  ASSERT_GT(n, 0u);
  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
  EXPECT_EQ(view.header.session_token, 77u);
  EXPECT_EQ(view.header.stream_id, 5u);
  HelloMsg out;
  ASSERT_TRUE(parse_hello(view, &out));
  EXPECT_EQ(out.frame_width, in.frame_width);
  EXPECT_EQ(out.frame_height, in.frame_height);
  EXPECT_EQ(out.client_nonce, in.client_nonce);
}

TEST(WireProtocol, VerdictDoublesAreBitExact) {
  std::vector<std::uint8_t> buf(256);
  VerdictMsg in;
  in.window_index = 3;
  in.verdict = 1;
  in.is_attacker = 1;
  in.lof_score = 1.6180339887498949;  // not representable in float
  in.push_to_verdict_s = 2.2250738585072014e-308;  // near-subnormal
  const std::size_t n = encode_verdict(buf.data(), buf.size(), 1, 1, in);
  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
  VerdictMsg out;
  ASSERT_TRUE(parse_verdict(view, &out));
  EXPECT_EQ(std::memcmp(&out.lof_score, &in.lof_score, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&out.push_to_verdict_s, &in.push_to_verdict_s,
                        sizeof(double)),
            0);
}

TEST(WireProtocol, FramePixelsRoundTripBitIdentical) {
  common::Rng rng(9);
  const image::Image tx = random_image(11, 7, rng);
  const image::Image rx = random_image(11, 7, rng);
  std::vector<std::uint8_t> buf(frame_wire_size(11, 7));
  const std::size_t n =
      encode_frame(buf.data(), buf.size(), 42, 1, 17, 123456, tx, rx);
  ASSERT_EQ(n, buf.size());

  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
  FrameMsg frame;
  ASSERT_TRUE(parse_frame(view, &frame));
  EXPECT_EQ(frame.frame_seq, 17u);
  EXPECT_EQ(frame.timestamp_us, 123456u);

  image::Image tx2, rx2;
  frame_pixels_to_images(frame, &tx2, &rx2);
  ASSERT_EQ(tx2.width(), tx.width());
  ASSERT_EQ(tx2.height(), tx.height());
  EXPECT_EQ(std::memcmp(tx2.pixels().data(), tx.pixels().data(),
                        tx.pixels().size() * sizeof(image::Pixel)),
            0);
  EXPECT_EQ(std::memcmp(rx2.pixels().data(), rx.pixels().data(),
                        rx.pixels().size() * sizeof(image::Pixel)),
            0);
}

/// Encodes (tx, rx), decodes the result and checks that both planes come
/// back bit-identical and that the frame announced `expect_format` and took
/// exactly the bytes that format implies.
void expect_frame_round_trip(const image::Image& tx, const image::Image& rx,
                             std::uint32_t expect_format) {
  std::vector<std::uint8_t> buf(frame_wire_size(tx.width(), tx.height()));
  const std::size_t n =
      encode_frame(buf.data(), buf.size(), 42, 1, 17, 123456, tx, rx);
  ASSERT_EQ(n, frame_wire_size(tx.width(), tx.height(), expect_format));
  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
  FrameMsg frame;
  ASSERT_TRUE(parse_frame(view, &frame));
  EXPECT_EQ(frame.plane_format, expect_format);
  image::Image tx2, rx2;
  frame_pixels_to_images(frame, &tx2, &rx2);
  ASSERT_EQ(tx2.width(), tx.width());
  ASSERT_EQ(rx2.height(), rx.height());
  const std::size_t bytes = tx.pixels().size() * sizeof(image::Pixel);
  EXPECT_EQ(std::memcmp(tx2.data(), tx.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(rx2.data(), rx.data(), bytes), 0);
}

TEST(WireProtocol, FrameWireSizesFollowPlaneFormat) {
  // The paper-protocol 96x72 pair: 7 of every 8 f64 bytes carry nothing
  // when the frame is 8-bit. The default is the f64 maximum.
  EXPECT_EQ(frame_wire_size(96, 72), 331832u);
  EXPECT_EQ(frame_wire_size(96, 72, 0), 331832u);
  EXPECT_EQ(frame_wire_size(96, 72, kPlaneFormatsU8), 41528u);
  EXPECT_EQ(frame_wire_size(96, 72, kTransmittedPlaneU8),
            frame_wire_size(96, 72, kReceivedPlaneU8));
  EXPECT_EQ(frame_wire_size(96, 72, kTransmittedPlaneU8),
            kHeaderSize + kFramePayloadFixedSize + 96 * 72 * 3 * 9);
}

TEST(WireProtocol, EightBitAndMixedFramesRoundTripBitIdentical) {
  common::Rng rng(10);
  const image::Image u8_tx = random_image(13, 9, rng, true);
  const image::Image u8_rx = random_image(13, 9, rng, true);
  const image::Image f64_tx = random_image(13, 9, rng);
  const image::Image f64_rx = random_image(13, 9, rng);
  expect_frame_round_trip(u8_tx, u8_rx, kPlaneFormatsU8);
  expect_frame_round_trip(u8_tx, f64_rx, kTransmittedPlaneU8);
  expect_frame_round_trip(f64_tx, u8_rx, kReceivedPlaneU8);
  expect_frame_round_trip(f64_tx, f64_rx, 0);
  // The extremes of the byte range are exact too.
  expect_frame_round_trip(image::Image(3, 2, image::Pixel{0.0, 255.0, 1.0}),
                          image::Image(3, 2, image::Pixel{255.0, 0.0, 128.0}),
                          kPlaneFormatsU8);
}

TEST(WireProtocol, InexactChannelForcesItsPlaneToF64) {
  // One bad channel in an otherwise 8-bit plane: the plane must go out as
  // f64 (a byte could not widen back to these bits), the other plane stays
  // u8, and the odd value survives bit for bit.
  const double kInexact[] = {-0.0,
                             255.5,
                             256.0,
                             -1.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min(),
                             1e-300};
  // A pixel in the encoder's first 16-pixel block, one in its second, and
  // the last pixel, which falls in the tail after the full blocks.
  const std::size_t kAt[] = {0, 17, 34};
  common::Rng rng(11);
  const image::Image clean = random_image(7, 5, rng, true);
  for (const double bad : kInexact) {
    SCOPED_TRACE(bad);
    for (const std::size_t at : kAt) {
      SCOPED_TRACE(at);
      image::Image dirty = clean;
      dirty.data()[at].g = bad;
      expect_frame_round_trip(dirty, clean, kReceivedPlaneU8);
      expect_frame_round_trip(clean, dirty, kTransmittedPlaneU8);
    }
  }
}

TEST(WireProtocol, EncodeRefusesUndersizedBuffer) {
  std::vector<std::uint8_t> buf(kHeaderSize + kHelloPayloadSize - 1);
  EXPECT_EQ(encode_hello(buf.data(), buf.size(), 1, 1, HelloMsg{}), 0u);
  common::Rng rng(1);
  const image::Image img = random_image(8, 8, rng);
  std::vector<std::uint8_t> small(frame_wire_size(8, 8) - 1);
  EXPECT_EQ(encode_frame(small.data(), small.size(), 1, 1, 0, 0, img, img),
            0u);
  // An 8-bit pair needs only its u8 size, and not one byte less.
  const image::Image u8 = random_image(8, 8, rng, true);
  const std::size_t exact = frame_wire_size(8, 8, kPlaneFormatsU8);
  EXPECT_EQ(encode_frame(small.data(), exact, 1, 1, 0, 0, u8, u8), exact);
  EXPECT_EQ(encode_frame(small.data(), exact - 1, 1, 1, 0, 0, u8, u8), 0u);
  // A mixed pair whose f64 plane comes second needs room for it as well.
  EXPECT_EQ(encode_frame(small.data(),
                         frame_wire_size(8, 8, kTransmittedPlaneU8) - 1, 1, 1,
                         0, 0, u8, img),
            0u);
}

TEST(WireProtocol, EncodeFrameRejectsMismatchedOrOversizedImages) {
  common::Rng rng(2);
  std::vector<std::uint8_t> buf(1 << 20);
  const image::Image a = random_image(8, 8, rng);
  const image::Image b = random_image(8, 9, rng);
  EXPECT_EQ(encode_frame(buf.data(), buf.size(), 1, 1, 0, 0, a, b), 0u);
  const image::Image empty;
  EXPECT_EQ(encode_frame(buf.data(), buf.size(), 1, 1, 0, 0, empty, empty),
            0u);
}

// --- Hostile-input corpus -------------------------------------------------

/// Every message type, then a Frame whose planes travel as u8.
struct CorpusCase {
  MsgType type;
  bool eight_bit;
};
constexpr CorpusCase kCorpusCases[] = {
    {MsgType::kHello, false},        {MsgType::kHelloAck, false},
    {MsgType::kFrame, false},        {MsgType::kVerdict, false},
    {MsgType::kHeartbeat, false},    {MsgType::kBye, false},
    {MsgType::kStatsRequest, false}, {MsgType::kStatsReply, false},
    {MsgType::kFrame, true}};

TEST(WireProtocolCorpus, EveryTruncationIsNeverOk) {
  common::Rng rng(77);
  std::vector<std::uint8_t> buf(frame_wire_size(16, 16));
  for (const auto [type, eight_bit] : kCorpusCases) {
    const std::size_t n = encode_random(type, rng, buf, eight_bit);
    ASSERT_GT(n, 0u);
    for (std::size_t len = 0; len < n; ++len) {
      MessageView view;
      const DecodeStatus st = decode_message(buf.data(), len, &view);
      // A strict prefix of a valid message can never decode as complete;
      // it is kNeedMore until enough bytes arrive to prove corruption.
      EXPECT_NE(st, DecodeStatus::kOk) << "type " << static_cast<int>(type)
                                       << " u8 " << eight_bit
                                       << " truncated at " << len;
    }
  }
}

TEST(WireProtocolCorpus, EverySingleBitFlipIsNeverOk) {
  common::Rng rng(78);
  std::vector<std::uint8_t> buf(frame_wire_size(4, 4));
  for (const auto [type, eight_bit] : kCorpusCases) {
    const std::size_t n = encode_random(type, rng, buf, eight_bit);
    ASSERT_GT(n, 0u);
    for (std::size_t byte = 0; byte < n; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        buf[byte] ^= static_cast<std::uint8_t>(1 << bit);
        MessageView view;
        const DecodeStatus st = decode_message(buf.data(), n, &view);
        // The CRC covers header and payload, so any flip either breaks the
        // CRC (kMalformed) or inflates payload_len (kNeedMore) — it can
        // never pass as a valid message.
        EXPECT_NE(st, DecodeStatus::kOk)
            << "type " << static_cast<int>(type) << " u8 " << eight_bit
            << " bit " << bit << " of byte " << byte;
        buf[byte] ^= static_cast<std::uint8_t>(1 << bit);
      }
    }
  }
}

TEST(WireProtocolCorpus, OversizedLengthRejectedFromFirstFourBytes) {
  std::uint8_t buf[kHeaderSize]{};
  const std::uint32_t huge = kMaxPayload + 1;
  std::memcpy(buf, &huge, sizeof(huge));
  MessageView view;
  // Rejected even before a full header arrives — a hostile length must not
  // make the server buffer toward a bound it will never accept.
  EXPECT_EQ(decode_message(buf, 4, &view), DecodeStatus::kMalformed);
  buf[4] = kProtocolVersion;
  buf[5] = static_cast<std::uint8_t>(MsgType::kHeartbeat);
  EXPECT_EQ(decode_message(buf, kHeaderSize, &view), DecodeStatus::kMalformed);
}

TEST(WireProtocolCorpus, BadVersionTypeOrFlagsRejected) {
  std::vector<std::uint8_t> buf(256);
  const std::size_t n =
      encode_heartbeat(buf.data(), buf.size(), 1, 1, HeartbeatMsg{});
  MessageView view;

  const auto prefix_end =
      buf.begin() + static_cast<std::ptrdiff_t>(n);
  std::vector<std::uint8_t> tampered(buf.begin(), prefix_end);
  // Only kProtocolVersion is spoken: the next version and the retired
  // versions 1 and 0 are all rejected from the 5-byte prefix.
  for (const int version : {kProtocolVersion + 1, 1, 0}) {
    SCOPED_TRACE(version);
    tampered[4] = static_cast<std::uint8_t>(version);
    EXPECT_EQ(decode_message(tampered.data(), 5, &view),
              DecodeStatus::kMalformed);
  }

  tampered.assign(buf.begin(), prefix_end);
  tampered[5] = 99;  // unknown type, caught from the 6-byte prefix on
  EXPECT_EQ(decode_message(tampered.data(), 6, &view),
            DecodeStatus::kMalformed);
}

TEST(WireProtocolCorpus, ForgedFrameDimensionsFailParse) {
  common::Rng rng(5);
  const image::Image img = random_image(8, 8, rng);
  std::vector<std::uint8_t> buf(frame_wire_size(8, 8));
  ASSERT_EQ(encode_frame(buf.data(), buf.size(), 1, 1, 0, 0, img, img),
            buf.size());

  // Forge width 9 and re-seal the CRC: the framing layer accepts the
  // message (CRC is consistent), but parse_frame must reject it because
  // 9 x 8 does not account for the payload bytes.
  const std::uint32_t forged_w = 9;
  std::memcpy(buf.data() + kHeaderSize + 16, &forged_w, sizeof(forged_w));
  reseal(buf, buf.size());

  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), buf.size(), &view), DecodeStatus::kOk);
  FrameMsg frame;
  EXPECT_FALSE(parse_frame(view, &frame));
}

TEST(WireProtocolCorpus, ForgedPlaneFormatFailsParse) {
  common::Rng rng(6);
  const image::Image u8 = random_image(8, 8, rng, true);
  const image::Image f64 = random_image(8, 8, rng);
  // Each case encodes a pair, forges plane_format (payload offset 4) and
  // re-seals the CRC, so only the format word is wrong.
  struct Case {
    const image::Image* tx;
    const image::Image* rx;
    std::uint32_t forged;
  };
  const Case cases[] = {
      // Unknown format bits, with and without the known ones.
      {&u8, &u8, kPlaneFormatsU8 | 0x4},
      {&f64, &f64, 0x80000000u},
      {&f64, &u8, 0x8},
      // A payload_len that fits another format than the one announced.
      // (The two mixed formats share one size; only the CRC tells them
      // apart, as it does any other flipped payload bit.)
      {&u8, &u8, 0},
      {&u8, &u8, kTransmittedPlaneU8},
      {&f64, &f64, kPlaneFormatsU8},
      {&f64, &f64, kReceivedPlaneU8},
      {&u8, &f64, kPlaneFormatsU8},
      {&u8, &f64, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.forged);
    std::vector<std::uint8_t> buf(frame_wire_size(8, 8));
    const std::size_t n =
        encode_frame(buf.data(), buf.size(), 1, 1, 0, 0, *c.tx, *c.rx);
    ASSERT_GT(n, 0u);
    MessageView view;
    FrameMsg frame;
    ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
    ASSERT_TRUE(parse_frame(view, &frame));
    std::memcpy(buf.data() + kHeaderSize + 4, &c.forged, sizeof(c.forged));
    reseal(buf, n);
    ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
    EXPECT_FALSE(parse_frame(view, &frame));
  }
}

TEST(WireProtocolCorpus, WrongPayloadSizeFailsTypedParse) {
  std::vector<std::uint8_t> buf(256);
  const std::size_t n =
      encode_heartbeat(buf.data(), buf.size(), 1, 1, HeartbeatMsg{});
  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
  HelloMsg hello;
  EXPECT_FALSE(parse_hello(view, &hello));  // wrong type
  VerdictMsg verdict;
  EXPECT_FALSE(parse_verdict(view, &verdict));
}

TEST(WireProtocolCorpus, RandomGarbageNeverDecodesOk) {
  common::Rng rng(123);
  std::vector<std::uint8_t> junk(512);
  for (int iter = 0; iter < 500; ++iter) {
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    MessageView view;
    const DecodeStatus st = decode_message(junk.data(), junk.size(), &view);
    // Random bytes passing the version/type/flags checks still have to
    // clear a 32-bit CRC; treat a kOk here as the vanishing-probability
    // event it is and fail loudly.
    EXPECT_NE(st, DecodeStatus::kOk) << "iteration " << iter;
  }
}

// --- Trace ids, flags and stats messages ---------------------------------

TEST(WireProtocol, FrameTraceIdRoundTrips) {
  common::Rng rng(31);
  const image::Image img = random_image(6, 5, rng);
  std::vector<std::uint8_t> buf(frame_wire_size(6, 5));
  const std::uint64_t trace = 0x0123456789ABCDEFull;
  const std::size_t n =
      encode_frame(buf.data(), buf.size(), 9, 2, 4, 777, img, img, trace);
  ASSERT_EQ(n, buf.size());
  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
  EXPECT_EQ(view.header.version, 2);
  FrameMsg frame;
  ASSERT_TRUE(parse_frame(view, &frame));
  EXPECT_EQ(frame.trace_id, trace);
}

TEST(WireProtocol, VerdictTraceIdRoundTrips) {
  std::vector<std::uint8_t> buf(256);
  VerdictMsg in;
  in.window_index = 7;
  in.trace_id = 0xFEEDFACEull;
  const std::size_t n = encode_verdict(buf.data(), buf.size(), 1, 1, in);
  ASSERT_EQ(n, kHeaderSize + kVerdictPayloadSize);
  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
  VerdictMsg out;
  ASSERT_TRUE(parse_verdict(view, &out));
  EXPECT_EQ(out.trace_id, in.trace_id);
}

TEST(WireProtocol, UnknownFlagBitsAreMalformed) {
  std::vector<std::uint8_t> buf(256);
  const std::size_t n =
      encode_heartbeat(buf.data(), buf.size(), 1, 1, HeartbeatMsg{}, kFlagEcho);
  ASSERT_GT(n, 0u);
  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
  EXPECT_EQ(view.header.flags, kFlagEcho);
  // Set a flag bit outside kKnownFlags: rejected from the 8-byte prefix,
  // before the CRC would catch it anyway.
  buf[6] |= 0x2;
  EXPECT_EQ(decode_message(buf.data(), kHeaderSize, &view),
            DecodeStatus::kMalformed);
}

TEST(WireProtocol, StatsReplyTextRoundTripsAndTruncationRejected) {
  const std::string text = "{\"counters\":{\"wire.frames_in\":42}}";
  std::vector<std::uint8_t> buf(stats_reply_wire_size(text.size()));
  const std::size_t n = encode_stats_reply(buf.data(), buf.size(), 3, 1,
                                           StatsFormat::kPrometheus, text);
  ASSERT_EQ(n, buf.size());
  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
  StatsReplyMsg reply;
  ASSERT_TRUE(parse_stats_reply(view, &reply));
  EXPECT_EQ(reply.format,
            static_cast<std::uint32_t>(StatsFormat::kPrometheus));
  ASSERT_EQ(reply.text_len, text.size());
  EXPECT_EQ(std::memcmp(reply.text, text.data(), text.size()), 0);

  // Every strict prefix stays kNeedMore/kMalformed (never a bogus kOk).
  for (std::size_t len = 0; len < n; ++len) {
    EXPECT_NE(decode_message(buf.data(), len, &view), DecodeStatus::kOk);
  }
}

TEST(WireProtocol, EmptyStatsReplyIsValid) {
  std::vector<std::uint8_t> buf(stats_reply_wire_size(0));
  const std::size_t n = encode_stats_reply(buf.data(), buf.size(), 1, 1,
                                           StatsFormat::kJson, {});
  ASSERT_EQ(n, buf.size());
  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), n, &view), DecodeStatus::kOk);
  StatsReplyMsg reply;
  ASSERT_TRUE(parse_stats_reply(view, &reply));
  EXPECT_EQ(reply.text_len, 0u);
}

/// A fixed, non-random 96x72 frame plane (the paper-protocol frame size).
image::Image fixed_plane(std::size_t salt) {
  image::Image img(96, 72);
  for (std::size_t y = 0; y < 72; ++y) {
    for (std::size_t x = 0; x < 96; ++x) {
      img.at(x, y) = image::Pixel{
          static_cast<double>((x * 7 + y * 3 + salt) % 256),
          static_cast<double>((x + y * 11 + salt) % 256) + 0.25,
          static_cast<double>((x * y + salt) % 256) * 0.5};
    }
  }
  return img;
}

TEST(WireProtocolCrc, FixedFrameChecksumIsPinned) {
  // The CRC of one fixed full-size Frame, pinned to the value the
  // byte-at-a-time table loop of earlier builds computed: whichever kernel
  // table seals and checks it, the wire bytes are the ones older builds
  // emit and accept.
  constexpr std::uint32_t kPinnedCrc = 0x7CAC350Cu;
  const image::Image tx = fixed_plane(0);
  const image::Image rx = fixed_plane(101);
  std::vector<std::uint8_t> buf(frame_wire_size(96, 72));
  ASSERT_EQ(encode_frame(buf.data(), buf.size(), 0x0123456789abcdefull, 7, 42,
                         1000000, tx, rx, 0x9e3779b97f4a7c15ull),
            buf.size());
  std::uint32_t sealed = 0;
  std::memcpy(&sealed, buf.data() + 20, sizeof(sealed));
  EXPECT_EQ(sealed, kPinnedCrc);
  const std::uint32_t reference = crc32_final(simd::testref::crc32_bitwise(
      simd::testref::crc32_bitwise(kCrc32Init, buf.data(), 20),
      buf.data() + kHeaderSize, buf.size() - kHeaderSize));
  EXPECT_EQ(reference, kPinnedCrc);

  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), buf.size(), &view), DecodeStatus::kOk);
  EXPECT_EQ(view.header.version, kProtocolVersion);
  // One corrupted pixel byte is still caught by the checksum.
  buf[buf.size() / 2] ^= 0x10;
  EXPECT_EQ(decode_message(buf.data(), buf.size(), &view),
            DecodeStatus::kMalformed);
}

}  // namespace
}  // namespace lumichat::wire
