// Wire protocol robustness: randomized round-trip properties plus a
// corpus of hostile inputs (truncations, bit flips, forged lengths) that
// must all land in kMalformed/kNeedMore — never a bogus kOk, never an
// out-of-bounds read (the unit tier runs under ASan in CI).
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "image/image.hpp"
#include "wire/crc32.hpp"
#include "wire/protocol.hpp"

#include "../image/u8_frames.hpp"
#include "../simd/crc32_reference.hpp"

namespace lumichat::wire {
namespace {

/// Random 8-bit plane: every channel is an integer in [0, 255], the values
/// an 8-bit video frame holds.
image::Image random_image(std::size_t w, std::size_t h, common::Rng& rng) {
  const auto channel = [&] {
    return static_cast<double>(rng.uniform_int(0, 255));
  };
  image::Image img(w, h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      img.at(x, y) = image::Pixel{channel(), channel(), channel()};
    }
  }
  return img;
}

/// Encodes (tx, rx), decodes the Frame and checks that its planes carry
/// the images' channels byte for byte, in the one plane format.
void expect_frame_round_trip(const image::Image& tx, const image::Image& rx) {
  std::vector<std::uint8_t> buf(frame_wire_size(tx.width(), tx.height()));
  ASSERT_EQ(encode_frame(buf.data(), buf.size(), 42, 1, 17, 123456, tx, rx),
            buf.size());
  MessageView view;
  ASSERT_EQ(decode_message(buf.data(), buf.size(), &view), DecodeStatus::kOk);
  FrameMsg frame;
  ASSERT_TRUE(parse_frame(view, &frame));
  EXPECT_EQ(frame.frame_seq, 17u);
  EXPECT_EQ(frame.timestamp_us, 123456u);
  EXPECT_EQ(frame.plane_format, kPlaneFormatsU8);
  image::ImageU8 tx2, rx2;
  frame_pixels_to_bytes(frame, &tx2, &rx2);
  for (const auto& [got, want] : {std::pair{&tx2, &tx}, std::pair{&rx2, &rx}}) {
    const image::Image wide = image::testutil::widen(*got);
    ASSERT_EQ(wide.width(), want->width());
    ASSERT_EQ(wide.height(), want->height());
    EXPECT_EQ(std::memcmp(wide.data(), want->data(),
                          want->pixels().size() * sizeof(image::Pixel)),
              0);
  }
}

/// Recomputes the CRC of the complete message in `buf` after a test has
/// forged a payload field, so only the forged field is wrong.
void reseal(std::vector<std::uint8_t>& buf, std::size_t n) {
  const std::uint32_t crc = crc32_final(
      crc32_update(crc32_update(kCrc32Init, buf.data(), 20),
                   buf.data() + kHeaderSize, n - kHeaderSize));
  std::memcpy(buf.data() + 20, &crc, sizeof(crc));
}

/// Encodes one randomized message of the given type into `buf`.
std::size_t encode_random(MsgType type, common::Rng& rng,
                          std::vector<std::uint8_t>& buf) {
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
      const image::Image tx = random_image(w, h, img_rng);
      const image::Image rx = random_image(w, h, img_rng);
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
  // Sizes below, at and past one 16-pixel block of the encoder's loop.
  for (const auto& [w, h] : {std::pair<std::size_t, std::size_t>{11, 7},
                             {13, 9},
                             {4, 4},
                             {1, 1},
                             {96, 72}}) {
    SCOPED_TRACE(::testing::Message() << w << "x" << h);
    expect_frame_round_trip(random_image(w, h, rng), random_image(w, h, rng));
  }
}

TEST(WireProtocol, EightBitAndMixedFramesRoundTripBitIdentical) {
  // Every plane travels at one byte per channel, so a pair whose planes
  // differ in kind (random content against a constant plane at the ends of
  // the byte range) comes back as exactly as a pair of random planes.
  common::Rng rng(10);
  const image::Image random_tx = random_image(13, 9, rng);
  const image::Image random_rx = random_image(13, 9, rng);
  const image::Image low(13, 9, image::Pixel{0.0, 0.0, 0.0});
  const image::Image high(13, 9, image::Pixel{255.0, 255.0, 255.0});
  expect_frame_round_trip(random_tx, random_rx);
  expect_frame_round_trip(random_tx, high);
  expect_frame_round_trip(low, random_rx);
  expect_frame_round_trip(low, high);
  // The extremes of the byte range are exact too.
  expect_frame_round_trip(image::Image(3, 2, image::Pixel{0.0, 255.0, 1.0}),
                          image::Image(3, 2, image::Pixel{255.0, 0.0, 128.0}));
}

TEST(WireProtocol, FrameWireSizeIsOneBytePerChannel) {
  // The paper-protocol 96x72 pair: header, fixed fields and two planes of
  // 96 x 72 x 3 bytes.
  EXPECT_EQ(frame_wire_size(96, 72), 41528u);
  EXPECT_EQ(frame_wire_size(96, 72),
            kHeaderSize + kFramePayloadFixedSize + 2 * 96 * 72 * 3);
  EXPECT_EQ(frame_payload_size(8, 8), kFramePayloadFixedSize + 2 * 8 * 8 * 3);
}

TEST(WireProtocol, InexactChannelRefusesTheFrame) {
  // One channel that is not an exact byte value, in either plane: no byte
  // could carry it, so the encoder refuses the whole pair.
  using limits = std::numeric_limits<double>;
  const double kInexact[] = {-0.0, 0.5, 255.5, 256.0, -1.0,
                             limits::quiet_NaN(), limits::infinity(),
                             limits::denorm_min(), 1e-300};
  // A pixel in the encoder's first 16-pixel block, one in its second, and
  // the last pixel, which falls in the tail after the full blocks.
  const std::size_t kAt[] = {0, 17, 34};
  common::Rng rng(11);
  const image::Image clean = random_image(7, 5, rng);
  std::vector<std::uint8_t> buf(frame_wire_size(7, 5));
  ASSERT_EQ(encode_frame(buf.data(), buf.size(), 1, 1, 0, 0, clean, clean),
            buf.size());
  for (const double bad : kInexact) {
    SCOPED_TRACE(bad);
    for (const std::size_t at : kAt) {
      SCOPED_TRACE(at);
      image::Image dirty = clean;
      dirty.data()[at].g = bad;
      EXPECT_EQ(encode_frame(buf.data(), buf.size(), 1, 1, 0, 0, dirty, clean),
                0u);
      EXPECT_EQ(encode_frame(buf.data(), buf.size(), 1, 1, 0, 0, clean, dirty),
                0u);
    }
  }
}

TEST(WireProtocol, EncodeRefusesUndersizedBuffer) {
  std::vector<std::uint8_t> buf(kHeaderSize + kHelloPayloadSize - 1);
  EXPECT_EQ(encode_hello(buf.data(), buf.size(), 1, 1, HelloMsg{}), 0u);
  // A frame needs exactly its wire size, and not one byte less.
  common::Rng rng(1);
  const image::Image img = random_image(8, 8, rng);
  const std::size_t exact = frame_wire_size(8, 8);
  std::vector<std::uint8_t> frame(exact);
  EXPECT_EQ(encode_frame(frame.data(), exact, 1, 1, 0, 0, img, img), exact);
  EXPECT_EQ(encode_frame(frame.data(), exact - 1, 1, 1, 0, 0, img, img), 0u);
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
  const image::Image wide(kMaxFrameEdge + 1, 1);
  EXPECT_EQ(encode_frame(buf.data(), buf.size(), 1, 1, 0, 0, wide, wide), 0u);
}

// --- Hostile-input corpus -------------------------------------------------

TEST(WireProtocolCorpus, EveryTruncationIsNeverOk) {
  common::Rng rng(77);
  std::vector<std::uint8_t> buf(frame_wire_size(16, 16));
  for (const MsgType type : kAllTypes) {
    const std::size_t n = encode_random(type, rng, buf);
    ASSERT_GT(n, 0u);
    for (std::size_t len = 0; len < n; ++len) {
      MessageView view;
      const DecodeStatus st = decode_message(buf.data(), len, &view);
      // A strict prefix of a valid message can never decode as complete;
      // it is kNeedMore until enough bytes arrive to prove corruption.
      EXPECT_NE(st, DecodeStatus::kOk) << "type " << static_cast<int>(type)
                                       << " truncated at " << len;
    }
  }
}

TEST(WireProtocolCorpus, EverySingleBitFlipIsNeverOk) {
  common::Rng rng(78);
  std::vector<std::uint8_t> buf(frame_wire_size(4, 4));
  for (const MsgType type : kAllTypes) {
    const std::size_t n = encode_random(type, rng, buf);
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
            << "type " << static_cast<int>(type) << " bit " << bit
            << " of byte " << byte;
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
  // Every plane_format word but kPlaneFormatsU8 is malformed: the f64 and
  // mixed formats of earlier builds (0, 1, 2), every other low byte, each
  // higher bit with and without the known ones, and all bits set. Each
  // forgery re-seals the CRC, so only the format word is wrong.
  std::vector<std::uint32_t> forgeries;
  for (std::uint32_t v = 0; v < 256; ++v) {
    if (v != kPlaneFormatsU8) forgeries.push_back(v);
  }
  for (int bit = 8; bit < 32; ++bit) {
    forgeries.push_back(1u << bit);
    forgeries.push_back((1u << bit) | kPlaneFormatsU8);
  }
  forgeries.push_back(0xFFFFFFFFu);
  common::Rng rng(6);
  const image::Image img = random_image(8, 8, rng);
  std::vector<std::uint8_t> buf(frame_wire_size(8, 8));
  ASSERT_EQ(encode_frame(buf.data(), buf.size(), 1, 1, 0, 0, img, img),
            buf.size());
  MessageView view;
  FrameMsg frame;
  ASSERT_EQ(decode_message(buf.data(), buf.size(), &view), DecodeStatus::kOk);
  ASSERT_TRUE(parse_frame(view, &frame));
  for (const std::uint32_t forged : forgeries) {
    SCOPED_TRACE(forged);
    std::memcpy(buf.data() + kHeaderSize + 4, &forged, sizeof(forged));
    reseal(buf, buf.size());
    ASSERT_EQ(decode_message(buf.data(), buf.size(), &view),
              DecodeStatus::kOk);
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
          static_cast<double>((x + y * 11 + salt) % 256),
          static_cast<double>((x * y + salt) % 256)};
    }
  }
  return img;
}

TEST(WireProtocolCrc, FixedFrameChecksumIsPinned) {
  // The CRC of one fixed full-size 8-bit Frame, pinned to the value earlier
  // builds, which sent such a frame as u8 beside an f64 format, computed:
  // whichever kernel table seals and checks it, the wire bytes are the ones
  // older builds emit and accept.
  constexpr std::uint32_t kPinnedCrc = 0x48F937B0u;
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
