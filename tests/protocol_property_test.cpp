// HERCNET1 frame-codec property test (mirrors the storage journal's
// every-byte-truncation sweep, applied to the wire format):
//
//   1. Round-trip: random frames of every type and payload shape encode,
//      ship through a real socketpair and decode bit-identically.
//   2. Truncation at EVERY byte offset of an encoded stream (and of a
//      one-buffer Output+Result reply): the reader yields exactly the
//      fully-contained frames, then either reports a clean end-of-stream
//      (boundary cut) or throws NetError (mid-frame cut) — it never hangs
//      and never fabricates a frame.
//   3. Corruption of every single byte (XOR 0x5A): the reader terminates
//      cleanly — payload-byte corruption still parses (with exactly one
//      differing payload), type-byte corruption throws, length-byte
//      corruption either throws (oversized/torn) or resynchronizes to a
//      bounded number of well-formed frames; no outcome hangs or
//      over-reads beyond the stream.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "property_seed.hpp"
#include "server/protocol.hpp"
#include "support/error.hpp"

namespace herc::server {
namespace {

std::uint64_t next_rand(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

Frame random_frame(std::uint64_t& rng) {
  static constexpr FrameType kTypes[] = {FrameType::kHello, FrameType::kCommand,
                                         FrameType::kOutput,
                                         FrameType::kResult};
  Frame frame;
  frame.type = kTypes[next_rand(rng) % 4];
  const std::uint64_t shape = next_rand(rng) % 8;
  std::size_t size = 0;
  if (shape == 0) {
    size = 0;  // empty payloads are legal
  } else if (shape < 6) {
    size = next_rand(rng) % 64;
  } else {
    size = 256 + next_rand(rng) % 4096;
  }
  frame.payload.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    // Full byte range: the codec must be 8-bit clean (0x00, 0xFF, ...).
    frame.payload.push_back(static_cast<char>(next_rand(rng) & 0xFF));
  }
  return frame;
}

/// Feeds `bytes` into one end of a socketpair (then closes it) and decodes
/// frames from the other end until EOF or an error.  `error` receives the
/// NetError text, if any.  Never blocks forever: the writer always closes.
std::vector<Frame> decode_stream(const std::string& bytes,
                                 std::string& error) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread writer([&bytes, fd = fds[1]] {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::close(fd);
  });
  std::vector<Frame> frames;
  error.clear();
  try {
    Frame frame;
    while (read_frame(fds[0], frame)) frames.push_back(frame);
  } catch (const support::NetError& e) {
    error = e.what();
  }
  ::close(fds[0]);
  writer.join();
  return frames;
}

TEST(ProtocolPropertyTest, RandomFramesRoundTripThroughASocket) {
  std::uint64_t rng = testprop::base_seed(0xF4A3E5u);
  SCOPED_TRACE(testprop::seed_note(rng));
  std::vector<Frame> sent;
  std::string stream;
  for (int i = 0; i < 200; ++i) {
    sent.push_back(random_frame(rng));
    stream += encode_frame(sent.back());
  }
  std::string error;
  const std::vector<Frame> got = decode_stream(stream, error);
  EXPECT_EQ(error, "");
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i].type, sent[i].type) << "frame " << i;
    EXPECT_EQ(got[i].payload, sent[i].payload) << "frame " << i;
  }
}

TEST(ProtocolPropertyTest, EveryByteTruncationRejectsCleanly) {
  std::uint64_t rng = testprop::base_seed(0xBEEFu);
  SCOPED_TRACE(testprop::seed_note(rng));
  // Small payloads keep the sweep O(total-bytes) affordable while still
  // cutting inside headers, payloads and at every boundary.
  std::vector<Frame> sent;
  std::string stream;
  std::vector<std::size_t> boundaries = {0};  // prefix sizes that are clean
  for (int i = 0; i < 12; ++i) {
    sent.push_back(random_frame(rng));
    sent.back().payload.resize(sent.back().payload.size() % 48);
    stream += encode_frame(sent.back());
    boundaries.push_back(stream.size());
  }
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    std::string error;
    const std::vector<Frame> got =
        decode_stream(stream.substr(0, cut), error);
    // Exactly the fully-contained frames come back...
    std::size_t contained = 0;
    while (contained + 1 < boundaries.size() &&
           boundaries[contained + 1] <= cut) {
      ++contained;
    }
    ASSERT_EQ(got.size(), contained);
    for (std::size_t i = 0; i < contained; ++i) {
      EXPECT_EQ(got[i].payload, sent[i].payload);
    }
    // ...then a boundary cut is a clean EOF, a mid-frame cut an error.
    const bool at_boundary = boundaries[contained] == cut;
    EXPECT_EQ(error.empty(), at_boundary);
  }
}

TEST(ProtocolPropertyTest, OneWriteReplyDecodesInOrderAndTruncatesCleanly) {
  std::uint64_t rng = testprop::base_seed(0x5E7Du);
  SCOPED_TRACE(testprop::seed_note(rng));
  for (int round = 0; round < 8; ++round) {
    Frame output = random_frame(rng);
    output.type = FrameType::kOutput;
    output.payload.resize(output.payload.size() % 48);
    const std::string result = encode_result(
        round % 2 == 0 ? support::Severity::kClean : support::Severity::kError,
        random_frame(rng).payload.substr(0, 24));
    const std::string reply = encode_reply(output.payload, result);
    // The same bytes as the two frames written one by one: the wire does
    // not change, and an empty output sends no kOutput frame at all.
    std::vector<Frame> sent;
    if (!output.payload.empty()) sent.push_back(output);
    sent.push_back({FrameType::kResult, result});
    std::string expected;
    std::vector<std::size_t> boundaries = {0};
    for (const Frame& f : sent) {
      expected += encode_frame(f);
      boundaries.push_back(expected.size());
    }
    ASSERT_EQ(reply, expected);

    for (std::size_t cut = 0; cut <= reply.size(); ++cut) {
      SCOPED_TRACE("round " + std::to_string(round) + ", cut at byte " +
                   std::to_string(cut));
      std::string error;
      const std::vector<Frame> got = decode_stream(reply.substr(0, cut), error);
      // Whole frames in order, then a clean EOF only at a frame boundary.
      std::size_t contained = 0;
      while (contained + 1 < boundaries.size() &&
             boundaries[contained + 1] <= cut) {
        ++contained;
      }
      ASSERT_EQ(got.size(), contained);
      for (std::size_t i = 0; i < contained; ++i) {
        EXPECT_EQ(got[i].type, sent[i].type);
        EXPECT_EQ(got[i].payload, sent[i].payload);
      }
      EXPECT_EQ(error.empty(), boundaries[contained] == cut);
    }
  }
}

TEST(ProtocolPropertyTest, WriteReplySendsTheEncodedReply) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string result = encode_result(support::Severity::kClean, "");
  EXPECT_EQ(write_reply(fds[1], "hello\n", result),
            encode_reply("hello\n", result).size());
  ::close(fds[1]);
  Frame frame;
  ASSERT_TRUE(read_frame(fds[0], frame));
  EXPECT_EQ(frame.type, FrameType::kOutput);
  EXPECT_EQ(frame.payload, "hello\n");
  ASSERT_TRUE(read_frame(fds[0], frame));
  EXPECT_EQ(frame.type, FrameType::kResult);
  EXPECT_EQ(frame.payload, result);
  EXPECT_FALSE(read_frame(fds[0], frame));
  ::close(fds[0]);
}

TEST(ProtocolPropertyTest, EveryByteCorruptionTerminatesBounded) {
  std::uint64_t rng = testprop::base_seed(0xC0DEu);
  SCOPED_TRACE(testprop::seed_note(rng));
  std::vector<Frame> sent;
  std::string stream;
  for (int i = 0; i < 8; ++i) {
    sent.push_back(random_frame(rng));
    sent.back().payload.resize(sent.back().payload.size() % 32);
    stream += encode_frame(sent.back());
  }
  for (std::size_t at = 0; at < stream.size(); ++at) {
    SCOPED_TRACE("corrupt byte " + std::to_string(at));
    std::string corrupted = stream;
    corrupted[at] = static_cast<char>(corrupted[at] ^ 0x5A);
    std::string error;
    const std::vector<Frame> got = decode_stream(corrupted, error);
    // Never over-read: 5 bytes of header per frame is the floor, so a
    // stream of N bytes can never produce more than N/5 frames.  (The
    // real bound is tighter; this one proves termination and no frame
    // fabrication from thin air.)
    EXPECT_LE(got.size(), corrupted.size() / 5 + 1);
    // A corrupted byte inside one payload must change at most that one
    // payload; when the reader still parses the whole stream, every
    // other frame is intact.
    if (error.empty() && got.size() == sent.size()) {
      std::size_t diffs = 0;
      for (std::size_t i = 0; i < sent.size(); ++i) {
        if (got[i].payload != sent[i].payload || got[i].type != sent[i].type) {
          ++diffs;
        }
      }
      EXPECT_LE(diffs, 1u);
    }
  }
}

TEST(ProtocolPropertyTest, CorruptTypeByteIsRejected) {
  // The four valid type bytes XOR 0x5A are all invalid, so flipping a
  // type byte must surface as NetError, not as a mis-typed frame.
  Frame frame;
  frame.type = FrameType::kCommand;
  frame.payload = "entities";
  std::string bytes = encode_frame(frame);
  bytes[4] = static_cast<char>(bytes[4] ^ 0x5A);
  std::string error;
  const std::vector<Frame> got = decode_stream(bytes, error);
  EXPECT_TRUE(got.empty());
  EXPECT_NE(error, "");
}

TEST(ProtocolPropertyTest, OversizedLengthIsRejectedWithoutReading) {
  // A length beyond kMaxFramePayload must be refused from the header
  // alone — the reader cannot wait for 4GB that will never arrive.
  std::string bytes = "\xff\xff\xff\xff";
  bytes += static_cast<char>(FrameType::kCommand);
  std::string error;
  const std::vector<Frame> got = decode_stream(bytes, error);
  EXPECT_TRUE(got.empty());
  EXPECT_NE(error, "");
}

TEST(ProtocolPropertyTest, ResultPayloadsRoundTrip) {
  using support::Severity;
  for (const Severity severity :
       {Severity::kClean, Severity::kWarning, Severity::kError}) {
    for (const std::string& message :
         {std::string(), std::string("boom"), std::string(4096, 'x')}) {
      const ResultInfo info = decode_result(encode_result(severity, message));
      EXPECT_EQ(info.severity, severity);
      EXPECT_EQ(info.error, message);
    }
  }
  EXPECT_THROW((void)decode_result(""), support::NetError);
  EXPECT_THROW((void)decode_result("x"), support::NetError);
}

TEST(ProtocolPropertyTest, CommandPayloadsSplit) {
  const CommandPayload plain = split_command("entities");
  EXPECT_EQ(plain.line, "entities");
  EXPECT_EQ(plain.body, "");
  const CommandPayload heredoc = split_command("import Stimuli s\nwave\n");
  EXPECT_EQ(heredoc.line, "import Stimuli s");
  EXPECT_EQ(heredoc.body, "wave\n");
}

TEST(ProtocolPropertyTest, TokenPayloadsRoundTrip) {
  std::uint64_t rng = testprop::base_seed(0x70CE17u);
  SCOPED_TRACE(testprop::seed_note(rng));
  for (int i = 0; i < 200; ++i) {
    std::string id = "c";
    for (std::uint64_t n = next_rand(rng) % 12; n > 0; --n) {
      id += static_cast<char>('a' + next_rand(rng) % 26);
    }
    const std::uint64_t seq = next_rand(rng);
    // Commands with heredoc bodies carry embedded newlines: the token
    // line must split on the FIRST newline only.
    std::string command = "import Stimuli s\n";
    for (std::uint64_t n = next_rand(rng) % 64; n > 0; --n) {
      command += static_cast<char>(next_rand(rng) & 0xFF);
    }
    const TokenInfo info = split_token(encode_token(id, seq, command));
    EXPECT_EQ(info.client_id, id);
    EXPECT_EQ(info.seq, seq);
    EXPECT_EQ(info.command, command);
  }
  // Extremes round-trip too.
  const TokenInfo zero = split_token(encode_token("x", 0, ""));
  EXPECT_EQ(zero.seq, 0u);
  EXPECT_EQ(zero.command, "");
  const std::uint64_t max = ~std::uint64_t{0};
  EXPECT_EQ(split_token(encode_token("x", max, "entities")).seq, max);
}

TEST(ProtocolPropertyTest, MalformedTokensAreRejected) {
  // The encoder refuses ids that would corrupt the token line...
  EXPECT_THROW((void)encode_token("", 1, "entities"), support::NetError);
  EXPECT_THROW((void)encode_token("a b", 1, "entities"), support::NetError);
  EXPECT_THROW((void)encode_token("a\nb", 1, "entities"), support::NetError);
  // ...and the decoder refuses every malformed shape a hostile or
  // desynchronized peer could send.
  EXPECT_THROW((void)split_token(""), support::NetError);
  EXPECT_THROW((void)split_token("no-newline"), support::NetError);
  EXPECT_THROW((void)split_token("noseq\nentities"), support::NetError);
  EXPECT_THROW((void)split_token("id notanumber\nentities"),
               support::NetError);
  EXPECT_THROW((void)split_token(" 7\nentities"), support::NetError);
  EXPECT_THROW((void)split_token("id \nentities"), support::NetError);
}

TEST(ProtocolPropertyTest, HelloFieldsRoundTripAndUnknownKeysAreSkipped) {
  for (const std::string role : {"leader", "replica"}) {
    for (const std::uint64_t boot : {std::uint64_t{1}, std::uint64_t{12345},
                                     ~std::uint64_t{0}}) {
      const HelloInfo info =
          decode_hello(encode_hello(role, boot, "herc 1.0 at /tmp/store"));
      EXPECT_EQ(info.role, role);
      EXPECT_EQ(info.boot_id, boot);
      EXPECT_EQ(info.banner, "herc 1.0 at /tmp/store");
    }
  }
  // Forward compatibility: a newer server may add fields; an older
  // client skips what it does not know and still finds the banner.
  const HelloInfo newer = decode_hello(
      "HERCNET1 role=replica shards=4 boot=9 zone=eu banner text here");
  EXPECT_EQ(newer.role, "replica");
  EXPECT_EQ(newer.boot_id, 9u);
  EXPECT_EQ(newer.banner, "banner text here");
  // Absent fields keep safe defaults (an old server's plain hello).
  const HelloInfo old = decode_hello("HERCNET1 herc server ready");
  EXPECT_EQ(old.role, "leader");
  EXPECT_EQ(old.boot_id, 0u);
  EXPECT_EQ(old.banner, "herc server ready");
  // The banner itself may contain '=' without being eaten as a field:
  // field parsing stops at the first non key=value word.
  const HelloInfo tricky = decode_hello("HERCNET1 role=leader at path=x");
  EXPECT_EQ(tricky.banner, "at path=x");
  EXPECT_THROW((void)decode_hello("HTTP/1.1 200 OK"), support::NetError);
  EXPECT_THROW((void)decode_hello(""), support::NetError);
}

// ---- deadline reads ---------------------------------------------------------

TEST(ProtocolPropertyTest, DeadlineReadReportsIdleWithoutConsuming) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Frame frame;
  ReadDeadline deadline;
  deadline.idle_ms = 60;
  deadline.frame_ms = 2'000;
  // Quiet peer: kIdle after ~idle_ms, repeatable — idling is not an
  // error and consumes nothing.
  const auto before = std::chrono::steady_clock::now();
  EXPECT_EQ(read_frame(fds[0], frame, deadline), ReadOutcome::kIdle);
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - before);
  EXPECT_GE(waited.count(), 50);
  EXPECT_LT(waited.count(), 1'500);
  // A frame that then arrives whole is read normally...
  Frame sent;
  sent.type = FrameType::kCommand;
  sent.payload = "entities";
  const std::string bytes = encode_frame(sent);
  ASSERT_EQ(::send(fds[1], bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  EXPECT_EQ(read_frame(fds[0], frame, deadline), ReadOutcome::kFrame);
  EXPECT_EQ(frame.payload, "entities");
  // ...and a closed peer is a clean kEof at the boundary.
  ::close(fds[1]);
  EXPECT_EQ(read_frame(fds[0], frame, deadline), ReadOutcome::kEof);
  ::close(fds[0]);
}

TEST(ProtocolPropertyTest, DeadlineReadThrowsOnAMidFrameStall) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Frame sent;
  sent.type = FrameType::kCommand;
  sent.payload = "entities";
  const std::string bytes = encode_frame(sent);
  // Deliver everything but the last byte, then go silent without
  // closing: a half-open peer the idle deadline can never catch.
  ASSERT_EQ(::send(fds[1], bytes.data(), bytes.size() - 1, MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size() - 1));
  Frame frame;
  ReadDeadline deadline;
  deadline.idle_ms = 2'000;
  deadline.frame_ms = 80;
  const auto before = std::chrono::steady_clock::now();
  EXPECT_THROW((void)read_frame(fds[0], frame, deadline), support::NetError);
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - before);
  // The frame deadline fired, not the (much longer) idle deadline.
  EXPECT_LT(waited.count(), 1'500);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ProtocolPropertyTest, ZeroDeadlinesMeanUnbounded) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Frame sent;
  sent.type = FrameType::kOutput;
  sent.payload = "hello";
  const std::string bytes = encode_frame(sent);
  // A writer that trickles one byte every few ms: only the disabled
  // deadlines accept this; the read completes when the frame does.
  std::thread trickler([&bytes, fd = fds[1]] {
    for (const char c : bytes) {
      (void)::send(fd, &c, 1, MSG_NOSIGNAL);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  Frame frame;
  EXPECT_EQ(read_frame(fds[0], frame, ReadDeadline{}), ReadOutcome::kFrame);
  EXPECT_EQ(frame.payload, "hello");
  trickler.join();
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace herc::server
