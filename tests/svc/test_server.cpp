// The transport: serve_connection's one-thread loop over real pipes,
// with the server on its own thread and the test as the client, and
// the client's FdChannel over pipes the test fills ahead of it. Lives
// in the svc concurrency binary so CI reruns it under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "sim/rng.hpp"
#include "svc/client.hpp"
#include "svc/json.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/session.hpp"

#include <unistd.h>

namespace bfsim::svc {
namespace {

/// A serve_connection harness over two pipes: writes frames in, reads
/// reply lines out, with the server on its own thread.
class PipeServer {
 public:
  explicit PipeServer(Session& session) {
    EXPECT_EQ(::pipe(to_server_), 0);
    EXPECT_EQ(::pipe(to_client_), 0);
    server_ = std::thread{[this, &session] {
      result_ = serve_connection(to_server_[0], to_client_[1], session);
      // Close the reply pipe so a reader waiting for more lines sees
      // EOF instead of hanging.
      ::close(to_client_[1]);
    }};
  }

  ~PipeServer() {
    finish();
    ::close(to_server_[0]);
    if (to_client_[0] >= 0) ::close(to_client_[0]);
  }

  void send(const std::string& line) {
    const std::string framed = line + '\n';
    ASSERT_EQ(::write(to_server_[1], framed.data(), framed.size()),
              static_cast<ssize_t>(framed.size()));
  }

  void send_raw(const std::string& bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t wrote =
          ::write(to_server_[1], bytes.data() + done, bytes.size() - done);
      ASSERT_GT(wrote, 0);
      done += static_cast<std::size_t>(wrote);
    }
  }

  std::string read_reply() {
    while (true) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t got = ::read(to_client_[0], chunk, sizeof chunk);
      if (got <= 0) return {};
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

  /// Close the client's read end: the server's next write fails.
  void hang_up_reader() {
    ::close(to_client_[0]);
    to_client_[0] = -1;
  }

  /// Close the client's write end and join the server thread.
  ServeResult finish() {
    if (to_server_[1] >= 0) {
      ::close(to_server_[1]);
      to_server_[1] = -1;
    }
    if (server_.joinable()) server_.join();
    return result_;
  }

 private:
  int to_server_[2] = {-1, -1};
  int to_client_[2] = {-1, -1};
  std::thread server_;
  ServeResult result_;
  std::string buffer_;
};

std::string type_of(const std::string& reply) {
  const Json parsed = parse_json(reply);
  const Json* type = parsed.find("type");
  return type != nullptr && type->is_string() ? type->as_string() : "";
}

/// The `frames` count of a `report` reply, or -1 for anything else. It
/// counts the frames the session has handled, so reports show order.
std::int64_t frames_of(const std::string& reply) {
  if (reply.empty()) return -1;
  const Json parsed = parse_json(reply);
  const Json* frames = parsed.find("frames");
  return frames != nullptr && frames->is_int() ? frames->as_int() : -1;
}

const std::string kHello =
    R"({"type":"hello","v":3,"scheduler":"easy","procs":8})";
const std::string kSubmit =
    R"({"type":"events","seq":1,"now":0,"events":[)"
    R"({"kind":"submit","id":0,"submit":0,"estimate":50,"procs":2}]})";

TEST(ServeConnection, FullConversationOverPipes) {
  Session session;
  PipeServer server{session};
  server.send(R"({"type":"hello","v":3,"scheduler":"easy","procs":8})");
  EXPECT_EQ(type_of(server.read_reply()), "welcome");
  server.send(
      R"({"type":"events","seq":1,"now":0,"events":[)"
      R"({"kind":"submit","id":0,"submit":0,"estimate":50,"procs":2}]})");
  const std::string decisions = server.read_reply();
  EXPECT_EQ(type_of(decisions), "decisions");
  EXPECT_NE(decisions.find("\"starts\":[0]"), std::string::npos);
  server.send(R"({"type":"bye"})");
  EXPECT_EQ(type_of(server.read_reply()), "bye");
  const ServeResult result = server.finish();
  EXPECT_TRUE(result.clean_bye);
  EXPECT_EQ(result.lines, 3u);
}

TEST(ServeConnection, DroppedConnectionKeepsTheSession) {
  Session session;
  {
    PipeServer server{session};
    server.send(R"({"type":"hello","v":3,"scheduler":"easy","procs":8})");
    EXPECT_EQ(type_of(server.read_reply()), "welcome");
    server.send(
        R"({"type":"events","seq":1,"now":0,"events":[)"
        R"({"kind":"submit","id":0,"submit":0,"estimate":50,"procs":2}]})");
    EXPECT_EQ(type_of(server.read_reply()), "decisions");
    const ServeResult result = server.finish();  // EOF without bye
    EXPECT_FALSE(result.clean_bye);
  }
  EXPECT_FALSE(session.closed());
  // A second connection resumes the same live session.
  PipeServer server{session};
  server.send(R"({"type":"hello","v":3,"scheduler":"easy","procs":8})");
  const std::string welcome = server.read_reply();
  EXPECT_EQ(type_of(welcome), "welcome");
  EXPECT_NE(welcome.find("\"resumed_seq\":1"), std::string::npos);
  server.send(R"({"type":"bye"})");
  EXPECT_EQ(type_of(server.read_reply()), "bye");
  EXPECT_TRUE(server.finish().clean_bye);
}

TEST(ServeConnection, OversizedLineIsQuarantinedNotFatal) {
  Session session;
  PipeServer server{session};
  server.send(R"({"type":"hello","v":3,"scheduler":"easy","procs":8})");
  EXPECT_EQ(type_of(server.read_reply()), "welcome");
  // A frame far over the cap streams in; the reader keeps only enough
  // to classify it and discards the rest, so memory stays bounded.
  std::string huge = R"({"type":"events","pad":")";
  huge.resize(kMaxFrameBytes + 4096, 'x');
  huge += "\n";
  server.send_raw(huge);
  const std::string reply = server.read_reply();
  EXPECT_EQ(type_of(reply), "error");
  EXPECT_NE(reply.find("oversized-frame"), std::string::npos);
  // The session is unharmed.
  server.send(
      R"({"type":"events","seq":1,"now":0,"events":[)"
      R"({"kind":"submit","id":0,"submit":0,"estimate":50,"procs":2}]})");
  EXPECT_EQ(type_of(server.read_reply()), "decisions");
  server.send(R"({"type":"bye"})");
  EXPECT_EQ(type_of(server.read_reply()), "bye");
  EXPECT_TRUE(server.finish().clean_bye);
}

TEST(ServeConnection, BlankAndCarriageReturnLinesAreIgnored) {
  Session session;
  PipeServer server{session};
  server.send_raw("\n\r\n");
  server.send_raw(
      "{\"type\":\"hello\",\"v\":3,\"scheduler\":\"easy\",\"procs\":8}\r\n");
  EXPECT_EQ(type_of(server.read_reply()), "welcome");
  server.send(R"({"type":"bye"})");
  EXPECT_EQ(type_of(server.read_reply()), "bye");
  const ServeResult result = server.finish();
  EXPECT_TRUE(result.clean_bye);
  EXPECT_EQ(result.lines, 2u);  // blank lines never reach the session
}

TEST(ServeConnection, SeveralFramesInOneWriteAreAnsweredInOrder) {
  Session session;
  PipeServer server{session};
  server.send_raw(kHello + "\n" + kSubmit + "\n" + R"({"type":"report"})" +
                  "\n");
  EXPECT_EQ(type_of(server.read_reply()), "welcome");
  EXPECT_EQ(type_of(server.read_reply()), "decisions");
  EXPECT_EQ(frames_of(server.read_reply()), 3);
  const ServeResult result = server.finish();
  EXPECT_FALSE(result.clean_bye);
  EXPECT_EQ(result.lines, 3u);
}

TEST(ServeConnection, OneFrameWrittenAByteAtATime) {
  Session session;
  PipeServer server{session};
  const std::string framed = kHello + "\r\n" + kSubmit + "\n";
  for (const char byte : framed) server.send_raw(std::string(1, byte));
  EXPECT_EQ(type_of(server.read_reply()), "welcome");
  const std::string decisions = server.read_reply();
  EXPECT_EQ(type_of(decisions), "decisions");
  EXPECT_NE(decisions.find("\"starts\":[0]"), std::string::npos);
  EXPECT_EQ(server.finish().lines, 2u);
}

TEST(ServeConnection, CrlfEndingsAndBlankLinesInOneWrite) {
  Session session;
  PipeServer server{session};
  server.send_raw("\r\n" + kHello + "\r\n\n\r\n" + kSubmit + "\r\n\n" +
                  R"({"type":"report"})" + "\r\n");
  EXPECT_EQ(type_of(server.read_reply()), "welcome");
  EXPECT_EQ(type_of(server.read_reply()), "decisions");
  EXPECT_EQ(frames_of(server.read_reply()), 3);
  EXPECT_EQ(server.finish().lines, 3u);
}

TEST(ServeConnection, OversizedFrameThenAValidFrameInTheSameChunk) {
  Session session;
  PipeServer server{session};
  server.send(kHello);
  EXPECT_EQ(type_of(server.read_reply()), "welcome");
  // The oversized frame's tail and the next frame share the writes the
  // loop reads them from: the cut must end at the newline, not at a
  // read boundary.
  std::string huge = R"({"type":"events","pad":")";
  huge.resize(kMaxFrameBytes + 4096, 'x');
  server.send_raw(huge + "\n" + kSubmit + "\n");
  const std::string error = server.read_reply();
  EXPECT_EQ(type_of(error), "error");
  EXPECT_NE(error.find("oversized-frame"), std::string::npos);
  EXPECT_EQ(type_of(server.read_reply()), "decisions");
  EXPECT_EQ(session.report().rejected, 1u);
  EXPECT_EQ(server.finish().lines, 3u);
}

TEST(ServeConnection, FrameLimitHoldsExactlyAfterTheCarriageReturn) {
  // A frame of exactly kMaxFrameBytes followed by CRLF is served; one
  // byte more is oversized, however many '\r' precede the newline.
  Session session;
  PipeServer server{session};
  std::string at_limit = R"({"type":"report"})";
  at_limit.resize(kMaxFrameBytes, ' ');
  server.send_raw(at_limit + "\r\n");
  EXPECT_EQ(type_of(server.read_reply()), "report");
  server.send_raw(at_limit + " \r\n");
  EXPECT_EQ(type_of(server.read_reply()), "error");
  server.send_raw(at_limit + "\r\r\n");
  EXPECT_EQ(type_of(server.read_reply()), "error");
  EXPECT_EQ(session.report().reasons.at("oversized-frame"), 2u);
  EXPECT_EQ(server.finish().lines, 3u);
}

TEST(ServeConnection, UnterminatedLastFrameIsAnsweredAtEof) {
  Session session;
  PipeServer server{session};
  server.send(kHello);
  server.send_raw(R"({"type":"report"})");  // no newline: EOF ends it
  const ServeResult result = server.finish();
  EXPECT_EQ(type_of(server.read_reply()), "welcome");
  EXPECT_EQ(frames_of(server.read_reply()), 2);
  EXPECT_EQ(result.lines, 2u);
  EXPECT_FALSE(result.clean_bye);
}

TEST(ServeConnection, FramesAfterByeGoUnanswered) {
  Session session;
  PipeServer server{session};
  server.send_raw(kHello + "\n" + R"({"type":"bye"})" + "\n" +
                  R"({"type":"report"})" + "\n" + R"({"type":"report"})" +
                  "\n");
  const ServeResult result = server.finish();
  EXPECT_TRUE(result.clean_bye);
  EXPECT_EQ(result.lines, 2u);
  EXPECT_EQ(type_of(server.read_reply()), "welcome");
  EXPECT_EQ(type_of(server.read_reply()), "bye");
  EXPECT_EQ(server.read_reply(), "");  // the reply pipe ends here
  EXPECT_EQ(session.report().frames, 2u);
}

TEST(ServeConnection, DeadPeerEndsTheConnection) {
  // A client that stops reading: the first failed write ends the loop,
  // leaving the frames behind it unanswered. The daemon ignores
  // SIGPIPE; so must this process, or the write would kill it.
  const auto previous = std::signal(SIGPIPE, SIG_IGN);
  Session session;
  {
    PipeServer server{session};
    server.hang_up_reader();
    server.send(kHello);
    server.send(R"({"type":"report"})");
    const ServeResult result = server.finish();
    EXPECT_EQ(result.lines, 1u);
    EXPECT_FALSE(result.clean_bye);
  }
  std::signal(SIGPIPE, previous);
  EXPECT_EQ(session.report().frames, 1u);
}

TEST(ServeConnection, BackpressureBoundsTheInboundQueue) {
  // Frames the daemon has not read stay in the pipe, so a flood costs
  // it nothing. 256 frames are written before any reply is read; then
  // a flood far larger than both pipe buffers, which can only finish
  // if the loop keeps reading while the client reads. Every reply
  // arrives, in order: a report counts the frames before it.
  Session session;
  PipeServer server{session};
  server.send(kHello);
  constexpr int kBacklog = 256;
  std::thread backlog{[&] {
    for (int i = 0; i < kBacklog; ++i) server.send(R"({"type":"report"})");
  }};
  backlog.join();
  EXPECT_EQ(type_of(server.read_reply()), "welcome");
  for (int i = 0; i < kBacklog; ++i)
    ASSERT_EQ(frames_of(server.read_reply()), i + 2);
  constexpr int kFlood = 10000;
  std::thread flood{[&] {
    for (int i = 0; i < kFlood; ++i) server.send(R"({"type":"report"})");
  }};
  for (int i = 0; i < kFlood; ++i)
    EXPECT_EQ(frames_of(server.read_reply()), kBacklog + i + 2);
  flood.join();
  server.send(R"({"type":"bye"})");
  EXPECT_EQ(type_of(server.read_reply()), "bye");
  EXPECT_TRUE(server.finish().clean_bye);
}

/// Write all of `bytes` to `fd`.
void write_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t wrote = ::write(fd, bytes.data() + done, bytes.size() - done);
    ASSERT_GT(wrote, 0);
    done += static_cast<std::size_t>(wrote);
  }
}

/// FdChannel over two pipes whose reply end the test fills before each
/// round trip, so how the replies fall across reads is chosen exactly.
class PipeChannel {
 public:
  PipeChannel() {
    EXPECT_EQ(::pipe(requests_), 0);
    EXPECT_EQ(::pipe(replies_), 0);
    channel_.emplace(replies_[0], requests_[1]);
  }
  ~PipeChannel() {
    for (const int fd : {requests_[0], requests_[1], replies_[0], replies_[1]})
      if (fd >= 0) ::close(fd);
  }
  FdChannel& channel() { return *channel_; }
  void reply(const std::string& bytes) { write_all(replies_[1], bytes); }
  void close_replies() {
    ::close(replies_[1]);
    replies_[1] = -1;
  }
  /// Everything the channel has sent so far.
  std::string sent() {
    std::string out;
    char chunk[4096];
    ::close(requests_[1]);
    requests_[1] = -1;
    for (ssize_t got; (got = ::read(requests_[0], chunk, sizeof chunk)) > 0;)
      out.append(chunk, static_cast<std::size_t>(got));
    return out;
  }

 private:
  int requests_[2] = {-1, -1};
  int replies_[2] = {-1, -1};
  std::optional<FdChannel> channel_;
};

TEST(FdChannel, RepliesSplitAcrossReadsAndSeveralInOneRead) {
  PipeChannel pipes;
  FdChannel& channel = pipes.channel();
  // Two whole replies and the start of a third arrive in one read.
  pipes.reply("one\ntwo\r\nthr");
  EXPECT_EQ(channel.roundtrip("a"), "one");
  EXPECT_EQ(channel.roundtrip("b"), "two");
  // The third completes in a later read.
  pipes.reply("ee\n");
  EXPECT_EQ(channel.roundtrip("c"), "three");
  // A reply longer than one read, then an empty one.
  const std::string big(10000, 'x');
  pipes.reply(big + "\n\n");
  EXPECT_EQ(channel.roundtrip("d"), big);
  EXPECT_EQ(channel.roundtrip("e"), "");
  // EOF before a newline is a dead channel.
  pipes.reply("partial");
  pipes.close_replies();
  EXPECT_THROW((void)channel.roundtrip("f"), ChannelError);
  // Each request went out whole, with its newline, in order.
  EXPECT_EQ(pipes.sent(), "a\nb\nc\nd\ne\nf\n");
}

TEST(FdChannel, ARandomStreamOfRepliesComesBackWhole) {
  // Replies of 1 to 6,000 bytes, written in chunks of 1 to 3,000 bytes
  // that end anywhere: inside a reply, on a newline, or several
  // replies later. Every round trip returns exactly its reply.
  PipeChannel pipes;
  sim::Rng rng{17};
  std::vector<std::string> replies;
  std::string stream;
  for (int i = 0; i < 400; ++i) {
    replies.emplace_back(static_cast<std::size_t>(rng.uniform_int(1, 6000)),
                         static_cast<char>('a' + i % 26));
    stream += replies.back() + (i % 3 == 0 ? "\r\n" : "\n");
  }
  std::size_t written = 0;
  std::size_t needed = 0;  // the stream up to the current reply's end
  for (const std::string& reply : replies) {
    needed = stream.find('\n', needed) + 1;
    while (written < needed) {
      const auto chunk = static_cast<std::size_t>(rng.uniform_int(1, 3000));
      const std::size_t size = std::min(chunk, stream.size() - written);
      pipes.reply(stream.substr(written, size));
      written += size;
    }
    ASSERT_EQ(pipes.channel().roundtrip("r"), reply);
  }
}

}  // namespace
}  // namespace bfsim::svc
