// The codec differential: the streaming decoders and encoders of
// src/svc against the DOM-based reference codec they replaced
// (reference_protocol.hpp). Both sides see every frame and reply that
// served replays of all seven schedulers exchange, and tens of
// thousands of mutants of an `events`, a `hello` and a `decisions`
// line. They must agree exactly: equal results, or a ProtocolError
// with the same reason and the same detail text; and equal bytes from
// every encoder.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "exp/scenario.hpp"
#include "sim/failure.hpp"
#include "sim/rng.hpp"
#include "svc/client.hpp"
#include "svc/json.hpp"
#include "svc/protocol.hpp"
#include "svc/reference_protocol.hpp"
#include "svc/session.hpp"
#include "workload/transforms.hpp"

namespace bfsim::svc {
namespace {

using core::PriorityPolicy;
using core::SchedulerKind;

/// What one decode produced: success, or the error's reason and text.
struct Outcome {
  bool ok = true;
  std::string reason;
  std::string detail;
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

std::ostream& operator<<(std::ostream& out, const Outcome& outcome) {
  return out << (outcome.ok ? std::string("ok")
                            : outcome.reason + ": " + outcome.detail);
}

Outcome attempt(const std::function<void()>& decode) {
  try {
    decode();
    return {};
  } catch (const ProtocolError& error) {
    return {false, error.reason(), error.what()};
  }
}

bool same_double(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_request(const Request& a, const Request& b) {
  const HelloRequest& x = a.hello;
  const HelloRequest& y = b.hello;
  const bool hello =
      x.version == y.version && x.kind == y.kind &&
      x.config.procs == y.config.procs &&
      x.config.priority == y.config.priority &&
      x.config.burst_buffer == y.config.burst_buffer &&
      x.extras.reservation_depth == y.extras.reservation_depth &&
      same_double(x.extras.xfactor_threshold, y.extras.xfactor_threshold) &&
      x.extras.selective_adaptive == y.extras.selective_adaptive &&
      same_double(x.extras.slack_factor, y.extras.slack_factor) &&
      x.audit == y.audit && x.requeue == y.requeue;
  if (a.type != b.type || !hello || a.batch.seq != b.batch.seq ||
      a.batch.now != b.batch.now ||
      a.batch.events.size() != b.batch.events.size())
    return false;
  for (std::size_t i = 0; i < a.batch.events.size(); ++i) {
    const Event& e = a.batch.events[i];
    const Event& f = b.batch.events[i];
    if (e.kind != f.kind || e.id != f.id || !(e.job == f.job) ||
        !(e.outage == f.outage))
      return false;
  }
  return true;
}

/// parse_request on both sides; returns the oracle's request.
Request expect_same_request(const std::string& line) {
  Request got;
  Request want;
  const Outcome production = attempt([&] { got = parse_request(line); });
  const Outcome reference =
      attempt([&] { want = test::parse_request(line); });
  EXPECT_EQ(production, reference) << line;
  if (production.ok && reference.ok) {
    EXPECT_TRUE(same_request(got, want)) << line;
  }
  return want;
}

/// parse_decision_reply on both sides, then both encoders on the
/// decoded decision.
void expect_same_reply(const std::string& line, std::uint64_t seq) {
  std::vector<workload::JobId> starts, kills, want_starts, want_kills;
  core::CycleDecision got;
  core::CycleDecision want;
  const Outcome production = attempt(
      [&] { got = parse_decision_reply(line, seq, starts, kills); });
  const Outcome reference = attempt([&] {
    want = test::parse_decision_reply(line, seq, want_starts, want_kills);
  });
  EXPECT_EQ(production, reference) << line;
  if (!production.ok || !reference.ok) return;
  EXPECT_EQ(got.pass_ran, want.pass_ran) << line;
  EXPECT_EQ(got.next_wakeup, want.next_wakeup) << line;
  EXPECT_EQ(starts, want_starts) << line;
  EXPECT_EQ(kills, want_kills) << line;
  std::string encoded;
  write_decision_reply(seq, 17, got, encoded);
  EXPECT_EQ(encoded, test::decision_reply(seq, 17, want)) << line;
}

/// A channel that only collects the `events` frames a client writes,
/// answering each with an empty decision for its seq.
class CaptureChannel final : public LineChannel {
 public:
  [[nodiscard]] std::string roundtrip(const std::string& line) override {
    if (line.rfind("{\"type\":\"hello\"", 0) == 0)
      return welcome_reply("capture", 0);
    frames.push_back(line);
    std::string reply;
    write_decision_reply(frames.size(), 0, core::CycleDecision{}, reply);
    return reply;
  }
  std::vector<std::string> frames;
};

/// The production client's frame for `batch` (sent as frame `seq` of a
/// fresh conversation) against the reference builder's.
class ClientEncoders {
 public:
  ClientEncoders() : client_(channel_, HelloRequest{}) {}

  void expect_same_frame(const EventBatch& batch) {
    for (const Event& event : batch.events) {
      switch (event.kind) {
        case EventKind::kFinish:
          client_.on_finish(event.id, batch.now);
          reference_.on_finish(event.id);
          break;
        case EventKind::kRepair:
          client_.on_node_up(event.outage.id, batch.now);
          reference_.on_node_up(event.outage.id);
          break;
        case EventKind::kDown:
          client_.on_node_down(event.outage, batch.now);
          reference_.on_node_down(event.outage);
          break;
        case EventKind::kSubmit:
          client_.on_submit(event.job, batch.now);
          reference_.on_submit(event.job);
          break;
        case EventKind::kCancel:
          client_.on_cancel(event.id, batch.now);
          reference_.on_cancel(event.id);
          break;
        case EventKind::kWake:
          client_.on_wake(batch.now);
          reference_.on_wake();
          break;
      }
    }
    (void)client_.end_cycle(batch.now);
    ASSERT_FALSE(channel_.frames.empty());
    EXPECT_EQ(channel_.frames.back(),
              reference_.end_cycle(channel_.frames.size(), batch.now));
  }

 private:
  CaptureChannel channel_;
  RemoteDecisionCore client_;
  test::EventsFrameBuilder reference_;
};

/// LocalChannel that keeps every line both ways.
class RecordingChannel final : public LineChannel {
 public:
  explicit RecordingChannel(Session& session) : inner_(session) {}
  [[nodiscard]] std::string roundtrip(const std::string& line) override {
    std::string reply = inner_.roundtrip(line);
    requests.push_back(line);
    replies.push_back(reply);
    return reply;
  }
  std::vector<std::string> requests;
  std::vector<std::string> replies;

 private:
  LocalChannel inner_;
};

TEST(CodecDifferential, RecordedServedReplaysDecodeAndEncodeIdentically) {
  // Every scheduler and priority, a contended 256 GB buffer, outages
  // that take processors and buffer, and 15% cancellations: every
  // event kind and reply shape the protocol has.
  constexpr int kBufferGb = 256;
  exp::Scenario scenario;
  scenario.trace = exp::TraceKind::Sdsc;
  scenario.jobs = 150;
  scenario.load = exp::kHighLoad;
  scenario.estimates = {.regime = exp::EstimateRegime::Systematic,
                        .factor = 2.0};
  scenario.seed = 5;
  workload::Trace trace = exp::build_workload(scenario);
  const int procs = scenario.procs();
  sim::Rng rng{99};
  for (workload::Job& job : trace)
    job.bb = static_cast<int>(
        job.procs < procs / 4 ? rng.uniform_int(kBufferGb / 8, kBufferGb / 2)
                              : rng.uniform_int(0, kBufferGb / 16));
  workload::apply_cancellations(trace, 0.15, /*patience=*/2.0, rng);
  sim::FailureModel model;
  model.mean_uptime = 6.0 * static_cast<double>(sim::kHour);
  model.mean_repair = 1.0 * static_cast<double>(sim::kHour);
  model.max_procs_lost = procs / 4;
  model.max_bb_lost = kBufferGb / 4;
  const sim::FailureTrace failures =
      sim::generate_failures(model, procs, kBufferGb, 7);
  ASSERT_FALSE(failures.empty());

  std::size_t frames = 0, kills = 0, cancels = 0, downs = 0;
  ClientEncoders encoders;
  for (const SchedulerKind kind :
       {SchedulerKind::Fcfs, SchedulerKind::Easy, SchedulerKind::Conservative,
        SchedulerKind::KReservation, SchedulerKind::Selective,
        SchedulerKind::Slack, SchedulerKind::Plan}) {
    for (const PriorityPolicy priority :
         {PriorityPolicy::Fcfs, PriorityPolicy::Sjf, PriorityPolicy::XFactor}) {
      SCOPED_TRACE(core::to_string(kind) + "/" + core::to_string(priority));
      HelloRequest hello;
      hello.kind = kind;
      hello.config = {procs, priority, kBufferGb};
      Session session;
      RecordingChannel channel{session};
      (void)served_run(trace, channel, hello, &failures);
      ASSERT_EQ(session.report().rejected, 0u);
      for (std::size_t i = 0; i < channel.requests.size(); ++i) {
        const std::string& line = channel.requests[i];
        const Request request = expect_same_request(line);
        if (request.type != Request::Type::kEvents) continue;
        ++frames;
        for (const Event& event : request.batch.events) {
          cancels += event.kind == EventKind::kCancel;
          downs += event.kind == EventKind::kDown;
        }
        expect_same_reply(channel.replies[i], request.batch.seq);
        kills += channel.replies[i].find("\"killed\"") != std::string::npos;
        encoders.expect_same_frame(request.batch);
        if (HasFailure()) return;
      }
    }
  }
  // The corpus really holds every shape.
  EXPECT_GT(frames, 5000u);
  EXPECT_GT(kills, 0u);
  EXPECT_GT(cancels, 0u);
  EXPECT_GT(downs, 0u);
}

// --- mutants -----------------------------------------------------------

/// A uniform index below `size`.
std::size_t pick(sim::Rng& rng, std::size_t size) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

/// Member order shuffled at every level (a valid document still).
Json shuffled(const Json& value, sim::Rng& rng) {
  if (value.is_array()) {
    Json out = Json::array();
    for (const Json& item : value.as_array())
      out.push_back(shuffled(item, rng));
    return out;
  }
  if (!value.is_object()) return value;
  Json::Object members = value.as_object();
  for (std::size_t i = members.size(); i > 1; --i)
    std::swap(members[i - 1], members[pick(rng, i)]);
  Json out = Json::object();
  for (const auto& [key, member] : members) out.set(key, shuffled(member, rng));
  return out;
}

/// Offsets of the '"' that open object keys.
std::vector<std::size_t> key_starts(const std::string& line) {
  std::vector<std::size_t> starts;
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (in_string) {
      if (line[i] == '\\') ++i;
      else if (line[i] == '"') in_string = false;
      continue;
    }
    if (line[i] != '"') continue;
    in_string = true;
    std::size_t before = i;
    while (before > 0 && line[before - 1] == ' ') --before;
    if (before > 0 && (line[before - 1] == '{' || line[before - 1] == ','))
      starts.push_back(i);
  }
  return starts;
}

/// Offsets of letters and digits inside strings.
std::vector<std::size_t> string_chars(const std::string& line) {
  std::vector<std::size_t> chars;
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (!in_string) {
      in_string = c == '"';
    } else if (c == '\\') {
      ++i;
    } else if (c == '"') {
      in_string = false;
    } else if (std::isalnum(static_cast<unsigned char>(c))) {
      chars.push_back(i);
    }
  }
  return chars;
}

/// One mutant of `base`: member order, repeated keys, escaped key and
/// value text, unknown members, truncation and raw byte edits, mixed.
std::string mutate(const std::string& base, sim::Rng& rng) {
  static const char* const kValues[] = {
      "1",          "0",         "-1",          "7",
      "1.5",        "1e3",       "99999999999999999999",
      "true",       "null",      R"("x")",      "[]",
      "{}",         "[1,2]",     R"("finish")", R"("submit")",
      R"("hello")", R"("events")", R"("decisions")", R"("error")",
      R"("easy")",  R"({"kind":"wake"})",
  };
  std::string line = base;
  if (rng.uniform_int(0, 3) == 0) line = shuffled(parse_json(base), rng).dump();
  const int edits = static_cast<int>(rng.uniform_int(1, 3));
  for (int e = 0; e < edits && !line.empty(); ++e) {
    switch (rng.uniform_int(0, 7)) {
      case 0:
        line[pick(rng, line.size())] =
            static_cast<char>(rng.uniform_int(0, 255));
        break;
      case 1:
        line.insert(pick(rng, line.size()), 1,
                    static_cast<char>(rng.uniform_int(0, 255)));
        break;
      case 2:
        line.erase(pick(rng, line.size()), 1);
        break;
      case 3:
      case 4: {  // repeat a key before its first occurrence
        const std::vector<std::size_t> keys = key_starts(line);
        if (keys.empty()) break;
        const std::size_t at = keys[pick(rng, keys.size())];
        const std::size_t close = line.find('"', at + 1);
        if (close == std::string::npos) break;
        const std::string key = line.substr(at, close + 1 - at);
        line.insert(at, key + ":" + kValues[pick(rng, std::size(kValues))] +
                            ",");
        break;
      }
      case 5: {  // escape one character of a key or a string value
        const std::vector<std::size_t> chars = string_chars(line);
        if (chars.empty()) break;
        const std::size_t at = chars[pick(rng, chars.size())];
        char escaped[8];
        std::snprintf(escaped, sizeof escaped, "\\u%04x",
                      static_cast<unsigned char>(line[at]));
        line.replace(at, 1, escaped);
        break;
      }
      case 6: {  // an unknown member, first in some object
        const std::size_t open = line.find('{', pick(rng, line.size()));
        if (open == std::string::npos) break;
        line.insert(open + 1, std::string("\"zz\":") +
                                  kValues[pick(rng, std::size(kValues))] + ",");
        break;
      }
      case 7:  // truncation: whatever was wrong before, bad-json wins
        line.resize(pick(rng, line.size()));
        break;
    }
  }
  return line;
}

constexpr int kMutants = 20000;

TEST(CodecDifferential, MutatedEventsFramesDecodeIdentically) {
  const std::string base =
      R"({"type":"events","seq":3,"now":100,"events":[)"
      R"({"kind":"finish","id":1},{"kind":"up","outage":2},)"
      R"({"kind":"down","outage":3,"repair":400,"procs":8,"bb":16},)"
      R"({"kind":"submit","id":2,"submit":100,"estimate":60,"procs":4,)"
      R"("bb":32},{"kind":"cancel","id":0},{"kind":"wake"}]})";
  ClientEncoders encoders;
  sim::Rng rng{11};
  int accepted = 0;
  for (int i = 0; i < kMutants && !HasFailure(); ++i) {
    const std::string line = mutate(base, rng);
    const Request request = expect_same_request(line);
    if (request.type != Request::Type::kEvents) continue;
    ++accepted;
    encoders.expect_same_frame(request.batch);
  }
  // Enough mutants survive to exercise the encoders and the success
  // path, not only the error paths.
  EXPECT_GT(accepted, kMutants / 20);
}

TEST(CodecDifferential, MutatedHelloFramesDecodeIdentically) {
  const std::string base =
      R"({"type":"hello","v":3,"scheduler":"kres","procs":430,)"
      R"("burst_buffer":1024,"priority":"xfactor","audit":true,)"
      R"("reservation_depth":8,"xfactor_threshold":3.5,)"
      R"("selective_adaptive":true,"slack_factor":1.5,"requeue":"remaining"})";
  sim::Rng rng{12};
  for (int i = 0; i < kMutants && !HasFailure(); ++i)
    (void)expect_same_request(mutate(base, rng));
}

TEST(CodecDifferential, MutatedDecisionRepliesDecodeIdentically) {
  const std::string base =
      R"({"type":"decisions","seq":4,"now":100,"pass":true,)"
      R"("starts":[4,9,12],"killed":[7],"next_wakeup":500})";
  const std::string error =
      R"({"type":"error","reason":"bad-seq","detail":"frame seq 9"})";
  sim::Rng rng{13};
  for (int i = 0; i < kMutants && !HasFailure(); ++i) {
    expect_same_reply(mutate(base, rng), 4);
    if (i % 4 == 0) expect_same_reply(mutate(error, rng), 4);
  }
}

TEST(CodecDifferential, FieldChecksFollowTheWholeSyntaxCheck) {
  // The rules the mutants probe, one case each.
  const char* const requests[] = {
      // bad-json wins over an unknown type and a missing field.
      R"({"type":"teapot","seq":)",
      R"({"no":"type"} x)",
      // A repeated key reads its first occurrence.
      R"({"type":"bye","type":42})",
      R"({"type":"events","seq":1,"seq":"x","now":0,"events":[]})",
      R"({"type":"events","seq":1,"now":0,"events":[{"kind":"wake",)"
      R"("kind":"bogus"}]})",
      // Keys and values compare after unescaping.
      R"({"\u0074ype":"by\u0065"})",
      R"({"type":"events","seq":1,"now":0,"events":[)"
      R"({"\u006bind":"w\u0061ke"}]})",
      // Member order does not matter; fields are checked in a fixed
      // order ("seq" before "now", whatever the document says).
      R"({"events":[],"now":-1,"seq":0,"type":"events"})",
  };
  for (const char* line : requests) (void)expect_same_request(line);
  EXPECT_EQ(parse_request(R"({"type":"bye","type":42})").type,
            Request::Type::kBye);
  EXPECT_EQ(parse_request(R"({"\u0074ype":"by\u0065"})").type,
            Request::Type::kBye);
  try {
    (void)parse_request(R"({"type":"teapot","seq":)");
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.reason(), "bad-json");
  }
  // An error reply with neither field reports "detail" first.
  expect_same_reply(R"({"type":"error"})", 1);
  expect_same_reply(R"({"type":"error","detail":"d"})", 1);
}

}  // namespace
}  // namespace bfsim::svc
