// The wire protocol: frame parsing (happy path and every rejection
// slug), reply builders' exact bytes, and the client-side decision
// parser. Reason slugs are pinned by string -- they are the quarantine
// counters' keys and part of the protocol surface.
#include <gtest/gtest.h>

#include <string>

#include "svc/protocol.hpp"

namespace bfsim::svc {
namespace {

std::string reason_of(const std::string& line) {
  try {
    (void)parse_request(line);
    return "";
  } catch (const ProtocolError& error) {
    return error.reason();
  }
}

TEST(Protocol, ParsesHelloWithDefaults) {
  const Request request = parse_request(
      R"({"type":"hello","v":3,"scheduler":"easy","procs":128})");
  ASSERT_EQ(request.type, Request::Type::kHello);
  EXPECT_EQ(request.hello.kind, core::SchedulerKind::Easy);
  EXPECT_EQ(request.hello.config.procs, 128);
  EXPECT_EQ(request.hello.config.priority, core::PriorityPolicy::Fcfs);
  EXPECT_FALSE(request.hello.audit);
  EXPECT_EQ(request.hello.extras.reservation_depth, 4);
}

TEST(Protocol, ParsesHelloWithEveryKnob) {
  const Request request = parse_request(
      R"({"type":"hello","v":3,"scheduler":"kres","procs":430,)"
      R"("priority":"xfactor","audit":true,"reservation_depth":8,)"
      R"("xfactor_threshold":3.5,"selective_adaptive":true,)"
      R"("slack_factor":1.5})");
  EXPECT_EQ(request.hello.kind, core::SchedulerKind::KReservation);
  EXPECT_EQ(request.hello.config.procs, 430);
  EXPECT_EQ(request.hello.config.priority, core::PriorityPolicy::XFactor);
  EXPECT_TRUE(request.hello.audit);
  EXPECT_EQ(request.hello.extras.reservation_depth, 8);
  EXPECT_DOUBLE_EQ(request.hello.extras.xfactor_threshold, 3.5);
  EXPECT_TRUE(request.hello.extras.selective_adaptive);
  EXPECT_DOUBLE_EQ(request.hello.extras.slack_factor, 1.5);
}

TEST(Protocol, ParsesEventBatch) {
  const Request request = parse_request(
      R"({"type":"events","seq":3,"now":100,"events":[)"
      R"({"kind":"finish","id":1},)"
      R"({"kind":"submit","id":2,"submit":100,"estimate":60,"procs":4},)"
      R"({"kind":"cancel","id":0},)"
      R"({"kind":"wake"}]})");
  ASSERT_EQ(request.type, Request::Type::kEvents);
  EXPECT_EQ(request.batch.seq, 3u);
  EXPECT_EQ(request.batch.now, 100);
  ASSERT_EQ(request.batch.events.size(), 4u);
  EXPECT_EQ(request.batch.events[0].kind, EventKind::kFinish);
  EXPECT_EQ(request.batch.events[0].id, 1u);
  const Event& submit = request.batch.events[1];
  EXPECT_EQ(submit.kind, EventKind::kSubmit);
  EXPECT_EQ(submit.job.id, 2u);
  EXPECT_EQ(submit.job.submit, 100);
  EXPECT_EQ(submit.job.estimate, 60);
  // The true runtime never crosses the wire: the parsed job carries
  // the estimate in its place.
  EXPECT_EQ(submit.job.runtime, 60);
  EXPECT_EQ(submit.job.procs, 4);
  EXPECT_EQ(request.batch.events[3].kind, EventKind::kWake);
}

TEST(Protocol, RejectionSlugs) {
  // slug <- frame
  EXPECT_EQ(reason_of("not json at all"), "bad-json");
  EXPECT_EQ(reason_of("[1,2,3]"), "not-object");
  EXPECT_EQ(reason_of(R"({"no":"type"})"), "missing-field");
  EXPECT_EQ(reason_of(R"({"type":"teapot"})"), "unknown-type");
  EXPECT_EQ(reason_of(R"({"type":42})"), "bad-type");
  EXPECT_EQ(reason_of(R"({"type":"hello","v":1,"scheduler":"easy","procs":4})"),
            "bad-version");
  EXPECT_EQ(
      reason_of(R"({"type":"hello","v":3,"scheduler":"magic","procs":4})"),
      "bad-value");
  EXPECT_EQ(reason_of(R"({"type":"hello","v":3,"scheduler":"easy","procs":0})"),
            "bad-value");
  EXPECT_EQ(reason_of(R"({"type":"events","seq":0,"now":1,"events":[]})"),
            "bad-value");
  EXPECT_EQ(reason_of(R"({"type":"events","seq":1,"now":-5,"events":[]})"),
            "bad-value");
  EXPECT_EQ(reason_of(R"({"type":"events","seq":1,"now":1,"events":{}})"),
            "bad-type");
  EXPECT_EQ(reason_of(
                R"({"type":"events","seq":1,"now":1,"events":[{"kind":"?"}]})"),
            "bad-value");
  EXPECT_EQ(
      reason_of(R"({"type":"events","seq":1.5,"now":1,"events":[]})"),
      "bad-type");
  // A frame over the byte cap is rejected before parsing.
  std::string huge = R"({"type":"events","seq":1,"now":1,"pad":")";
  huge += std::string(kMaxFrameBytes, 'x');
  huge += R"(","events":[]})";
  EXPECT_EQ(reason_of(huge), "oversized-frame");
}

TEST(Protocol, TimesBeyondTheHostilityBoundAreRejected) {
  // Mirrors the SWF reader's max_time cap: a reservation in year 30000
  // poisons every profile it touches even with saturating arithmetic.
  EXPECT_EQ(
      reason_of(
          R"({"type":"events","seq":1,"now":999999999999,"events":[]})"),
      "bad-value");
}

TEST(Protocol, ParsesBurstBufferFields) {
  // v2 extension: hello carries the machine's buffer capacity, submit
  // events carry the per-job demand. Both default to zero when absent.
  const Request hello = parse_request(
      R"({"type":"hello","v":3,"scheduler":"plan","procs":128,)"
      R"("burst_buffer":1024})");
  EXPECT_EQ(hello.hello.kind, core::SchedulerKind::Plan);
  EXPECT_EQ(hello.hello.config.burst_buffer, 1024);
  const Request events = parse_request(
      R"({"type":"events","seq":1,"now":0,"events":[)"
      R"({"kind":"submit","id":0,"submit":0,"estimate":10,"procs":2,)"
      R"("bb":64}]})");
  ASSERT_EQ(events.batch.events.size(), 1u);
  EXPECT_EQ(events.batch.events[0].job.bb, 64);
}

TEST(Protocol, BurstBufferDefaultsToZeroWhenAbsent) {
  const Request hello = parse_request(
      R"({"type":"hello","v":3,"scheduler":"easy","procs":128})");
  EXPECT_EQ(hello.hello.config.burst_buffer, 0);
  const Request events = parse_request(
      R"({"type":"events","seq":1,"now":0,"events":[)"
      R"({"kind":"submit","id":0,"submit":0,"estimate":10,"procs":2}]})");
  EXPECT_EQ(events.batch.events[0].job.bb, 0);
}

TEST(Protocol, HostileBurstBufferFieldsAreRejected) {
  EXPECT_EQ(reason_of(R"({"type":"hello","v":3,"scheduler":"easy",)"
                      R"("procs":4,"burst_buffer":-1})"),
            "bad-value");
  EXPECT_EQ(reason_of(R"({"type":"hello","v":3,"scheduler":"easy",)"
                      R"("procs":4,"burst_buffer":4294967296})"),
            "bad-value");  // > INT_MAX: would truncate
  EXPECT_EQ(reason_of(R"({"type":"hello","v":3,"scheduler":"easy",)"
                      R"("procs":4,"burst_buffer":"lots"})"),
            "bad-type");
  EXPECT_EQ(reason_of(R"({"type":"events","seq":1,"now":0,"events":[)"
                      R"({"kind":"submit","id":0,"submit":0,"estimate":1,)"
                      R"("procs":1,"bb":-64}]})"),
            "bad-value");
  EXPECT_EQ(reason_of(R"({"type":"events","seq":1,"now":0,"events":[)"
                      R"({"kind":"submit","id":0,"submit":0,"estimate":1,)"
                      R"("procs":1,"bb":1.5}]})"),
            "bad-type");
}

TEST(Protocol, ReplyBuildersAreByteStable) {
  EXPECT_EQ(welcome_reply("easy-fcfs", 7),
            R"({"type":"welcome","v":3,"scheduler":"easy-fcfs",)"
            R"("resumed_seq":7})");
  core::CycleDecision decision;
  std::vector<workload::JobId> ids{4, 9};
  decision.starts = ids;
  decision.next_wakeup = 500;
  decision.pass_ran = true;
  std::string reply = "stale";
  write_decision_reply(3, 100, decision, reply);
  EXPECT_EQ(reply,
            R"({"type":"decisions","seq":3,"now":100,"pass":true,)"
            R"("starts":[4,9],"next_wakeup":500})");
  decision.next_wakeup = sim::kNoTime;
  write_decision_reply(3, 100, decision, reply);
  EXPECT_EQ(reply,
            R"({"type":"decisions","seq":3,"now":100,"pass":true,)"
            R"("starts":[4,9],"next_wakeup":null})");
  ProtocolReport report;
  report.frames = 5;
  report.count_rejected("bad-json");
  report.count_rejected("bad-json");
  report.count_rejected("bad-seq");
  EXPECT_EQ(report_reply(report),
            R"({"type":"report","frames":5,"rejected":3,)"
            R"("reasons":{"bad-json":2,"bad-seq":1}})");
  EXPECT_EQ(error_reply("bad-seq", "detail here"),
            R"({"type":"error","reason":"bad-seq","detail":"detail here"})");
  EXPECT_EQ(bye_reply(), R"({"type":"bye"})");
}

TEST(Protocol, DecisionReplyRoundTrips) {
  core::CycleDecision sent;
  std::vector<workload::JobId> ids{1, 2, 3};
  sent.starts = ids;
  sent.next_wakeup = 777;
  sent.pass_ran = true;
  std::vector<workload::JobId> killed_ids{7};
  sent.killed = killed_ids;
  std::vector<workload::JobId> storage;
  std::vector<workload::JobId> kill_storage;
  std::string line;
  write_decision_reply(9, 123, sent, line);
  const core::CycleDecision got =
      parse_decision_reply(line, 9, storage, kill_storage);
  EXPECT_TRUE(got.pass_ran);
  EXPECT_EQ(got.next_wakeup, 777);
  ASSERT_EQ(got.starts.size(), 3u);
  EXPECT_EQ(got.starts[1], 2u);
  ASSERT_EQ(got.killed.size(), 1u);
  EXPECT_EQ(got.killed[0], 7u);
}

TEST(Protocol, DecisionReplyRejectsSeqMismatchAndErrors) {
  std::vector<workload::JobId> storage;
  std::vector<workload::JobId> kill_storage;
  core::CycleDecision decision;
  std::string line;
  write_decision_reply(4, 10, decision, line);
  EXPECT_THROW((void)parse_decision_reply(line, 5, storage, kill_storage),
               ProtocolError);
  try {
    (void)parse_decision_reply(error_reply("bad-seq", "boom"), 1, storage,
                               kill_storage);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.reason(), "server-error");
  }
}

}  // namespace
}  // namespace bfsim::svc
