#include "svc/protocol.hpp"

#include <array>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>

#include "core/priority.hpp"
#include "sim/time.hpp"
#include "workload/swf.hpp"

namespace bfsim::svc {

namespace {

using Token = JsonReader::Token;

[[noreturn]] void reject(const char* reason, const std::string& detail) {
  throw ProtocolError(reason, detail);
}

/// One member's value, read once by the walk that checks the frame.
struct Value {
  bool present = false;
  Token token = Token::kNull;
  bool flag = false;          ///< kBool
  JsonReader::Number number;  ///< kNumber
  std::string_view text;      ///< kString
  std::size_t at = 0;         ///< kArray, kObject: where the value starts
  std::size_t entries = 0;    ///< kArray, kObject: elements or members
};

/// The members of one object that the protocol reads. Each holds the
/// value of its key's first occurrence, as Json::find has it; keys
/// compare after unescaping; other members are checked and skipped.
class Fields {
 public:
  static constexpr std::size_t kMaxNames = 15;

  Fields(std::span<const std::string_view> names, std::string_view document)
      : names_(names), document_(document) {}

  /// Walk the object `reader` has just classified at `depth`, checking
  /// all of it.
  void scan(JsonReader& reader, std::size_t depth) {
    for (std::size_t k = 0; k < names_.size(); ++k)
      values_[k].present = false;
    escaped_.clear();
    if (!reader.enter_object()) return;
    do {
      const std::size_t k = index(reader.read_key());
      if (k == names_.size() || values_[k].present) {
        (void)reader.skip_value(depth + 1);
        continue;
      }
      Value& value = values_[k];
      value.present = true;
      value.at = reader.offset();
      value.token = reader.begin_value(depth + 1);
      switch (value.token) {
        case Token::kNull: reader.read_null(); break;
        case Token::kBool: value.flag = reader.read_bool(); break;
        case Token::kNumber: value.number = reader.read_number(); break;
        case Token::kString: value.text = keep(reader.read_string()); break;
        case Token::kArray:
        case Token::kObject:
          value.entries = reader.skip(value.token, depth + 1);
          break;
      }
    } while (reader.more_members());
  }

  /// `key`'s value; not present() when the object lacks it. `key` must
  /// be one of the names: any other is a bug, and throws logic_error.
  [[nodiscard]] const Value& operator[](std::string_view key) const {
    const std::size_t k = index(key);
    if (k == names_.size())
      throw std::logic_error("protocol field not in its table: " +
                             std::string(key));
    return values_[k];
  }

 private:
  [[nodiscard]] std::size_t index(std::string_view key) const {
    std::size_t k = 0;
    // Names are never empty, so equal sizes make [0] valid.
    while (k < names_.size() &&
           (names_[k].size() != key.size() || names_[k][0] != key[0] ||
            names_[k] != key))
      ++k;
    return k;
  }

  /// A string that outlives the reader's next string: the document
  /// itself, or (unescaped) a copy. Unescaping never lengthens text,
  /// so one document's worth of room means the copies never move.
  std::string_view keep(std::string_view text) {
    const std::less<const char*> before;
    if (!before(text.data(), document_.data()) &&
        before(text.data(), document_.data() + document_.size()))
      return text;
    if (escaped_.capacity() < document_.size())
      escaped_.reserve(document_.size());
    const std::size_t start = escaped_.size();
    escaped_ += text;
    return std::string_view{escaped_}.substr(start);
  }

  std::span<const std::string_view> names_;
  std::string_view document_;
  std::array<Value, kMaxNames> values_;
  std::string escaped_;
};

// The members each object has, the hot frames' first: lookups scan
// these in order.
constexpr std::string_view kRequestNames[] = {
    "type", "seq", "now", "events", "v", "scheduler", "procs",
    "burst_buffer", "priority", "audit", "reservation_depth",
    "xfactor_threshold", "selective_adaptive", "slack_factor", "requeue",
};
constexpr std::string_view kEventNames[] = {
    "kind", "id", "submit", "estimate", "procs", "bb", "outage", "repair",
};
constexpr std::string_view kReplyNames[] = {
    "type", "seq", "pass", "starts", "next_wakeup", "killed", "reason",
    "detail",
};
static_assert(std::size(kRequestNames) <= Fields::kMaxNames &&
              std::size(kEventNames) <= Fields::kMaxNames &&
              std::size(kReplyNames) <= Fields::kMaxNames);

/// Check the whole document and read its top-level object's members.
/// Every JSON error is "bad-json", raised here before any field check;
/// a document that is not an object is "not-object". The field checks
/// then run in the protocol's fixed order, whatever the member order.
void scan_frame(std::string_view line, Fields& frame, const char* what) {
  bool object = false;
  try {
    JsonReader reader{line};
    const Token token = reader.begin_value(0);
    object = token == Token::kObject;
    if (object)
      frame.scan(reader, 0);
    else
      (void)reader.skip(token, 0);
    reader.finish();
  } catch (const JsonError& error) {
    reject("bad-json", error.what());
  }
  if (!object)
    reject("not-object", std::string(what) + " must be a JSON object");
}

/// A reader over a document scan_frame has checked, for walking its
/// arrays: it can meet no JSON error, so it enforces no limits.
JsonReader checked_reader(std::string_view line, const Value& array) {
  JsonReader reader{line, {std::numeric_limits<std::size_t>::max(),
                           std::numeric_limits<std::size_t>::max()}};
  reader.seek(array.at);
  (void)reader.begin_value(0);
  return reader;
}

const Value& need(const Fields& object, std::string_view key) {
  const Value& value = object[key];
  if (!value.present)
    reject("missing-field", "frame is missing required field '" +
                                std::string(key) + "'");
  return value;
}

bool is_int(const Value& value) {
  return value.token == Token::kNumber && value.number.integral;
}

/// Integral field (JSON integer only -- 1.5 ids or 1e3 times are
/// rejected rather than rounded).
std::int64_t need_int(const Fields& object, std::string_view key) {
  const Value& value = need(object, key);
  if (!is_int(value))
    reject("bad-type", "field '" + std::string(key) + "' must be an integer");
  return value.number.int_value;
}

std::string_view need_string(const Fields& object, std::string_view key) {
  const Value& value = need(object, key);
  if (value.token != Token::kString)
    reject("bad-type", "field '" + std::string(key) + "' must be a string");
  return value.text;
}

std::optional<std::string_view> optional_string(const Fields& object,
                                                std::string_view key) {
  if (!object[key].present) return std::nullopt;
  return need_string(object, key);
}

bool optional_bool(const Fields& object, std::string_view key,
                   bool fallback) {
  const Value& value = object[key];
  if (!value.present) return fallback;
  if (value.token != Token::kBool)
    reject("bad-type", "field '" + std::string(key) + "' must be a boolean");
  return value.flag;
}

std::int64_t optional_int(const Fields& object, std::string_view key,
                          std::int64_t fallback) {
  if (!object[key].present) return fallback;
  return need_int(object, key);
}

double optional_number(const Fields& object, std::string_view key,
                       double fallback) {
  const Value& value = object[key];
  if (!value.present) return fallback;
  if (value.token != Token::kNumber)
    reject("bad-type", "field '" + std::string(key) + "' must be a number");
  return value.number.integral ? static_cast<double>(value.number.int_value)
                               : value.number.double_value;
}

/// A wire time: non-negative, bounded by the same hostility cap the SWF
/// reader applies (kDefaultMaxSwfTime), so no arithmetic downstream can
/// overflow even for adversarial inputs.
core::Time need_time(const Fields& object, std::string_view key) {
  const std::int64_t raw = need_int(object, key);
  if (raw < 0 || raw > workload::kDefaultMaxSwfTime)
    reject("bad-value", "field '" + std::string(key) + "' is out of range");
  return raw;
}

workload::JobId need_job_id(const Fields& object, std::string_view key) {
  const std::int64_t raw = need_int(object, key);
  if (raw < 0 || raw >= static_cast<std::int64_t>(workload::kInvalidJob))
    reject("bad-value", "field '" + std::string(key) + "' is not a job id");
  return static_cast<workload::JobId>(raw);
}

sim::OutageId need_outage_id(const Fields& object, std::string_view key) {
  const std::int64_t raw = need_int(object, key);
  if (raw < 0 || raw >= static_cast<std::int64_t>(core::kMaxTrackedOutages))
    reject("bad-value",
           "field '" + std::string(key) + "' is not an outage id");
  return static_cast<sim::OutageId>(raw);
}

HelloRequest parse_hello(const Fields& frame) {
  HelloRequest hello;
  hello.version = need_int(frame, "v");
  if (hello.version != kProtocolVersion)
    reject("bad-version", "protocol version " + std::to_string(hello.version) +
                              " is not supported (this build speaks " +
                              std::to_string(kProtocolVersion) + ")");
  try {
    hello.kind = core::scheduler_kind_from_string(
        std::string(need_string(frame, "scheduler")));
  } catch (const std::invalid_argument& error) {
    reject("bad-value", error.what());
  }
  const std::int64_t procs = need_int(frame, "procs");
  if (procs < 1 || procs > std::numeric_limits<int>::max())
    reject("bad-value", "'procs' must be a positive machine size");
  hello.config.procs = static_cast<int>(procs);
  const std::int64_t bb = optional_int(frame, "burst_buffer", 0);
  if (bb < 0 || bb > std::numeric_limits<int>::max())
    reject("bad-value", "'burst_buffer' must be a non-negative capacity");
  hello.config.burst_buffer = static_cast<int>(bb);
  if (const auto priority = optional_string(frame, "priority")) {
    try {
      hello.config.priority =
          core::priority_from_string(std::string(*priority));
    } catch (const std::invalid_argument& error) {
      reject("bad-value", error.what());
    }
  }
  hello.audit = optional_bool(frame, "audit", false);
  const std::int64_t depth =
      optional_int(frame, "reservation_depth", hello.extras.reservation_depth);
  if (depth < 1 || depth > std::numeric_limits<int>::max())
    reject("bad-value", "'reservation_depth' must be positive");
  hello.extras.reservation_depth = static_cast<int>(depth);
  hello.extras.xfactor_threshold = optional_number(
      frame, "xfactor_threshold", hello.extras.xfactor_threshold);
  hello.extras.selective_adaptive = optional_bool(
      frame, "selective_adaptive", hello.extras.selective_adaptive);
  hello.extras.slack_factor =
      optional_number(frame, "slack_factor", hello.extras.slack_factor);
  if (hello.extras.xfactor_threshold < 0 || hello.extras.slack_factor < 0)
    reject("bad-value", "policy thresholds must be non-negative");
  if (const auto requeue = optional_string(frame, "requeue")) {
    try {
      hello.requeue = sim::requeue_policy_from_string(std::string(*requeue));
    } catch (const std::invalid_argument& error) {
      reject("bad-value", error.what());
    }
  }
  return hello;
}

Event parse_event(const Fields& entry) {
  const std::string_view kind = need_string(entry, "kind");
  Event event;
  if (kind == "finish") {
    event.kind = EventKind::kFinish;
    event.id = need_job_id(entry, "id");
  } else if (kind == "submit") {
    event.kind = EventKind::kSubmit;
    event.id = need_job_id(entry, "id");
    event.job.id = event.id;
    event.job.submit = need_time(entry, "submit");
    event.job.estimate = need_time(entry, "estimate");
    // The scheduler-visible wall-clock limit is all the service knows;
    // the true runtime stays with the client.
    event.job.runtime = event.job.estimate;
    const std::int64_t procs = need_int(entry, "procs");
    if (procs < 1 || procs > std::numeric_limits<int>::max())
      reject("bad-value", "'procs' must be positive");
    event.job.procs = static_cast<int>(procs);
    const std::int64_t bb = optional_int(entry, "bb", 0);
    if (bb < 0 || bb > std::numeric_limits<int>::max())
      reject("bad-value", "'bb' must be a non-negative burst-buffer demand");
    event.job.bb = static_cast<int>(bb);
  } else if (kind == "cancel") {
    event.kind = EventKind::kCancel;
    event.id = need_job_id(entry, "id");
  } else if (kind == "wake") {
    event.kind = EventKind::kWake;
  } else if (kind == "down") {
    event.kind = EventKind::kDown;
    event.outage.id = need_outage_id(entry, "outage");
    // down_at never crosses the wire: the outage takes effect at the
    // batch instant, which the session stamps before applying.
    event.outage.repair_at = need_time(entry, "repair");
    const std::int64_t procs = need_int(entry, "procs");
    if (procs < 0 || procs > std::numeric_limits<int>::max())
      reject("bad-value", "'procs' must be a non-negative loss");
    event.outage.procs = static_cast<int>(procs);
    const std::int64_t bb = optional_int(entry, "bb", 0);
    if (bb < 0 || bb > std::numeric_limits<int>::max())
      reject("bad-value", "'bb' must be a non-negative burst-buffer loss");
    event.outage.bb = static_cast<int>(bb);
    if (event.outage.procs + event.outage.bb < 1)
      reject("bad-value", "a down event must lose some capacity");
  } else if (kind == "up") {
    event.kind = EventKind::kRepair;
    event.outage.id = need_outage_id(entry, "outage");
  } else {
    reject("bad-value", "unknown event kind '" + std::string(kind) + "'");
  }
  return event;
}

void parse_events(std::string_view line, const Fields& frame,
                  EventBatch& batch) {
  const std::int64_t seq = need_int(frame, "seq");
  if (seq < 1) reject("bad-value", "'seq' must be >= 1");
  batch.seq = static_cast<std::uint64_t>(seq);
  batch.now = need_time(frame, "now");
  const Value& events = need(frame, "events");
  if (events.token != Token::kArray)
    reject("bad-type", "field 'events' must be an array");
  if (events.entries > kMaxBatchEvents)
    reject("oversized-frame",
           "batch carries more than " + std::to_string(kMaxBatchEvents) +
               " events");
  batch.events.reserve(events.entries);
  JsonReader reader = checked_reader(line, events);
  Fields entry{kEventNames, line};
  if (reader.enter_array()) do {
      if (reader.begin_value(1) != Token::kObject)
        reject("bad-type", "each event must be an object");
      entry.scan(reader, 1);
      batch.events.push_back(parse_event(entry));
    } while (reader.more_elements());
}

/// A reply's "starts" or "killed" array, appended to `ids`; `what`
/// names its entries in the details.
void read_job_ids(std::string_view line, const Value& array, const char* what,
                  std::vector<workload::JobId>& ids) {
  JsonReader reader = checked_reader(line, array);
  if (!reader.enter_array()) return;
  do {
    if (reader.begin_value(1) != Token::kNumber)
      reject("bad-type", std::string(what) + " ids must be integers");
    const JsonReader::Number id = reader.read_number();
    if (!id.integral)
      reject("bad-type", std::string(what) + " ids must be integers");
    if (id.int_value < 0 ||
        id.int_value >= static_cast<std::int64_t>(workload::kInvalidJob))
      reject("bad-value", std::string(what) + " id out of range");
    ids.push_back(static_cast<workload::JobId>(id.int_value));
  } while (reader.more_elements());
}

}  // namespace

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kFinish: return "finish";
    case EventKind::kRepair: return "up";
    case EventKind::kDown: return "down";
    case EventKind::kSubmit: return "submit";
    case EventKind::kCancel: return "cancel";
    case EventKind::kWake: return "wake";
  }
  return "?";
}

Request parse_request(std::string_view line) {
  if (line.size() > kMaxFrameBytes)
    reject("oversized-frame", "frame exceeds " +
                                  std::to_string(kMaxFrameBytes) + " bytes");
  Fields frame{kRequestNames, line};
  scan_frame(line, frame, "frame");
  const std::string_view type = need_string(frame, "type");
  Request request;
  if (type == "hello") {
    request.type = Request::Type::kHello;
    request.hello = parse_hello(frame);
  } else if (type == "events") {
    request.type = Request::Type::kEvents;
    parse_events(line, frame, request.batch);
  } else if (type == "stats") {
    request.type = Request::Type::kStats;
  } else if (type == "report") {
    request.type = Request::Type::kReport;
  } else if (type == "bye") {
    request.type = Request::Type::kBye;
  } else {
    reject("unknown-type", "unknown frame type '" + std::string(type) + "'");
  }
  return request;
}

std::string welcome_reply(const std::string& scheduler_name,
                          std::uint64_t resumed_seq) {
  Json reply = Json::object();
  reply.set("type", Json::string("welcome"));
  reply.set("v", Json::integer(kProtocolVersion));
  reply.set("scheduler", Json::string(scheduler_name));
  reply.set("resumed_seq",
            Json::integer(static_cast<std::int64_t>(resumed_seq)));
  return reply.dump();
}

void write_decision_reply(std::uint64_t seq, core::Time now,
                          const core::CycleDecision& decision,
                          std::string& out) {
  out.clear();
  JsonWriter reply{out};
  reply.begin_object()
      .key("type").string("decisions")
      .key("seq").integer(static_cast<std::int64_t>(seq))
      .key("now").integer(now)
      .key("pass").boolean(decision.pass_ran)
      .key("starts").begin_array();
  for (const workload::JobId id : decision.starts)
    reply.integer(static_cast<std::int64_t>(id));
  reply.end_array();
  // Emitted only when an outage voided runs, so outage-free replies are
  // byte-identical to protocol v2's.
  if (!decision.killed.empty()) {
    reply.key("killed").begin_array();
    for (const workload::JobId id : decision.killed)
      reply.integer(static_cast<std::int64_t>(id));
    reply.end_array();
  }
  reply.key("next_wakeup");
  if (decision.next_wakeup == sim::kNoTime)
    reply.null();
  else
    reply.integer(decision.next_wakeup);
  reply.end_object();
}

std::string stats_reply(const core::DecisionStats& stats, std::size_t queued,
                        std::size_t running) {
  Json reply = Json::object();
  reply.set("type", Json::string("stats"));
  reply.set("events", Json::integer(static_cast<std::int64_t>(stats.events)));
  reply.set("passes", Json::integer(static_cast<std::int64_t>(stats.passes)));
  reply.set("passes_skipped",
            Json::integer(static_cast<std::int64_t>(stats.passes_skipped)));
  reply.set("wakeups", Json::integer(static_cast<std::int64_t>(stats.wakeups)));
  reply.set("max_queue",
            Json::integer(static_cast<std::int64_t>(stats.max_queue)));
  reply.set("outages",
            Json::integer(static_cast<std::int64_t>(stats.outages)));
  reply.set("repairs",
            Json::integer(static_cast<std::int64_t>(stats.repairs)));
  reply.set("kills", Json::integer(static_cast<std::int64_t>(stats.kills)));
  reply.set("queued", Json::integer(static_cast<std::int64_t>(queued)));
  reply.set("running", Json::integer(static_cast<std::int64_t>(running)));
  return reply.dump();
}

std::string report_reply(const ProtocolReport& report) {
  Json reply = Json::object();
  reply.set("type", Json::string("report"));
  reply.set("frames", Json::integer(static_cast<std::int64_t>(report.frames)));
  reply.set("rejected",
            Json::integer(static_cast<std::int64_t>(report.rejected)));
  Json reasons = Json::object();
  for (const auto& [reason, count] : report.reasons)
    reasons.set(reason, Json::integer(static_cast<std::int64_t>(count)));
  reply.set("reasons", std::move(reasons));
  return reply.dump();
}

std::string error_reply(const std::string& reason, const std::string& detail) {
  Json reply = Json::object();
  reply.set("type", Json::string("error"));
  reply.set("reason", Json::string(reason));
  reply.set("detail", Json::string(detail));
  return reply.dump();
}

std::string bye_reply() {
  Json reply = Json::object();
  reply.set("type", Json::string("bye"));
  return reply.dump();
}

core::CycleDecision parse_decision_reply(
    std::string_view line, std::uint64_t expect_seq,
    std::vector<workload::JobId>& start_storage,
    std::vector<workload::JobId>& kill_storage) {
  Fields frame{kReplyNames, line};
  scan_frame(line, frame, "reply");
  const std::string_view type = need_string(frame, "type");
  if (type == "error") {
    const std::string_view detail = need_string(frame, "detail");
    reject("server-error", std::string(need_string(frame, "reason")) + ": " +
                               std::string(detail));
  }
  if (type != "decisions")
    reject("bad-value",
           "expected a 'decisions' reply, got '" + std::string(type) + "'");
  const std::int64_t seq = need_int(frame, "seq");
  if (seq < 0 || static_cast<std::uint64_t>(seq) != expect_seq)
    reject("bad-seq", "reply for seq " + std::to_string(seq) +
                          ", expected " + std::to_string(expect_seq));
  core::CycleDecision decision;
  const Value& pass = need(frame, "pass");
  if (pass.token != Token::kBool)
    reject("bad-type", "'pass' must be a boolean");
  decision.pass_ran = pass.flag;
  const Value& starts = need(frame, "starts");
  if (starts.token != Token::kArray)
    reject("bad-type", "'starts' must be an array");
  start_storage.clear();
  read_job_ids(line, starts, "start", start_storage);
  decision.starts = start_storage;
  kill_storage.clear();
  if (const Value& killed = frame["killed"]; killed.present) {
    if (killed.token != Token::kArray)
      reject("bad-type", "'killed' must be an array");
    read_job_ids(line, killed, "killed", kill_storage);
  }
  decision.killed = kill_storage;
  const Value& wake = need(frame, "next_wakeup");
  if (wake.token == Token::kNull) {
    decision.next_wakeup = sim::kNoTime;
  } else if (is_int(wake) && wake.number.int_value >= 0) {
    decision.next_wakeup = wake.number.int_value;
  } else {
    reject("bad-value", "'next_wakeup' must be null or a non-negative time");
  }
  return decision;
}

}  // namespace bfsim::svc
