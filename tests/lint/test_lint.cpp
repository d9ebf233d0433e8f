// bfsim_lint self-tests: drive the checker over seeded fixture files
// and assert each planted violation is flagged (at the right line, with
// the right check) and that clean / properly-hatched code is not. This
// is the linter's own regression wall -- a checker that silently stops
// seeing a violation class is worse than no checker, because the
// contract looks enforced.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bfsim_lint/driver.hpp"

namespace bfsim::lint {
namespace {

std::vector<Finding> lint_fixture(const std::string& name) {
  DriverOptions options;
  options.root = BFSIM_LINT_FIXTURE_DIR;
  options.files = {std::string{BFSIM_LINT_FIXTURE_DIR} + "/" + name};
  options.scope = ScopePolicy::kAll;
  Driver driver{std::move(options)};
  return driver.run();
}

bool has(const std::vector<Finding>& findings, Check check, int line) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) {
                       return f.check == check && f.line == line;
                     });
}

std::string dump(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) out += f.to_string() + "\n";
  return out;
}

TEST(BfsimLint, FlagsRawTimeArithmetic) {
  const auto findings = lint_fixture("bad_raw_time.cpp");
  // The auditor occupancy-rebuild replica: `rec.start + rec.estimate`.
  EXPECT_TRUE(has(findings, Check::kRawTimeArithmetic, 20))
      << dump(findings);
  // Compound assignment on a Time local.
  EXPECT_TRUE(has(findings, Check::kRawTimeArithmetic, 25))
      << dump(findings);
  // Raw difference (the wait-time shape).
  EXPECT_TRUE(has(findings, Check::kRawTimeArithmetic, 30))
      << dump(findings);
  EXPECT_EQ(findings.size(), 3u) << dump(findings);
}

TEST(BfsimLint, TimeLocalsAreScopedToTheirBlock) {
  const auto findings = lint_fixture("block_scope.cpp");
  // Inside its function the `Time start` local is still Time, in a
  // nested block and on either side of the operator.
  EXPECT_TRUE(has(findings, Check::kRawTimeArithmetic, 15))
      << dump(findings);
  EXPECT_TRUE(has(findings, Check::kRawTimeArithmetic, 17))
      << dump(findings);
  // Other functions' `start` (a time_point parameter, a member, an int
  // parameter) are not.
  EXPECT_EQ(findings.size(), 2u) << dump(findings);
}

TEST(BfsimLint, PointerAndReferenceDeclaratorsAreOtherTyped) {
  const auto findings = lint_fixture("pointer_decl.cpp");
  // `end - from` on two `const char*`, a `std::size_t&& end` and a
  // `Time* end` beside the header's `Time end` member are not Time
  // arithmetic; the real Time local still is.
  EXPECT_TRUE(has(findings, Check::kRawTimeArithmetic, 27))
      << dump(findings);
  EXPECT_EQ(findings.size(), 1u) << dump(findings);
}

TEST(BfsimLint, FlagsNondeterminismSources) {
  const auto findings = lint_fixture("bad_nondeterminism.cpp");
  EXPECT_TRUE(has(findings, Check::kNondeterminism, 12)) << dump(findings);
  EXPECT_TRUE(has(findings, Check::kNondeterminism, 16)) << dump(findings);
  EXPECT_TRUE(has(findings, Check::kNondeterminism, 20)) << dump(findings);
  EXPECT_TRUE(has(findings, Check::kNondeterminism, 25)) << dump(findings);
  EXPECT_TRUE(has(findings, Check::kNondeterminism, 29)) << dump(findings);
  // Hash-order iteration: range-for and explicit begin().
  EXPECT_TRUE(has(findings, Check::kNondeterminism, 34)) << dump(findings);
  EXPECT_TRUE(has(findings, Check::kNondeterminism, 45)) << dump(findings);
  // `it != jobs_.end()` is a lookup, not iteration: line 41 must not
  // appear.
  EXPECT_FALSE(has(findings, Check::kNondeterminism, 41)) << dump(findings);
  EXPECT_EQ(findings.size(), 7u) << dump(findings);
}

TEST(BfsimLint, FlagsSmallFnCaptureViolations) {
  const auto findings = lint_fixture("bad_smallfn.cpp");
  EXPECT_TRUE(has(findings, Check::kSmallFnCapture, 14)) << dump(findings);
  EXPECT_TRUE(has(findings, Check::kSmallFnCapture, 15)) << dump(findings);
  EXPECT_TRUE(has(findings, Check::kSmallFnCapture, 18)) << dump(findings);
  EXPECT_TRUE(has(findings, Check::kSmallFnCapture, 19)) << dump(findings);
  // `[this]` and `[budget]` (lines 20-21) are the blessed forms.
  EXPECT_EQ(findings.size(), 4u) << dump(findings);
}

TEST(BfsimLint, PassesCleanCode) {
  const auto findings = lint_fixture("clean.cpp");
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

TEST(BfsimLint, EscapeHatchGrammar) {
  const auto findings = lint_fixture("hatches.cpp");
  // Justified hatch (line 9) suppresses entirely.
  EXPECT_FALSE(has(findings, Check::kRawTimeArithmetic, 9)) << dump(findings);
  // Unjustified hatch: the finding mutates into "write a justification".
  ASSERT_TRUE(has(findings, Check::kRawTimeArithmetic, 13)) << dump(findings);
  const auto unjustified =
      std::find_if(findings.begin(), findings.end(),
                   [](const Finding& f) { return f.line == 13; });
  EXPECT_NE(unjustified->message.find("lacks a justification"),
            std::string::npos)
      << unjustified->message;
  // A typoed tag is reported as unknown, and does not suppress the raw
  // finding beneath it.
  const bool unknown_tag = std::any_of(
      findings.begin(), findings.end(), [](const Finding& f) {
        return f.message.find("unknown bfsim-lint escape-hatch tag") !=
               std::string::npos;
      });
  EXPECT_TRUE(unknown_tag) << dump(findings);
  EXPECT_TRUE(has(findings, Check::kRawTimeArithmetic, 18)) << dump(findings);
}

TEST(BfsimLint, ScopePolicyDisablesNondeterminismOutsideCore) {
  // Under the production layout policy, a fixture path (not src/core,
  // src/sim or src/exp) gets the raw-time check but not the
  // nondeterminism check.
  DriverOptions options;
  options.root = BFSIM_LINT_FIXTURE_DIR;
  options.files = {std::string{BFSIM_LINT_FIXTURE_DIR} +
                   "/bad_nondeterminism.cpp"};
  options.scope = ScopePolicy::kAuto;
  Driver driver{std::move(options)};
  const auto findings = driver.run();
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

TEST(BfsimLint, ScopePolicyCoversTheServiceZone) {
  // src/svc/ is deterministic-zone: a daemon that reads wall clocks or
  // iterates hash order cannot replay its event log into bit-identical
  // state. The same fixture outside src/ proved the check off above;
  // here the src/svc/ path turns it on, plus raw-time as everywhere.
  DriverOptions options;
  options.root = BFSIM_LINT_FIXTURE_DIR;
  options.files = {std::string{BFSIM_LINT_FIXTURE_DIR} +
                   "/src/svc/bad_service.cpp"};
  options.scope = ScopePolicy::kAuto;
  Driver driver{std::move(options)};
  const auto findings = driver.run();
  EXPECT_TRUE(has(findings, Check::kNondeterminism, 16)) << dump(findings);
  EXPECT_TRUE(has(findings, Check::kNondeterminism, 21)) << dump(findings);
  EXPECT_TRUE(has(findings, Check::kRawTimeArithmetic, 27))
      << dump(findings);
  EXPECT_EQ(findings.size(), 3u) << dump(findings);
}

TEST(BfsimLint, ScopePolicyCoversTheFailureModel) {
  // src/sim/ is deterministic-zone and the availability layer lives
  // there (sim/failure.*): a failure trace is data, never sampled
  // during the run, so the model may not read entropy sources or wall
  // clocks, and outage arithmetic saturates like all Time math. The
  // seeded fixture pins the zone: if src/sim/ ever drops off the list,
  // its nondeterminism findings vanish and this test fails.
  DriverOptions options;
  options.root = BFSIM_LINT_FIXTURE_DIR;
  options.files = {std::string{BFSIM_LINT_FIXTURE_DIR} +
                   "/src/sim/bad_failure.cpp"};
  options.scope = ScopePolicy::kAuto;
  Driver driver{std::move(options)};
  const auto findings = driver.run();
  EXPECT_TRUE(has(findings, Check::kNondeterminism, 15)) << dump(findings);
  EXPECT_TRUE(has(findings, Check::kNondeterminism, 20)) << dump(findings);
  EXPECT_TRUE(has(findings, Check::kRawTimeArithmetic, 25))
      << dump(findings);
  EXPECT_EQ(findings.size(), 3u) << dump(findings);
}

}  // namespace
}  // namespace bfsim::lint
