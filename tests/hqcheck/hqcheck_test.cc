#include "hqcheck.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

/// Golden-file and mutation tests for the semantic checker. The golden half
/// pins exact diagnostics (any drift in rule behaviour or wording fails
/// here, not silently in CI); the mutation half seeds known defects into
/// known-clean inputs and asserts each is caught — proving the rules
/// actually fire, not merely that the current tree happens to be quiet.

namespace hqcheck {
namespace {

std::string TestdataPath(const std::string& name) {
  return std::string(HQCHECK_TESTDATA_DIR) + "/" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> FormatAll(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> out;
  for (const Diagnostic& d : diags) out.push_back(Format(d));
  return out;
}

std::vector<std::string> CheckOne(const std::string& name) {
  Analyzer analyzer;
  analyzer.AddFile(name, ReadFileOrDie(TestdataPath(name)));
  return FormatAll(analyzer.Run());
}

std::vector<std::string> CheckSource(const std::string& path, const std::string& content,
                                     const std::string& manifest = "") {
  Analyzer analyzer;
  analyzer.AddFile(path, content);
  if (!manifest.empty()) analyzer.SetManifest("ranks.txt", manifest);
  return FormatAll(analyzer.Run());
}

// ---------------------------------------------------------------------------
// Golden: guarded-field
// ---------------------------------------------------------------------------

TEST(HqcheckGoldenTest, GuardedField) {
  EXPECT_EQ(CheckOne("guarded_field.cc"),
            (std::vector<std::string>{
                "guarded_field.cc:10: [guarded-field] `hits_` is HQ_GUARDED_BY(mu_) but "
                "Counter::BadUnlocked touches it without a live MutexLock on `mu_` (or an "
                "HQ_REQUIRES(mu_) annotation)",
                "guarded_field.cc:14: [guarded-field] `hits_` is HQ_GUARDED_BY(mu_) but "
                "Counter::BadWrongLock touches it without a live MutexLock on `mu_` (or an "
                "HQ_REQUIRES(mu_) annotation)",
                "guarded_field.cc:19: [guarded-field] `hits_` is HQ_GUARDED_BY(mu_) but "
                "Counter::BadLambda touches it without a live MutexLock on `mu_` (or an "
                "HQ_REQUIRES(mu_) annotation) — locks held outside a lambda do not carry "
                "into its body",
            }));
}

// ---------------------------------------------------------------------------
// Golden: lock-nesting
// ---------------------------------------------------------------------------

TEST(HqcheckGoldenTest, LockNesting) {
  EXPECT_EQ(CheckOne("lock_nesting.cc"),
            (std::vector<std::string>{
                "lock_nesting.cc:12: [lock-nesting] acquiring `server_mu_` (kServer) while "
                "holding `queue_mu_` (kQueue) is not strictly descending; the runtime "
                "validator will abort here — reorder the acquisitions or use MutexLock2 "
                "for same-rank pairs",
            }));
}

// ---------------------------------------------------------------------------
// Golden: enum-switch
// ---------------------------------------------------------------------------

TEST(HqcheckGoldenTest, EnumSwitch) {
  EXPECT_EQ(CheckOne("enum_switch.cc"),
            (std::vector<std::string>{
                "enum_switch.cc:10: [enum-switch] switch over Fruit covers 2 of 4 "
                "enumerators (missing: kCherry, kDurian); a default: label hides the gap "
                "from -Wswitch, so every enumerator must be spelled out",
            }));
}

// ---------------------------------------------------------------------------
// Golden: lock-rank manifest cross-check
// ---------------------------------------------------------------------------

TEST(HqcheckGoldenTest, LockRankManifestAgrees) {
  Analyzer analyzer;
  analyzer.AddFile("lock_rank.cc", ReadFileOrDie(TestdataPath("lock_rank.cc")));
  analyzer.SetManifest("ranks.txt", "kPool demo_widget\n");
  EXPECT_EQ(FormatAll(analyzer.Run()),
            (std::vector<std::string>{
                "lock_rank.cc:15: [lock-rank] Mutex `mu_` is constructed without a name; "
                "the lock-rank manifest (tools/hqcheck/lock_ranks.txt) keys on names — "
                "pass one: {LockRank::kPool, \"<name>\"}",
            }));
}

TEST(HqcheckGoldenTest, LockRankManifestDisagrees) {
  Analyzer analyzer;
  analyzer.AddFile("lock_rank.cc", ReadFileOrDie(TestdataPath("lock_rank.cc")));
  analyzer.SetManifest("ranks.txt", "kQueue demo_widget\n");
  std::vector<std::string> got = FormatAll(analyzer.Run());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0],
            "lock_rank.cc:10: [lock-rank] mutex `demo_widget` is constructed at kPool but "
            "the manifest declares kQueue; fix whichever is wrong");
}

TEST(HqcheckGoldenTest, LockRankManifestStaleEntry) {
  Analyzer analyzer;
  analyzer.AddFile("lock_rank.cc", ReadFileOrDie(TestdataPath("lock_rank.cc")));
  analyzer.SetManifest("ranks.txt", "kPool demo_widget\nkPool demo_gone\n");
  std::vector<std::string> got = FormatAll(analyzer.Run());
  ASSERT_EQ(got.size(), 2u);  // [0] is lock_rank.cc's unnamed-mutex finding
  EXPECT_EQ(got[1],
            "ranks.txt:2: [lock-rank] manifest mutex `demo_gone` (kPool) has no "
            "construction site in the analysed sources; remove the stale entry or check "
            "the spelling");
}

TEST(HqcheckGoldenTest, ManifestParseRejectsUnknownRank) {
  std::vector<Diagnostic> diags;
  ParseManifest("ranks.txt", "kBogus some_label\n", &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "lock-rank");
  EXPECT_EQ(diags[0].line, 1);
}

TEST(HqcheckGoldenTest, LockRankUnranked) {
  EXPECT_EQ(CheckOne("unranked_mutex.cc"),
            (std::vector<std::string>{
                "unranked_mutex.cc:6: [lock-rank] Mutex `g_bad` is declared without a "
                "LockRank; every mutex names its level in the lock hierarchy (see "
                "common::LockRank)",
                "unranked_mutex.cc:16: [lock-rank] Mutex `mu_` is declared without a "
                "LockRank; every mutex names its level in the lock hierarchy (see "
                "common::LockRank)",
            }));
}

// ---------------------------------------------------------------------------
// Golden: file-level rules, blocking-under-lock and the stale-allow audit
// ---------------------------------------------------------------------------

TEST(HqcheckGoldenTest, NakedMutex) {
  const std::string kUse = "[naked-mutex] use common::Mutex/MutexLock/CondVar from "
                           "common/sync.h instead of std::";
  EXPECT_EQ(CheckOne("naked_mutex.cc"), (std::vector<std::string>{
                                            "naked_mutex.cc:6: " + kUse + "mutex",
                                            "naked_mutex.cc:9: " + kUse + "lock_guard",
                                            "naked_mutex.cc:10: " + kUse + "condition_variable",
                                        }));
}

TEST(HqcheckGoldenTest, NewDelete) {
  EXPECT_EQ(CheckOne("new_delete.cc"),
            (std::vector<std::string>{
                "new_delete.cc:11: [new-delete] raw `new` outside a smart-pointer factory; "
                "wrap the result in unique_ptr/shared_ptr at the allocation site",
                "new_delete.cc:15: [new-delete] raw `delete`; ownership must live in "
                "unique_ptr/shared_ptr",
            }));
}

TEST(HqcheckGoldenTest, IncludeHygiene) {
  EXPECT_EQ(CheckOne("bad_header.h"),
            (std::vector<std::string>{
                "bad_header.h:2: [include-hygiene] header must open with #pragma once "
                "before any other code",
                "bad_header.h:4: [include-hygiene] `using namespace` in a header leaks "
                "into every includer",
            }));
}

TEST(HqcheckGoldenTest, BlockingUnderLock) {
  auto blocks = [](int line, const std::string& what) {
    return "blocking_under_lock.cc:" + std::to_string(line) +
           ": [blocking-under-lock] potential deadlock: `" + what +
           "` can block while a MutexLock is held in this scope";
  };
  EXPECT_EQ(CheckOne("blocking_under_lock.cc"),
            (std::vector<std::string>{blocks(17, "Put"), blocks(18, "sleep_for"),
                                      blocks(23, "Put"), blocks(25, "sleep_for"),
                                      blocks(33, "WaitFor")}));
}

TEST(HqcheckGoldenTest, UnboundedRetry) {
  const std::string kLoop =
      ": [unbounded-retry] hand-rolled retry loop (sleep + I/O call) with no attempt bound; "
      "use common::RetryPolicy (common/retry.h) for bounded backoff with jitter and stats";
  EXPECT_EQ(CheckOne("unbounded_retry.cc"), (std::vector<std::string>{
                                                "unbounded_retry.cc:5" + kLoop,
                                                "unbounded_retry.cc:12" + kLoop,
                                            }));
}

TEST(HqcheckGoldenTest, ThrowingConversion) {
  auto finding = [](int line, const std::string& fn) {
    return "throwing_conversion.cc:" + std::to_string(line) + ": [throwing-conversion] std::" +
           fn +
           " throws on malformed or out-of-range text and nothing catches it; parse with "
           "common::ParseNumber (std::from_chars) and return a Status";
  };
  EXPECT_EQ(CheckOne("throwing_conversion.cc"), (std::vector<std::string>{
                                                    finding(4, "stoll"),
                                                    finding(7, "stod"),
                                                    finding(8, "stoi"),
                                                }));
  // Like the lock-rank manifest, the rule covers production code only.
  for (const char* path : {"tests/sql/parser_test.cc", "bench/bench_x.cc"}) {
    EXPECT_EQ(CheckSource(path, "int n = std::stoi(arg);\n"), std::vector<std::string>{}) << path;
  }
}

TEST(HqcheckGoldenTest, StaleAllow) {
  EXPECT_EQ(CheckOne("stale_allow.cc"),
            (std::vector<std::string>{
                "stale_allow.cc:6: [stale-allow] stale hqcheck:allow(naked-mutex) marker: no "
                "finding is suppressed here any more — remove it (or fix the rule name)",
                "stale_allow.cc:8: [stale-allow] stale hqcheck:allow(nakedmutex) marker: no "
                "finding is suppressed here any more — remove it (or fix the rule name)",
            }));
}

// ---------------------------------------------------------------------------
// Golden: clean input stays silent
// ---------------------------------------------------------------------------

TEST(HqcheckGoldenTest, CleanFileHasNoFindings) {
  EXPECT_EQ(CheckOne("clean.cc"), std::vector<std::string>{});
}

// The retired line linter's clean input: a ranked global mutex locked in a
// free function, and a make_unique factory.
TEST(HqlintGoldenTest, CleanFileHasNoDiagnostics) {
  EXPECT_EQ(CheckOne("clean_globals.cc"), std::vector<std::string>{});
}

// ---------------------------------------------------------------------------
// Mutation: seed known defects into the clean input and require a report.
// ---------------------------------------------------------------------------

std::string CleanSource() { return ReadFileOrDie(TestdataPath("clean.cc")); }

std::string ReplaceOnce(std::string text, const std::string& from, const std::string& to) {
  size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << "mutation anchor not found: " << from;
  return text.replace(pos, from.size(), to);
}

TEST(HqcheckMutationTest, RemovedMutexLockIsReported) {
  std::string mutated =
      ReplaceOnce(CleanSource(), "    common::MutexLock lock(&mu_);\n    last_ = v;",
                  "    last_ = v;");
  std::vector<std::string> got = CheckSource("clean.cc", mutated);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NE(got[0].find("[guarded-field]"), std::string::npos) << got[0];
  EXPECT_NE(got[0].find("`last_`"), std::string::npos) << got[0];
}

TEST(HqcheckMutationTest, RankInversionIsReported) {
  std::string mutated = CleanSource();
  mutated = ReplaceOnce(mutated, "    common::MutexLock lock(&mu_);\n    last_ = v;",
                        "    common::MutexLock low(&pool_mu_);\n"
                        "    common::MutexLock lock(&mu_);\n    last_ = v;");
  mutated = ReplaceOnce(mutated, "  mutable common::Mutex mu_",
                        "  common::Mutex pool_mu_{common::LockRank::kPool, \"demo_pool\"};\n"
                        "  mutable common::Mutex mu_");
  std::vector<std::string> got = CheckSource("clean.cc", mutated);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NE(got[0].find("[lock-nesting]"), std::string::npos) << got[0];
  EXPECT_NE(got[0].find("(kStore) while holding `pool_mu_` (kPool)"), std::string::npos)
      << got[0];
}

TEST(HqcheckMutationTest, DroppedEnumeratorCaseIsReported) {
  std::string mutated = ReplaceOnce(CleanSource(),
                                    "    case Mode::kWrite:\n      return \"write\";\n",
                                    "    default:\n      return \"write\";\n");
  std::vector<std::string> got = CheckSource("clean.cc", mutated);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NE(got[0].find("[enum-switch]"), std::string::npos) << got[0];
  EXPECT_NE(got[0].find("missing: kWrite"), std::string::npos) << got[0];
}

TEST(HqcheckMutationTest, SuppressionSilencesAndAuditTrailHolds) {
  std::string mutated =
      ReplaceOnce(CleanSource(), "    common::MutexLock lock(&mu_);\n    last_ = v;",
                  "    last_ = v;  // hqcheck:allow(guarded-field)");
  EXPECT_EQ(CheckSource("clean.cc", mutated), std::vector<std::string>{});
}

TEST(HqcheckGoldenTest, DescendingNestingsAreSilent) {
  EXPECT_EQ(CheckOne("nested_lock.cc"), std::vector<std::string>{});
}

std::vector<int> FindingLines(const std::vector<std::string>& got, const std::string& rule) {
  std::vector<int> lines;
  for (const std::string& d : got) {
    if (d.find("[" + rule + "]") == std::string::npos) continue;
    lines.push_back(std::stoi(d.substr(d.find(':') + 1)));
  }
  return lines;
}

TEST(HqcheckMutationTest, InvertedDeclaredRanksAreReportedAtEveryNesting) {
  std::string mutated = ReplaceOnce(ReadFileOrDie(TestdataPath("nested_lock.cc")),
                                    "g_outer{common::LockRank::kServer",
                                    "g_outer{common::LockRank::kQueue");
  mutated = ReplaceOnce(mutated, "g_inner{common::LockRank::kQueue",
                        "g_inner{common::LockRank::kServer");
  std::vector<std::string> got = CheckSource("nested_lock.cc", mutated);
  EXPECT_EQ(FindingLines(got, "lock-nesting"), (std::vector<int>{12, 18, 23, 29}));
  EXPECT_EQ(got.size(), 4u);
}

TEST(HqcheckMutationTest, UnrankedNestedMutexIsReported) {
  // Without a rank the nesting order is unproven: lock-rank flags the
  // declaration and lock-nesting every acquisition under another lock.
  std::string mutated = ReplaceOnce(ReadFileOrDie(TestdataPath("nested_lock.cc")),
                                    "g_inner{common::LockRank::kQueue, \"inner\"}", "g_inner");
  std::vector<std::string> got = CheckSource("nested_lock.cc", mutated);
  EXPECT_EQ(FindingLines(got, "lock-rank"), (std::vector<int>{7}));
  EXPECT_EQ(FindingLines(got, "lock-nesting"), (std::vector<int>{12, 18, 23, 29}));
  EXPECT_NE(got[1].find("the rank of g_inner cannot be attributed"), std::string::npos)
      << got[1];
}

// ---------------------------------------------------------------------------
// Golden + mutation: interprocedural may-acquire (rule family 1 of v3)
// ---------------------------------------------------------------------------

std::vector<std::string> Interlock(const std::string& path, const std::string& content,
                                   const std::string& lockgraph_dot = "",
                                   std::string* report_out = nullptr) {
  Analyzer analyzer;
  analyzer.AddFile(path, content);
  InterlockOptions options;
  options.lockgraph_dot = lockgraph_dot;
  options.lockgraph_path = lockgraph_dot.empty() ? "" : "runtime.dot";
  std::ostringstream report;
  std::vector<std::string> got = FormatAll(analyzer.RunInterlock(options, &report));
  if (report_out != nullptr) *report_out = report.str();
  return got;
}

std::string IpcSource() { return ReadFileOrDie(TestdataPath("interlock_ipc.cc")); }

TEST(HqcheckInterlockTest, TransitiveAcquireUnderLockIsReported) {
  std::string report;
  std::vector<std::string> got = Interlock("interlock_ipc.cc", IpcSource(), "", &report);
  ASSERT_EQ(got.size(), 1u) << report;
  EXPECT_NE(got[0].find("interlock_ipc.cc:39:"), std::string::npos) << got[0];
  EXPECT_NE(got[0].find("[may-acquire]"), std::string::npos) << got[0];
  EXPECT_NE(got[0].find("Front::BadUnderQueue calls Mid::Relay"), std::string::npos) << got[0];
  EXPECT_NE(got[0].find("holding `queue_mu_` (kQueue)"), std::string::npos) << got[0];
  EXPECT_NE(got[0].find("may acquire kStore"), std::string::npos) << got[0];
  // GoodUnderQueue (kLogging < kQueue) and the deferred lambda stay silent,
  // but both contribute to the proven static edge set.
  EXPECT_NE(report.find("kQueue -> kStore"), std::string::npos) << report;
  EXPECT_NE(report.find("kQueue -> kLogging"), std::string::npos) << report;
}

TEST(HqcheckInterlockMutationTest, RemovingTheLockSilencesTheFinding) {
  std::string mutated = ReplaceOnce(IpcSource(),
                                    "  void BadUnderQueue() {\n"
                                    "    common::MutexLock lock(&queue_mu_);\n",
                                    "  void BadUnderQueue() {\n");
  EXPECT_EQ(Interlock("interlock_ipc.cc", mutated), std::vector<std::string>{});
}

TEST(HqcheckInterlockMutationTest, MakingTheCalleeChainCleanSilencesTheFinding) {
  // Deep::Touch drops to kLogging: the whole chain becomes strictly
  // descending, so the fixpoint summary must clear the finding.
  std::string mutated =
      ReplaceOnce(IpcSource(), "    common::MutexLock lock(&store_mu_);",
                  "    common::MutexLock lock(&log_mu_);");
  EXPECT_EQ(Interlock("interlock_ipc.cc", mutated), std::vector<std::string>{});
}

TEST(HqcheckInterlockMutationTest, SuppressionConsumesAndStaleMarkerReports) {
  std::string mutated = ReplaceOnce(IpcSource(), "    mid_.Relay();\n  }\n\n  void Good",
                                    "    mid_.Relay();  // hqcheck:allow(may-acquire)\n  }\n\n"
                                    "  void Good");
  EXPECT_EQ(Interlock("interlock_ipc.cc", mutated), std::vector<std::string>{});
  // The same marker on a line that suppresses nothing is itself a finding.
  std::string stale = ReplaceOnce(IpcSource(), "    mid_.Trace();",
                                  "    mid_.Trace();  // hqcheck:allow(may-acquire)");
  std::vector<std::string> got = Interlock("interlock_ipc.cc", stale);
  ASSERT_EQ(got.size(), 2u);  // the real finding + the stale marker
  EXPECT_NE(got[1].find("stale hqcheck:allow(may-acquire) marker"), std::string::npos)
      << got[1];
}

TEST(HqcheckInterlockTest, RuntimeEdgeNotDerivableStaticallyIsReported) {
  // The runtime graph saw kCdw -> kStore; nothing in this file can derive
  // it, so the proof must admit the blind spot instead of staying quiet.
  std::string dot =
      "digraph lock_order {\n"
      "  kCdw -> kStore [label=\"3\"];\n"
      "}\n";
  std::vector<std::string> got = Interlock("interlock_ipc.cc", IpcSource(), dot);
  ASSERT_EQ(got.size(), 2u);  // the may-acquire finding + the diff gap
  EXPECT_NE(got[1].find("runtime.dot:0:"), std::string::npos) << got[1];
  EXPECT_NE(got[1].find("kCdw -> kStore"), std::string::npos) << got[1];
  EXPECT_NE(got[1].find("not derivable from the static call graph"), std::string::npos)
      << got[1];
}

TEST(HqcheckInterlockTest, RuntimeNameEdgesDiffThroughRankNames) {
  // Per-instance name edges (quoted nodes) map to ranks via the manifest or
  // the kRank fallback; a derivable pair passes, an underivable one reports.
  std::string derivable =
      "digraph lock_order {\n"
      "  \"kQueue\" -> \"kStore\" [label=\"1\"];\n"
      "}\n";
  std::vector<std::string> got = Interlock("interlock_ipc.cc", IpcSource(), derivable);
  ASSERT_EQ(got.size(), 1u);  // only the BadUnderQueue finding — edge derives
  std::string underivable =
      "digraph lock_order {\n"
      "  \"kCatalog\" -> \"kServer\" [label=\"1\"];\n"
      "}\n";
  got = Interlock("interlock_ipc.cc", IpcSource(), underivable);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_NE(got[1].find("runtime mutex-name edge \"kCatalog\" -> \"kServer\""),
            std::string::npos)
      << got[1];
}

TEST(HqcheckInterlockTest, RuntimeCycleIsReported) {
  std::string dot =
      "digraph lock_order {\n"
      "  kQueue -> kStore [label=\"1\"];\n"
      "  kStore -> kQueue [label=\"1\"];\n"
      "}\n";
  std::vector<std::string> got = Interlock("interlock_ipc.cc", IpcSource(), dot);
  bool saw_cycle = false;
  for (const std::string& d : got) {
    if (d.find("runtime lock-order graph contains a cycle") != std::string::npos) {
      saw_cycle = true;
    }
  }
  EXPECT_TRUE(saw_cycle);
}

// ---------------------------------------------------------------------------
// Golden + mutation: untrusted-input taint (rule family 2 of v3)
// ---------------------------------------------------------------------------

std::vector<std::string> Taint(const std::string& path, const std::string& content,
                               const std::string& surfaces = "decoder *::Decode\n") {
  Analyzer analyzer;
  analyzer.AddFile(path, content);
  TaintOptions options;
  options.surfaces_path = "surfaces.txt";
  options.surfaces = surfaces;
  return FormatAll(analyzer.RunTaint(options, nullptr));
}

std::string DecoderSource() { return ReadFileOrDie(TestdataPath("taint_decoder.cc")); }

TEST(HqcheckTaintTest, UncheckedWireCountReachingResizeIsReported) {
  std::vector<std::string> got = Taint("taint_decoder.cc", DecoderSource());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NE(got[0].find("taint_decoder.cc:12:"), std::string::npos) << got[0];
  EXPECT_NE(got[0].find("[taint]"), std::string::npos) << got[0];
  EXPECT_NE(got[0].find("`n` (wire-derived"), std::string::npos) << got[0];
  EXPECT_NE(got[0].find("WireCodec::Decode"), std::string::npos) << got[0];
  // `m` is remaining()-checked before reserve(): no second finding.
}

TEST(HqcheckTaintMutationTest, RemovingTheBoundsCheckAddsAFinding) {
  std::string mutated = ReplaceOnce(DecoderSource(),
                                    "    if (m > reader->remaining()) {\n"
                                    "      return common::Status::ProtocolError(\"bad element "
                                    "count\");\n"
                                    "    }\n",
                                    "");
  std::vector<std::string> got = Taint("taint_decoder.cc", mutated);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_NE(got[1].find("`m` (wire-derived"), std::string::npos) << got[1];
}

TEST(HqcheckTaintMutationTest, TrustedMarkerSuppressesWithJustification) {
  std::string mutated = ReplaceOnce(
      DecoderSource(), "    buf_.resize(n);",
      "    // hqcheck:trusted(taint): n is re-validated by the caller's frame bound\n"
      "    buf_.resize(n);");
  EXPECT_EQ(Taint("taint_decoder.cc", mutated), std::vector<std::string>{});
}

TEST(HqcheckTaintMutationTest, TrustedMarkerWithoutJustificationIsAFinding) {
  std::string mutated =
      ReplaceOnce(DecoderSource(), "    buf_.resize(n);",
                  "    buf_.resize(n);  // hqcheck:trusted(taint):");
  std::vector<std::string> got = Taint("taint_decoder.cc", mutated);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NE(got[0].find("has no justification"), std::string::npos) << got[0];
}

TEST(HqcheckTaintMutationTest, UnusedTrustedMarkerIsAFinding) {
  std::string mutated =
      ReplaceOnce(DecoderSource(), "    items_.reserve(m);",
                  "    // hqcheck:trusted(taint): nothing here needs it\n"
                  "    items_.reserve(m);");
  std::vector<std::string> got = Taint("taint_decoder.cc", mutated);
  ASSERT_EQ(got.size(), 2u);  // the real resize(n) finding + the stale marker
  EXPECT_NE(got[1].find("unused hqcheck:trusted(taint) marker"), std::string::npos) << got[1];
}

TEST(HqcheckTaintMutationTest, PlainAllowMarkerIsRejected) {
  std::string mutated = ReplaceOnce(DecoderSource(), "    buf_.resize(n);",
                                    "    buf_.resize(n);  // hqcheck:allow(taint)");
  std::vector<std::string> got = Taint("taint_decoder.cc", mutated);
  ASSERT_EQ(got.size(), 2u);  // the unsuppressed finding + the rejection
  EXPECT_NE(got[1].find("hqcheck:allow(taint) is not honoured"), std::string::npos) << got[1];
}

TEST(HqcheckTaintTest, StaleDecoderPatternIsAFinding) {
  std::vector<std::string> got = Taint("taint_decoder.cc", DecoderSource(),
                                       "decoder *::Decode\ndecoder Gone::Decoder\n");
  ASSERT_EQ(got.size(), 2u);
  EXPECT_NE(got[0].find("surfaces.txt:2:"), std::string::npos) << got[0];
  EXPECT_NE(got[0].find("`Gone::Decoder` matches no function"), std::string::npos) << got[0];
}

TEST(HqcheckTaintTest, NonDecoderFunctionsAreOutOfScope) {
  // The same unchecked resize in a function the surfaces manifest does not
  // name must stay silent — taint is a decoder-frontier rule, not repo-wide.
  std::vector<std::string> got =
      Taint("taint_decoder.cc", DecoderSource(), "decoder NoSuch::Thing\n");
  ASSERT_EQ(got.size(), 1u);  // only the stale-pattern audit
  EXPECT_NE(got[0].find("matches no function"), std::string::npos) << got[0];
}

// ---------------------------------------------------------------------------
// Hot-path symbol proof over synthetic disassembly
// ---------------------------------------------------------------------------

// demo::KernelHot() -> demo::Helper() -> <leaf>, in one fake object file.
std::string FakeDisasm(const std::string& leaf) {
  return "fake/kernels.o:     file format elf64-x86-64\n"
         "\n"
         "0000000000000000 <_ZN4demo9KernelHotEv>:\n"
         "   4:\tcall   9 <_ZN4demo9KernelHotEv+0x9>\n"
         "\t\t\t5: R_X86_64_PLT32\t_ZN4demo6HelperEv-0x4\n"
         "\n"
         "0000000000000020 <_ZN4demo6HelperEv>:\n"
         "  24:\tcall   29 <_ZN4demo6HelperEv+0x9>\n"
         "\t\t\t25: R_X86_64_PLT32\t" +
         leaf + "-0x4\n";
}

std::vector<Diagnostic> Prove(const std::string& disasm, const std::string& roots,
                              std::vector<AllowEntry> allow = {}) {
  HotpathProofOptions options;
  options.roots_regex = roots;
  options.allow = std::move(allow);
  std::ostringstream report;
  return RunHotpathProof(disasm, options, &report);
}

TEST(HqcheckHotpathTest, LockSymbolReachableThroughCalleeIsReported) {
  std::vector<std::string> got = FormatAll(Prove(FakeDisasm("pthread_mutex_lock"), "::Kernel"));
  EXPECT_EQ(got, (std::vector<std::string>{
                     "fake/kernels.o:0: [hotpath-symbol] lock symbol `pthread_mutex_lock` "
                     "is reachable from hot-path root `demo::KernelHot()`: "
                     "demo::KernelHot() -> demo::Helper() -> pthread_mutex_lock",
                 }));
}

TEST(HqcheckHotpathTest, SeededAllocationIsReported) {
  // The satellite-4 mutation: a raw operator new reachable from the kernel.
  std::vector<std::string> got = FormatAll(Prove(FakeDisasm("_Znwm"), "::Kernel"));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NE(got[0].find("alloc symbol `operator new(unsigned long)`"), std::string::npos)
      << got[0];
  EXPECT_NE(got[0].find("demo::KernelHot() -> demo::Helper() -> operator new"),
            std::string::npos)
      << got[0];
}

TEST(HqcheckHotpathTest, SeededPerRowStringIsReported) {
  // std::to_string and a std::string temporary in a kernel body.
  for (const char* leaf : {"_ZNSt7__cxx119to_stringEi",
                           "_ZNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEE9_M_createERmm"}) {
    std::vector<std::string> got = FormatAll(Prove(FakeDisasm(leaf), "::Kernel"));
    ASSERT_EQ(got.size(), 1u) << leaf;
    EXPECT_NE(got[0].find("per-value-string symbol"), std::string::npos) << got[0];
  }
}

TEST(HqcheckHotpathTest, AuditedFrontierCutsTheWalk) {
  std::vector<Diagnostic> got =
      Prove(FakeDisasm("_Znwm"), "::Kernel",
            {{"^operator new", "amortized growth, runtime-gated by the realloc counter"}});
  EXPECT_TRUE(got.empty());
}

TEST(HqcheckHotpathTest, BenignLeafIsClean) {
  EXPECT_TRUE(Prove(FakeDisasm("memcpy"), "::Kernel").empty());
}

TEST(HqcheckHotpathTest, EmptyRootSetFailsTheProof) {
  std::vector<std::string> got = FormatAll(Prove(FakeDisasm("memcpy"), "::NoSuchRoot"));
  EXPECT_EQ(got, (std::vector<std::string>{
                     "<roots>:0: [hotpath-symbol] no defined symbol matches roots regex "
                     "`::NoSuchRoot`; an empty proof proves nothing — fix the regex or "
                     "the object list",
                 }));
}

// The roots regex replaced the retired line linter's per-file hotpath marker:
// the same allocation outside the root set is not the proof's business.
TEST(HqlintGoldenTest, PerRowAllocOnlyFiresInMarkedFiles) {
  const std::string disasm = FakeDisasm("memcpy") +
                             "\n"
                             "0000000000000040 <_ZN4demo4ColdEv>:\n"
                             "  44:\tcall   49 <_ZN4demo4ColdEv+0x9>\n"
                             "\t\t\t45: R_X86_64_PLT32\t_ZNSt7__cxx119to_stringEi-0x4\n";
  EXPECT_TRUE(Prove(disasm, "::Kernel").empty());
  std::vector<std::string> got = FormatAll(Prove(disasm, "::Cold"));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NE(got[0].find("per-value-string symbol"), std::string::npos) << got[0];
}

TEST(HqcheckHotpathTest, AllowFileRequiresJustifications) {
  std::vector<Diagnostic> diags;
  std::vector<AllowEntry> entries =
      ParseAllowFile("allow.txt", "^operator new\n^std::__throw_  # growth guard\n", &diags);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].pattern, "^std::__throw_");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(Format(diags[0]).find("has no justification"), std::string::npos);
}

// ---------------------------------------------------------------------------
// CLI driver
// ---------------------------------------------------------------------------

TEST(HqcheckCliTest, ExitCodesAndUsage) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(RunHqcheck({TestdataPath("clean.cc")}, out, err), 0);
  EXPECT_EQ(RunHqcheck({TestdataPath("enum_switch.cc")}, out, err), 1);
  EXPECT_EQ(RunHqcheck({}, out, err), 2);
  EXPECT_EQ(RunHqcheck({"--bogus-flag", TestdataPath("clean.cc")}, out, err), 2);
}

// The retired line linter's CLI contract, kept under its test names: hqcheck
// exits 0 on clean input, 1 on findings, 2 on a usage or I/O error.
TEST(HqlintCliTest, CleanFileExitsZero) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(RunHqcheck({TestdataPath("clean_globals.cc")}, out, err), 0);
  EXPECT_EQ(out.str(), "");
  EXPECT_EQ(err.str(), "");
}

TEST(HqlintCliTest, ViolationsExitOneAndPrintSummary) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(RunHqcheck({TestdataPath("bad_header.h")}, out, err), 1);
  EXPECT_NE(out.str().find("[include-hygiene]"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("2 violations in 1 files"), std::string::npos) << out.str();
}

TEST(HqlintCliTest, NoInputsIsAUsageError) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(RunHqcheck({}, out, err), 2);
  EXPECT_NE(err.str().find("usage:"), std::string::npos) << err.str();
}

TEST(HqlintCliTest, MissingPathIsAnIoError) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(RunHqcheck({TestdataPath("does_not_exist.cc")}, out, err), 2);
  EXPECT_NE(err.str().find("cannot read"), std::string::npos) << err.str();
}

TEST(HqlintCliTest, UnknownFlagIsAUsageError) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(RunHqcheck({"--frobnicate", TestdataPath("clean_globals.cc")}, out, err), 2);
}

TEST(HqlintCliTest, RootRelativizesPaths) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(RunHqcheck({"--root", HQCHECK_TESTDATA_DIR, TestdataPath("bad_header.h")}, out, err),
            1);
  EXPECT_EQ(out.str().rfind("bad_header.h:2:", 0), 0u) << out.str();
}

TEST(HqcheckCliTest, InterlockModeExitCodes) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(RunHqcheck({"--interlock", TestdataPath("interlock_ipc.cc")}, out, err), 1)
      << out.str() << err.str();
  EXPECT_NE(out.str().find("[may-acquire]"), std::string::npos) << out.str();
  EXPECT_EQ(RunHqcheck({"--interlock", TestdataPath("clean.cc")}, out, err), 0);
}

std::string WriteTempFile(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  EXPECT_TRUE(out.good()) << "cannot write " << path;
  return path;
}

TEST(HqcheckCliTest, TaintModeExitCodes) {
  std::ostringstream out;
  std::ostringstream err;
  const std::string surfaces = WriteTempFile("hq_surfaces.txt", "decoder *::Decode\n");
  EXPECT_EQ(RunHqcheck(
                {"--taint", "--surfaces", surfaces, TestdataPath("taint_decoder.cc")}, out, err),
            1)
      << out.str() << err.str();
  EXPECT_NE(out.str().find("[taint]"), std::string::npos) << out.str();
  // A clean decoder frontier exits 0 — the pattern must match something or
  // the stale-pattern audit itself fails the run.
  const std::string clean_surfaces = WriteTempFile("hq_surfaces_clean.txt", "decoder Store::*\n");
  EXPECT_EQ(RunHqcheck(
                {"--taint", "--surfaces", clean_surfaces, TestdataPath("clean.cc")}, out, err),
            0)
      << out.str() << err.str();
  // --taint without --surfaces is a usage error, not a vacuous pass.
  EXPECT_EQ(RunHqcheck({"--taint", TestdataPath("clean.cc")}, out, err), 2);
}

// ---------------------------------------------------------------------------
// Source-digest stamp: stale-object proofs must fail loudly
// ---------------------------------------------------------------------------

TEST(HqcheckStampTest, HotpathProofFailsWhenStampedSourcesDrift) {
  const std::string src = WriteTempFile("hq_stamp_src.cc", "int answer = 42;\n");
  const std::string stamp_path = ::testing::TempDir() + "hq_stamp.txt";
  const std::string disasm = WriteTempFile("hq_stamp_disasm.txt", FakeDisasm("memcpy"));
  std::ostringstream out;
  std::ostringstream err;
  ASSERT_EQ(RunHqcheck({"--make-stamp", stamp_path, src}, out, err), 0) << err.str();
  // Fresh stamp: the proof runs and passes.
  EXPECT_EQ(RunHqcheck({"--hotpath", "--roots", "::Kernel", "--stamp", stamp_path, "--disasm",
                        disasm},
                       out, err),
            0)
      << err.str();
  // Source drifts after the stamp was taken: the proof must refuse to run
  // rather than pass vacuously over stale objects.
  WriteTempFile("hq_stamp_src.cc", "int answer = 43;\n");
  err.str("");
  EXPECT_EQ(RunHqcheck({"--hotpath", "--roots", "::Kernel", "--stamp", stamp_path, "--disasm",
                        disasm},
                       out, err),
            2);
  EXPECT_NE(err.str().find("stale proof inputs"), std::string::npos) << err.str();
}

TEST(HqcheckStampTest, MissingOrEmptyStampFails) {
  const std::string disasm = WriteTempFile("hq_stamp_disasm2.txt", FakeDisasm("memcpy"));
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(RunHqcheck({"--hotpath", "--roots", "::Kernel", "--stamp",
                        ::testing::TempDir() + "hq_no_such_stamp.txt", "--disasm", disasm},
                       out, err),
            2);
  const std::string empty = WriteTempFile("hq_empty_stamp.txt", "");
  EXPECT_EQ(
      RunHqcheck({"--hotpath", "--roots", "::Kernel", "--stamp", empty, "--disasm", disasm},
                 out, err),
      2);
}

}  // namespace
}  // namespace hqcheck
