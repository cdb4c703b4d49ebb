#include <set>
#include <string>
#include <vector>

#include "hqcheck.h"
#include "internal.h"

/// \file file_rules.cc
/// Source rules that need tokens but no declaration model (naked-mutex,
/// new-delete, include-hygiene, unbounded-retry, throwing-conversion), and
/// the stale-allow audit every mode that honours allow markers runs last.

namespace hqcheck::internal {

namespace {

const std::set<std::string> kStdSyncTypes = {
    "mutex",        "recursive_mutex",    "timed_mutex",
    "shared_mutex", "shared_timed_mutex", "lock_guard",
    "unique_lock",  "scoped_lock",        "condition_variable",
    "condition_variable_any"};

/// I/O-shaped member calls a retry loop would wrap (the load-path hops
/// RetryPolicy covers: store puts/gets, CDW statements, staged writes).
const std::set<std::string> kRetryIoMembers = {"Put",        "PutBatch", "Get",
                                               "Execute",    "ExecuteSql", "CopyInto",
                                               "Append",     "Write",    "Read"};
const std::set<std::string> kRetryPolicyNames = {"RetryPolicy", "RetryAttempt",
                                                 "BackoffMicros"};

/// std:: text-to-number conversions that throw on malformed or out-of-range
/// input.
const std::set<std::string> kThrowingConversions = {"stoi",  "stol", "stoul", "stoll",
                                                    "stoull", "stof", "stod",  "stold"};

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool StatementBoundary(const Token& t) {
  return IsPunct(t, ";") || IsPunct(t, "{") || IsPunct(t, "}");
}

}  // namespace

const std::set<std::string>& SourceRules() {
  static const std::set<std::string> rules = {
      "guarded-field",   "lock-rank",           "lock-nesting",    "enum-switch",
      "naked-mutex",     "new-delete",          "include-hygiene", "blocking-under-lock",
      "unbounded-retry", "throwing-conversion", "stale-allow"};
  return rules;
}

const std::set<std::string>& SleepCalls() {
  static const std::set<std::string> calls = {"sleep_for", "sleep_until", "usleep",
                                              "nanosleep"};
  return calls;
}

bool TestLocalPath(const std::string& path) {
  for (const std::string dir : {"tests/", "bench/"}) {
    const size_t pos = path.find(dir);
    if (pos != std::string::npos && (pos == 0 || path[pos - 1] == '/')) return true;
  }
  return false;
}

bool IsMemberCall(const std::vector<Token>& t, size_t i) {
  return i > 0 && (IsPunct(t[i - 1], ".") || IsPunct(t[i - 1], "->")) &&
         IsPunct(t[i + 1], "(");
}

void CheckFileRules(const LexedFile& f, std::vector<Diagnostic>* diags) {
  const std::vector<Token>& t = f.tokens;
  auto report = [&](int line, const char* rule, std::string message) {
    if (!f.Allowed(line, rule)) diags->push_back({f.path, line, rule, std::move(message)});
  };

  const bool header = EndsWith(f.path, ".h") || EndsWith(f.path, ".hpp");
  if (header && f.first_code_line != 0 && !f.opens_with_pragma_once) {
    report(f.first_code_line, "include-hygiene",
           "header must open with #pragma once before any other code");
  }
  // sync.h wraps the std primitives; retry.{h,cc} implement the backoff loop.
  const bool sync_layer = EndsWith(f.path, "common/sync.h");
  const bool retry_layer =
      EndsWith(f.path, "common/retry.h") || EndsWith(f.path, "common/retry.cc");
  const bool production = !TestLocalPath(f.path);

  int naked_line = 0;  // one naked-mutex finding per line
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string& x = t[i].text;

    if (x == "std" && !sync_layer && IsPunct(t[i + 1], "::") &&
        kStdSyncTypes.count(t[i + 2].text) != 0 && t[i].line != naked_line) {
      naked_line = t[i].line;
      report(t[i].line, "naked-mutex",
             "use common::Mutex/MutexLock/CondVar from common/sync.h instead of std::" +
                 t[i + 2].text);
    } else if (x == "std" && production && IsPunct(t[i + 1], "::") &&
               kThrowingConversions.count(t[i + 2].text) != 0 && IsPunct(t[i + 3], "(")) {
      // Nothing in the server catches exceptions: one bad literal from a
      // client would abort the whole node.
      report(t[i].line, "throwing-conversion",
             "std::" + t[i + 2].text +
                 " throws on malformed or out-of-range text and nothing catches it; parse "
                 "with common::ParseNumber (std::from_chars) and return a Status");
    } else if (x == "using" && header && t[i + 1].text == "namespace") {
      report(t[i].line, "include-hygiene",
             "`using namespace` in a header leaks into every includer");
    } else if (x == "delete" && !(i > 0 && (t[i - 1].text == "operator" ||
                                            IsPunct(t[i - 1], "=")))) {
      report(t[i].line, "new-delete", "raw `delete`; ownership must live in unique_ptr/shared_ptr");
    } else if (x == "new" && !(i > 0 && t[i - 1].text == "operator")) {
      // A `new` handed straight to a smart pointer in the same statement is
      // the factory idiom; anything else is an owning raw pointer.
      bool factory = false;
      for (size_t j = i; j > 0 && !StatementBoundary(t[j - 1]); --j) {
        if (t[j - 1].text == "unique_ptr" || t[j - 1].text == "shared_ptr") factory = true;
      }
      if (!factory) {
        report(t[i].line, "new-delete",
               "raw `new` outside a smart-pointer factory; wrap the result in "
               "unique_ptr/shared_ptr at the allocation site");
      }
    } else if ((x == "for" || x == "while") && !retry_layer && IsPunct(t[i + 1], "(")) {
      // A loop whose body both sleeps and issues an I/O-shaped member call is
      // a hand-rolled retry loop: no attempt bound, jitter, breaker or stats.
      const size_t open = MatchingClose(t, i + 1) + 1;
      if (open >= t.size() || !IsPunct(t[open], "{")) continue;
      const size_t close = MatchingClose(t, open);
      bool sleeps = false;
      bool io = false;
      bool policy = false;
      for (size_t k = i + 2; k < close; ++k) {  // the condition counts too
        if (t[k].kind != TokKind::kIdent) continue;
        sleeps = sleeps || SleepCalls().count(t[k].text) != 0;
        io = io || (kRetryIoMembers.count(t[k].text) != 0 && IsMemberCall(t, k));
        policy = policy || kRetryPolicyNames.count(t[k].text) != 0;
      }
      if (sleeps && io && !policy) {
        report(t[i].line, "unbounded-retry",
               "hand-rolled retry loop (sleep + I/O call) with no attempt bound; use "
               "common::RetryPolicy (common/retry.h) for bounded backoff with jitter "
               "and stats");
      }
    }
  }
}

void AuditAllows(const std::vector<LexedFile>& lexed, const std::set<std::string>& ran,
                 std::vector<Diagnostic>* diags) {
  for (const LexedFile& f : lexed) {
    for (size_t l = 0; l < f.allows.size(); ++l) {
      const int line = static_cast<int>(l) + 1;
      for (const std::string& rule : f.allows[l]) {
        // Markers for another mode's rules are that mode's to audit; a name
        // no mode knows is stale everywhere (a typo suppresses nothing).
        const bool known = SourceRules().count(rule) != 0 || rule == "may-acquire" ||
                           rule == "taint";
        if (rule == "stale-allow" || (known && ran.count(rule) == 0)) continue;
        if (l < f.used.size() && f.used[l].count(rule) != 0) continue;
        if (f.Allowed(line, "stale-allow")) continue;
        diags->push_back({f.path, line, "stale-allow",
                          "stale hqcheck:allow(" + rule +
                              ") marker: no finding is suppressed here any more — remove "
                              "it (or fix the rule name)"});
      }
    }
  }
}

}  // namespace hqcheck::internal
