#include "hqcheck.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "internal.h"

namespace hqcheck {

namespace {

bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_'; }
bool IsIdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_'; }

}  // namespace

namespace internal {

namespace {
const char* const kLockRankNames[] = {"kLogging", "kObs",  "kQueue", "kPool",   "kStore",
                                      "kCatalog", "kJob",  "kCdw",   "kServer", "kLifecycle"};
}  // namespace

int LockRankIndex(const std::string& name) {
  for (size_t i = 0; i < sizeof(kLockRankNames) / sizeof(kLockRankNames[0]); ++i) {
    if (name == kLockRankNames[i]) return static_cast<int>(i);
  }
  return -1;
}

const char* LockRankNameAt(int index) {
  return index >= 0 && index < kNumLockRanks ? kLockRankNames[index] : "k?";
}

}  // namespace internal

using internal::LockRankIndex;

std::string Format(const Diagnostic& d) {
  std::ostringstream os;
  os << d.path << ":" << d.line << ": [" << d.rule << "] " << d.message;
  return os.str();
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

bool LexedFile::Allowed(int line, const std::string& rule) const {
  for (int l : {line, line - 1}) {
    if (l < 1 || l > static_cast<int>(allows.size())) continue;
    const size_t idx = static_cast<size_t>(l - 1);
    if (allows[idx].count(rule) == 0) continue;
    used.resize(allows.size());
    used[idx].insert(rule);
    return true;
  }
  return false;
}

const TrustedMarker* LexedFile::Trusted(int line, const std::string& rule) const {
  auto find = [&](int l) -> const TrustedMarker* {
    for (const TrustedMarker& m : trusted) {
      if (m.line == l && m.rule == rule) return &m;
    }
    return nullptr;
  };
  const TrustedMarker* m = find(line);
  return m != nullptr ? m : find(line - 1);
}

LexedFile Lex(std::string path, const std::string& content) {
  LexedFile out;
  out.path = std::move(path);
  int line = 1;
  size_t i = 0;
  const size_t n = content.size();
  auto allow_at = [&](int l, std::string rule) {
    out.allows.resize(std::max(out.allows.size(), static_cast<size_t>(l)));
    out.allows[static_cast<size_t>(l - 1)].insert(std::move(rule));
  };
  // Harvests allow and trusted markers out of comment text spanning
  // [begin, end); `at_line` is the line the comment starts on (markers in a
  // multi-line block comment land on their own line).
  auto harvest = [&](size_t begin, size_t end, int at_line) {
    int l = at_line;
    for (size_t p = begin; p < end;) {
      if (content[p] == '\n') {
        ++l;
        ++p;
        continue;
      }
      const std::string kMarker = "hqcheck:allow(";
      const std::string kTrusted = "hqcheck:trusted(";
      if (content.compare(p, kMarker.size(), kMarker) == 0) {
        size_t open = p + kMarker.size();
        size_t close = content.find(')', open);
        std::string rule = close < end ? content.substr(open, close - open) : "";
        // Prose like `allow(<rule>)` in a doc comment is not a marker.
        if (!rule.empty() && rule.find_first_not_of("abcdefghijklmnopqrstuvwxyz-") ==
                                 std::string::npos) {
          allow_at(l, std::move(rule));
        }
        p = open;
      } else if (content.compare(p, kTrusted.size(), kTrusted) == 0) {
        size_t open = p + kTrusted.size();
        size_t close = content.find(')', open);
        if (close != std::string::npos && close < end) {
          TrustedMarker m;
          m.line = l;
          m.rule = content.substr(open, close - open);
          // Justification: everything after an optional `:` up to the end of
          // the comment line, trimmed. An empty justification is the taint
          // pass's problem to reject, not the lexer's.
          size_t j = close + 1;
          if (j < end && content[j] == ':') ++j;
          size_t stop = j;
          while (stop < end && content[stop] != '\n') ++stop;
          std::string just = content.substr(j, stop - j);
          size_t b = just.find_first_not_of(" \t");
          size_t e = just.find_last_not_of(" \t");
          m.justification =
              b == std::string::npos ? "" : just.substr(b, e == std::string::npos ? 0 : e - b + 1);
          out.trusted.push_back(std::move(m));
        }
        p = open;
      } else {
        ++p;
      }
    }
  };

  bool at_line_start = true;  // only whitespace seen on this line so far
  while (i < n) {
    char c = content[i];
    char next = i + 1 < n ? content[i + 1] : '\0';
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }
    if (c == '#' && at_line_start) {
      // Preprocessor directive: skip to end of line, honouring backslash
      // continuations. Macro bodies are not analysed (HQ_GUARDED_BY's own
      // #define must not register as a declaration).
      if (out.first_code_line == 0 && out.tokens.empty()) {
        out.first_code_line = line;
        std::istringstream words(content.substr(i + 1, content.find('\n', i) - i - 1));
        std::string pragma, once, extra;
        out.opens_with_pragma_once =
            words >> pragma >> once && pragma == "pragma" && once == "once" && !(words >> extra);
      }
      while (i < n) {
        if (content[i] == '\\' && i + 1 < n && content[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        if (content[i] == '\n') break;
        ++i;
      }
      continue;
    }
    at_line_start = false;
    if (c == '/' && next == '/') {
      size_t end = content.find('\n', i);
      if (end == std::string::npos) end = n;
      harvest(i, end, line);
      i = end;
      continue;
    }
    if (c == '/' && next == '*') {
      size_t end = content.find("*/", i + 2);
      size_t stop = end == std::string::npos ? n : end;
      harvest(i, stop, line);
      for (size_t p = i; p < stop; ++p) {
        if (content[p] == '\n') ++line;
      }
      i = end == std::string::npos ? n : end + 2;
      continue;
    }
    if (c == '"') {
      // Raw string?  An immediately preceding R / u8R / LR / uR / UR ident
      // token was already emitted; merge it into this literal.
      bool raw = false;
      if (!out.tokens.empty() && out.tokens.back().kind == TokKind::kIdent) {
        const std::string& prev = out.tokens.back().text;
        if (prev == "R" || prev == "u8R" || prev == "LR" || prev == "uR" || prev == "UR") {
          raw = true;
          out.tokens.pop_back();
        }
      }
      if (raw) {
        size_t open = content.find('(', i + 1);
        std::string delim =
            open == std::string::npos ? "" : content.substr(i + 1, open - i - 1);
        std::string closer = ")" + delim + "\"";
        size_t end = open == std::string::npos ? std::string::npos
                                               : content.find(closer, open + 1);
        int start_line = line;
        size_t stop = end == std::string::npos ? n : end;
        std::string text =
            open == std::string::npos ? "" : content.substr(open + 1, stop - open - 1);
        for (size_t p = i; p < stop; ++p) {
          if (content[p] == '\n') ++line;
        }
        out.tokens.push_back({TokKind::kString, std::move(text), start_line});
        i = end == std::string::npos ? n : end + closer.size();
        continue;
      }
      std::string text;
      size_t p = i + 1;
      while (p < n && content[p] != '"' && content[p] != '\n') {
        if (content[p] == '\\' && p + 1 < n) {
          text.push_back(content[p + 1]);
          p += 2;
        } else {
          text.push_back(content[p]);
          ++p;
        }
      }
      out.tokens.push_back({TokKind::kString, std::move(text), line});
      i = p < n && content[p] == '"' ? p + 1 : p;
      continue;
    }
    if (c == '\'' && !(!out.tokens.empty() && out.tokens.back().kind == TokKind::kNumber &&
                       i > 0 && IsIdentChar(content[i - 1]))) {
      std::string text;
      size_t p = i + 1;
      while (p < n && content[p] != '\'' && content[p] != '\n') {
        if (content[p] == '\\' && p + 1 < n) {
          text.push_back(content[p + 1]);
          p += 2;
        } else {
          text.push_back(content[p]);
          ++p;
        }
      }
      out.tokens.push_back({TokKind::kChar, std::move(text), line});
      i = p < n && content[p] == '\'' ? p + 1 : p;
      continue;
    }
    if (IsIdentStart(c)) {
      size_t p = i;
      while (p < n && IsIdentChar(content[p])) ++p;
      out.tokens.push_back({TokKind::kIdent, content.substr(i, p - i), line});
      i = p;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      size_t p = i;
      while (p < n && (IsIdentChar(content[p]) || content[p] == '\'' ||
                       (content[p] == '.' && p + 1 < n &&
                        std::isdigit(static_cast<unsigned char>(content[p + 1])) != 0))) {
        ++p;
      }
      out.tokens.push_back({TokKind::kNumber, content.substr(i, p - i), line});
      i = p;
      continue;
    }
    // Punctuators. Multi-char ones the parser cares about; everything else
    // single-char. `>>` stays split so template brackets balance.
    static const char* const kMulti[] = {"::", "->", "<=>", "<<=", ">>=", "...", "<<",
                                         "<=", ">=", "==",  "!=",  "&&",  "||",  "+=",
                                         "-=", "*=", "/=",  "%=",  "&=",  "|=",  "^=",
                                         "++", "--", ".*",  "->*"};
    std::string punct(1, c);
    for (const char* m : kMulti) {
      size_t len = std::char_traits<char>::length(m);
      if (content.compare(i, len, m) == 0 && len > punct.size()) punct = m;
    }
    out.tokens.push_back({TokKind::kPunct, punct, line});
    i += punct.size();
  }
  if (out.first_code_line == 0 && !out.tokens.empty()) {
    out.first_code_line = out.tokens.front().line;
  }
  out.line_count = line;
  out.allows.resize(static_cast<size_t>(line));
  out.tokens.push_back({TokKind::kEnd, "", line});
  return out;
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

std::vector<ManifestEntry> ParseManifest(const std::string& path, const std::string& content,
                                         std::vector<Diagnostic>* diags) {
  std::vector<ManifestEntry> entries;
  std::istringstream in(content);
  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    std::string text = raw.substr(0, raw.find('#'));
    std::istringstream fields(text);
    std::string rank, label, extra;
    if (!(fields >> rank)) continue;  // blank / comment-only line
    if (!(fields >> label) || (fields >> extra)) {
      diags->push_back({path, line, "lock-rank",
                        "manifest line must be `<rank-name> <mutex-label>`"});
      continue;
    }
    if (LockRankIndex(rank) < 0) {
      diags->push_back({path, line, "lock-rank",
                        "unknown LockRank `" + rank + "` in manifest (see common/sync.h)"});
      continue;
    }
    entries.push_back({rank, label, line});
  }
  return entries;
}

// ---------------------------------------------------------------------------
// Declaration collection (pass 1)
// ---------------------------------------------------------------------------

namespace {

/// One entry of the scope stack a token walk maintains.
struct Scope {
  enum Kind { kNamespace, kClass, kBlock } kind = kBlock;
  std::string name;  // class/namespace name; "" for blocks
};

}  // namespace

// The declaration model and token-walk helpers are shared with the
// interprocedural (interlock.cc) and taint (taint.cc) passes via internal.h.
namespace internal {

const std::set<std::string>& ControlKeywords() {
  static const std::set<std::string> kw = {
      "if",     "for",    "while",  "switch",   "catch",  "return", "do",
      "else",   "sizeof", "new",    "delete",   "throw",  "case",   "default",
      "static_assert", "alignas",  "alignof",  "decltype", "noexcept"};
  return kw;
}

/// Token index of the matching closer for the opener at `i` ("(", "{", "[",
/// all tracked together), or the kEnd index when unbalanced.
size_t MatchingClose(const std::vector<Token>& t, size_t i) {
  int depth = 0;
  for (size_t j = i; j + 1 < t.size(); ++j) {
    const std::string& x = t[j].text;
    if (t[j].kind == TokKind::kPunct) {
      if (x == "(" || x == "{" || x == "[") ++depth;
      if (x == ")" || x == "}" || x == "]") {
        --depth;
        if (depth == 0) return j;
      }
    }
  }
  return t.size() - 1;
}

/// Last identifier token text in [begin, end) — the resolved name of a
/// guard expression like `&job->mu_` or `this->mu_`.
std::string LastIdent(const std::vector<Token>& t, size_t begin, size_t end) {
  std::string last;
  for (size_t j = begin; j < end; ++j) {
    if (t[j].kind == TokKind::kIdent) last = t[j].text;
  }
  return last;
}

void CollectDeclarations(const LexedFile& f, Declarations* decls) {
  const std::vector<Token>& t = f.tokens;
  std::vector<Scope> scopes;
  auto current_class = [&]() -> std::string {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->kind == Scope::kClass) return it->name;
    }
    return "";
  };
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    const Token& tok = t[i];
    if (tok.kind == TokKind::kPunct) {
      if (tok.text == "{") scopes.push_back({Scope::kBlock, ""});
      if (tok.text == "}" && !scopes.empty()) scopes.pop_back();
      continue;
    }
    if (tok.kind != TokKind::kIdent) continue;

    if (tok.text == "namespace") {
      // namespace a::b {  |  namespace {
      size_t j = i + 1;
      std::string name;
      while (t[j].kind == TokKind::kIdent || t[j].text == "::") {
        name += t[j].text;
        ++j;
      }
      if (t[j].text == "{") {
        scopes.push_back({Scope::kNamespace, name});
        i = j;
      }
      continue;
    }

    if (tok.text == "enum") {
      size_t j = i + 1;
      if (t[j].kind == TokKind::kIdent && (t[j].text == "class" || t[j].text == "struct")) ++j;
      std::string name;
      int name_line = t[j].line;
      if (t[j].kind == TokKind::kIdent) {
        name = t[j].text;
        ++j;
      }
      while (j + 1 < t.size() && t[j].text != "{" && t[j].text != ";") ++j;
      if (t[j].text != "{" || name.empty()) {
        // Anonymous enum or forward declaration: depth bookkeeping for the
        // `{` happens on the next loop iteration; nothing to record.
        i = j > i ? j - 1 : i;
        continue;
      }
      size_t close = MatchingClose(t, j);
      EnumInfo info;
      info.name = name;
      info.path = f.path;
      info.line = name_line;
      size_t k = j + 1;
      while (k < close) {
        if (t[k].kind == TokKind::kIdent) {
          info.enumerators.push_back(t[k].text);
          // Skip the initializer (if any) to the next comma at this level.
          int depth = 0;
          while (k < close) {
            const std::string& x = t[k].text;
            if (x == "(" || x == "{" || x == "[") ++depth;
            if (x == ")" || x == "}" || x == "]") --depth;
            if (depth == 0 && x == ",") break;
            ++k;
          }
        }
        ++k;
      }
      auto it = decls->enums.find(name);
      if (it != decls->enums.end() && it->second.enumerators != info.enumerators) {
        decls->ambiguous_enums.insert(name);
      } else {
        decls->enums[name] = info;
        for (const std::string& e : info.enumerators) decls->enumerator_owners[e].insert(name);
      }
      i = close;  // enum bodies contain no other declarations
      continue;
    }

    if (tok.text == "class" || tok.text == "struct") {
      // Distinguish a definition (`{` before `;`) from forward declarations
      // and elaborated uses (`struct Foo* p`).
      size_t j = i + 1;
      std::string name;
      if (t[j].kind == TokKind::kIdent && ControlKeywords().count(t[j].text) == 0) {
        name = t[j].text;
        ++j;
      }
      size_t k = j;
      int angle = 0;
      bool definition = false;
      while (k + 1 < t.size()) {
        const std::string& x = t[k].text;
        if (x == "<") ++angle;
        if (x == ">") --angle;
        if (angle == 0 && (x == ";" || x == "=" || x == ")" || x == ",")) break;
        if (angle == 0 && x == "{") {
          definition = true;
          break;
        }
        ++k;
      }
      if (definition) {
        if (!name.empty()) {
          decls->class_names.insert(name);
          // Inheritance clause `class D : public B1, private ns::B2<T> {`:
          // record B -> D so virtual calls through a base resolve to every
          // override. The base is the last identifier of each segment at
          // angle depth 0 (drops namespace qualifiers and template args).
          if (t[j].text == ":") {
            int angle = 0;
            std::string base;
            for (size_t b = j + 1; b <= k; ++b) {
              const std::string& x = t[b].text;
              if (x == "<") ++angle;
              if (x == ">") --angle;
              if (angle > 0) continue;
              if (t[b].kind == TokKind::kIdent && x != "public" && x != "protected" &&
                  x != "private" && x != "virtual") {
                base = x;
              }
              if (x == "," || x == "{") {
                if (!base.empty()) decls->derived[base].insert(name);
                base.clear();
              }
            }
          }
        }
        scopes.push_back({Scope::kClass, name});
        i = k;  // consume through the `{`
      }
      continue;
    }

    if (tok.text == "HQ_GUARDED_BY" && t[i + 1].text == "(") {
      size_t close = MatchingClose(t, i + 1);
      std::string guard = LastIdent(t, i + 2, close);
      if (i > 0 && t[i - 1].kind == TokKind::kIdent && !guard.empty()) {
        std::string cls = current_class();
        if (!cls.empty()) decls->guarded[cls][t[i - 1].text] = guard;
      }
      i = close;
      continue;
    }

    if (tok.text == "HQ_REQUIRES" && t[i + 1].text == "(") {
      size_t close = MatchingClose(t, i + 1);
      // Backtrack over the parameter list to the method name:
      //   void Name(args) [const] HQ_REQUIRES(mu);
      size_t j = i;
      while (j > 0 && t[j - 1].kind == TokKind::kIdent &&
             (t[j - 1].text == "const" || t[j - 1].text == "noexcept" ||
              t[j - 1].text == "override" || t[j - 1].text == "final")) {
        --j;
      }
      if (j > 0 && t[j - 1].text == ")") {
        int depth = 0;
        while (j > 0) {
          --j;
          if (t[j].text == ")") ++depth;
          if (t[j].text == "(" && --depth == 0) break;
        }
        if (j > 0 && t[j - 1].kind == TokKind::kIdent) {
          std::string method = t[j - 1].text;
          std::string cls = current_class();
          // Each top-level comma-separated annotation argument names one
          // mutex (HQ_REQUIRES(a, b) demands both).
          size_t begin = i + 2;
          int depth2 = 0;
          for (size_t k = i + 2; k <= close; ++k) {
            const std::string& x = t[k].text;
            if (x == "(" || x == "<") ++depth2;
            if (x == ")" || x == ">") --depth2;
            if ((k == close) || (depth2 == 0 && x == ",")) {
              std::string guard = LastIdent(t, begin, k);
              if (!guard.empty()) decls->requires_[cls][method].insert(guard);
              begin = k + 1;
            }
          }
        }
      }
      i = close;
      continue;
    }

    if (tok.text == "Mutex" && t[i + 1].kind == TokKind::kIdent &&
        ControlKeywords().count(t[i + 1].text) == 0) {
      // `Mutex name{LockRank::kX, "label"}` / `Mutex name;` — a declaration
      // only when the token after the name opens an initializer or ends the
      // declaration (rules out `Mutex* p`, `MutexLock`, casts). Annotations
      // like HQ_ACQUIRED_AFTER(x) may sit between the name and the
      // initializer.
      size_t init = i + 2;
      while (t[init].kind == TokKind::kIdent && t[init].text.rfind("HQ_", 0) == 0 &&
             t[init + 1].text == "(") {
        init = MatchingClose(t, init + 1) + 1;
      }
      const std::string& after = t[init].text;
      if (after != "{" && after != "(" && after != ";") continue;
      MutexSite site;
      site.scope = current_class();
      site.var = t[i + 1].text;
      site.path = f.path;
      site.line = t[i + 1].line;
      if (after == "{" || after == "(") {
        size_t close = MatchingClose(t, init);
        for (size_t k = init + 1; k < close; ++k) {
          if (t[k].text == "LockRank" && t[k + 1].text == "::" &&
              t[k + 2].kind == TokKind::kIdent) {
            site.rank = t[k + 2].text;
          }
          if (t[k].kind == TokKind::kString && site.label.empty()) site.label = t[k].text;
        }
        i = close;
      }
      decls->mutex_sites.push_back(site);
      if (!site.rank.empty()) {
        decls->mutex_ranks[site.scope][site.var] = site.rank;
        auto it = decls->var_ranks.find(site.var);
        if (it != decls->var_ranks.end() && it->second != site.rank) {
          decls->var_rank_conflicts.insert(site.var);
        } else {
          decls->var_ranks[site.var] = site.rank;
        }
      }
      continue;
    }
  }
}

void CollectVarTypes(const LexedFile& f, const std::set<std::string>& class_names,
                     std::map<std::string, std::set<std::string>>* var_types) {
  const std::vector<Token>& t = f.tokens;
  // Skips balanced template args starting at the `<` at index i; returns the
  // index after the matching `>`, or i when the brackets do not balance
  // locally (comparison operator, not template args).
  auto skip_angles = [&](size_t i) -> size_t {
    int depth = 0;
    for (size_t j = i; j + 1 < t.size() && j < i + 64; ++j) {
      const std::string& x = t[j].text;
      if (x == ";" || x == "{") return i;
      if (x == "<") ++depth;
      if (x == ">") {
        if (--depth == 0) return j + 1;
      }
    }
    return i;
  };
  auto record = [&](size_t j, const std::string& cls) {
    // j points at the would-be variable name; the token after it must end a
    // declarator (rules out `Foo Bar::` qualified definitions and casts).
    if (t[j].kind != TokKind::kIdent || ControlKeywords().count(t[j].text) != 0) return;
    const std::string& after = t[j + 1].text;
    if (after == ";" || after == "=" || after == "{" || after == "(" || after == "," ||
        after == ")" || after == "[" ||
        // `Type name_ HQ_GUARDED_BY(mu_);` — attribute macros end a
        // declarator too, and member fields are receivers like any local.
        (t[j + 1].kind == TokKind::kIdent && after.rfind("HQ_", 0) == 0)) {
      (*var_types)[t[j].text].insert(cls);
    }
  };
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    // `unique_ptr<Foo> p` / `shared_ptr<Foo> p`: the pointee class is the
    // receiver type for `p->Method()` resolution. Containers are deliberately
    // not handled — `vector<Foo> v` makes `v.size()` a Foo method otherwise.
    if ((t[i].text == "unique_ptr" || t[i].text == "shared_ptr") && t[i + 1].text == "<") {
      size_t end = skip_angles(i + 1);
      if (end == i + 1) continue;
      std::string cls;
      for (size_t k = i + 2; k + 1 < end; ++k) {
        if (t[k].kind == TokKind::kIdent && class_names.count(t[k].text) != 0) cls = t[k].text;
      }
      if (cls.empty()) continue;
      size_t j = end;
      while (t[j].text == "*" || t[j].text == "&" || t[j].text == "const") ++j;
      record(j, cls);
      continue;
    }
    if (class_names.count(t[i].text) == 0) continue;
    size_t j = i + 1;
    if (t[j].text == "<") {
      size_t end = skip_angles(j);
      if (end == j) continue;
      j = end;
    }
    while (t[j].text == "*" || t[j].text == "&" || t[j].text == "const") ++j;
    record(j, t[i].text);
  }
}

std::string ResolveRank(const Declarations& d, const std::string& cls,
                        const std::string& guard) {
  auto cit = d.mutex_ranks.find(cls);
  if (cit != d.mutex_ranks.end()) {
    auto vit = cit->second.find(guard);
    if (vit != cit->second.end()) return vit->second;
  }
  if (d.var_rank_conflicts.count(guard) == 0) {
    auto vit = d.var_ranks.find(guard);
    if (vit != d.var_ranks.end()) return vit->second;
  }
  return "";
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Finds every function body in the file and hands it to `fn`. Maintains the
/// same scope stack as CollectDeclarations so inline methods know their
/// class; `X::Name(` qualifiers win over the enclosing scope.
void ForEachFunctionBody(const LexedFile& f, const BodyCallback& fn) {
  const std::vector<Token>& t = f.tokens;
  std::vector<Scope> scopes;
  auto current_class = [&]() -> std::string {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->kind == Scope::kClass) return it->name;
    }
    return "";
  };
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    const Token& tok = t[i];
    if (tok.kind == TokKind::kPunct) {
      if (tok.text == "{") scopes.push_back({Scope::kBlock, ""});
      if (tok.text == "}" && !scopes.empty()) scopes.pop_back();
      continue;
    }
    if (tok.kind != TokKind::kIdent) continue;
    if (tok.text == "namespace") {
      size_t j = i + 1;
      while (t[j].kind == TokKind::kIdent || t[j].text == "::") ++j;
      if (t[j].text == "{") {
        scopes.push_back({Scope::kNamespace, ""});
        i = j;
      }
      continue;
    }
    if (tok.text == "enum") {
      size_t j = i + 1;
      while (j + 1 < t.size() && t[j].text != "{" && t[j].text != ";") ++j;
      if (t[j].text == "{") j = MatchingClose(t, j);
      i = j;
      continue;
    }
    if (tok.text == "class" || tok.text == "struct") {
      size_t j = i + 1;
      std::string name;
      if (t[j].kind == TokKind::kIdent && ControlKeywords().count(t[j].text) == 0) {
        name = t[j].text;
        ++j;
      }
      size_t k = j;
      int angle = 0;
      while (k + 1 < t.size()) {
        const std::string& x = t[k].text;
        if (x == "<") ++angle;
        if (x == ">") --angle;
        if (angle == 0 && (x == ";" || x == "=" || x == ")" || x == ",")) break;
        if (angle == 0 && x == "{") {
          scopes.push_back({Scope::kClass, name});
          i = k;
          break;
        }
        ++k;
      }
      continue;
    }
    if (ControlKeywords().count(tok.text) != 0) continue;
    if (t[i + 1].text != "(") continue;
    // Candidate function name. Find the owning class: `X::Name(` wins over
    // the enclosing scope.
    std::string cls = current_class();
    std::string method = tok.text;
    bool qualified = false;
    if (i >= 2 && t[i - 1].text == "::" && t[i - 2].kind == TokKind::kIdent) {
      cls = t[i - 2].text;
      qualified = true;
    }
    bool dtor = i > 0 && t[i - 1].text == "~";
    size_t params_close = MatchingClose(t, i + 1);
    // Scan the trailing tokens for the body `{`; a `;` or `=` first means a
    // declaration (or `= default`).
    size_t j = params_close + 1;
    bool body = false;
    while (j + 1 < t.size()) {
      const std::string& x = t[j].text;
      if (x == "{") {
        body = true;
        break;
      }
      if (x == ";" || x == "=" || x == ",") break;
      if (x == ":") {
        // Constructor initializer list: `name(args) [,] ... {`.
        ++j;
        while (j + 1 < t.size()) {
          // Each initializer: qualified name then ( ... ) or { ... }.
          while (j + 1 < t.size() && t[j].text != "(" && t[j].text != "{" && t[j].text != ";") {
            ++j;
          }
          if (t[j].text == ";") break;
          size_t c = MatchingClose(t, j);
          j = c + 1;
          if (t[j].text == ",") {
            ++j;
            continue;
          }
          break;
        }
        if (t[j].text == "{") body = true;
        break;
      }
      if (t[j].text == "(") {
        j = MatchingClose(t, j) + 1;
        continue;
      }
      ++j;
    }
    if (!body) {
      i = params_close;
      continue;
    }
    size_t body_close = MatchingClose(t, j);
    bool ctor_dtor = dtor || (qualified ? method == cls : (!cls.empty() && method == cls));
    fn(cls, dtor ? "~" + method : method, ctor_dtor, j, body_close);
    i = body_close;
  }
}

}  // namespace internal

using internal::CollectDeclarations;
using internal::ControlKeywords;
using internal::Declarations;
using internal::EndsWith;
using internal::EnumInfo;
using internal::LastIdent;
using internal::MatchingClose;
using internal::MutexSite;
using internal::ResolveRank;
using internal::TestLocalPath;

// ---------------------------------------------------------------------------
// Function-body analysis (pass 2)
// ---------------------------------------------------------------------------

namespace {

const std::set<std::string> kBlockingMembers = {"Put", "PutBatch", "Get",    "Push",
                                                "Pop", "PopNext",  "Acquire"};

struct LiveLock {
  std::string guard;  // last identifier of the mutex expression
  std::string rank;   // resolved rank name, "" when unknown
  int depth = 0;      // brace depth the lock was declared at
  int line = 0;
  bool pair = false;  // MutexLock2
};

struct BodyContext {
  const LexedFile* file = nullptr;
  const Declarations* decls = nullptr;
  std::string cls;     // owning class ("" for free functions)
  std::string method;  // function name
  bool ctor_dtor = false;
  std::vector<Diagnostic>* diags = nullptr;
};

/// Walks one function body in [open, close] (token indexes of the braces)
/// and applies the guarded-field, lock-nesting, blocking-under-lock and
/// enum-switch rules.
void AnalyzeBody(const BodyContext& ctx, size_t open, size_t close) {
  const std::vector<Token>& t = ctx.file->tokens;
  const Declarations& d = *ctx.decls;
  const std::map<std::string, std::string>* guarded_fields = nullptr;
  auto git = d.guarded.find(ctx.cls);
  if (git != d.guarded.end()) guarded_fields = &git->second;
  const std::set<std::string>* required = nullptr;
  auto rit = d.requires_.find(ctx.cls);
  if (rit != d.requires_.end()) {
    auto mit = rit->second.find(ctx.method);
    if (mit != rit->second.end()) required = &mit->second;
  }

  std::vector<LiveLock> locks;
  std::vector<int> lambda_depths;  // brace depth of each open lambda body
  struct SwitchCtx {
    int depth = 0;
    int line = 0;
    std::map<std::string, std::set<std::string>> covered;  // enum -> labels
    std::set<std::string> unresolved;  // idents owned by several enums
  };
  std::vector<SwitchCtx> switches;
  int depth = 0;  // brace depth relative to the body (open counts as 1)

  auto close_switch = [&](const SwitchCtx& sw) {
    // Attribute the switch to an enum only when every resolved label agrees.
    if (sw.covered.size() != 1) return;
    const std::string& enum_name = sw.covered.begin()->first;
    const std::set<std::string>& seen = sw.covered.begin()->second;
    if (d.ambiguous_enums.count(enum_name) != 0) return;
    const EnumInfo& info = d.enums.at(enum_name);
    std::vector<std::string> missing;
    for (const std::string& e : info.enumerators) {
      if (seen.count(e) == 0 && sw.unresolved.count(e) == 0) missing.push_back(e);
    }
    if (missing.empty()) return;
    if (ctx.file->Allowed(sw.line, "enum-switch")) return;
    std::string list;
    for (size_t k = 0; k < missing.size() && k < 5; ++k) {
      if (k != 0) list += ", ";
      list += missing[k];
    }
    if (missing.size() > 5) list += ", ...";
    ctx.diags->push_back(
        {ctx.file->path, sw.line, "enum-switch",
         "switch over " + enum_name + " covers " +
             std::to_string(info.enumerators.size() - missing.size()) + " of " +
             std::to_string(info.enumerators.size()) + " enumerators (missing: " + list +
             "); a default: label hides the gap from -Wswitch, so every "
             "enumerator must be spelled out"});
  };

  int stmt_line = 0;      // line the current statement starts on
  int reported_stmt = 0;  // one blocking-under-lock finding per statement
  for (size_t i = open; i <= close && i < t.size(); ++i) {
    const Token& tok = t[i];
    if (i == open || t[i - 1].text == ";" || t[i - 1].text == "{" || t[i - 1].text == "}") {
      stmt_line = tok.line;
    }
    if (tok.kind == TokKind::kPunct) {
      if (tok.text == "{") ++depth;
      if (tok.text == "}") {
        --depth;
        while (!locks.empty() && depth < locks.back().depth) locks.pop_back();
        while (!lambda_depths.empty() && depth < lambda_depths.back()) lambda_depths.pop_back();
        while (!switches.empty() && depth < switches.back().depth) {
          close_switch(switches.back());
          switches.pop_back();
        }
      }
      // Lambda introducer: `[` in expression position. Subscripts follow a
      // value (identifier, `)`, `]`); everything else starts a lambda.
      if (tok.text == "[" && i > open) {
        const Token& prev = t[i - 1];
        bool subscript = prev.kind == TokKind::kIdent ? ControlKeywords().count(prev.text) == 0
                                                      : prev.text == ")" || prev.text == "]";
        if (prev.kind == TokKind::kNumber || prev.kind == TokKind::kString) subscript = true;
        if (!subscript) {
          size_t intro_close = MatchingClose(t, i);
          size_t j = intro_close + 1;
          if (t[j].text == "(") j = MatchingClose(t, j) + 1;
          while (j < close && t[j].text != "{" && t[j].text != ";" && t[j].text != ")" &&
                 t[j].text != ",") {
            ++j;
          }
          if (j < close && t[j].text == "{") {
            // The body `{` is processed by this same loop when reached;
            // record where the lambda's scope will live.
            lambda_depths.push_back(depth + 1);
          }
          i = intro_close;  // captures are not accesses in this function
        }
      }
      continue;
    }
    if (tok.kind != TokKind::kIdent) continue;

    if ((tok.text == "MutexLock" || tok.text == "MutexLock2") && t[i + 1].kind == TokKind::kIdent &&
        t[i + 2].text == "(") {
      size_t args_close = MatchingClose(t, i + 2);
      bool pair = tok.text == "MutexLock2";
      size_t begin = i + 3;
      int adepth = 0;
      std::vector<std::pair<std::string, int>> acquired;  // guard, line
      for (size_t k = i + 3; k <= args_close; ++k) {
        const std::string& x = t[k].text;
        if (x == "(" || x == "<") ++adepth;
        if (x == ")" || x == ">") --adepth;
        if (k == args_close || (adepth == 0 && x == ",")) {
          std::string guard = LastIdent(t, begin, k);
          if (!guard.empty()) acquired.push_back({guard, t[begin].line});
          begin = k + 1;
        }
      }
      for (const auto& [guard, line] : acquired) {
        std::string rank = ResolveRank(d, ctx.cls, guard);
        if (!locks.empty() && !pair) {
          const LiveLock& outer = locks.back();
          // A nesting whose ranks cannot be attributed is unproven, not fine.
          const bool attributed = !rank.empty() && !outer.rank.empty();
          if ((!attributed || LockRankIndex(rank) >= LockRankIndex(outer.rank)) &&
              !ctx.file->Allowed(tok.line, "lock-nesting")) {
            ctx.diags->push_back(
                {ctx.file->path, tok.line, "lock-nesting",
                 attributed
                     ? "acquiring `" + guard + "` (" + rank + ") while holding `" +
                           outer.guard + "` (" + outer.rank +
                           ") is not strictly descending; the runtime validator will abort "
                           "here — reorder the acquisitions or use MutexLock2 for same-rank "
                           "pairs"
                     : "acquiring `" + guard + "` while holding `" + outer.guard +
                           "`, but the rank of " + (rank.empty() ? guard : outer.guard) +
                           " cannot be attributed (unranked, or a name declared at several "
                           "ranks); the order is unproven — rank it unambiguously or use "
                           "MutexLock2"});
          }
        }
        locks.push_back({guard, rank, depth, tok.line, pair});
      }
      i = args_close;
      continue;
    }

    if (tok.text == "switch" && t[i + 1].text == "(") {
      size_t cond_close = MatchingClose(t, i + 1);
      SwitchCtx sw;
      sw.depth = depth + 1;  // its `{` has not been consumed yet
      sw.line = tok.line;
      switches.push_back(sw);
      i = cond_close;
      continue;
    }

    if (tok.text == "case" && !switches.empty()) {
      // Parse the label expression up to the `:` (skipping `::`).
      size_t j = i + 1;
      std::vector<size_t> idents;
      while (j <= close && !(t[j].kind == TokKind::kPunct && t[j].text == ":")) {
        if (t[j].kind == TokKind::kIdent) idents.push_back(j);
        ++j;
      }
      SwitchCtx& sw = switches.back();
      if (!idents.empty()) {
        size_t last = idents.back();
        const std::string& label = t[last].text;
        std::string qualifier;
        if (last >= 2 && t[last - 1].text == "::" && t[last - 2].kind == TokKind::kIdent) {
          qualifier = t[last - 2].text;
        }
        if (!qualifier.empty() && d.enums.count(qualifier) != 0) {
          sw.covered[qualifier].insert(label);
        } else if (qualifier.empty()) {
          auto oit = d.enumerator_owners.find(label);
          if (oit != d.enumerator_owners.end()) {
            if (oit->second.size() == 1) {
              sw.covered[*oit->second.begin()].insert(label);
            } else {
              sw.unresolved.insert(label);
            }
          }
        }
      }
      i = j;
      continue;
    }

    // blocking-under-lock: a call that can block while a lock is live (locks
    // taken outside a lambda do not carry into its body). CondVar waits
    // release their own lock, so they block only under a second one.
    if (!locks.empty() && stmt_line != reported_stmt) {
      const int barrier = lambda_depths.empty() ? 0 : lambda_depths.back();
      const auto held = std::count_if(locks.begin(), locks.end(),
                                      [&](const LiveLock& l) { return l.depth >= barrier; });
      const bool member = internal::IsMemberCall(t, i);
      const bool blocks =
          (held >= 1 && member && kBlockingMembers.count(tok.text) != 0) ||
          (held >= 2 && member && (tok.text == "WaitFor" || tok.text == "WaitUntil")) ||
          (held >= 1 && internal::SleepCalls().count(tok.text) != 0);
      if (blocks) {
        reported_stmt = stmt_line;
        if (!ctx.file->Allowed(stmt_line, "blocking-under-lock")) {
          ctx.diags->push_back({ctx.file->path, stmt_line, "blocking-under-lock",
                                "potential deadlock: `" + tok.text +
                                    "` can block while a MutexLock is held in this scope"});
        }
      }
    }

    if (guarded_fields != nullptr && !ctx.ctor_dtor) {
      auto fit = guarded_fields->find(tok.text);
      if (fit != guarded_fields->end()) {
        // Member access through another object (`other.stats_`) is that
        // object's contract; `this->stats_` is ours.
        if (i > 0 && t[i - 1].kind == TokKind::kPunct &&
            (t[i - 1].text == "." || t[i - 1].text == "->")) {
          if (!(i >= 2 && t[i - 2].kind == TokKind::kIdent && t[i - 2].text == "this")) continue;
        }
        if (t[i + 1].text == "::") continue;  // qualified name, not an access
        const std::string& guard = fit->second;
        bool in_lambda = !lambda_depths.empty();
        int barrier = in_lambda ? lambda_depths.back() : 0;
        bool satisfied = false;
        for (const LiveLock& l : locks) {
          if (l.guard == guard && l.depth >= barrier) {
            satisfied = true;
            break;
          }
        }
        if (!satisfied && !in_lambda && required != nullptr && required->count(guard) != 0) {
          satisfied = true;
        }
        if (!satisfied && !ctx.file->Allowed(tok.line, "guarded-field")) {
          std::string where = ctx.cls.empty() ? ctx.method : ctx.cls + "::" + ctx.method;
          ctx.diags->push_back(
              {ctx.file->path, tok.line, "guarded-field",
               "`" + tok.text + "` is HQ_GUARDED_BY(" + guard + ") but " + where +
                   " touches it without a live MutexLock on `" + guard +
                   "` (or an HQ_REQUIRES(" + guard + ") annotation)" +
                   (in_lambda ? " — locks held outside a lambda do not carry into its body"
                              : "")});
        }
      }
    }
  }
  while (!switches.empty()) {
    close_switch(switches.back());
    switches.pop_back();
  }
}

/// Finds function bodies (via the shared walker) and hands each to
/// AnalyzeBody.
void AnalyzeFile(const LexedFile& f, const Declarations& decls,
                 std::vector<Diagnostic>* diags) {
  internal::ForEachFunctionBody(
      f, [&](const std::string& cls, const std::string& method, bool ctor_dtor, size_t open,
             size_t close) {
        BodyContext ctx;
        ctx.file = &f;
        ctx.decls = &decls;
        ctx.cls = cls;
        ctx.method = method;
        ctx.ctor_dtor = ctor_dtor;
        ctx.diags = diags;
        AnalyzeBody(ctx, open, close);
      });
}

}  // namespace

// ---------------------------------------------------------------------------
// Analyzer
// ---------------------------------------------------------------------------

void Analyzer::AddFile(std::string path, std::string content) {
  files_.push_back({std::move(path), std::move(content)});
}

void Analyzer::SetManifest(std::string path, std::string content) {
  manifest_path_ = std::move(path);
  manifest_ = std::move(content);
  has_manifest_ = true;
}

std::vector<Diagnostic> Analyzer::Run() const {
  std::vector<Diagnostic> diags;
  std::vector<LexedFile> lexed;
  lexed.reserve(files_.size());
  Declarations decls;
  for (const SourceFile& f : files_) {
    lexed.push_back(Lex(f.path, f.content));
    CollectDeclarations(lexed.back(), &decls);
  }
  for (const LexedFile& f : lexed) {
    internal::CheckFileRules(f, &diags);
    // sync.h implements the lock primitives themselves; its internals are
    // the one place the body rules do not apply.
    if (EndsWith(f.path, "common/sync.h")) continue;
    AnalyzeFile(f, decls, &diags);
  }

  // lock-rank: every construction names a rank; production (non-test,
  // non-bench) constructions must also agree with the manifest, which is
  // the source of the DESIGN.md rank table.
  std::map<std::string, std::string> manifest_ranks;  // label -> rank
  std::map<std::string, int> manifest_lines;
  if (has_manifest_) {
    for (const ManifestEntry& e : ParseManifest(manifest_path_, manifest_, &diags)) {
      if (manifest_ranks.count(e.label) != 0) {
        diags.push_back({manifest_path_, e.line, "lock-rank",
                         "duplicate manifest entry for mutex `" + e.label + "`"});
        continue;
      }
      manifest_ranks[e.label] = e.rank;
      manifest_lines[e.label] = e.line;
    }
  }
  std::set<std::string> seen_labels;
  for (const MutexSite& site : decls.mutex_sites) {
    auto lexed_it = std::find_if(lexed.begin(), lexed.end(),
                                 [&](const LexedFile& f) { return f.path == site.path; });
    auto report = [&](std::string message) {
      if (lexed_it == lexed.end() || !lexed_it->Allowed(site.line, "lock-rank")) {
        diags.push_back({site.path, site.line, "lock-rank", std::move(message)});
      }
    };
    if (site.rank.empty()) {
      report("Mutex `" + site.var +
             "` is declared without a LockRank; every mutex names its level in the lock "
             "hierarchy (see common::LockRank)");
      continue;
    }
    if (!has_manifest_ || TestLocalPath(site.path)) continue;
    if (site.label.empty()) {
      report("Mutex `" + site.var +
             "` is constructed without a name; the lock-rank manifest "
             "(tools/hqcheck/lock_ranks.txt) keys on names — pass one: "
             "{LockRank::" + site.rank + ", \"<name>\"}");
      continue;
    }
    seen_labels.insert(site.label);
    auto it = manifest_ranks.find(site.label);
    if (it == manifest_ranks.end()) {
      report("mutex `" + site.label + "` (" + site.rank +
             ") is not in tools/hqcheck/lock_ranks.txt; the manifest is the source of truth "
             "for the DESIGN.md rank table — add `" + site.rank + " " + site.label + "`");
    } else if (it->second != site.rank) {
      report("mutex `" + site.label + "` is constructed at " + site.rank +
             " but the manifest declares " + it->second + "; fix whichever is wrong");
    }
  }
  for (const auto& [label, rank] : manifest_ranks) {
    if (seen_labels.count(label) == 0) {
      diags.push_back({manifest_path_, manifest_lines[label], "lock-rank",
                       "manifest mutex `" + label + "` (" + rank +
                           ") has no construction site in the analysed sources; remove "
                           "the stale entry or check the spelling"});
    }
  }

  // Note: var_rank_conflicts (same variable name ranked differently in
  // different classes — the conventional member name `mu_` does this by
  // design) is not a diagnostic by itself. ResolveRank() answers those
  // lookups from the per-class map and refuses the ambiguous global
  // fallback, which lock-nesting reports if such a lock is nested.

  internal::AuditAllows(lexed, internal::SourceRules(), &diags);

  std::sort(diags.begin(), diags.end(), [](const Diagnostic& a, const Diagnostic& b) {
    if (a.path != b.path) return a.path < b.path;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  diags.erase(std::unique(diags.begin(), diags.end()), diags.end());
  return diags;
}

}  // namespace hqcheck
