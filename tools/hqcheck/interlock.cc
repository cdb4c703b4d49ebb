#include <algorithm>
#include <cctype>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "hqcheck.h"
#include "internal.h"

/// \file interlock.cc
/// The may-acquire rule: an interprocedural lock-order proof. The lexical
/// lock-nesting rule (hqcheck.cc) sees one function body at a time, so
/// `A() { MutexLock l(&hi_); B(); }` where B acquires an equal-or-higher
/// rank is invisible to it — exactly the inversion class the PR-4 runtime
/// validator only catches when the right schedule happens to run. This pass
/// closes that gap statically:
///
///   1. Build a repo-wide call graph. Intra-TU edges come from the scope
///      parser (every `name(` in a function body, resolved through class
///      qualifiers, `this`, and declared receiver types). Cross-TU edges the
///      source walk cannot attribute (template instantiations, calls through
///      headers) are fused in from the `objdump -dr` relocation graph the
///      hotpath proof already parses.
///   2. Compute per-function *may-acquire* summaries — the set of lock ranks
///      a call to the function may acquire, directly or transitively — as a
///      fixpoint over that graph.
///   3. Flag every call made while holding rank R to a function whose
///      summary contains a rank >= R: the runtime validator would abort on
///      that path, so lint time is where it must die.
///
/// Lambdas are capability barriers, mirroring the guarded-field rule: a
/// lambda body usually runs on another thread (thread pool, std::thread), so
/// its acquisitions do not count toward the enclosing function's summary and
/// locks held at the definition site are not held inside it. Lambda bodies
/// are still analysed as their own anonymous nodes — their internal nesting
/// edges and under-lock calls are checked and contribute to the edge set.
/// (The cost: a lambda invoked inline in the defining scope is analysed as
/// if it ran detached — an under-approximation we accept and document.)
///
/// Beyond diagnostics, the pass emits the *proven static edge set* — every
/// rank pair (held -> acquired) any path can produce — and diffs it against
/// the runtime `LockOrderGraph` DOT dump: a runtime edge that is not
/// statically derivable means the call graph has a hole (a diagnostic); a
/// static edge never traveled at runtime is reported so e2e coverage gaps
/// are visible. With the lock-rank manifest loaded, the diff also maps the
/// runtime dump's per-instance mutex-name edges back to ranks, so the
/// comparison is name-accurate, not just rank-accurate.

namespace hqcheck {

namespace {

using internal::CollectDeclarations;
using internal::CollectVarTypes;
using internal::ControlKeywords;
using internal::Declarations;
using internal::EndsWith;
using internal::LastIdent;
using internal::LockRankIndex;
using internal::LockRankNameAt;
using internal::MatchingClose;
using internal::ResolveRank;

/// Where a summary bit came from: a direct acquisition site, or a callee
/// whose summary contains it (chained for witness messages).
struct Origin {
  std::string via;  // callee node key; "" for a direct acquisition
  std::string guard;
  std::string path;
  int line = 0;
  bool binary = false;  // propagated over an objdump relocation edge
};

struct CallSite {
  std::string name;
  std::string qualifier;  // `X::name(` -> "X"
  std::string receiver;   // `recv.name(` / `recv->name(` -> "recv"
  bool this_recv = false;
  std::string ctx_cls;  // class of the enclosing (non-lambda) function
  std::string path;
  int line = 0;
  int inner_rank = -1;  // rank of the innermost lock held across the call
  std::string inner_guard;
  std::vector<size_t> callees;  // resolved node indices
};

struct FnNode {
  std::string key;  // "Class::Method", "FreeFn", or "...::{lambda:N}"
  std::string cls;
  std::string method;
  std::string path;
  bool is_lambda = false;
  uint16_t mask = 0;  // may-acquire rank bits
  std::map<int, Origin> origin;
  std::vector<CallSite> calls;
  std::vector<size_t> bin_callees;  // fused objdump edges (summary-only)
};

struct EdgeInfo {
  std::string provenance;  // first site that proved the edge
};

/// node key for the demangled symbol `hyperq::cdw::Class::Method(...)`.
/// Returns "" when the demangled shape has no usable name.
std::string KeyForDemangled(const std::string& demangled) {
  std::string s = demangled;
  size_t clone = s.find(" [clone");
  if (clone != std::string::npos) s = s.substr(0, clone);
  // Strip the parameter list: first '(' at angle depth 0.
  int angle = 0;
  size_t paren = std::string::npos;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '<') ++angle;
    if (s[i] == '>' && angle > 0) --angle;
    if (s[i] == '(' && angle == 0) {
      paren = i;
      break;
    }
  }
  if (paren != std::string::npos) s = s.substr(0, paren);
  // Drop template args from the tail components.
  std::vector<std::string> parts;
  size_t start = 0;
  angle = 0;
  for (size_t i = 0; i + 1 <= s.size(); ++i) {
    if (i < s.size() && s[i] == '<') ++angle;
    if (i < s.size() && s[i] == '>' && angle > 0) --angle;
    bool split = i + 1 < s.size() && angle == 0 && s[i] == ':' && s[i + 1] == ':';
    if (split || i == s.size()) {
      parts.push_back(s.substr(start, i - start));
      if (split) {
        ++i;
        start = i + 1;
      }
    }
  }
  if (parts.empty()) return "";
  auto strip = [](std::string x) {
    size_t lt = x.find('<');
    return lt == std::string::npos ? x : x.substr(0, lt);
  };
  std::string method = strip(parts.back());
  if (method.empty() || !(std::isalpha(static_cast<unsigned char>(method[0])) != 0 ||
                          method[0] == '_' || method[0] == '~')) {
    return "";
  }
  std::string cls = parts.size() >= 2 ? strip(parts[parts.size() - 2]) : "";
  return cls.empty() ? method : cls + "::" + method;
}

}  // namespace

std::vector<Diagnostic> Analyzer::RunInterlock(const InterlockOptions& options,
                                               std::ostream* report) const {
  std::vector<Diagnostic> diags;

  std::vector<LexedFile> lexed;
  lexed.reserve(files_.size());
  Declarations decls;
  for (const SourceFile& f : files_) {
    lexed.push_back(Lex(f.path, f.content));
    CollectDeclarations(lexed.back(), &decls);
  }
  std::map<std::string, std::set<std::string>> var_types;
  for (const LexedFile& f : lexed) CollectVarTypes(f, decls.class_names, &var_types);

  // -------------------------------------------------------------------------
  // Node construction: one per function body (+ one per lambda body).
  // -------------------------------------------------------------------------
  std::vector<FnNode> nodes;
  std::map<std::string, size_t> index;
  auto node_at = [&](const std::string& key, const std::string& cls, const std::string& method,
                     const std::string& path, bool is_lambda) -> size_t {
    auto it = index.find(key);
    if (it != index.end()) return it->second;
    FnNode n;
    n.key = key;
    n.cls = cls;
    n.method = method;
    n.path = path;
    n.is_lambda = is_lambda;
    nodes.push_back(std::move(n));
    index[key] = nodes.size() - 1;
    return nodes.size() - 1;
  };

  std::map<std::pair<int, int>, EdgeInfo> static_edges;
  auto add_edge = [&](int holder, int acquired, const std::string& prov) {
    if (holder < 0 || acquired < 0) return;
    auto [it, fresh] = static_edges.insert({{holder, acquired}, EdgeInfo{prov}});
    (void)it;
    (void)fresh;
  };

  for (const LexedFile& f : lexed) {
    // sync.h implements the primitives themselves; same exclusion as Run().
    if (EndsWith(f.path, "common/sync.h")) continue;
    internal::ForEachFunctionBody(f, [&](const std::string& cls, const std::string& method,
                                         bool /*ctor_dtor*/, size_t open, size_t close) {
      const std::vector<Token>& t = f.tokens;
      std::string fn_key = cls.empty() ? method : cls + "::" + method;
      size_t fn_node = node_at(fn_key, cls, method, f.path, false);

      struct Live {
        std::string guard;
        int rank = -1;
        int depth = 0;
        int line = 0;
      };
      std::vector<Live> locks;
      struct LambdaCtx {
        int barrier = 0;
        size_t node = 0;
      };
      std::vector<LambdaCtx> lambdas;
      int depth = 0;

      auto cur_node = [&]() { return lambdas.empty() ? fn_node : lambdas.back().node; };
      auto barrier = [&]() { return lambdas.empty() ? 0 : lambdas.back().barrier; };
      auto visible_inner = [&]() -> const Live* {
        if (locks.empty()) return nullptr;
        const Live& l = locks.back();
        return l.depth >= barrier() ? &l : nullptr;
      };

      for (size_t i = open; i <= close && i < t.size(); ++i) {
        const Token& tok = t[i];
        if (tok.kind == TokKind::kPunct) {
          if (tok.text == "{") ++depth;
          if (tok.text == "}") {
            --depth;
            while (!locks.empty() && depth < locks.back().depth) locks.pop_back();
            while (!lambdas.empty() && depth < lambdas.back().barrier) lambdas.pop_back();
          }
          if (tok.text == "[" && i > open) {
            const Token& prev = t[i - 1];
            bool subscript = prev.kind == TokKind::kIdent
                                 ? ControlKeywords().count(prev.text) == 0
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
                std::string lkey =
                    fn_key + "::{lambda:" + std::to_string(tok.line) + "}";
                size_t lnode = node_at(lkey, cls, method, f.path, true);
                lambdas.push_back({depth + 1, lnode});
              }
              i = intro_close;  // captures are not calls
            }
          }
          continue;
        }
        if (tok.kind != TokKind::kIdent) continue;

        if ((tok.text == "MutexLock" || tok.text == "MutexLock2") &&
            t[i + 1].kind == TokKind::kIdent && t[i + 2].text == "(") {
          size_t args_close = MatchingClose(t, i + 2);
          bool pair = tok.text == "MutexLock2";
          size_t begin = i + 3;
          int adepth = 0;
          std::vector<std::pair<std::string, int>> acquired;  // guard, rank
          for (size_t k = i + 3; k <= args_close; ++k) {
            const std::string& x = t[k].text;
            if (x == "(" || x == "<") ++adepth;
            if (x == ")" || x == ">") --adepth;
            if (k == args_close || (adepth == 0 && x == ",")) {
              std::string guard = LastIdent(t, begin, k);
              if (!guard.empty()) {
                acquired.push_back({guard, LockRankIndex(ResolveRank(decls, cls, guard))});
              }
              begin = k + 1;
            }
          }
          if (pair && acquired.size() == 2 && acquired[0].second < acquired[1].second) {
            // MutexLock2 acquires the higher-ranked mutex first; mirror it so
            // the recorded edges match what the runtime graph will contain.
            std::swap(acquired[0], acquired[1]);
          }
          const Live* outer = visible_inner();
          int prev_rank = outer != nullptr ? outer->rank : -1;
          size_t node = cur_node();
          for (size_t k = 0; k < acquired.size(); ++k) {
            const auto& [guard, rank] = acquired[k];
            if (rank >= 0) {
              uint16_t bit = static_cast<uint16_t>(1u << rank);
              if ((nodes[node].mask & bit) == 0) {
                nodes[node].mask |= bit;
                nodes[node].origin[rank] = Origin{"", guard, f.path, tok.line, false};
              }
              // The runtime records (top-of-stack -> acquired) on every
              // acquisition except MutexLock2's equal-rank second leg.
              if (prev_rank >= 0 && !(pair && k > 0 && rank == prev_rank)) {
                add_edge(prev_rank, rank,
                         f.path + ":" + std::to_string(tok.line) + " `" + guard + "` in " +
                             nodes[node].key);
              }
            }
            locks.push_back({guard, rank, depth, tok.line});
            prev_rank = rank;
          }
          i = args_close;
          continue;
        }

        if (ControlKeywords().count(tok.text) != 0) continue;
        if (t[i + 1].text != "(") continue;
        if (tok.text.rfind("HQ_", 0) == 0) continue;  // macro, not a callee
        CallSite cs;
        cs.name = tok.text;
        cs.ctx_cls = cls;
        cs.path = f.path;
        cs.line = tok.line;
        if (i >= 2 && t[i - 1].text == "::" && t[i - 2].kind == TokKind::kIdent) {
          cs.qualifier = t[i - 2].text;
        } else if (i >= 2 && (t[i - 1].text == "." || t[i - 1].text == "->")) {
          if (t[i - 2].kind == TokKind::kIdent) {
            if (t[i - 2].text == "this") {
              cs.this_recv = true;
            } else {
              cs.receiver = t[i - 2].text;
            }
          } else {
            cs.receiver = "<expr>";  // chained call: receiver type unknown
          }
        }
        const Live* inner = visible_inner();
        if (inner != nullptr && inner->rank >= 0) {
          cs.inner_rank = inner->rank;
          cs.inner_guard = inner->guard;
        }
        nodes[cur_node()].calls.push_back(std::move(cs));
        continue;
      }
    });
  }

  // -------------------------------------------------------------------------
  // Call resolution.
  // -------------------------------------------------------------------------
  std::map<std::string, std::vector<size_t>> by_method;  // method -> member nodes
  for (size_t n = 0; n < nodes.size(); ++n) {
    if (nodes[n].is_lambda) continue;
    if (!nodes[n].cls.empty()) by_method[nodes[n].method].push_back(n);
  }
  auto resolve = [&](CallSite& cs) {
    auto add = [&](const std::string& key) {
      auto it = index.find(key);
      if (it != index.end()) cs.callees.push_back(it->second);
    };
    // `cls::name` plus every transitive override: a call through a base
    // pointer/reference dispatches to any derived class's method, so the
    // may-acquire union must cover them all (net::Transport::Close resolving
    // to the pipe-backed endpoint's Close is how kServer -> kQueue happens).
    auto add_virtual = [&](const std::string& cls, const std::string& name) {
      std::vector<std::string> work = {cls};
      std::set<std::string> seen;
      while (!work.empty()) {
        std::string c = std::move(work.back());
        work.pop_back();
        if (!seen.insert(c).second) continue;
        add(c + "::" + name);
        auto dit = decls.derived.find(c);
        if (dit != decls.derived.end()) {
          work.insert(work.end(), dit->second.begin(), dit->second.end());
        }
      }
    };
    if (!cs.qualifier.empty()) {
      if (decls.class_names.count(cs.qualifier) != 0) {
        add(cs.qualifier + "::" + cs.name);
      } else {
        add(cs.name);  // namespace-qualified free function
      }
      return;
    }
    if (cs.this_recv) {
      add_virtual(cs.ctx_cls, cs.name);
      return;
    }
    if (!cs.receiver.empty() && cs.receiver != "<expr>") {
      auto vt = var_types.find(cs.receiver);
      if (vt != var_types.end()) {
        for (const std::string& c : vt->second) add_virtual(c, cs.name);
        return;  // typed receiver: a miss means a non-repo type's method
      }
    }
    if (!cs.receiver.empty()) {
      // Untyped or chained receiver. Two dampeners keep the union fallback
      // from drowning the rule in noise: (1) ubiquitous container /
      // smart-pointer method names are never unioned — `items_.size()` on a
      // std::deque member would otherwise resolve to BoundedQueue::size
      // (which locks) at every call site in the tree; (2) the context class
      // is excluded — recursing into your own class through an untyped
      // receiver is spelled `this->`, so a same-name match on the enclosing
      // class is almost always a different class's method.
      static const std::set<std::string> kCommonMethods = {
          "size",    "empty",   "begin",   "end",     "clear",   "front",
          "back",    "data",    "at",      "find",    "count",   "contains",
          "insert",  "erase",   "emplace", "emplace_back", "push_back",
          "pop_back", "push_front", "pop_front", "resize", "reserve",
          "c_str",   "str",     "substr",  "append",  "length",  "get",
          "reset",   "release", "swap",    "load",    "store",   "exchange",
          "fetch_add", "fetch_sub", "value", "value_or", "has_value",
          "first",   "second"};
      if (kCommonMethods.count(cs.name) != 0) return;
      auto bm = by_method.find(cs.name);
      if (bm != by_method.end()) {
        for (size_t n : bm->second) {
          if (!cs.ctx_cls.empty() && nodes[n].cls == cs.ctx_cls) continue;
          cs.callees.push_back(n);
        }
      }
      return;
    }
    // Unqualified plain call: own class's method, else a free function,
    // else a constructor of a repo class (`Foo tmp(...)` / `return Foo(...)`).
    if (!cs.ctx_cls.empty() && index.count(cs.ctx_cls + "::" + cs.name) != 0) {
      add(cs.ctx_cls + "::" + cs.name);
      return;
    }
    if (index.count(cs.name) != 0) {
      add(cs.name);
      return;
    }
    if (decls.class_names.count(cs.name) != 0) add(cs.name + "::" + cs.name);
  };
  size_t call_edges = 0;
  for (FnNode& n : nodes) {
    for (CallSite& cs : n.calls) {
      resolve(cs);
      call_edges += cs.callees.size();
    }
  }

  // -------------------------------------------------------------------------
  // Objdump fusion: relocation edges between symbols that map onto source
  // nodes become summary-propagation edges (no held-lock context at the
  // binary level, so they widen summaries but never judge call sites).
  // -------------------------------------------------------------------------
  size_t fused_edges = 0;
  if (!options.disasm.empty()) {
    internal::BinCallGraph bg = internal::ParseDisasmCallGraph(options.disasm);
    std::map<std::string, std::string> sym_key;  // mangled -> node key
    auto key_of = [&](const std::string& sym) -> const std::string& {
      auto it = sym_key.find(sym);
      if (it == sym_key.end()) {
        it = sym_key.emplace(sym, KeyForDemangled(internal::DemangleSymbol(sym))).first;
      }
      return it->second;
    };
    for (const auto& [sym, callees] : bg.edges) {
      const std::string& from_key = key_of(sym);
      auto fit = index.find(from_key);
      if (fit == index.end()) continue;
      for (const std::string& callee : callees) {
        auto cit = index.find(key_of(callee));
        if (cit == index.end() || cit->second == fit->second) continue;
        nodes[fit->second].bin_callees.push_back(cit->second);
        ++fused_edges;
      }
    }
  }

  // -------------------------------------------------------------------------
  // Fixpoint: summary(f) = direct(f) | union summary(callees).
  // -------------------------------------------------------------------------
  bool changed = true;
  while (changed) {
    changed = false;
    for (FnNode& n : nodes) {
      auto absorb = [&](size_t callee, int line, bool binary) {
        uint16_t add = static_cast<uint16_t>(nodes[callee].mask & ~n.mask);
        if (add == 0) return;
        n.mask |= add;
        for (int r = 0; r < internal::kNumLockRanks; ++r) {
          if ((add & (1u << r)) != 0) {
            n.origin[r] = Origin{nodes[callee].key, "", n.path, line, binary};
          }
        }
        changed = true;
      };
      for (const CallSite& cs : n.calls) {
        for (size_t callee : cs.callees) absorb(callee, cs.line, false);
      }
      for (size_t callee : n.bin_callees) absorb(callee, 0, true);
    }
  }

  // Witness chain for node/rank: "A -> B -> acquires `g` (path:line)".
  auto witness = [&](size_t node, int rank) -> std::string {
    std::string chain;
    std::set<size_t> seen;
    size_t cur = node;
    while (seen.insert(cur).second) {
      const FnNode& n = nodes[cur];
      auto oit = n.origin.find(rank);
      if (oit == n.origin.end()) break;
      const Origin& o = oit->second;
      if (o.via.empty()) {
        chain += n.key + " acquires `" + o.guard + "` at " + o.path + ":" +
                 std::to_string(o.line);
        return chain;
      }
      chain += n.key + (o.binary ? " =[objdump]=> " : " -> ");
      auto nit = index.find(o.via);
      if (nit == index.end()) break;
      cur = nit->second;
    }
    return chain + "...";
  };

  // -------------------------------------------------------------------------
  // Violations + call-site contribution to the static edge set.
  // -------------------------------------------------------------------------
  std::map<std::string, const LexedFile*> file_of;
  for (const LexedFile& f : lexed) file_of[f.path] = &f;
  auto suppressed = [&](const std::string& path, int line) {
    auto it = file_of.find(path);
    return it != file_of.end() && it->second->Allowed(line, "may-acquire");
  };

  size_t under_lock_calls = 0;
  for (const FnNode& n : nodes) {
    for (const CallSite& cs : n.calls) {
      if (cs.inner_rank < 0 || cs.callees.empty()) continue;
      ++under_lock_calls;
      uint16_t seen_mask = 0;
      for (size_t callee : cs.callees) {
        uint16_t mask = nodes[callee].mask;
        for (int r = 0; r < internal::kNumLockRanks; ++r) {
          if ((mask & (1u << r)) == 0) continue;
          add_edge(cs.inner_rank, r,
                   cs.path + ":" + std::to_string(cs.line) + " " + n.key + " calls " +
                       nodes[callee].key);
          if (r < cs.inner_rank) continue;  // strictly descending: fine
          if ((seen_mask & (1u << r)) != 0) continue;
          seen_mask |= static_cast<uint16_t>(1u << r);
          if (suppressed(cs.path, cs.line)) continue;
          diags.push_back(
              {cs.path, cs.line, "may-acquire",
               n.key + " calls " + nodes[callee].key + " while holding `" + cs.inner_guard +
                   "` (" + LockRankNameAt(cs.inner_rank) + "), but its summary may acquire " +
                   LockRankNameAt(r) + " (not strictly lower) — the runtime validator "
                   "aborts on this path; witness: " + witness(callee, r)});
        }
      }
    }
  }

  // A may-acquire marker that suppressed nothing hides the next real finding.
  internal::AuditAllows(lexed, {"may-acquire"}, &diags);

  // -------------------------------------------------------------------------
  // Cycle check over the static rank edges.
  // -------------------------------------------------------------------------
  auto find_cycle = [&](const std::set<std::pair<int, int>>& edges) -> std::vector<int> {
    std::vector<std::vector<int>> adj(internal::kNumLockRanks);
    for (const auto& [a, b] : edges) adj[static_cast<size_t>(a)].push_back(b);
    std::vector<int> state(internal::kNumLockRanks, 0);  // 0 new, 1 on stack, 2 done
    std::vector<int> stack;
    std::vector<int> cycle;
    std::function<bool(int)> dfs = [&](int v) -> bool {
      state[static_cast<size_t>(v)] = 1;
      stack.push_back(v);
      for (int w : adj[static_cast<size_t>(v)]) {
        if (state[static_cast<size_t>(w)] == 1) {
          auto it = std::find(stack.begin(), stack.end(), w);
          cycle.assign(it, stack.end());
          cycle.push_back(w);
          return true;
        }
        if (state[static_cast<size_t>(w)] == 0 && dfs(w)) return true;
      }
      stack.pop_back();
      state[static_cast<size_t>(v)] = 2;
      return false;
    };
    for (int v = 0; v < internal::kNumLockRanks; ++v) {
      if (state[static_cast<size_t>(v)] == 0 && dfs(v)) return cycle;
    }
    return {};
  };
  std::set<std::pair<int, int>> static_pairs;
  for (const auto& [e, info] : static_edges) {
    (void)info;
    if (e.first != e.second) static_pairs.insert(e);  // same-rank pairs are MutexLock2-ordered
  }
  std::vector<int> cyc = find_cycle(static_pairs);
  if (!cyc.empty()) {
    std::string path_text;
    for (size_t k = 0; k < cyc.size(); ++k) {
      if (k != 0) path_text += " -> ";
      path_text += LockRankNameAt(cyc[static_cast<size_t>(k)]);
    }
    diags.push_back({"<static-edges>", 0, "may-acquire",
                     "the proven static lock-order edge set contains a cycle: " + path_text});
  }

  // -------------------------------------------------------------------------
  // Runtime diff (optional): every runtime edge must be statically
  // derivable; untraveled static edges go to the report.
  // -------------------------------------------------------------------------
  std::set<std::pair<int, int>> runtime_pairs;
  std::vector<std::pair<std::string, std::string>> runtime_name_edges;
  size_t unmapped_names = 0;
  if (!options.lockgraph_dot.empty()) {
    // Mutex label -> rank, from the lock-rank manifest.
    std::map<std::string, int> label_rank;
    if (has_manifest_) {
      std::vector<Diagnostic> scratch;
      for (const ManifestEntry& e : ParseManifest(manifest_path_, manifest_, &scratch)) {
        label_rank[e.label] = LockRankIndex(e.rank);
      }
    }
    std::istringstream in(options.lockgraph_dot);
    std::string line;
    auto trim = [](std::string s) {
      size_t b = s.find_first_not_of(" \t");
      size_t e = s.find_last_not_of(" \t\r;");
      return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
    };
    while (std::getline(in, line)) {
      std::string s = trim(line);
      size_t arrow = s.find(" -> ");
      if (arrow == std::string::npos || s.rfind("//", 0) == 0) continue;
      std::string lhs = s.substr(0, arrow);
      std::string rhs = s.substr(arrow + 4);
      size_t attr = rhs.find(" [");
      if (attr != std::string::npos) rhs = rhs.substr(0, attr);
      lhs = trim(lhs);
      rhs = trim(rhs);
      auto unquote = [](const std::string& x) {
        return x.size() >= 2 && x.front() == '"' && x.back() == '"'
                   ? x.substr(1, x.size() - 2)
                   : x;
      };
      if (!lhs.empty() && lhs.front() == '"') {
        runtime_name_edges.push_back({unquote(lhs), unquote(rhs)});
        continue;
      }
      int a = LockRankIndex(lhs);
      int b = LockRankIndex(rhs);
      if (a >= 0 && b >= 0) runtime_pairs.insert({a, b});
    }
    std::string dot_path =
        options.lockgraph_path.empty() ? "<lockgraph>" : options.lockgraph_path;
    for (const auto& e : runtime_pairs) {
      if (static_edges.count(e) != 0) continue;
      diags.push_back(
          {dot_path, 0, "may-acquire",
           "runtime lock-order edge " + std::string(LockRankNameAt(e.first)) + " -> " +
               LockRankNameAt(e.second) +
               " was observed by the LockOrderGraph but is not derivable from the static "
               "call graph — interlock is blind to the code path that produced it (likely "
               "an indirect call); close the hole before trusting the proof"});
    }
    // Name-accurate pass over the per-instance edges the runtime graph
    // records since PR 9: map labels back to ranks through the manifest.
    for (const auto& [ha, hb] : runtime_name_edges) {
      int a = label_rank.count(ha) != 0 ? label_rank[ha] : LockRankIndex(ha);
      int b = label_rank.count(hb) != 0 ? label_rank[hb] : LockRankIndex(hb);
      if (a < 0 || b < 0) {
        ++unmapped_names;
        continue;
      }
      if (a == b) continue;  // same-rank instance pair: MutexLock2 territory
      if (static_edges.count({a, b}) != 0) continue;
      std::string dp = options.lockgraph_path.empty() ? "<lockgraph>" : options.lockgraph_path;
      diags.push_back(
          {dp, 0, "may-acquire",
           "runtime mutex-name edge \"" + ha + "\" -> \"" + hb + "\" (" + LockRankNameAt(a) +
               " -> " + LockRankNameAt(b) +
               ") has no statically derivable rank edge — the static call graph is missing "
               "the path between these instances"});
    }
    std::vector<int> rcyc = find_cycle(runtime_pairs);
    if (!rcyc.empty()) {
      std::string path_text;
      for (size_t k = 0; k < rcyc.size(); ++k) {
        if (k != 0) path_text += " -> ";
        path_text += LockRankNameAt(rcyc[static_cast<size_t>(k)]);
      }
      diags.push_back({options.lockgraph_path.empty() ? "<lockgraph>" : options.lockgraph_path,
                       0, "may-acquire", "the runtime lock-order graph contains a cycle: " +
                           path_text});
    }
  }

  // -------------------------------------------------------------------------
  // Report.
  // -------------------------------------------------------------------------
  if (report != nullptr) {
    size_t lambda_nodes = 0;
    size_t locking_nodes = 0;
    for (const FnNode& n : nodes) {
      if (n.is_lambda) ++lambda_nodes;
      if (n.mask != 0) ++locking_nodes;
    }
    *report << "interlock: " << nodes.size() << " nodes (" << lambda_nodes << " lambda), "
            << call_edges << " resolved call edges, " << fused_edges << " objdump-fused edges, "
            << locking_nodes << " nodes with non-empty may-acquire summaries, "
            << under_lock_calls << " resolved calls made under a lock\n";
    *report << "static lock-order edges (" << static_edges.size() << "):\n";
    for (const auto& [e, info] : static_edges) {
      bool traveled = runtime_pairs.count(e) != 0;
      *report << "  " << LockRankNameAt(e.first) << " -> " << LockRankNameAt(e.second);
      if (!options.lockgraph_dot.empty()) {
        *report << (traveled ? "  [traveled at runtime]" : "  [not traveled at runtime]");
      }
      *report << "  via " << info.provenance << "\n";
    }
    if (!options.lockgraph_dot.empty()) {
      size_t traveled = 0;
      for (const auto& e : runtime_pairs) {
        if (static_edges.count(e) != 0) ++traveled;
      }
      *report << "runtime diff: " << runtime_pairs.size() << " runtime rank edges ("
              << traveled << " derivable statically), " << runtime_name_edges.size()
              << " runtime mutex-name edges";
      if (unmapped_names != 0) {
        *report << " (" << unmapped_names << " not mapped to a rank — label missing from the "
                << "lock-rank manifest)";
      }
      *report << "\n";
    }
    if (options.verbose) {
      for (const FnNode& n : nodes) {
        if (n.mask == 0) continue;
        *report << "  summary " << n.key << ":";
        for (int r = internal::kNumLockRanks - 1; r >= 0; --r) {
          if ((n.mask & (1u << r)) != 0) *report << " " << LockRankNameAt(r);
        }
        *report << "\n";
      }
    }
    for (const Diagnostic& d : diags) *report << "  VIOLATION " << Format(d) << "\n";
  }

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
