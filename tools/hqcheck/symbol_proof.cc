#include <cxxabi.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <ostream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "hqcheck.h"
#include "internal.h"

/// \file symbol_proof.cc
/// The hotpath-symbol rule: a reachability proof over the *compiled*
/// conversion kernels. `objdump -dr` names every call's target through its
/// relocation, so the object files give an honest intra-TU call graph —
/// whatever the optimizer inlined is already flattened into the caller, and
/// whatever remains is a real out-of-line call. Starting from the
/// conversion-kernel root symbols we walk that graph and fail on any
/// reachable lock, throw, or per-value allocation symbol.
///
/// The frontier is an *audited allowlist* (tools/hqcheck/hotpath_allow.txt):
/// symbols the proof deliberately stops at, each with a committed
/// justification. The canonical entries are the vector<unsigned char>
/// growth machinery — gcc inlines the push_back slow path (operator new +
/// __throw_length_error guard) straight into the kernel bodies, and that
/// amortized growth is sanctioned because bench_smoke separately gates the
/// hyperq_convert_csv_realloc_total counter to 0 allocations/row. The
/// static proof and the runtime counter are complementary halves of the
/// same claim: the proof pins *what kinds* of runtime machinery the kernels
/// can touch, the counter pins *how often* the one allowed kind fires.

namespace hqcheck {

namespace {

struct ForbiddenRule {
  const char* category;
  const char* pattern;  // ERE over the demangled name (mangled as fallback)
};

/// What must never be reachable from a hot-path root. Matched against the
/// demangled symbol; the mangled alternatives cover symbols the demangler
/// leaves untouched (plain C names).
const ForbiddenRule kForbidden[] = {
    {"lock",
     "^(pthread_(mutex|cond|rwlock|spin)_|__gthrw_)|hyperq::common::(Mutex|MutexLock|CondVar)|"
     "^std::(recursive_)?mutex|^std::condition_variable"},
    {"throw",
     "^(__cxa_throw|__cxa_rethrow|__cxa_allocate_exception)$|^std::__throw_|"
     "^std::terminate"},
    {"per-value-string",
     "^std::__cxx11::to_string|basic_string<.*>::(_M_create|_M_construct|_M_mutate|"
     "_M_replace|_M_append|_M_assign|append|push_back|reserve|operator\\+|basic_string)"},
    {"alloc",
     "^operator new|^operator delete|^(malloc|calloc|realloc|free|aligned_alloc|posix_memalign)$"},
};

/// `sym.cold` / `sym.isra.0` / `sym.part.0` → {sym, ".cold"...}. The clone
/// suffix is kept for display but stripped for demangling and root
/// matching.
std::pair<std::string, std::string> SplitCloneSuffix(const std::string& sym) {
  static const char* const kSuffixes[] = {".cold", ".isra", ".part", ".constprop", ".lto_priv"};
  size_t best = std::string::npos;
  for (const char* s : kSuffixes) {
    size_t pos = sym.find(s);
    if (pos != std::string::npos && pos < best) best = pos;
  }
  if (best == std::string::npos) return {sym, ""};
  return {sym.substr(0, best), sym.substr(best)};
}

std::string Demangle(const std::string& sym) {
  auto [base, suffix] = SplitCloneSuffix(sym);
  int status = 0;
  char* out = abi::__cxa_demangle(base.c_str(), nullptr, nullptr, &status);
  std::string result = status == 0 && out != nullptr ? out : base;
  std::free(out);
  if (!suffix.empty()) result += " [clone " + suffix + "]";
  return result;
}

struct CallGraph {
  // symbol -> callees (in first-seen order, deduplicated).
  std::map<std::string, std::vector<std::string>> edges;
  // symbol -> object file it is defined in.
  std::map<std::string, std::string> object_of;
  std::vector<std::string> definition_order;
};

/// Parses concatenated `objdump -dr` output. Function bodies start with
/// `0000... <mangled>:`; call/jump targets appear as relocation lines
/// (`R_X86_64_PLT32  _Znwm-0x4`). Object boundaries come from objdump's
/// `path:  file format ...` banner.
CallGraph ParseDisassembly(const std::string& disasm) {
  CallGraph g;
  std::istringstream in(disasm);
  std::string line;
  std::string current_object = "<unknown object>";
  std::string current_fn;
  std::set<std::pair<std::string, std::string>> seen_edges;
  while (std::getline(in, line)) {
    size_t banner = line.find(":     file format ");
    if (banner != std::string::npos) {
      current_object = line.substr(0, banner);
      continue;
    }
    // `0000000000000f00 <_ZN6...>:`
    if (!line.empty() && std::isxdigit(static_cast<unsigned char>(line[0])) != 0) {
      size_t open = line.find(" <");
      if (open != std::string::npos && line.back() == ':' &&
          line.find('>') == line.size() - 2) {
        current_fn = line.substr(open + 2, line.size() - open - 4);
        if (g.edges.find(current_fn) == g.edges.end()) {
          g.edges[current_fn];
          g.object_of[current_fn] = current_object;
          g.definition_order.push_back(current_fn);
        }
        continue;
      }
    }
    size_t reloc = line.find("R_X86_64_");
    if (reloc == std::string::npos || current_fn.empty()) continue;
    size_t sym_begin = line.find_first_of(" \t", reloc);
    if (sym_begin == std::string::npos) continue;
    sym_begin = line.find_first_not_of(" \t", sym_begin);
    if (sym_begin == std::string::npos) continue;
    std::string target = line.substr(sym_begin);
    while (!target.empty() && (target.back() == '\r' || target.back() == ' ')) target.pop_back();
    // Strip the addend: `_Znwm-0x4`, `.text+0x40`.
    size_t addend = target.find_last_of("+-");
    if (addend != std::string::npos && target.compare(addend + 1, 2, "0x") == 0) {
      target = target.substr(0, addend);
    }
    if (target.empty() || target[0] == '.') continue;  // section-relative, not a symbol
    if (target == current_fn) continue;                // recursion is not an edge
    if (seen_edges.insert({current_fn, target}).second) {
      g.edges[current_fn].push_back(target);
    }
  }
  return g;
}

}  // namespace

namespace internal {

// The interlock pass fuses these relocation edges into its source call graph
// (cross-TU summary propagation); same parser, shared shape.
BinCallGraph ParseDisasmCallGraph(const std::string& disasm) {
  CallGraph g = ParseDisassembly(disasm);
  BinCallGraph out;
  out.edges = std::move(g.edges);
  out.object_of = std::move(g.object_of);
  out.definition_order = std::move(g.definition_order);
  return out;
}

std::string DemangleSymbol(const std::string& sym) { return Demangle(sym); }

}  // namespace internal

std::vector<AllowEntry> ParseAllowFile(const std::string& path, const std::string& content,
                                       std::vector<Diagnostic>* diags) {
  std::vector<AllowEntry> entries;
  std::istringstream in(content);
  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    std::string text = raw;
    std::string justification;
    size_t hash = raw.find('#');
    if (hash != std::string::npos) {
      text = raw.substr(0, hash);
      justification = raw.substr(hash + 1);
      size_t b = justification.find_first_not_of(" \t");
      justification = b == std::string::npos ? "" : justification.substr(b);
    }
    size_t b = text.find_first_not_of(" \t");
    if (b == std::string::npos) continue;
    size_t e = text.find_last_not_of(" \t");
    std::string pattern = text.substr(b, e - b + 1);
    if (justification.empty()) {
      diags->push_back({path, line, "hotpath-symbol",
                        "allowlist entry `" + pattern +
                            "` has no justification; every frontier cut must say why it is "
                            "sound (`<regex>  # <reason>`)"});
      continue;
    }
    try {
      std::regex probe(pattern, std::regex::extended);
    } catch (const std::regex_error&) {
      diags->push_back({path, line, "hotpath-symbol",
                        "allowlist entry `" + pattern + "` is not a valid POSIX ERE"});
      continue;
    }
    entries.push_back({pattern, justification});
  }
  return entries;
}

std::vector<Diagnostic> RunHotpathProof(const std::string& disasm,
                                        const HotpathProofOptions& options,
                                        std::ostream* report) {
  std::vector<Diagnostic> diags;
  CallGraph g = ParseDisassembly(disasm);

  std::regex roots_re;
  try {
    roots_re = std::regex(options.roots_regex, std::regex::extended);
  } catch (const std::regex_error&) {
    diags.push_back({"<args>", 0, "hotpath-symbol",
                     "--roots `" + options.roots_regex + "` is not a valid POSIX ERE"});
    return diags;
  }
  std::vector<std::regex> allow_res;
  allow_res.reserve(options.allow.size());
  for (const AllowEntry& e : options.allow) {
    allow_res.emplace_back(e.pattern, std::regex::extended);
  }
  std::vector<std::regex> forbidden_res;
  for (const ForbiddenRule& r : kForbidden) {
    forbidden_res.emplace_back(r.pattern, std::regex::extended);
  }

  // Demangled names are computed once per symbol (demangling is slow).
  std::map<std::string, std::string> demangled;
  auto name_of = [&](const std::string& sym) -> const std::string& {
    auto it = demangled.find(sym);
    if (it == demangled.end()) it = demangled.emplace(sym, Demangle(sym)).first;
    return it->second;
  };
  auto allow_index = [&](const std::string& sym) -> int {
    for (size_t k = 0; k < allow_res.size(); ++k) {
      if (std::regex_search(name_of(sym), allow_res[k]) ||
          std::regex_search(sym, allow_res[k])) {
        return static_cast<int>(k);
      }
    }
    return -1;
  };
  auto forbidden_category = [&](const std::string& sym) -> const char* {
    for (size_t k = 0; k < forbidden_res.size(); ++k) {
      if (std::regex_search(name_of(sym), forbidden_res[k]) ||
          std::regex_search(sym, forbidden_res[k])) {
        return kForbidden[k].category;
      }
    }
    return nullptr;
  };

  // Roots: defined, demangle-matching, and not compiler clones (the .cold
  // half of a kernel is reached through its hot half's edge).
  std::vector<std::string> roots;
  for (const std::string& sym : g.definition_order) {
    if (!SplitCloneSuffix(sym).second.empty()) continue;
    if (std::regex_search(name_of(sym), roots_re)) roots.push_back(sym);
  }
  if (roots.empty()) {
    diags.push_back({"<roots>", 0, "hotpath-symbol",
                     "no defined symbol matches roots regex `" + options.roots_regex +
                         "`; an empty proof proves nothing — fix the regex or the object "
                         "list"});
    return diags;
  }

  // BFS from all roots with parent links for witness chains.
  std::map<std::string, std::string> parent;  // discovered -> discoverer
  std::vector<std::string> queue = roots;
  std::set<std::string> visited(roots.begin(), roots.end());
  std::set<std::string> allow_used;
  size_t reached = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    std::string fn = queue[head];
    auto eit = g.edges.find(fn);
    if (eit == g.edges.end()) continue;
    for (const std::string& callee : eit->second) {
      if (visited.count(callee) != 0) continue;
      visited.insert(callee);
      parent[callee] = fn;
      ++reached;
      int ai = allow_index(callee);
      if (ai >= 0) {
        allow_used.insert(options.allow[static_cast<size_t>(ai)].pattern);
        continue;  // audited frontier: do not traverse, do not judge
      }
      const char* category = forbidden_category(callee);
      if (category != nullptr) {
        // Witness chain back to a root.
        std::vector<std::string> chain{callee};
        std::string cur = fn;
        while (true) {
          chain.push_back(cur);
          auto pit = parent.find(cur);
          if (pit == parent.end()) break;
          cur = pit->second;
        }
        std::reverse(chain.begin(), chain.end());
        std::string chain_text;
        for (size_t k = 0; k < chain.size(); ++k) {
          if (k != 0) chain_text += " -> ";
          chain_text += name_of(chain[k]);
        }
        std::string object = g.object_of.count(chain.front()) != 0
                                 ? g.object_of.at(chain.front())
                                 : "<unknown object>";
        diags.push_back({object, 0, "hotpath-symbol",
                         std::string(category) + " symbol `" + name_of(callee) +
                             "` is reachable from hot-path root `" + name_of(chain.front()) +
                             "`: " + chain_text});
        continue;
      }
      if (g.edges.count(callee) != 0) queue.push_back(callee);
    }
  }

  if (report != nullptr) {
    *report << "hotpath symbol proof: " << roots.size() << " roots, " << reached
            << " reachable symbols, " << diags.size() << " violations\n";
    if (options.verbose) {
      for (const std::string& r : roots) *report << "  root: " << name_of(r) << "\n";
    }
    for (const AllowEntry& e : options.allow) {
      bool used = allow_used.count(e.pattern) != 0;
      *report << "  frontier " << (used ? "[used]  " : "[unused]") << " " << e.pattern << "  # "
              << e.justification << "\n";
    }
    for (const Diagnostic& d : diags) *report << "  VIOLATION " << Format(d) << "\n";
  }
  std::sort(diags.begin(), diags.end(), [](const Diagnostic& a, const Diagnostic& b) {
    if (a.path != b.path) return a.path < b.path;
    return a.message < b.message;
  });
  return diags;
}

}  // namespace hqcheck
