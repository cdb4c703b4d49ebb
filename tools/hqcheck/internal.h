#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "hqcheck.h"

/// \file internal.h
/// Shared plumbing between hqcheck's analysis passes. The source rules
/// (hqcheck.cc, file_rules.cc), the interprocedural lock pass (interlock.cc)
/// and the taint pass (taint.cc) all walk the same lexed token streams and
/// share the same declaration model; this header is the seam between them. Nothing here is
/// part of the tool's public contract (that is hqcheck.h) — tests may reach
/// in, production code must not.

namespace hqcheck::internal {

// ---------------------------------------------------------------------------
// Lock ranks (mirror of common/sync.h LockRank; hqcheck is standalone)
// ---------------------------------------------------------------------------

inline constexpr int kNumLockRanks = 10;

/// Index of `name` ("kLogging".."kLifecycle") in the hierarchy; -1 unknown.
int LockRankIndex(const std::string& name);
/// Rank name for index 0..9; "k?" out of range.
const char* LockRankNameAt(int index);

// ---------------------------------------------------------------------------
// Declarations (pass 1 model, merged across files)
// ---------------------------------------------------------------------------

struct EnumInfo {
  std::string name;
  std::vector<std::string> enumerators;
  std::string path;
  int line = 0;
};

struct MutexSite {
  std::string scope;  // owning class, or "" at namespace/function scope
  std::string var;
  std::string rank;   // "" when the construction names no LockRank
  std::string label;  // "" when the construction names no string
  std::string path;
  int line = 0;
};

/// Everything pass 1 learns about the linted set, merged across files.
struct Declarations {
  // class -> field -> guard mutex (last identifier of the annotation arg).
  std::map<std::string, std::map<std::string, std::string>> guarded;
  // class -> method -> set of mutexes the method requires.
  std::map<std::string, std::map<std::string, std::set<std::string>>> requires_;
  // class -> mutex member -> rank name; "" class for namespace-scope mutexes.
  std::map<std::string, std::map<std::string, std::string>> mutex_ranks;
  // mutex variable name -> rank, when every declaration of that name agrees
  // (used to resolve lock-nesting when the owning class is not in view).
  std::map<std::string, std::string> var_ranks;
  std::set<std::string> var_rank_conflicts;
  std::map<std::string, EnumInfo> enums;
  std::set<std::string> ambiguous_enums;  // same name, different enumerators
  // enumerator -> enum names it appears in (for unqualified case labels).
  std::map<std::string, std::set<std::string>> enumerator_owners;
  std::vector<MutexSite> mutex_sites;
  // every class/struct name with a definition in the analysed set.
  std::set<std::string> class_names;
  // base class -> directly derived classes (from inheritance clauses).
  // Virtual calls through a base pointer resolve to every override.
  std::map<std::string, std::set<std::string>> derived;
};

// ---------------------------------------------------------------------------
// Token-walk helpers
// ---------------------------------------------------------------------------

const std::set<std::string>& ControlKeywords();

/// Token index of the matching closer for the opener at `i` ("(", "{", "[",
/// all tracked together), or the kEnd index when unbalanced.
size_t MatchingClose(const std::vector<Token>& t, size_t i);

/// Last identifier token text in [begin, end) — the resolved name of a
/// guard expression like `&job->mu_` or `this->mu_`.
std::string LastIdent(const std::vector<Token>& t, size_t begin, size_t end);

void CollectDeclarations(const LexedFile& f, Declarations* decls);

/// Second declaration sweep, run once class_names is complete: maps variable
/// (member, local, parameter) names to the repo class they are declared as,
/// resolving `Foo f`, `Foo* f`, `const Foo& f`, and `smart_ptr<Foo> f`
/// spellings. A name declared as several classes maps to the union.
void CollectVarTypes(const LexedFile& f, const std::set<std::string>& class_names,
                     std::map<std::string, std::set<std::string>>* var_types);

/// Declared rank of `guard` as seen from class `cls` ("" when unknown).
std::string ResolveRank(const Declarations& d, const std::string& cls,
                        const std::string& guard);

bool EndsWith(const std::string& s, const std::string& suffix);

/// True for paths under tests/ or bench/: test-local code that the
/// production-only rules (the lock-rank manifest, throwing-conversion) skip.
bool TestLocalPath(const std::string& path);

/// Invokes `fn(cls, method, ctor_dtor, open, close)` for every function body
/// in the file; `open`/`close` are token indexes of the body braces. `cls`
/// resolves `X::Name` qualifiers over the enclosing scope.
using BodyCallback = std::function<void(const std::string& cls, const std::string& method,
                                        bool ctor_dtor, size_t open, size_t close)>;
void ForEachFunctionBody(const LexedFile& f, const BodyCallback& fn);

// ---------------------------------------------------------------------------
// File-level token rules and the stale-allow audit (file_rules.cc)
// ---------------------------------------------------------------------------

/// Every rule the default source mode runs (the audit's `ran` set there).
const std::set<std::string>& SourceRules();

/// Free functions that block the calling thread (`sleep_for`, `usleep`, ...).
const std::set<std::string>& SleepCalls();

/// True when t[i] is called as a member: `.name(` or `->name(`.
bool IsMemberCall(const std::vector<Token>& t, size_t i);

/// naked-mutex, new-delete, include-hygiene, unbounded-retry and
/// throwing-conversion over `f`.
void CheckFileRules(const LexedFile& f, std::vector<Diagnostic>* diags);

/// stale-allow: run after every rule of a mode. Reports each allow marker
/// for a rule in `ran`, or for a rule no mode knows, that suppressed
/// nothing — unless a `stale-allow` marker parks it.
void AuditAllows(const std::vector<LexedFile>& lexed, const std::set<std::string>& ran,
                 std::vector<Diagnostic>* diags);

// ---------------------------------------------------------------------------
// Binary call graph (objdump -dr relocation edges; defined in symbol_proof.cc)
// ---------------------------------------------------------------------------

struct BinCallGraph {
  // mangled symbol -> callees (first-seen order, deduplicated).
  std::map<std::string, std::vector<std::string>> edges;
  // symbol -> object file it is defined in.
  std::map<std::string, std::string> object_of;
  std::vector<std::string> definition_order;
};

/// Parses concatenated `objdump -dr` output into the relocation call graph.
BinCallGraph ParseDisasmCallGraph(const std::string& disasm);

/// Demangles a (possibly clone-suffixed) symbol; returns the input when the
/// demangler declines.
std::string DemangleSymbol(const std::string& sym);

// ---------------------------------------------------------------------------
// Source digests (hotpath stamp guard; defined in cli.cc helpers)
// ---------------------------------------------------------------------------

/// FNV-1a 64 over the bytes, rendered as 16 lowercase hex digits.
std::string Fnv64Hex(const std::string& bytes);

}  // namespace hqcheck::internal
