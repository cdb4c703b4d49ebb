#pragma once

#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

/// \file hqcheck.h
/// The repo's static analyzer. It lexes the sources into tokens, parses
/// declaration scopes, and runs an intraprocedural dataflow pass per
/// function body, plus two whole-program passes and a binary proof.
/// Self-contained on purpose (no dependency on src/) so the checker builds
/// even when the tree it is checking does not.
///
/// Source rules (default mode; see DESIGN.md "Static analysis: hqcheck"):
///   guarded-field   every read/write of a field declared
///                   HQ_GUARDED_BY(mu) happens under a live
///                   MutexLock/MutexLock2 on mu or inside a method
///                   annotated HQ_REQUIRES(mu). This is clang's
///                   thread-safety analysis re-derived lexically, so
///                   gcc-only builds get the same race protection.
///   lock-rank       every `Mutex` construction names a LockRank, and every
///                   production (outside tests/ and bench/) construction
///                   `Mutex name{LockRank::kX, "label"}` appears in the
///                   machine-readable manifest (tools/hqcheck/lock_ranks.txt)
///                   with the same rank; every manifest entry must match a
///                   live production construction site — the manifest is
///                   the single source of truth the DESIGN.md table is
///                   written from.
///   lock-nesting    a MutexLock acquired while another lock is live must
///                   name a mutex of strictly lower rank (resolved through
///                   the declared rank of the mutex variable); same-rank
///                   pairs must use MutexLock2, and a nesting whose ranks
///                   cannot be attributed is itself a finding.
///   enum-switch     a switch whose case labels name enumerators of a
///                   repo-declared enum must cover every enumerator of
///                   that enum; `default:` does not count as coverage
///                   (it swallows the -Wswitch signal that would otherwise
///                   flag the next enumerator someone adds).
///   naked-mutex     std::mutex / lock_guard / condition_variable (and
///                   friends) outside common/sync.h.
///   new-delete      raw `new` outside a unique_ptr/shared_ptr construction
///                   in the same statement; raw `delete`.
///   include-hygiene headers open with #pragma once; no `using namespace`.
///   blocking-under-lock
///                   Put/Get/Push/Pop/Acquire member calls and sleeps while
///                   a MutexLock is live; CondVar WaitFor/WaitUntil while a
///                   *second* lock is held above the waiting one.
///   unbounded-retry a loop whose condition or body both sleeps and issues
///                   an I/O-shaped member call without common::RetryPolicy.
///   throwing-conversion
///                   a production (outside tests/ and bench/) call to
///                   std::stoi/stol/stoll/stod and friends, which throw on
///                   bad text that nothing catches.
///   stale-allow     an allow marker for a rule the mode ran (or for no
///                   rule at all) that suppressed nothing.
///
/// Whole-program rules (see DESIGN.md "Whole-program proofs"):
///   may-acquire     interprocedural lock proof: per-function may-acquire
///                   rank summaries computed to a fixpoint over the repo
///                   call graph (scope-parser edges fused with objdump
///                   relocation edges), flagging calls made under a lock to
///                   functions that may acquire an equal-or-higher rank.
///                   Diffable against the runtime LockOrderGraph DOT.
///   taint           untrusted-input proof: wire integers inside decoder
///                   functions are tainted until a bounds comparison
///                   dominates them; indexes/lengths/memcpy-family sinks
///                   fed by unchecked taint are findings.
///
/// Any rule is suppressed for a line by `// hqcheck:allow(<rule>)` on the
/// same line or the line directly above it — except taint, whose only
/// escape is `// hqcheck:trusted(taint): <justification>`; the justification
/// is mandatory and unused markers are audited (stale ones fail).
///
/// The binary-level rule (hotpath-symbol) lives in symbol_proof.cc: a
/// reachability proof over `objdump -dr` call relocations asserting that no
/// lock, throw, or per-value allocation symbol is reachable from the
/// conversion kernels and decoders. See HotpathProofOptions.

namespace hqcheck {

struct Diagnostic {
  std::string path;
  int line = 0;  // 1-based
  std::string rule;
  std::string message;

  bool operator==(const Diagnostic& other) const {
    return path == other.path && line == other.line && rule == other.rule &&
           message == other.message;
  }
};

/// "path:line: [rule] message" — the shape editors jump to and the golden
/// tests compare verbatim.
std::string Format(const Diagnostic& d);

// ---------------------------------------------------------------------------
// Lexer (shared by the analyzer and its tests)
// ---------------------------------------------------------------------------

enum class TokKind { kIdent, kNumber, kString, kChar, kPunct, kEnd };

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;  // string tokens carry their unquoted content
  int line = 0;      // 1-based
};

/// One `// hqcheck:trusted(<rule>): <justification>` comment marker — the
/// source-level mirror of the hotpath allow frontier. Unlike plain allow
/// markers, a trusted marker must carry justification text and passes audit
/// both ways: a marker that suppresses nothing is itself a finding.
struct TrustedMarker {
  int line = 0;  // 1-based line the marker appears on
  std::string rule;
  std::string justification;
};

struct LexedFile {
  std::string path;
  std::vector<Token> tokens;                  // kEnd-terminated
  std::vector<std::set<std::string>> allows;  // per line (0-based), from comments
  // Markers that suppressed a finding, recorded by Allowed() for the
  // stale-allow audit. Mutable: recording use is bookkeeping, not file state.
  mutable std::vector<std::set<std::string>> used;
  std::vector<TrustedMarker> trusted;         // in file order
  int line_count = 0;
  int first_code_line = 0;             // first directive or token, 1-based
  bool opens_with_pragma_once = false;  // that first line is `#pragma once`

  /// True when a marker for `rule` sits on `line` (1-based) or the line
  /// above; the marker is recorded as used. Call only for a real finding.
  bool Allowed(int line, const std::string& rule) const;
  /// Marker for `rule` on `line` or the line above, or nullptr.
  const TrustedMarker* Trusted(int line, const std::string& rule) const;
};

/// Lexes C++ source: comments are consumed (harvesting allow and trusted
/// markers; an allow rule name is lowercase letters and dashes),
/// string/char literals become single tokens, multi-char punctuators (`::`,
/// `->`, `>>` is split — template brackets matter more than shifts here)
/// are preserved, and preprocessor directives are skipped.
LexedFile Lex(std::string path, const std::string& content);

// ---------------------------------------------------------------------------
// Lock-rank manifest
// ---------------------------------------------------------------------------

/// One line of tools/hqcheck/lock_ranks.txt: `<rank-name> <mutex-label>`.
struct ManifestEntry {
  std::string rank;   // e.g. "kJob"
  std::string label;  // the string name passed to the Mutex constructor
  int line = 0;       // 1-based line in the manifest file
};

/// Parses the manifest text. Unknown rank names and malformed lines are
/// reported as diagnostics against `path`.
std::vector<ManifestEntry> ParseManifest(const std::string& path, const std::string& content,
                                         std::vector<Diagnostic>* diags);

// ---------------------------------------------------------------------------
// Analyzer
// ---------------------------------------------------------------------------

/// Options for the interprocedural may-acquire pass (rule `may-acquire`,
/// defined in interlock.cc; see DESIGN.md "Whole-program proofs").
struct InterlockOptions {
  /// Pre-captured `objdump -dr` output. Its relocation edges are fused into
  /// the source call graph as extra summary-propagation edges, covering
  /// cross-TU calls through templates/inlined headers the scope parser
  /// cannot attribute. Optional.
  std::string disasm;
  /// Contents of a runtime LockOrderGraph DOT dump (obs::LockGraphToDot) to
  /// diff against the static edge set: every runtime edge must be statically
  /// derivable (a gap is a diagnostic — the static set is supposed to be a
  /// superset), and statically-proven edges never traveled at runtime are
  /// listed in the report. Optional.
  std::string lockgraph_dot;
  std::string lockgraph_path;  // echoed in diagnostics against the dot
  bool verbose = false;
};

/// Options for the untrusted-input taint pass (rule `taint`, defined in
/// taint.cc). `surfaces` is the contents of tools/hqcheck/taint_surfaces.txt
/// naming the decoder functions to analyse (`decoder Class::Method`, `*`
/// wildcards allowed) and extra taint-source functions (`source GetVarint`).
struct TaintOptions {
  std::string surfaces_path;
  std::string surfaces;
  bool verbose = false;
};

class Analyzer {
 public:
  /// Registers one file for the next Run(). `path` is echoed verbatim in
  /// diagnostics.
  void AddFile(std::string path, std::string content);

  /// Provides the lock-rank manifest (contents of lock_ranks.txt). Without
  /// it the lock-rank rule only checks that every construction names a
  /// rank, not manifest membership, and the interlock runtime diff cannot
  /// map mutex names back to ranks.
  void SetManifest(std::string path, std::string content);

  /// Runs every rule over every added file. Deterministic: diagnostics are
  /// sorted by (path, line, rule). Safe to call repeatedly.
  std::vector<Diagnostic> Run() const;

  /// Interprocedural may-acquire lock proof over the added files: builds the
  /// repo-wide call graph (scope parser intra-TU, objdump relocations
  /// cross-TU), computes per-function may-acquire rank summaries to a
  /// fixpoint, and flags any call made while holding rank R to a function
  /// whose summary may acquire rank >= R. `report` (may be null) receives
  /// the proven static edge set and the runtime diff.
  std::vector<Diagnostic> RunInterlock(const InterlockOptions& options,
                                       std::ostream* report) const;

  /// Untrusted-input taint proof over the added files: inside every decoder
  /// named by the surfaces manifest, integers read from the wire are tainted
  /// and must be dominated by a bounds comparison before reaching an index,
  /// size, or memcpy-family sink. Suppression is only via audited
  /// `// hqcheck:trusted(taint): <justification>` markers, and stale markers
  /// are themselves findings.
  std::vector<Diagnostic> RunTaint(const TaintOptions& options, std::ostream* report) const;

 private:
  struct SourceFile {
    std::string path;
    std::string content;
  };
  std::vector<SourceFile> files_;
  std::string manifest_path_;
  std::string manifest_;
  bool has_manifest_ = false;
};

// ---------------------------------------------------------------------------
// Hot-path symbol proof
// ---------------------------------------------------------------------------

/// One audited frontier entry: reachability stops at (and absolves) any
/// symbol whose demangled or mangled name matches `pattern`.
struct AllowEntry {
  std::string pattern;        // POSIX ERE
  std::string justification;  // from the allow file; echoed in reports
};

/// Parses tools/hqcheck/hotpath_allow.txt: one `regex  # justification`
/// per line, '#'-led lines are comments.
std::vector<AllowEntry> ParseAllowFile(const std::string& path, const std::string& content,
                                       std::vector<Diagnostic>* diags);

struct HotpathProofOptions {
  /// ERE matched against demangled symbol names to pick the proof roots.
  std::string roots_regex;
  std::vector<AllowEntry> allow;
  /// When true, emit one `[hotpath-symbol] proved ...` info line per root
  /// to `report` (the ctest log artifact).
  bool verbose = false;
};

/// Runs the proof over pre-captured `objdump -dr --no-show-raw-insn`
/// output (one blob per object file, concatenated is fine). Returns the
/// violations; `report` (may be null) receives a human-readable summary
/// including the witness call chain for every violation and the roots
/// proven clean.
std::vector<Diagnostic> RunHotpathProof(const std::string& disasm,
                                        const HotpathProofOptions& options,
                                        std::ostream* report);

// ---------------------------------------------------------------------------
// CLI driver
// ---------------------------------------------------------------------------

/// Shared by main() and the tests (so exit codes are testable in-process).
/// Modes:
///   hqcheck [--root <dir>] [--manifest <file>] <file-or-dir>...
///   hqcheck --interlock [--root <dir>] [--manifest <file>]
///           [--lockgraph <dot>] [--report <file>]
///           (<file-or-dir> | --disasm <txt> | <object.o>)...
///   hqcheck --taint --surfaces <file> [--root <dir>] [--report <file>]
///           <file-or-dir>...
///   hqcheck --hotpath --roots <regex> [--allow <file>] [--report <file>]
///           [--stamp <file>] (--disasm <txt> | <object.o>...)
///   hqcheck --make-stamp <out-file> <source-file>...
/// Directories are walked recursively for .h/.hpp/.cc/.cpp files, skipping
/// "testdata" and build directories. With --root, reported paths are
/// relative to it. Object files are disassembled with `objdump -dr`;
/// --disasm feeds pre-captured output instead (tests). --make-stamp records
/// a digest per source file; --stamp makes --hotpath verify those digests
/// against the current sources first, so a proof over stale objects fails
/// loudly instead of passing vacuously. Returns 0 (clean), 1 (violations
/// printed to `out`), 2 (usage/IO error printed to `err`).
int RunHqcheck(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

}  // namespace hqcheck
