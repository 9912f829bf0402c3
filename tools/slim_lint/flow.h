#ifndef SLIM_TOOLS_SLIM_LINT_FLOW_H_
#define SLIM_TOOLS_SLIM_LINT_FLOW_H_

/// \file flow.h
/// \brief Flow-aware concurrency-contract analysis for slim_lint.
///
/// The original linter scanned each file line by line with regexes — fine
/// for includes and macro arguments, blind to *scope*. The concurrency
/// contracts introduced by the MVCC TripleStore (DESIGN.md §10)
/// are scope properties: which locks are held *here*, is a snapshot pin
/// still alive *there*. This header provides the machinery to check them:
///
///  1. A table-driven C++ **tokenizer** (`Tokenize`): maximal-munch
///     punctuator table, comment/whitespace skipping, string/char/raw
///     literals, and whole preprocessor directives (with backslash
///     continuations) folded into single tokens so macro *definitions* are
///     never mistaken for code.
///  2. A **scope-tracking pass** (`BuildFlowModel`): walks the token
///     stream with a namespace/class/function/block scope stack and
///     extracts a `FlowFile` model — mutex member declarations (with their
///     lock-site names), class fields (for GUARDED_BY coverage), and per
///     function: lock acquisitions, snapshot pins, read-path calls,
///     blocking calls and plain calls, each recorded with the set of locks
///     and pins lexically live at that point.
///  3. A **tree index** (`FlowIndex`): resolves member-mutex expressions
///     (`&mu_`, `&store.write_mu_`) to their declared lock-site names
///     across translation units, using the class context of the enclosing
///     function and the declared types of member fields.
///
/// Four rules consume the models (lock-order lives in lock_graph.h):
///
///  - `raw-mutex` (ported from the regex scanner): raw std::mutex
///    declarations in instrumented layers.
///  - `guarded-by-coverage`: every mutable field of a class that owns a
///    `util::InstrumentedMutex` must carry `GUARDED_BY(...)` or a
///    `// slim-lint: allow(unguarded) -- <why>` suppression; atomics,
///    const/static members and nested synchronization primitives are
///    exempt (they synchronize themselves).
///  - `lock-across-blocking`: an instrumented lock held across socket
///    I/O, `condition_variable::wait*` or `sleep_for`/`sleep_until`
///    stalls every contender (and, held across a writer batch, epoch
///    reclamation); release first or suppress with justification.
///  - `snapshot-discipline` (LintSnapshotDiscipline, interprocedural):
///    in src/slim and src/trim a read-path call (`SelectEach`,
///    `Distinct{Subjects,Properties,Objects}`) must be covered by a live
///    `TripleStore::Snapshot`, a snapshot parameter, a `BeginRead()` pin,
///    or the writer lock (a writer reads its own pending epoch);
///    coverage may come from any caller, so the check
///    propagates uncovered reads up the (simple-name) call graph and only
///    reports reads still exposed at a call-graph root. The local half
///    flags a Snapshot whose lifetime encloses a `WriterScope`,
///    `ApplyBatch` or blocking call — pinning while writing stalls epoch
///    reclamation.

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint.h"

namespace slim::lint {

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

/// Token kinds, X-macro style (the quirrel_static_analyzer lexer idiom):
/// one table drives the enum, the debug names and the punctuator matcher.
#define SLIM_LINT_TOKEN_KINDS(TOKEN_KIND)    \
  TOKEN_KIND(kEnd, "<end>")                  \
  TOKEN_KIND(kIdent, "<identifier>")         \
  TOKEN_KIND(kNumber, "<number>")            \
  TOKEN_KIND(kString, "<string>")            \
  TOKEN_KIND(kChar, "<char>")                \
  TOKEN_KIND(kDirective, "<directive>")      \
  TOKEN_KIND(kScope, "::")                   \
  TOKEN_KIND(kArrow, "->")                   \
  TOKEN_KIND(kDot, ".")                      \
  TOKEN_KIND(kComma, ",")                    \
  TOKEN_KIND(kSemi, ";")                     \
  TOKEN_KIND(kColon, ":")                    \
  TOKEN_KIND(kLParen, "(")                   \
  TOKEN_KIND(kRParen, ")")                   \
  TOKEN_KIND(kLBrace, "{")                   \
  TOKEN_KIND(kRBrace, "}")                   \
  TOKEN_KIND(kLBracket, "[")                 \
  TOKEN_KIND(kRBracket, "]")                 \
  TOKEN_KIND(kLess, "<")                     \
  TOKEN_KIND(kGreater, ">")                  \
  TOKEN_KIND(kAmp, "&")                      \
  TOKEN_KIND(kStar, "*")                     \
  TOKEN_KIND(kAssign, "=")                   \
  TOKEN_KIND(kPunct, "<punct>")

enum class TokKind {
#define TOKEN_KIND(name, spelling) name,
  SLIM_LINT_TOKEN_KINDS(TOKEN_KIND)
#undef TOKEN_KIND
};

/// Debug spelling of a kind (fixed punctuators print themselves).
const char* TokKindName(TokKind kind);

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string_view text;  ///< View into the tokenized source.
  int line = 0;           ///< 1-based line of the token's first character.
};

/// Tokenizes C++ source. Comments and whitespace are skipped; string,
/// char and raw-string literals become single kString/kChar tokens; a
/// preprocessor directive (including backslash-continued lines) becomes
/// one kDirective token whose text spans the whole directive. The final
/// token is always kEnd.
std::vector<Token> Tokenize(std::string_view src);

// ---------------------------------------------------------------------------
// Flow model
// ---------------------------------------------------------------------------

/// A mutex-typed data member declaration inside a class.
struct MutexDecl {
  std::string class_name;  ///< Innermost enclosing class ("" at namespace
                           ///< scope — function-local statics land here too).
  std::string member;      ///< Declared name, e.g. "write_mu_".
  std::string site;        ///< InstrumentedMutex site literal; "" for raw.
  int line = 0;
  bool raw = false;         ///< std::mutex (and variants) vs instrumented.
  bool suppressed = false;  ///< Line carries allow(raw-mutex).
};

/// A non-mutex data member declaration (guarded-by-coverage input and the
/// receiver-type hint for cross-class call resolution).
struct FieldDecl {
  std::string class_name;
  std::string name;
  std::string type_text;  ///< Declaration tokens left of the name, joined.
  int line = 0;
  bool guarded = false;       ///< Carries GUARDED_BY(...).
  bool is_const = false;      ///< const / constexpr.
  bool is_atomic = false;     ///< std::atomic<...> (or atomic member array).
  bool suppressed = false;    ///< Line carries allow(unguarded).
};

/// One lock or pin lexically live at some program point.
struct HeldLock {
  enum class Kind { kMutexLock, kUniqueLock, kWriterScope, kRequires };
  Kind kind = Kind::kMutexLock;
  std::string mutex_expr;  ///< "mu_", "store.write_mu_"; "" for WriterScope.
  int line = 0;            ///< Acquisition line.
};

/// A call to one of the TripleStore read paths.
struct ReadCall {
  std::string callee;
  int line = 0;
  bool covered = false;     ///< Snapshot/pin/writer-lock live at the call.
  bool suppressed = false;  ///< Line carries allow(snapshot-discipline).
};

/// A call that can block (socket I/O, cv wait, sleep).
struct BlockingCall {
  std::string callee;
  int line = 0;
  std::vector<HeldLock> held;      ///< Instrumented locks live at the call.
  bool snapshot_live = false;      ///< A Snapshot pin encloses the call.
  int snapshot_line = 0;
  bool suppressed = false;  ///< allow(lock-across-blocking) on the line.
};

/// One lock acquisition together with the locks already held at that
/// point — the raw material of the lock-order graph.
struct Acquisition {
  HeldLock lock;
  std::vector<HeldLock> held_before;
};

/// A plain call site (call-graph edge for interprocedural propagation).
struct CallSite {
  std::string callee;    ///< Simple name.
  std::string receiver;  ///< "x" in x.Foo() / x->Foo(); "" for free calls.
  int line = 0;
  std::vector<HeldLock> held;
  bool snapshot_live = false;  ///< Snapshot pin covers this call site.
};

/// A WriterScope (or ApplyBatch) entered while a Snapshot pin is live.
struct PinnedWrite {
  std::string what;  ///< "WriterScope" / "ApplyBatch".
  int line = 0;
  int snapshot_line = 0;
  bool suppressed = false;
};

/// One function definition's extracted facts.
struct FunctionModel {
  std::string class_name;  ///< Explicit A::B qualifier or enclosing class.
  std::string name;        ///< Simple name.
  int line = 0;
  bool has_snapshot_param = false;  ///< Signature mentions Snapshot.
  bool calls_begin_read = false;    ///< TripleStore-internal pin idiom.
  std::vector<std::string> requires_exprs;  ///< REQUIRES(...) mutex exprs.
  std::vector<Acquisition> acquisitions;
  std::vector<ReadCall> reads;
  std::vector<BlockingCall> blocking;
  std::vector<CallSite> calls;
  std::vector<PinnedWrite> pinned_writes;
};

/// Everything the flow pass extracted from one file.
struct FlowFile {
  std::string path;  ///< Relative to the linted root.
  std::vector<MutexDecl> mutexes;
  std::vector<FieldDecl> fields;
  std::vector<FunctionModel> functions;
};

/// Tokenizes and walks one file. `contents` is the raw source (the pass
/// looks up suppression comments on the original lines).
FlowFile BuildFlowModel(const std::string& relative_path,
                        std::string_view contents);

// ---------------------------------------------------------------------------
// Tree index: cross-file lock-site resolution
// ---------------------------------------------------------------------------

class FlowIndex {
 public:
  void Add(const FlowFile& file);

  /// Resolves a mutex expression from an acquisition (or REQUIRES clause)
  /// in a function with class context `class_name` to the declared
  /// lock-site names it may denote. Resolution order: the trailing member
  /// identifier looked up in `class_name` and at namespace scope; then,
  /// for `obj.member` expressions, in the class named by the receiver
  /// field's declared type; finally tree-wide by member name — that last
  /// step can be ambiguous and yields every candidate (callers treat
  /// multi-candidate results conservatively).
  std::vector<std::string> ResolveSites(const std::string& class_name,
                                        const std::string& mutex_expr) const;

  /// Declared type text of `class_name::field`, or "" when unknown.
  const std::string& FieldType(const std::string& class_name,
                               const std::string& field) const;

  /// Site names of every InstrumentedMutex owned by `class_name`.
  std::vector<std::string> ClassSites(const std::string& class_name) const;

 private:
  /// (class, member) -> site; "" class key holds namespace-scope mutexes.
  std::map<std::pair<std::string, std::string>, std::string> by_class_;
  /// member -> sites, across all classes.
  std::map<std::string, std::set<std::string>> by_member_;
  std::map<std::pair<std::string, std::string>, std::string> field_types_;
  std::map<std::string, std::vector<std::string>> class_sites_;
};

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// Candidate definition keys ("Class::name"; "::name" for free functions)
/// that a call site may dispatch to. `by_simple` maps a simple name to
/// every key with a model. Dispatch is receiver-typed: an explicit
/// receiver restricts candidates to the class named by the receiver
/// field's declared type; a bare call (or `this->`) restricts to the
/// caller's own class and to free functions; a receiver whose type is
/// unknown (a local or parameter) yields nothing — for graph building, a
/// fabricated edge is worse than a missed one.
std::vector<std::string> ResolveCalleeKeys(
    const FlowIndex& index, const std::string& caller_class,
    const CallSite& call,
    const std::map<std::string, std::vector<std::string>>& by_simple);

/// raw-mutex (token-based port of the regex scanner; same diagnostics).
void LintRawMutexModel(const FlowFile& file, std::vector<Diagnostic>* out);

/// guarded-by-coverage over one file's classes.
void LintGuardedByCoverage(const FlowFile& file, const FlowIndex& index,
                           std::vector<Diagnostic>* out);

/// lock-across-blocking over one file's functions.
void LintLockAcrossBlocking(const FlowFile& file, const FlowIndex& index,
                            std::vector<Diagnostic>* out);

/// snapshot-discipline over the whole tree (interprocedural half plus the
/// pin-across-write/blocking local half).
void LintSnapshotDiscipline(const std::vector<FlowFile>& files,
                            const FlowIndex& index,
                            std::vector<Diagnostic>* out);

}  // namespace slim::lint

#endif  // SLIM_TOOLS_SLIM_LINT_FLOW_H_
