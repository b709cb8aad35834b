// mg_analyze — call-graph-aware repo invariant analyzer (docs/CORRECTNESS.md).
//
// Successor to mg_lint: the same textual contracts, now checked on a symbol
// index of the whole src/ tree instead of single files in isolation. The
// analyzer lexes every source file (comments and string literals stripped
// with line structure preserved), indexes function definitions with an
// approximate brace-matching parser, links call sites by name into an
// intra-project call graph, and runs rule engines over the result:
//
//   nondeterminism     no nondeterminism sources in src/: rand()/srand()/
//                      random()/time()/clock()/std::random_device (use
//                      base/rng.h), std::unordered_* (iteration order is
//                      implementation-defined — use only with an allow
//                      annotation proving lookup-only access), std::reduce,
//                      #pragma omp, fast-math-style pragmas.
//   unordered-fp-accum range-for over a std::unordered_* variable whose loop
//                      body accumulates floating point (+=, AddInPlace):
//                      hash-order-dependent FP reduction, the exact failure
//                      the determinism contract forbids.
//   atomic-fp          std::atomic<float|double> — concurrent FP
//                      accumulation commits in scheduling order; use the
//                      ordered block reductions (tensor/ops.cc) or
//                      integer-bit atomics (obs/metrics.cc).
//   task-parallel-static
//                      no function reachable from a caller of
//                      mtl::ForwardTasksConcurrently (the models whose K
//                      per-task forward tapes are built on pool workers)
//                      may write a namespace-scope or function-static
//                      mutable variable. Calls resolve by name to every
//                      definition the layering allows (an over-
//                      approximation: `trunk_->Forward` reaches every
//                      Forward below mtl); const, constexpr, thread_local
//                      and std::atomic variables are exempt.
//   hot-path-alloc     no heap allocation or container growth inside
//                      // MG_HOT_PATH ... // MG_HOT_PATH_END regions — and,
//                      transitively, in any function reachable from a hot
//                      region through the call graph. Cold excursions that
//                      are sanctioned by design (arena growth, ParallelFor
//                      fan-out setup) are bracketed // MG_COLD_PATH ...
//                      // MG_COLD_PATH_END and excluded from both the token
//                      scan and the traversal.
//   tier-table         every function-pointer field of a kernel table
//                      struct (a `struct *Kernels` in a `*_kernels.h`
//                      header) must be assigned in all five ISA tier TUs
//                      (`<stem>_tier_{scalar,sse,avx2,avx512,neon}.cc`,
//                      directly or via a transitively included impl
//                      header), and all five TUs must exist.
//   tier-isolation     a tier TU must not use another tier's intrinsics or
//                      reference another tier's simd backend tag: the
//                      per-TU ISA-flag scheme (docs/SIMD.md) only keeps
//                      illegal instructions out of low-tier binaries if
//                      high-tier code never leaks across TU boundaries.
//   layering           includes respect base → obs → tensor → autograd →
//                      {nn,optim,solvers,data,eval} → core → mtl →
//                      {harness,serve}; no back-edges, no sibling coupling.
//   bare-assert        no bare assert() in src/ — use MG_CHECK / MG_DCHECK.
//   env-registry       every MOCOGRAD_* env knob parsed in src/ or bench/
//                      must be documented in README.md's knob table.
//   doc-knob-drift     every MOCOGRAD_* name in a docs/*.md table row must
//                      be parsed somewhere in src/ or bench/, or be a build
//                      option defined in a CMakeLists.txt — docs must not
//                      describe knobs the code no longer reads.
//
// Call-graph approximation (known limits, see docs/CORRECTNESS.md): calls
// link by bare name; a call resolves to same-file definitions first, then
// to the global definition when it is unambiguous (all candidates in one
// file), and is dropped when the name is defined in several files
// (virtual/overload fan-out would drown the report in false positives).
// Calls through function pointers, macros, and templates instantiated from
// elsewhere are invisible. The rule errs toward silence, never toward
// noise; the dynamic alloc-counting tests remain the backstop.
//
// Suppression grammar: `// mg_analyze:allow(<rule>)` on the offending line
// or on a comment-only line directly above it. An allow is a reviewed claim
// that the invariant holds for a reason the analysis cannot see — pair it
// with a comment saying why.
//
// Usage: mg_analyze <repo_root>
// Exit status: 0 clean, 1 violations found, 2 usage/IO error.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Violation {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Violation& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    if (rule != o.rule) return rule < o.rule;
    return message < o.message;
  }
};

struct KnobRef {
  std::string name;
  std::string file;
  int line = 0;
};

// ---------------------------------------------------------------------------
// Lexing: strip comments/strings, mark regions, split tokens.
// ---------------------------------------------------------------------------

std::vector<std::string> SplitLines(const std::string& content) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

// Blanks comments, string-literal bodies, and char-literal bodies out of
// each line (preserving length and line structure) so token rules never
// fire on prose. Comment text is preserved separately for the annotation
// and region-marker scans.
void StripCommentsAndStrings(const std::vector<std::string>& raw,
                             std::vector<std::string>* code,
                             std::vector<std::string>* comments) {
  enum class State { kCode, kString, kChar, kBlockComment };
  State state = State::kCode;
  code->assign(raw.size(), "");
  comments->assign(raw.size(), "");
  for (size_t li = 0; li < raw.size(); ++li) {
    const std::string& line = raw[li];
    std::string& out = (*code)[li];
    std::string& cmt = (*comments)[li];
    out.assign(line.size(), ' ');
    for (size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      const char next = i + 1 < line.size() ? line[i + 1] : '\0';
      switch (state) {
        case State::kCode:
          if (c == '/' && next == '/') {
            cmt += line.substr(i + 2);
            i = line.size();  // rest of line is comment
          } else if (c == '/' && next == '*') {
            state = State::kBlockComment;
            ++i;
          } else if (c == '"') {
            out[i] = '"';
            state = State::kString;
          } else if (c == '\'') {
            out[i] = '\'';
            state = State::kChar;
          } else {
            out[i] = c;
          }
          break;
        case State::kString:
          if (c == '\\') {
            ++i;
          } else if (c == '"') {
            out[i] = '"';
            state = State::kCode;
          }
          break;
        case State::kChar:
          if (c == '\\') {
            ++i;
          } else if (c == '\'') {
            out[i] = '\'';
            state = State::kCode;
          }
          break;
        case State::kBlockComment:
          if (c == '*' && next == '/') {
            state = State::kCode;
            ++i;
          } else {
            cmt.push_back(c);
          }
          break;
      }
    }
    // Unterminated line states: strings don't span lines in this codebase;
    // reset to be safe. Block comments do span lines.
    if (state == State::kString || state == State::kChar) state = State::kCode;
  }
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

// Finds `token` in `code` requiring a non-identifier character before it
// (so `time(` never fires on `runtime(`, and `static_assert(` never fires
// the bare-assert rule). Returns npos if absent.
size_t FindToken(const std::string& code, const std::string& token) {
  size_t pos = 0;
  while ((pos = code.find(token, pos)) != std::string::npos) {
    if (pos == 0 || !IsIdentChar(code[pos - 1])) return pos;
    pos += 1;
  }
  return std::string::npos;
}

// Both-side identifier boundary (field names, `new`, backend tags).
bool HasWholeToken(const std::string& code, const std::string& token,
                   size_t* at = nullptr) {
  size_t pos = 0;
  while ((pos = code.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(code[pos - 1]);
    const bool right_ok = pos + token.size() >= code.size() ||
                          !IsIdentChar(code[pos + token.size()]);
    if (left_ok && right_ok) {
      if (at != nullptr) *at = pos;
      return true;
    }
    pos += token.size();
  }
  return false;
}

// One loaded source file plus everything the line-level rules derived.
struct SourceFile {
  std::string rel;        // path relative to repo root
  std::string under_src;  // path relative to src/ ("" when not under src)
  std::string dir;        // first path component under src/
  std::string stem;       // filename without extension
  std::vector<std::string> raw, code, comments;
  std::vector<bool> hot;      // inside // MG_HOT_PATH ... // MG_HOT_PATH_END
  std::vector<bool> cold;     // inside // MG_COLD_PATH ... // MG_COLD_PATH_END
  std::vector<bool> preproc;  // preprocessor line (incl. continuations)
  std::vector<std::string> includes;  // quoted project include paths
};

void MarkRegionsAndPreproc(SourceFile* f) {
  bool hot = false, cold = false, continuation = false;
  f->hot.assign(f->raw.size(), false);
  f->cold.assign(f->raw.size(), false);
  f->preproc.assign(f->raw.size(), false);
  for (size_t li = 0; li < f->raw.size(); ++li) {
    const std::string& cmt = f->comments[li];
    if (cmt.find("MG_HOT_PATH_END") != std::string::npos) {
      hot = false;
    } else if (cmt.find("MG_HOT_PATH") != std::string::npos) {
      hot = true;
    }
    if (cmt.find("MG_COLD_PATH_END") != std::string::npos) {
      cold = false;
    } else if (cmt.find("MG_COLD_PATH") != std::string::npos) {
      cold = true;
    }
    f->hot[li] = hot;
    f->cold[li] = cold;

    const std::string& raw = f->raw[li];
    const size_t first = raw.find_first_not_of(" \t");
    const bool directive = first != std::string::npos && raw[first] == '#';
    f->preproc[li] = continuation || directive;
    continuation = f->preproc[li] && !raw.empty() && raw.back() == '\\';

    if (directive) {
      const size_t q0 = raw.find('"');
      const size_t q1 = q0 == std::string::npos ? q0 : raw.find('"', q0 + 1);
      if (raw.find("#include", first) != std::string::npos &&
          q1 != std::string::npos) {
        f->includes.push_back(raw.substr(q0 + 1, q1 - q0 - 1));
      }
    }
  }
}

// True when line li (or a comment-only predecessor line) carries
// mg_analyze:allow(rule).
bool IsAllowed(const SourceFile& f, size_t li, const std::string& rule) {
  const std::string needle = "mg_analyze:allow(" + rule + ")";
  if (f.comments[li].find(needle) != std::string::npos) return true;
  for (size_t i = li; i > 0;) {
    --i;
    const bool comment_only =
        f.code[i].find_first_not_of(" \t") == std::string::npos &&
        !f.comments[i].empty();
    if (!comment_only) break;
    if (f.comments[i].find(needle) != std::string::npos) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Symbol index: approximate function definitions + call sites.
// ---------------------------------------------------------------------------

struct Token {
  std::string text;
  int line = 0;  // 1-based
};

const std::set<std::string>& CallKeywords() {
  static const std::set<std::string> kw = {
      "if",     "for",      "while",   "switch",        "return",
      "sizeof", "catch",    "throw",   "do",            "else",
      "new",    "delete",   "case",    "goto",          "static_assert",
      "alignof", "alignas", "decltype", "defined",      "assert",
      "void",   "operator", "not",     "and",           "or",
      "typeid", "noexcept", "co_await", "co_return",    "co_yield",
  };
  return kw;
}

struct CallSite {
  std::string name;
  int line = 0;
};

// Splits one code line into identifier and single-character tokens.
void TokenizeLine(const std::string& line, int line_no,
                  std::vector<Token>* toks) {
  for (size_t i = 0; i < line.size();) {
    const char c = line[i];
    if (IsIdentStart(c)) {
      size_t j = i + 1;
      while (j < line.size() && IsIdentChar(line[j])) ++j;
      toks->push_back({line.substr(i, j - i), line_no});
      i = j;
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      toks->push_back({std::string(1, c), line_no});
      ++i;
    } else {
      ++i;
    }
  }
}

// A namespace-scope or function-static variable that can be written.
struct StaticVar {
  std::string name;
  int file = -1;
  int line = 0;
  int func = -1;  // owning function for a function-static; -1 at namespace
};

// The variable a declaration statement introduces, or "" when `stmt` is not
// a mutable variable declaration: type/alias/function declarations, macro
// calls, and const/constexpr/thread_local/std::atomic variables (immutable,
// per-thread, or race-free by construction) all yield "".
std::string MutableVarName(const std::vector<Token>& stmt) {
  static const std::set<std::string> kSkipFirst = {
      "using", "typedef", "template", "friend", "namespace", "static_assert",
      "return"};
  static const std::set<std::string> kSkipAny = {
      "const",  "constexpr", "thread_local", "atomic", "operator",
      "class",  "struct",    "enum",         "union"};
  if (stmt.empty() || kSkipFirst.count(stmt[0].text) != 0) return "";
  std::string name;
  int idents = 0;
  for (const Token& tk : stmt) {
    if (kSkipAny.count(tk.text) != 0) return "";
    if (tk.text == "(") return "";  // function declaration or macro call
    if (tk.text == "=" || tk.text == "{" || tk.text == "[" ||
        tk.text == ";") {
      break;
    }
    if (IsIdentStart(tk.text[0]) && tk.text != "static") {
      name = tk.text;
      ++idents;
    }
  }
  return idents >= 2 ? name : "";  // a type and a name
}

struct Function {
  std::string name;
  int file = -1;    // index into the file table
  int begin = 0;    // 1-based body lines [begin, end]
  int end = 0;
  std::vector<CallSite> calls;
};

// Tokenizes the code view of `f` (skipping preprocessor lines) and walks a
// brace-depth state machine. A `{` opens a function body when the previous
// significant token closes a parameter list (`)`, a trailing qualifier, or
// a ctor-init-list tail) and the statement's first `ident(` named a
// plausible function. Everything else (`namespace`, classes, enums,
// brace-init) opens a plain scope. Lambda and nested braces inside a body
// attribute their call sites to the enclosing function — exactly what
// reachability wants.
//
// Outside function bodies the walk also tracks which braces are namespaces
// and records every mutable variable declared at namespace scope into
// `ns_vars` (class members and locals are not namespace-scope).
void IndexFile(const SourceFile& f, int file_idx,
               std::vector<Function>* functions,
               std::vector<StaticVar>* ns_vars) {
  std::vector<Token> toks;
  for (size_t li = 0; li < f.code.size(); ++li) {
    if (f.preproc[li]) continue;
    TokenizeLine(f.code[li], static_cast<int>(li) + 1, &toks);
  }

  static const std::set<std::string> body_openers = {
      ")", "const", "noexcept", "override", "final", "try"};

  int depth = 0;
  bool in_function = false;
  int entry_depth = 0;
  Function current;
  std::string stmt_call;  // first `ident(` since the last statement boundary
  std::string last_sig;
  std::vector<Token> stmt;         // tokens since the last boundary
  std::vector<bool> ns_scopes;     // per open brace: is it a namespace?
  int parens = 0;  // open `(` of the current statement
  auto at_namespace_scope = [&] {
    return std::find(ns_scopes.begin(), ns_scopes.end(), false) ==
           ns_scopes.end();
  };
  auto record_var = [&] {
    if (!at_namespace_scope()) return;
    const std::string name = MutableVarName(stmt);
    if (!name.empty()) {
      ns_vars->push_back({name, file_idx, stmt.front().line, -1});
    }
  };

  for (size_t t = 0; t < toks.size(); ++t) {
    const std::string& tk = toks[t].text;
    const std::string next =
        t + 1 < toks.size() ? toks[t + 1].text : std::string();

    if (in_function) {
      if (tk == "{") {
        ++depth;
      } else if (tk == "}") {
        --depth;
        if (depth == entry_depth) {
          current.end = toks[t].line;
          functions->push_back(current);
          in_function = false;
          stmt_call.clear();
          stmt.clear();
          ns_scopes.pop_back();
        }
      } else if (IsIdentStart(tk[0]) && next == "(" &&
                 CallKeywords().count(tk) == 0) {
        current.calls.push_back({tk, toks[t].line});
      }
      last_sig = tk;
      continue;
    }

    if ((tk == "{" || tk == "}") && parens > 0) {
      // A braced default argument or initializer inside a parameter list,
      // not a scope.
      depth += tk == "{" ? 1 : -1;
      stmt.push_back(toks[t]);
    } else if (tk == "{") {
      if (body_openers.count(last_sig) != 0 && !stmt_call.empty() &&
          CallKeywords().count(stmt_call) == 0) {
        in_function = true;
        entry_depth = depth;
        current = Function();
        current.name = stmt_call;
        current.file = file_idx;
        current.begin = toks[t].line;
      } else {
        record_var();  // brace initializer: `T g{...}`, `T g = {...}`
      }
      const bool is_namespace =
          std::any_of(stmt.begin(), stmt.end(), [](const Token& s) {
            return s.text == "namespace" || s.text == "extern";
          });
      ns_scopes.push_back(is_namespace);
      ++depth;
      stmt_call.clear();
      stmt.clear();
    } else if (tk == "}") {
      --depth;
      if (!ns_scopes.empty()) ns_scopes.pop_back();
      stmt_call.clear();
      stmt.clear();
    } else if (tk == ";") {
      record_var();
      stmt_call.clear();
      stmt.clear();
      parens = 0;
    } else {
      if (tk == "(") ++parens;
      if (tk == ")" && parens > 0) --parens;
      if (stmt_call.empty() && IsIdentStart(tk[0]) && next == "(") {
        stmt_call = tk;
      }
      stmt.push_back(toks[t]);
    }
    last_sig = tk;
  }
}

// ---------------------------------------------------------------------------
// Token-rule tables (ported from mg_lint).
// ---------------------------------------------------------------------------

struct TokenRule {
  std::string token;
  std::string rule;
  std::string message;
};

const std::vector<TokenRule>& NondeterminismTokens() {
  static const std::vector<TokenRule> rules = {
      {"rand(", "nondeterminism", "rand() — use base/rng.h (seeded, stable)"},
      {"srand(", "nondeterminism", "srand() — use base/rng.h"},
      {"random(", "nondeterminism", "random() — use base/rng.h"},
      {"rand_r(", "nondeterminism", "rand_r() — use base/rng.h"},
      {"drand48(", "nondeterminism", "drand48() — use base/rng.h"},
      {"random_device", "nondeterminism",
       "std::random_device — nondeterministic seed; use base/rng.h"},
      {"time(", "nondeterminism",
       "time() — wall-clock in kernel code; obs/ owns timing"},
      {"clock(", "nondeterminism",
       "clock() — wall-clock in kernel code; obs/ owns timing"},
      {"unordered_map", "nondeterminism",
       "std::unordered_map — iteration order is implementation-defined; "
       "annotate lookup-only uses with mg_analyze:allow(nondeterminism)"},
      {"unordered_set", "nondeterminism",
       "std::unordered_set — iteration order is implementation-defined; "
       "annotate lookup-only uses with mg_analyze:allow(nondeterminism)"},
      {"unordered_multimap", "nondeterminism",
       "std::unordered_multimap — iteration order is implementation-defined"},
      {"std::reduce", "nondeterminism",
       "std::reduce — unspecified reduction tree; use vec:: kernels"},
  };
  return rules;
}

const std::vector<TokenRule>& HotPathTokens() {
  static const std::vector<TokenRule> rules = {
      {"malloc(", "hot-path-alloc", "malloc"},
      {"calloc(", "hot-path-alloc", "calloc"},
      {"realloc(", "hot-path-alloc", "realloc"},
      {"aligned_alloc(", "hot-path-alloc", "aligned_alloc"},
      {"free(", "hot-path-alloc", "free"},
      {"push_back(", "hot-path-alloc", "container growth (push_back)"},
      {"emplace_back(", "hot-path-alloc", "container growth (emplace_back)"},
      {"emplace(", "hot-path-alloc", "container growth (emplace)"},
      {"resize(", "hot-path-alloc", "container growth (resize)"},
      {"reserve(", "hot-path-alloc", "container growth (reserve)"},
      {"make_unique", "hot-path-alloc", "make_unique heap allocation"},
      {"make_shared", "hot-path-alloc", "make_shared heap allocation"},
  };
  return rules;
}

// `new` needs a both-sides boundary: `news`, `renew`, `new_x` must not fire.
bool HasNewToken(const std::string& code) {
  return HasWholeToken(code, "new");
}

// Sized or filled vector construction — `std::vector<T> x(n)`,
// `std::vector<T> x{a, b}`, or a temporary `std::vector<T>(n, v)` — which
// allocates without any growth call the token table could see. A name
// followed by an argument list is also how a function returning a vector
// is declared, so the enclosing function's own name (its definition line)
// is skipped; `{` closing a line opens a body, not an initializer.
bool HasSizedVectorConstruction(const std::string& code,
                                const std::string& fn_name) {
  size_t pos = 0;
  while ((pos = code.find("vector<", pos)) != std::string::npos) {
    const size_t at = pos;
    pos += 7;
    if (at > 0 && IsIdentChar(code[at - 1])) continue;  // `myvector<`
    size_t i = at + 6;  // the '<'
    int angle = 0;
    for (; i < code.size(); ++i) {
      if (code[i] == '<') ++angle;
      if (code[i] == '>' && --angle == 0) break;
    }
    if (angle != 0) return false;  // template args span lines — give up
    size_t j = i + 1;
    while (j < code.size() && code[j] == ' ') ++j;
    if (j < code.size() && IsIdentStart(code[j])) {
      size_t e = j + 1;
      while (e < code.size() && IsIdentChar(code[e])) ++e;
      if (code.substr(j, e - j) == fn_name) continue;
      j = e;
    }
    if (j >= code.size() || (code[j] != '(' && code[j] != '{')) continue;
    size_t a = j + 1;
    while (a < code.size() && code[a] == ' ') ++a;
    if (code[j] == '{' && a >= code.size()) continue;  // a body, not a list
    if (a < code.size() && (code[a] == ')' || code[a] == '}')) continue;
    return true;
  }
  return false;
}

// An allocation site found inside a function body for the transitive rule.
struct AllocSite {
  int line = 0;
  std::string what;
};

std::vector<AllocSite> AllocSitesIn(const SourceFile& f, const Function& fn) {
  std::vector<AllocSite> sites;
  for (int li = fn.begin; li <= fn.end && li <= static_cast<int>(f.code.size());
       ++li) {
    const size_t idx = static_cast<size_t>(li) - 1;
    if (f.cold[idx] || f.preproc[idx]) continue;
    if (IsAllowed(f, idx, "hot-path-alloc")) continue;
    if (HasNewToken(f.code[idx])) {
      sites.push_back({li, "raw new"});
      continue;
    }
    if (HasSizedVectorConstruction(f.code[idx], fn.name)) {
      sites.push_back({li, "sized vector construction"});
      continue;
    }
    for (const TokenRule& tr : HotPathTokens()) {
      if (FindToken(f.code[idx], tr.token) != std::string::npos) {
        sites.push_back({li, tr.message});
        break;
      }
    }
  }
  return sites;
}

// ---------------------------------------------------------------------------
// Layering.
// ---------------------------------------------------------------------------

// Module ranks for the layering rule. A file under src/<dir>/ may include
// "e/..." only when rank(e) <= rank(dir), and equal ranks only within the
// same directory (nn, optim, solvers, data, eval are siblings that must not
// couple to each other).
const std::map<std::string, int>& LayerRanks() {
  static const std::map<std::string, int> ranks = {
      {"base", 0},    {"obs", 1},  {"tensor", 2}, {"autograd", 3},
      {"nn", 4},      {"optim", 4}, {"solvers", 4}, {"data", 4},
      {"eval", 4},    {"core", 5}, {"mtl", 6},    {"harness", 7},
      {"serve", 7},
  };
  return ranks;
}

// ---------------------------------------------------------------------------
// Env knobs.
// ---------------------------------------------------------------------------

void ExtractKnobs(const std::string& raw_line, const std::string& rel_path,
                  int line_no, std::vector<KnobRef>* knobs) {
  if (raw_line.find("GetEnv") == std::string::npos &&
      raw_line.find("getenv") == std::string::npos) {
    return;
  }
  size_t pos = 0;
  while ((pos = raw_line.find("\"MOCOGRAD_", pos)) != std::string::npos) {
    size_t end = pos + 1;
    while (end < raw_line.size() &&
           (std::isupper(static_cast<unsigned char>(raw_line[end])) ||
            std::isdigit(static_cast<unsigned char>(raw_line[end])) ||
            raw_line[end] == '_')) {
      ++end;
    }
    if (end < raw_line.size() && raw_line[end] == '"') {
      knobs->push_back({raw_line.substr(pos + 1, end - pos - 1), rel_path,
                        line_no});
    }
    pos = end;
  }
}

// All MOCOGRAD_* identifiers in `text` (for docs tables and CMake options).
std::set<std::string> ExtractKnobNames(const std::string& text) {
  std::set<std::string> names;
  size_t pos = 0;
  while ((pos = text.find("MOCOGRAD_", pos)) != std::string::npos) {
    if (pos > 0 && IsIdentChar(text[pos - 1])) {
      pos += 1;
      continue;
    }
    size_t end = pos;
    while (end < text.size() &&
           (std::isupper(static_cast<unsigned char>(text[end])) ||
            std::isdigit(static_cast<unsigned char>(text[end])) ||
            text[end] == '_')) {
      ++end;
    }
    if (end > pos + 9) names.insert(text.substr(pos, end - pos));
    pos = end;
  }
  return names;
}

// ---------------------------------------------------------------------------
// Per-file line rules (the mg_lint core, plus the new token rules).
// ---------------------------------------------------------------------------

void ScanLines(const SourceFile& f, std::vector<Violation>* violations,
               std::vector<KnobRef>* knobs) {
  const auto& ranks = LayerRanks();
  const auto self_rank = ranks.find(f.dir);

  // Same-file unordered-container variable names for unordered-fp-accum.
  std::set<std::string> unordered_vars;
  for (size_t li = 0; li < f.code.size(); ++li) {
    const std::string& cl = f.code[li];
    size_t u = cl.find("unordered_");
    if (u == std::string::npos || f.preproc[li]) continue;
    const size_t lt = cl.find('<', u);
    if (lt == std::string::npos) continue;
    int angle = 0;
    size_t i = lt;
    for (; i < cl.size(); ++i) {
      if (cl[i] == '<') ++angle;
      if (cl[i] == '>' && --angle == 0) break;
    }
    if (angle != 0) continue;  // template args span lines — give up
    // First identifier after the closing '>' is the variable name.
    for (size_t j = i + 1; j < cl.size(); ++j) {
      if (IsIdentStart(cl[j])) {
        size_t k = j + 1;
        while (k < cl.size() && IsIdentChar(cl[k])) ++k;
        unordered_vars.insert(cl.substr(j, k - j));
        break;
      }
      if (cl[j] != ' ' && cl[j] != '&' && cl[j] != '*') break;
    }
  }

  for (size_t li = 0; li < f.raw.size(); ++li) {
    const int line_no = static_cast<int>(li) + 1;
    auto emit = [&](const std::string& rule, const std::string& message) {
      if (!IsAllowed(f, li, rule)) {
        violations->push_back({f.rel, line_no, rule, message});
      }
    };
    const std::string& cl = f.code[li];

    // Pragmas (code view keeps preprocessor text).
    if (cl.find("#pragma omp") != std::string::npos) {
      emit("nondeterminism",
           "#pragma omp — threading goes through base/thread_pool.h");
    }
    if (cl.find("#pragma GCC optimize") != std::string::npos ||
        cl.find("#pragma clang fp") != std::string::npos ||
        cl.find("#pragma STDC FP_CONTRACT") != std::string::npos ||
        cl.find("fast-math") != std::string::npos) {
      emit("nondeterminism",
           "fast-math-style pragma — breaks the docs/SIMD.md determinism "
           "contract (-ffp-contract=off is global)");
    }

    // #include <unordered_map> lines are exempt: the *use* sites are what
    // carry the iteration-order risk and what the allow annotation reviews.
    const bool is_include_line = cl.find("#include") != std::string::npos;
    for (const TokenRule& tr : NondeterminismTokens()) {
      if (is_include_line) break;
      if (FindToken(cl, tr.token) != std::string::npos) {
        emit(tr.rule, tr.message);
      }
    }

    if (FindToken(cl, "assert(") != std::string::npos) {
      emit("bare-assert",
           "bare assert() — use MG_CHECK/MG_DCHECK (base/check.h)");
    }

    // std::atomic over a floating type: accumulation order follows thread
    // scheduling, which the determinism contract forbids.
    {
      std::string squeezed;
      squeezed.reserve(cl.size());
      for (char c : cl) {
        if (c != ' ' && c != '\t') squeezed.push_back(c);
      }
      if (squeezed.find("atomic<float>") != std::string::npos ||
          squeezed.find("atomic<double>") != std::string::npos) {
        emit("atomic-fp",
             "std::atomic over a floating type — scheduling-order FP "
             "accumulation; use ordered block reductions (tensor/ops.cc) or "
             "integer-bit atomics (obs/metrics.cc)");
      }
    }

    // Range-for over an unordered container feeding FP accumulation.
    if (!unordered_vars.empty() && !f.preproc[li]) {
      const size_t fo = FindToken(cl, "for");
      const size_t colon = fo == std::string::npos
                               ? std::string::npos
                               : cl.find(':', fo);
      if (colon != std::string::npos && colon + 1 < cl.size() &&
          cl[colon + 1] != ':' && (colon == 0 || cl[colon - 1] != ':')) {
        bool over_unordered = false;
        for (size_t j = colon + 1; j < cl.size();) {
          if (IsIdentStart(cl[j])) {
            size_t k = j + 1;
            while (k < cl.size() && IsIdentChar(cl[k])) ++k;
            if (unordered_vars.count(cl.substr(j, k - j)) != 0) {
              over_unordered = true;
              break;
            }
            j = k;
          } else {
            ++j;
          }
        }
        if (over_unordered) {
          // Scan the loop body (brace-matched from the for line) for FP
          // accumulation.
          int depth = 0;
          bool body_seen = false, accumulates = false;
          for (size_t bj = li; bj < f.code.size(); ++bj) {
            const std::string& bl = f.code[bj];
            if (bl.find("+=") != std::string::npos ||
                bl.find("AddInPlace(") != std::string::npos) {
              accumulates = true;
            }
            for (char c : bl) {
              if (c == '{') {
                ++depth;
                body_seen = true;
              }
              if (c == '}') --depth;
            }
            if (body_seen && depth <= 0) break;
            if (!body_seen && bj > li + 1) break;  // single-statement body
          }
          if (accumulates) {
            emit("unordered-fp-accum",
                 "range-for over an unordered container accumulates floating "
                 "point — hash-order-dependent reduction; iterate a sorted "
                 "view or an ordered container");
          }
        }
      }
    }

    // Direct hot-region allocation scan (the transitive pass handles
    // everything reachable from here).
    if (f.hot[li] && !f.cold[li]) {
      if (HasNewToken(cl)) {
        emit("hot-path-alloc",
             "raw new in a hot-path region — use a ScratchScope "
             "(base/scratch.h)");
      }
      for (const TokenRule& tr : HotPathTokens()) {
        if (FindToken(cl, tr.token) != std::string::npos) {
          emit(tr.rule, tr.message + " in a hot-path region");
        }
      }
      if (cl.find("std::vector<") != std::string::npos) {
        emit("hot-path-alloc",
             "vector construction in a hot-path region — use a ScratchScope");
      }
    }

    // Layering: #include "dir/..." edges.
    const size_t inc = cl.find("#include");
    if (inc != std::string::npos && self_rank != ranks.end()) {
      const size_t q0 = cl.find('"', inc);
      if (q0 != std::string::npos) {
        // Raw line carries the path (the code view blanked the literal).
        const size_t slash = f.raw[li].find('/', q0 + 1);
        const size_t q1 = f.raw[li].find('"', q0 + 1);
        if (slash != std::string::npos && q1 != std::string::npos &&
            slash < q1) {
          const std::string target = f.raw[li].substr(q0 + 1, slash - q0 - 1);
          const auto target_rank = ranks.find(target);
          if (target_rank != ranks.end() && target != f.dir) {
            if (target_rank->second > self_rank->second) {
              emit("layering", "back-edge include: " + f.dir + " (layer " +
                                   std::to_string(self_rank->second) +
                                   ") must not include " + target +
                                   " (layer " +
                                   std::to_string(target_rank->second) + ")");
            } else if (target_rank->second == self_rank->second) {
              emit("layering", "sibling include: " + f.dir + " and " + target +
                                   " are same-layer modules and must not "
                                   "couple");
            }
          }
        }
      }
    }

    ExtractKnobs(f.raw[li], f.rel, line_no, knobs);
  }
}

// ---------------------------------------------------------------------------
// Transitive hot-path allocation analysis.
// ---------------------------------------------------------------------------

struct CallGraph {
  const std::vector<SourceFile>* files = nullptr;
  std::vector<Function> functions;
  std::map<std::string, std::vector<int>> by_name;

  // Same-file candidates first; otherwise the global set when every
  // definition lives in one file; empty (drop the edge) when ambiguous.
  std::vector<int> Resolve(const std::string& name, int from_file) const {
    const auto it = by_name.find(name);
    if (it == by_name.end()) return {};
    std::vector<int> same_file;
    std::set<int> files_seen;
    for (int id : it->second) {
      if (functions[id].file == from_file) same_file.push_back(id);
      files_seen.insert(functions[id].file);
    }
    if (!same_file.empty()) return same_file;
    if (files_seen.size() == 1) return it->second;
    return {};
  }
};

void RunTransitiveHotPath(const std::vector<SourceFile>& files,
                          const CallGraph& graph,
                          std::vector<Violation>* violations) {
  struct WorkItem {
    int func;
    std::string origin;  // "file:line" of the hot call site
    std::string chain;   // "A -> B -> C"
  };
  std::vector<WorkItem> queue;
  std::set<int> visited;

  // Roots: every call made on a hot (and not cold) line.
  for (const Function& fn : graph.functions) {
    const SourceFile& f = files[fn.file];
    for (const CallSite& c : fn.calls) {
      const size_t idx = static_cast<size_t>(c.line) - 1;
      if (idx >= f.hot.size() || !f.hot[idx] || f.cold[idx]) continue;
      for (int target : graph.Resolve(c.name, fn.file)) {
        if (!visited.insert(target).second) continue;
        queue.push_back({target,
                         f.rel + ":" + std::to_string(c.line),
                         fn.name + " -> " + c.name});
      }
    }
  }

  while (!queue.empty()) {
    const WorkItem item = queue.back();
    queue.pop_back();
    const Function& fn = graph.functions[item.func];
    const SourceFile& f = files[fn.file];

    for (const AllocSite& site : AllocSitesIn(f, fn)) {
      const size_t idx = static_cast<size_t>(site.line) - 1;
      if (idx < f.hot.size() && f.hot[idx]) continue;  // direct rule's job
      violations->push_back(
          {f.rel, site.line, "hot-path-alloc",
           site.what + " reachable from the MG_HOT_PATH region at " +
               item.origin + " via " + item.chain +
               " — hoist it, use scratch, or bracket a sanctioned cold "
               "excursion with MG_COLD_PATH"});
    }

    for (const CallSite& c : fn.calls) {
      const size_t idx = static_cast<size_t>(c.line) - 1;
      if (idx < f.cold.size() && f.cold[idx]) continue;
      for (int target : graph.Resolve(c.name, fn.file)) {
        if (!visited.insert(target).second) continue;
        queue.push_back({target, item.origin, item.chain + " -> " + c.name});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrent per-task forward: no writes to shared mutable statics.
// ---------------------------------------------------------------------------

// True when `code` writes the variable `name`: assigns or compound-assigns
// it (through any chain of `[i]`, `.field`, `->field`), increments or
// decrements it, or calls a mutating container member on it. Occurrences
// that are themselves members of another object (`x.name`) do not count.
bool WritesVariable(const std::string& code, const std::string& name) {
  static const std::set<std::string> kMutators = {
      "push_back", "emplace_back", "emplace", "insert", "erase", "clear",
      "resize",    "reserve",      "assign",  "swap",   "pop_back"};
  size_t pos = 0;
  while ((pos = code.find(name, pos)) != std::string::npos) {
    const size_t at = pos;
    pos += name.size();
    if (at > 0 && IsIdentChar(code[at - 1])) continue;
    if (at + name.size() < code.size() &&
        IsIdentChar(code[at + name.size()])) {
      continue;
    }
    size_t b = at;
    while (b > 0 && code[b - 1] == ' ') --b;
    if (b > 0 && (code[b - 1] == '.' || (b > 1 && code[b - 1] == '>' &&
                                         code[b - 2] == '-'))) {
      continue;
    }
    if (b > 1 && (code.compare(b - 2, 2, "++") == 0 ||
                  code.compare(b - 2, 2, "--") == 0)) {
      return true;
    }
    size_t i = at + name.size();
    std::string member;  // last `.field` / `->field` in the chain
    for (;;) {
      while (i < code.size() && code[i] == ' ') ++i;
      if (i < code.size() && code[i] == '[') {
        int depth = 0;
        for (; i < code.size(); ++i) {
          if (code[i] == '[') ++depth;
          if (code[i] == ']' && --depth == 0) break;
        }
        if (i < code.size()) ++i;  // past the `]` (unclosed: end of line)
      } else if (i < code.size() &&
                 (code[i] == '.' || code.compare(i, 2, "->") == 0)) {
        i += code[i] == '.' ? 1 : 2;
        while (i < code.size() && code[i] == ' ') ++i;
        const size_t m = i;
        while (i < code.size() && IsIdentChar(code[i])) ++i;
        member = code.substr(m, i - m);
      } else {
        break;
      }
    }
    if (i < code.size() && code[i] == '(' && kMutators.count(member) != 0) {
      return true;
    }
    if (code.compare(i, 2, "++") == 0 || code.compare(i, 2, "--") == 0) {
      return true;
    }
    if (code.compare(i, 2, "==") == 0) continue;
    for (const char* op : {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
                           "^=", "<<=", ">>="}) {
      if (code.compare(i, std::strlen(op), op) == 0) return true;
    }
  }
  return false;
}

// Function-statics declared on the body lines of `fn`.
void CollectFunctionStatics(const SourceFile& f, const Function& fn,
                            int func_id, std::vector<StaticVar>* out) {
  for (int li = fn.begin; li <= fn.end && li <= static_cast<int>(f.code.size());
       ++li) {
    const std::string& code = f.code[static_cast<size_t>(li) - 1];
    size_t at = 0;
    if (f.preproc[static_cast<size_t>(li) - 1] ||
        !HasWholeToken(code, "static", &at)) {
      continue;
    }
    std::vector<Token> toks;
    TokenizeLine(code.substr(at), li, &toks);
    const std::string name = MutableVarName(toks);
    if (!name.empty()) out->push_back({name, fn.file, li, func_id});
  }
}

void RunTaskParallelStatics(const std::vector<SourceFile>& files,
                            const CallGraph& graph,
                            const std::vector<StaticVar>& ns_vars,
                            std::vector<Violation>* violations) {
  const std::string kHelper = "ForwardTasksConcurrently";
  const auto& ranks = LayerRanks();
  // Every definition a call from `from_file` may reach: same-file ones plus
  // any whose module the layering lets `from_file` include. Deliberately
  // inclusive — member calls through pointers (`trunk_->Forward`) must reach
  // every candidate body.
  auto resolve = [&](const std::string& name, int from_file) {
    std::vector<int> out;
    const auto it = graph.by_name.find(name);
    if (it == graph.by_name.end()) return out;
    const auto from_rank = ranks.find(files[from_file].dir);
    for (int id : it->second) {
      const SourceFile& target = files[graph.functions[id].file];
      const auto to_rank = ranks.find(target.dir);
      if (graph.functions[id].file == from_file ||
          target.dir == files[from_file].dir || from_rank == ranks.end() ||
          (to_rank != ranks.end() && to_rank->second < from_rank->second)) {
        out.push_back(id);
      }
    }
    return out;
  };

  std::vector<StaticVar> fn_statics;
  for (size_t id = 0; id < graph.functions.size(); ++id) {
    const Function& fn = graph.functions[id];
    CollectFunctionStatics(files[fn.file], fn, static_cast<int>(id),
                           &fn_statics);
  }

  struct WorkItem {
    int func;
    std::string origin;
    std::string chain;
  };
  std::vector<WorkItem> queue;
  std::set<int> visited;
  for (size_t id = 0; id < graph.functions.size(); ++id) {
    const Function& fn = graph.functions[id];
    for (const CallSite& c : fn.calls) {
      if (c.name != kHelper) continue;
      if (visited.insert(static_cast<int>(id)).second) {
        queue.push_back({static_cast<int>(id),
                         files[fn.file].rel + ":" + std::to_string(c.line),
                         fn.name});
      }
    }
  }

  while (!queue.empty()) {
    const WorkItem item = queue.back();
    queue.pop_back();
    const Function& fn = graph.functions[item.func];
    const SourceFile& f = files[fn.file];

    // Variables visible here: this function's statics, and namespace-scope
    // variables of its own file or of a project header it includes.
    std::vector<const StaticVar*> visible;
    for (const StaticVar& v : fn_statics) {
      if (v.func == item.func) visible.push_back(&v);
    }
    for (const StaticVar& v : ns_vars) {
      const SourceFile& decl = files[v.file];
      if (v.file == fn.file ||
          std::find(f.includes.begin(), f.includes.end(), decl.under_src) !=
              f.includes.end()) {
        visible.push_back(&v);
      }
    }
    const int last = std::min(fn.end, static_cast<int>(f.code.size()));
    for (int li = fn.begin; li <= last; ++li) {
      const size_t idx = static_cast<size_t>(li) - 1;
      if (f.preproc[idx] || IsAllowed(f, idx, "task-parallel-static")) {
        continue;
      }
      for (const StaticVar* v : visible) {
        if (v->file == fn.file && v->line == li) continue;  // declaration
        if (!WritesVariable(f.code[idx], v->name)) continue;
        violations->push_back(
            {f.rel, li, "task-parallel-static",
             std::string("write to ") +
                 (v->func < 0 ? "namespace-scope" : "function-static") +
                 " mutable '" + v->name + "' (" + files[v->file].rel + ":" +
                 std::to_string(v->line) +
                 ") reachable from the concurrent per-task forward at " +
                 item.origin + " via " + item.chain +
                 " — task tapes are built on pool workers; keep the state "
                 "per call, or make it thread_local or std::atomic"});
        break;
      }
    }

    for (const CallSite& c : fn.calls) {
      for (int target : resolve(c.name, fn.file)) {
        if (!visited.insert(target).second) continue;
        queue.push_back({target, item.origin, item.chain + " -> " + c.name});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ISA tier rules.
// ---------------------------------------------------------------------------

const std::vector<std::string>& TierNames() {
  static const std::vector<std::string> tiers = {"scalar", "sse", "avx2",
                                                 "avx512", "neon"};
  return tiers;
}

struct KernelTable {
  int header_file = -1;
  int struct_line = 0;
  std::string stem;  // "vec_kernels" for vec_kernels.h
  std::vector<std::string> fields;
};

// Finds `struct <Name>Kernels { ... }` in a `*_kernels.h` header and
// collects its `(*field)` function-pointer member names.
std::vector<KernelTable> FindKernelTables(const std::vector<SourceFile>& files) {
  std::vector<KernelTable> tables;
  for (size_t fi = 0; fi < files.size(); ++fi) {
    const SourceFile& f = files[fi];
    if (f.under_src.empty() || f.rel.size() < 10 ||
        f.rel.rfind("_kernels.h") != f.rel.size() - 10) {
      continue;
    }
    for (size_t li = 0; li < f.code.size(); ++li) {
      const size_t s = f.code[li].find("struct ");
      if (s == std::string::npos) continue;
      const size_t k = f.code[li].find("Kernels", s);
      const size_t brace = f.code[li].find('{', s);
      if (k == std::string::npos || brace == std::string::npos || k > brace) {
        continue;
      }
      KernelTable table;
      table.header_file = static_cast<int>(fi);
      table.struct_line = static_cast<int>(li) + 1;
      table.stem = f.stem;
      int depth = 0;
      for (size_t bj = li; bj < f.code.size(); ++bj) {
        const std::string& bl = f.code[bj];
        size_t pos = 0;
        while ((pos = bl.find("(*", pos)) != std::string::npos) {
          size_t j = pos + 2;
          size_t k2 = j;
          while (k2 < bl.size() && IsIdentChar(bl[k2])) ++k2;
          if (k2 > j && k2 < bl.size() && bl[k2] == ')') {
            table.fields.push_back(bl.substr(j, k2 - j));
          }
          pos = k2;
        }
        for (char c : bl) {
          if (c == '{') ++depth;
          if (c == '}') --depth;
        }
        if (depth <= 0 && bj > li) break;
      }
      if (!table.fields.empty()) tables.push_back(table);
      break;  // one table struct per header
    }
  }
  return tables;
}

// The TU's own code plus every transitively included project file's code.
std::string EffectiveSource(const std::vector<SourceFile>& files,
                            const std::map<std::string, int>& by_under_src,
                            int tu) {
  std::string out;
  std::set<int> seen;
  std::vector<int> stack = {tu};
  while (!stack.empty()) {
    const int fi = stack.back();
    stack.pop_back();
    if (!seen.insert(fi).second) continue;
    const SourceFile& f = files[fi];
    for (const std::string& line : f.code) {
      out += line;
      out += '\n';
    }
    for (const std::string& inc : f.includes) {
      const auto it = by_under_src.find(inc);
      if (it != by_under_src.end()) stack.push_back(it->second);
    }
  }
  return out;
}

// True when `text` assigns the struct field: `.field =` (not `==`).
bool HasFieldAssignment(const std::string& text, const std::string& field) {
  size_t pos = 0;
  while ((pos = text.find(field, pos)) != std::string::npos) {
    const bool left_dot = [&] {
      size_t i = pos;
      while (i > 0 && (text[i - 1] == ' ' || text[i - 1] == '\t')) --i;
      return i > 0 && text[i - 1] == '.';
    }();
    const bool right_ok = pos + field.size() >= text.size() ||
                          !IsIdentChar(text[pos + field.size()]);
    if (left_dot && right_ok) {
      size_t i = pos + field.size();
      while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
      if (i < text.size() && text[i] == '=' &&
          (i + 1 >= text.size() || text[i + 1] != '=')) {
        return true;
      }
    }
    pos += field.size();
  }
  return false;
}

void RunTierRules(const std::vector<SourceFile>& files,
                  std::vector<Violation>* violations) {
  std::map<std::string, int> by_under_src;
  for (size_t fi = 0; fi < files.size(); ++fi) {
    if (!files[fi].under_src.empty()) {
      by_under_src[files[fi].under_src] = static_cast<int>(fi);
    }
  }

  // Tier TU discovery: <stem>_tier_<tier>.cc anywhere under src/.
  // tier_tus[stem][tier] = file index.
  std::map<std::string, std::map<std::string, int>> tier_tus;
  for (size_t fi = 0; fi < files.size(); ++fi) {
    const std::string& stem = files[fi].stem;  // e.g. vec_kernels_tier_sse
    const size_t t = stem.rfind("_tier_");
    if (t == std::string::npos || files[fi].under_src.empty()) continue;
    const std::string tier = stem.substr(t + 6);
    if (std::find(TierNames().begin(), TierNames().end(), tier) ==
        TierNames().end()) {
      continue;
    }
    tier_tus[stem.substr(0, t)][tier] = static_cast<int>(fi);
  }

  for (const KernelTable& table : FindKernelTables(files)) {
    const SourceFile& header = files[table.header_file];
    const auto tus = tier_tus.find(table.stem);
    for (const std::string& tier : TierNames()) {
      const auto tu_it =
          tus == tier_tus.end() ? std::map<std::string, int>::const_iterator{}
                                : tus->second.find(tier);
      if (tus == tier_tus.end() || tu_it == tus->second.end()) {
        violations->push_back(
            {header.rel, table.struct_line, "tier-table",
             "kernel table " + header.stem + " has no " + tier +
                 " tier TU (" + table.stem + "_tier_" + tier + ".cc)"});
        continue;
      }
      const SourceFile& tu = files[tu_it->second];
      const std::string source =
          EffectiveSource(files, by_under_src, tu_it->second);
      for (const std::string& field : table.fields) {
        if (!HasFieldAssignment(source, field)) {
          violations->push_back(
              {tu.rel, 1, "tier-table",
               "kernel '" + field + "' (" + header.rel + ") has no entry in "
               "tier '" + tier + "' — every kernel must be assigned in all "
               "five tier TUs"});
        }
      }
    }
  }

  // Tier isolation: scan each tier TU's own lines (the shared impl header is
  // tier-generic by construction) for foreign intrinsics / backend tags.
  static const std::vector<std::string> kX86Sse = {"_mm_"};
  static const std::vector<std::string> kX86Avx2 = {"_mm256_"};
  static const std::vector<std::string> kX86Avx512 = {"_mm512_"};
  static const std::vector<std::string> kNeon = {"vld1", "vst1", "float32x",
                                                 "vaddq", "vmulq", "vfmaq",
                                                 "arm_neon"};
  static const std::map<std::string, std::string> kBackends = {
      {"scalar", "ScalarBackend"},
      {"sse", "SseBackend"},
      {"avx2", "Avx2Backend"},
      {"avx512", "Avx512Backend"},
      {"neon", "NeonBackend"},
  };

  for (size_t fi = 0; fi < files.size(); ++fi) {
    const SourceFile& f = files[fi];
    const size_t t = f.stem.rfind("_tier_");
    if (t == std::string::npos || f.under_src.empty()) continue;
    const std::string tier = f.stem.substr(t + 6);
    if (kBackends.count(tier) == 0) continue;

    std::vector<std::pair<std::string, std::string>> forbidden;
    auto add = [&](const std::vector<std::string>& pats,
                   const std::string& why) {
      for (const std::string& p : pats) forbidden.emplace_back(p, why);
    };
    if (tier == "scalar") {
      add(kX86Sse, "x86 intrinsics in the scalar tier");
      add(kX86Avx2, "AVX2 intrinsics in the scalar tier");
      add(kX86Avx512, "AVX-512 intrinsics in the scalar tier");
      add(kNeon, "NEON intrinsics in the scalar tier");
    } else if (tier == "sse") {
      add(kX86Avx2, "AVX2 intrinsics in the sse tier");
      add(kX86Avx512, "AVX-512 intrinsics in the sse tier");
      add(kNeon, "NEON intrinsics in the sse tier");
    } else if (tier == "avx2") {
      add(kX86Avx512, "AVX-512 intrinsics in the avx2 tier");
      add(kNeon, "NEON intrinsics in the avx2 tier");
    } else if (tier == "avx512") {
      add(kNeon, "NEON intrinsics in the avx512 tier");
    } else if (tier == "neon") {
      add(kX86Sse, "x86 intrinsics in the neon tier");
      add(kX86Avx2, "x86 intrinsics in the neon tier");
      add(kX86Avx512, "x86 intrinsics in the neon tier");
    }

    for (size_t li = 0; li < f.code.size(); ++li) {
      const std::string& cl = f.code[li];
      for (const auto& [pat, why] : forbidden) {
        if (cl.find(pat) != std::string::npos &&
            !IsAllowed(f, li, "tier-isolation")) {
          violations->push_back({f.rel, static_cast<int>(li) + 1,
                                 "tier-isolation",
                                 why + " (" + pat + ") — the per-TU ISA-flag "
                                 "scheme requires tier code to stay in its "
                                 "own TU"});
          break;
        }
      }
      for (const auto& [other_tier, backend] : kBackends) {
        if (other_tier == tier) continue;
        if (HasWholeToken(cl, backend) && !IsAllowed(f, li, "tier-isolation")) {
          violations->push_back({f.rel, static_cast<int>(li) + 1,
                                 "tier-isolation",
                                 "cross-tier backend reference " + backend +
                                     " in the " + tier + " tier TU"});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// File loading / main.
// ---------------------------------------------------------------------------

std::string ReadFileText(const fs::path& p, bool* ok) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    *ok = false;
    return "";
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *ok = true;
  return ss.str();
}

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: mg_analyze <repo_root>\n");
    return 2;
  }
  const fs::path root = argv[1];
  const fs::path src = root / "src";
  if (!fs::is_directory(src)) {
    std::fprintf(stderr, "mg_analyze: %s is not a directory\n",
                 src.string().c_str());
    return 2;
  }

  // Load and lex every src/ source file.
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (entry.is_regular_file() && IsSourceFile(entry.path())) {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const fs::path& p : paths) {
    bool ok = false;
    const std::string content = ReadFileText(p, &ok);
    if (!ok) {
      std::fprintf(stderr, "mg_analyze: cannot read %s\n",
                   p.string().c_str());
      return 2;
    }
    SourceFile f;
    f.rel = fs::relative(p, root).generic_string();
    f.under_src = fs::relative(p, src).generic_string();
    f.dir = f.under_src.substr(0, f.under_src.find('/'));
    f.stem = p.stem().string();
    f.raw = SplitLines(content);
    StripCommentsAndStrings(f.raw, &f.code, &f.comments);
    MarkRegionsAndPreproc(&f);
    files.push_back(std::move(f));
  }

  std::vector<Violation> violations;
  std::vector<KnobRef> knobs;

  // Line rules + knob extraction.
  for (const SourceFile& f : files) ScanLines(f, &violations, &knobs);

  // Symbol index + transitive hot-path analysis.
  CallGraph graph;
  graph.files = &files;
  std::vector<StaticVar> ns_vars;
  for (size_t fi = 0; fi < files.size(); ++fi) {
    IndexFile(files[fi], static_cast<int>(fi), &graph.functions, &ns_vars);
  }
  for (size_t id = 0; id < graph.functions.size(); ++id) {
    graph.by_name[graph.functions[id].name].push_back(static_cast<int>(id));
  }
  RunTransitiveHotPath(files, graph, &violations);
  RunTaskParallelStatics(files, graph, ns_vars, &violations);

  // ISA tier completeness + isolation.
  RunTierRules(files, &violations);

  // bench/ is scanned for env knobs only (benchmarks may use wall-clock).
  const fs::path bench = root / "bench";
  if (fs::is_directory(bench)) {
    for (const auto& entry : fs::recursive_directory_iterator(bench)) {
      if (!entry.is_regular_file() || !IsSourceFile(entry.path())) continue;
      bool ok = false;
      const std::string content = ReadFileText(entry.path(), &ok);
      if (!ok) continue;
      const std::string rel =
          fs::relative(entry.path(), root).generic_string();
      const std::vector<std::string> lines = SplitLines(content);
      for (size_t li = 0; li < lines.size(); ++li) {
        ExtractKnobs(lines[li], rel, static_cast<int>(li) + 1, &knobs);
      }
    }
  }

  // env-registry: every parsed MOCOGRAD_* knob must appear in README.md.
  bool readme_ok = false;
  const std::string readme = ReadFileText(root / "README.md", &readme_ok);
  if (!readme_ok) {
    std::fprintf(stderr, "mg_analyze: cannot read %s\n",
                 (root / "README.md").string().c_str());
    return 2;
  }
  std::set<std::string> parsed;
  std::set<std::string> reported;
  for (const KnobRef& k : knobs) {
    parsed.insert(k.name);
    if (readme.find(k.name) == std::string::npos &&
        reported.insert(k.name).second) {
      violations.push_back(
          {k.file, k.line, "env-registry",
           k.name + " is parsed here but missing from README.md's "
                    "runtime-knob table"});
    }
  }

  // doc-knob-drift: MOCOGRAD_* names in docs/*.md table rows must be parsed
  // in code or be CMake build options.
  std::set<std::string> cmake_names;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file() ||
        entry.path().filename() != "CMakeLists.txt") {
      continue;
    }
    // Skip build trees (their CMakeLists copies are generated).
    const std::string rel = fs::relative(entry.path(), root).generic_string();
    if (rel.rfind("build", 0) == 0 || rel.find("/build/") != std::string::npos) {
      continue;
    }
    bool ok = false;
    const std::string content = ReadFileText(entry.path(), &ok);
    if (!ok) continue;
    for (const std::string& n : ExtractKnobNames(content)) {
      cmake_names.insert(n);
    }
  }
  const fs::path docs = root / "docs";
  if (fs::is_directory(docs)) {
    std::vector<fs::path> doc_paths;
    for (const auto& entry : fs::directory_iterator(docs)) {
      if (entry.is_regular_file() && entry.path().extension() == ".md") {
        doc_paths.push_back(entry.path());
      }
    }
    std::sort(doc_paths.begin(), doc_paths.end());
    for (const fs::path& dp : doc_paths) {
      bool ok = false;
      const std::string content = ReadFileText(dp, &ok);
      if (!ok) continue;
      const std::string rel = fs::relative(dp, root).generic_string();
      const std::vector<std::string> lines = SplitLines(content);
      for (size_t li = 0; li < lines.size(); ++li) {
        const size_t first = lines[li].find_first_not_of(" \t");
        if (first == std::string::npos || lines[li][first] != '|') continue;
        for (const std::string& name : ExtractKnobNames(lines[li])) {
          if (parsed.count(name) == 0 && cmake_names.count(name) == 0 &&
              reported.insert("doc:" + name).second) {
            violations.push_back(
                {rel, static_cast<int>(li) + 1, "doc-knob-drift",
                 name + " is documented here but parsed nowhere in src/ or "
                        "bench/ and is not a CMake option — stale doc or "
                        "dead knob"});
          }
        }
      }
    }
  }

  std::sort(violations.begin(), violations.end());
  violations.erase(std::unique(violations.begin(), violations.end(),
                               [](const Violation& a, const Violation& b) {
                                 return a.file == b.file && a.line == b.line &&
                                        a.rule == b.rule;
                               }),
                   violations.end());

  for (const Violation& v : violations) {
    std::printf("%s:%d: [%s] %s\n", v.file.c_str(), v.line, v.rule.c_str(),
                v.message.c_str());
  }
  if (!violations.empty()) {
    std::printf("mg_analyze: %zu violation(s) in %zu files (%zu functions "
                "indexed)\n",
                violations.size(), files.size(), graph.functions.size());
    return 1;
  }
  std::printf("mg_analyze: OK (%zu files scanned, %zu functions indexed)\n",
              files.size(), graph.functions.size());
  return 0;
}
