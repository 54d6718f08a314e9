#!/usr/bin/env python3
"""aegis-lint: repo-specific invariant checker for the aegis-pcm tree.

Generic linters cannot express the contracts this reproduction's
numbers rest on, so this tool enforces them statically:

  determinism   every manifest cell must be bit-identical for every
                --jobs value and across reruns.
  hot paths     the scheme data plane (PR 5) is allocation-free in
                steady state; AEGIS_HOT marks the functions under
                contract.
  signal safety SIGINT/SIGTERM handlers may only touch async-signal-
                safe state (one atomic CAS today).

Rule catalogue (run with --list-rules for the same text):

  DET-RAND    ban rand/srand/std::time/std::random_device outside
              src/obs/ and src/util/chaos.cc. Hidden entropy makes
              results vary across runs; all randomness must flow from
              the per-page counter-based Rng seeded by the manifest
              seed.
  DET-CHRONO  ban argless std::chrono::*_clock::now() outside src/obs/
              and src/util/chaos.cc. Wall-clock reads feeding results
              make manifests machine- and load-dependent.
  DET-UNORD   flag iteration over std::unordered_{map,set,multimap,
              multiset}. Iteration order is unspecified (and varies
              with libstdc++ version and address layout), so any fold,
              merge() or serialization fed by it leaks that order into
              results.
  DET-FLOAT   flag +=/-= accumulation into float/double outside
              RunningStat (src/util/stats.cc). FP addition is not
              associative; only the chunk-grid-ordered RunningStat and
              its Chan merge are blessed to fold across jobs.
  HOT-ALLOC   inside functions marked AEGIS_HOT (and everything they
              reach at file-local depth), reject allocation-capable
              constructs: new, make_unique/make_shared, malloc-family,
              push_back/emplace/resize/reserve/insert, std::string,
              std::to_string, std::function, stringstreams, and local
              std::vector construction. The runtime counterpart is
              tests/test_alloc_guard.cc.
  SIG-SAFE    inside functions installed via std::signal/sigaction
              (and everything they reach at file-local depth), allow
              only async-signal-safe calls (POSIX list) plus the
              blessed lock-free CancelToken operations.
  SIMD-CONFINE  ban raw SIMD intrinsics (the _mm*/__m128/__m256/__m512
              families) and *intrin.h includes outside src/util/simd/.
              Everything else must go through the runtime-dispatched
              kernel layer (util/simd/simd.h), or forced-scalar runs
              (AEGIS_SIMD=scalar) silently diverge from production.
  LINT-SUPPRESS  an aegis-lint: allow(...) comment with no reason, an
              unknown rule id, or one that suppresses nothing.

Suppression: put on the offending line, or the line directly above:

    // aegis-lint: allow(RULE-ID why this occurrence is sound)

The reason is mandatory; reviewers read it, the tool only checks it is
non-empty.

Findings are printed in GCC diagnostic format
(file:line:col: error: [RULE-ID] message) so editors and CI annotate
them. Exit status: 0 clean, 1 findings, 2 usage or parse failure.

Engines: the reference engine is a self-contained C++ tokenizer
("tokens"). When the libclang Python bindings are importable, --engine
clang (or auto) tokenizes through libclang instead — same rule logic,
identical findings on this tree — so the gate never depends on clang
being installed.
"""

import argparse
import os
import re
import sys

# --------------------------------------------------------------------
# Rule catalogue
# --------------------------------------------------------------------

RULES = {
    "DET-RAND": "hidden entropy source; all randomness must flow from "
                "the manifest-seeded counter-based Rng",
    "DET-CHRONO": "wall-clock read; results must not depend on time "
                  "or machine load",
    "DET-UNORD": "unordered-container iteration order is unspecified "
                 "and leaks into any fold/merge/serialization it feeds",
    "DET-FLOAT": "float accumulation is order-sensitive; only "
                 "RunningStat's chunk-ordered fold is jobs-invariant",
    "HOT-ALLOC": "allocation-capable construct reachable from an "
                 "AEGIS_HOT function; steady-state hot paths must not "
                 "touch the heap",
    "SIG-SAFE": "only async-signal-safe calls are allowed in signal "
                "handlers",
    "SIMD-CONFINE": "raw SIMD intrinsics are confined to "
                    "src/util/simd/; use the dispatched kernels in "
                    "util/simd/simd.h",
    "LINT-SUPPRESS": "malformed or unused aegis-lint suppression",
}

# Paths (relative to the repo root, '/'-separated) where the
# determinism rules do not apply: observability is *supposed* to read
# clocks, and the chaos harness injects controlled nondeterminism.
DET_EXEMPT_PREFIXES = ("src/obs/",)
DET_EXEMPT_FILES = ("src/util/chaos.cc", "src/util/chaos.h")

# The only place allowed to touch raw SIMD intrinsics. Everything
# else must call the runtime-dispatched kernels (util/simd/simd.h),
# or the AEGIS_SIMD=scalar override no longer covers the code that
# production executes and forced-scalar runs silently diverge.
SIMD_EXEMPT_PREFIXES = ("src/util/simd/",)

# Intrinsic spellings: _mm_/_mm256_/_mm512_... calls and the __m128/
# __m256/__m512 vector types (with i/d/h suffixes).
SIMD_IDENT_RE = re.compile(r"^(_mm\d*_\w+|__m(128|256|512)\w*)$")

# Intrinsics headers. The tokenizer drops preprocessor lines, so
# includes are matched against the raw text line by line.
SIMD_INCLUDE_RE = re.compile(
    r'^\s*#\s*include\s*[<"]([^<">]*intrin[^<">]*\.h)[>"]')

# Virtual clocks whose now() reads *simulated* time (deterministic
# ticks), not the wall clock. sim_clock (sim/timing/clock.h) is named
# like a chrono clock on purpose so that real chrono clocks remain
# lintable in the same files. trace_clock (obs/trace_sink.h) mirrors
# it for event-trace timestamps: it reads whatever tick source the
# bound trace track exposes, never the wall clock.
DET_CHRONO_VIRTUAL_CLOCKS = ("sim_clock", "trace_clock")

# Methods that may (re)allocate on any standard container/string.
ALLOCATING_METHODS = {
    "push_back", "emplace_back", "emplace", "emplace_front",
    "push_front", "resize", "reserve", "insert", "append",
    "shrink_to_fit",
}

# Free functions/types that allocate or own allocations.
ALLOCATING_IDENTS = {
    "make_unique", "make_shared", "malloc", "calloc", "realloc",
    "strdup", "to_string", "stoi", "stod", "stoull",
}
ALLOCATING_STD_TYPES = {
    "string", "function", "stringstream", "ostringstream",
    "istringstream", "wstring",
}

# POSIX async-signal-safe functions we expect to see (subset), plus
# the repo's blessed lock-free cancellation operations.
SIGNAL_SAFE_CALLS = {
    "signal", "sigaction", "raise", "kill", "write", "_exit", "_Exit",
    "abort",
    # CancelToken is one lock-free std::atomic; processCancelToken()'s
    # local static is constructed before the handler can be installed.
    "processCancelToken", "requestCancel",
    # std::atomic operations are lock-free for the types we use.
    "load", "store", "exchange", "compare_exchange_strong",
    "compare_exchange_weak", "fetch_add", "fetch_sub", "fetch_or",
    "test_and_set",
}

UNORDERED_TYPES = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
}

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "catch", "sizeof",
    "alignof", "alignas", "decltype", "static_assert", "noexcept",
    "throw", "new", "delete", "do", "else", "case", "default",
    "template", "typename", "class", "struct", "enum", "namespace",
    "using", "public", "private", "protected", "const", "constexpr",
    "static", "inline", "virtual", "override", "final", "operator",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
}


class Finding:
    def __init__(self, path, line, col, rule, message):
        self.path = path
        self.line = line
        self.col = col
        self.rule = rule
        self.message = message

    def render(self):
        return "%s:%d:%d: error: [%s] %s (%s)" % (
            self.path, self.line, self.col, self.rule, self.message,
            RULES[self.rule])


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind    # id | num | str | char | punct
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):    # pragma: no cover - debugging aid
        return "%s(%r)@%d:%d" % (self.kind, self.text, self.line,
                                 self.col)


# --------------------------------------------------------------------
# Tokenizer (reference engine)
# --------------------------------------------------------------------

_ID_START = re.compile(r"[A-Za-z_]")
_ID_CONT = re.compile(r"[A-Za-z0-9_]")

SUPPRESS_RE = re.compile(
    r"aegis-lint:\s*allow\(\s*([A-Za-z0-9-]+)([^)]*)\)")


def tokenize(text, path, suppressions, bad_suppressions):
    """Tokenize C++ source. Comments are consumed here and mined for
    suppression annotations; preprocessor directives are skipped as
    whole (continuation-aware) lines."""
    tokens = []
    i, n = 0, len(text)
    line, col = 1, 1

    def advance(k):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    def note_comment(body, at_line):
        for m in SUPPRESS_RE.finditer(body):
            rule = m.group(1)
            reason = m.group(2).strip()
            if rule not in RULES or rule == "LINT-SUPPRESS":
                bad_suppressions.append(Finding(
                    path, at_line, 1, "LINT-SUPPRESS",
                    "unknown rule id '%s' in suppression" % rule))
            elif not reason:
                bad_suppressions.append(Finding(
                    path, at_line, 1, "LINT-SUPPRESS",
                    "suppression of %s has no reason; write "
                    "aegis-lint: allow(%s <why>)" % (rule, rule)))
            else:
                suppressions.setdefault(at_line, set()).add(rule)

    at_line_start = True
    while i < n:
        c = text[i]
        if c == "\n":
            advance(1)
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            advance(1)
            continue
        if c == "#" and at_line_start:
            # Preprocessor directive: skip, honoring continuations.
            while i < n:
                j = text.find("\n", i)
                if j < 0:
                    advance(n - i)
                    break
                cont = text[i:j].rstrip().endswith("\\")
                advance(j - i + 1)
                if not cont:
                    break
            at_line_start = True
            continue
        at_line_start = False
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            note_comment(text[i:j], line)
            advance(j - i)
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i + 2)
            if j < 0:
                raise SyntaxError("%s:%d: unterminated block comment"
                                  % (path, line))
            note_comment(text[i:j + 2], line)
            advance(j + 2 - i)
            continue
        if c == '"' or (c == "R" and text.startswith('R"', i)):
            start_line, start_col = line, col
            if c == "R":
                m = re.match(r'R"([^()\\ ]*)\(', text[i:])
                if m:
                    close = ")" + m.group(1) + '"'
                    j = text.find(close, i + m.end())
                    if j < 0:
                        raise SyntaxError(
                            "%s:%d: unterminated raw string"
                            % (path, line))
                    advance(j + len(close) - i)
                    tokens.append(Token("str", "<raw>", start_line,
                                        start_col))
                    continue
                # An identifier starting with R.
            if c == '"':
                j = i + 1
                while j < n:
                    if text[j] == "\\":
                        j += 2
                        continue
                    if text[j] == '"':
                        break
                    j += 1
                if j >= n:
                    raise SyntaxError("%s:%d: unterminated string"
                                      % (path, line))
                advance(j + 1 - i)
                tokens.append(Token("str", "<str>", start_line,
                                    start_col))
                continue
        if c == "'":
            start_line, start_col = line, col
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == "'":
                    break
                j += 1
            if j >= n:
                raise SyntaxError("%s:%d: unterminated char literal"
                                  % (path, line))
            advance(j + 1 - i)
            tokens.append(Token("char", "<char>", start_line,
                                start_col))
            continue
        if _ID_START.match(c):
            j = i
            while j < n and _ID_CONT.match(text[j]):
                j += 1
            tok = text[i:j]
            tokens.append(Token("id", tok, line, col))
            advance(j - i)
            continue
        if c.isdigit():
            j = i
            while j < n and (text[j].isalnum() or text[j] in "._'+-"):
                if text[j] in "+-" and text[j - 1] not in "eEpP":
                    break
                j += 1
            tokens.append(Token("num", text[i:j], line, col))
            advance(j - i)
            continue
        # Punctuation: greedily match the few multi-char tokens the
        # rules care about.
        for punct in ("->*", "<<=", ">>=", "...", "::", "->", "+=",
                      "-=", "*=", "/=", "==", "!=", "<=", ">=", "&&",
                      "||", "<<", ">>", "++", "--"):
            if text.startswith(punct, i):
                tokens.append(Token("punct", punct, line, col))
                advance(len(punct))
                break
        else:
            tokens.append(Token("punct", c, line, col))
            advance(1)
    return tokens


def tokenize_with_libclang(text, path, suppressions, bad_suppressions):
    """Tokenize through libclang. Comments come back as first-class
    tokens, so suppression mining works identically; everything else
    maps onto the reference Token stream."""
    from clang import cindex    # caller guarantees importability

    index = cindex.Index.create()
    tu = index.parse(path, args=["-std=c++20", "-fsyntax-only"],
                     unsaved_files=[(path, text)],
                     options=cindex.TranslationUnit
                     .PARSE_DETAILED_PROCESSING_RECORD)
    tokens = []
    kinds = cindex.TokenKind
    for t in tu.get_tokens(extent=tu.cursor.extent):
        loc = t.location
        if str(loc.file) != path:
            continue
        if t.kind == kinds.COMMENT:
            for m in SUPPRESS_RE.finditer(t.spelling):
                rule, reason = m.group(1), m.group(2).strip()
                if rule not in RULES or rule == "LINT-SUPPRESS":
                    bad_suppressions.append(Finding(
                        path, loc.line, 1, "LINT-SUPPRESS",
                        "unknown rule id '%s' in suppression" % rule))
                elif not reason:
                    bad_suppressions.append(Finding(
                        path, loc.line, 1, "LINT-SUPPRESS",
                        "suppression of %s has no reason" % rule))
                else:
                    suppressions.setdefault(loc.line, set()).add(rule)
            continue
        kind = {kinds.IDENTIFIER: "id", kinds.KEYWORD: "id",
                kinds.LITERAL: "num",
                kinds.PUNCTUATION: "punct"}.get(t.kind, "punct")
        text_ = t.spelling
        if kind == "num" and text_ and text_[0] in "\"'":
            kind = "str" if text_[0] == '"' else "char"
            text_ = "<str>" if kind == "str" else "<char>"
        tokens.append(Token(kind, text_, loc.line, loc.column))
    return tokens


# --------------------------------------------------------------------
# Token-stream helpers
# --------------------------------------------------------------------

def prev_tok(tokens, idx):
    return tokens[idx - 1] if idx > 0 else None


def next_tok(tokens, idx):
    return tokens[idx + 1] if idx + 1 < len(tokens) else None


def match_forward(tokens, idx, opener, closer):
    """Index of the token matching tokens[idx] (an opener), or -1."""
    depth = 0
    for j in range(idx, len(tokens)):
        t = tokens[j]
        if t.kind == "punct" and t.text == opener:
            depth += 1
        elif t.kind == "punct" and t.text == closer:
            depth -= 1
            if depth == 0:
                return j
    return -1


class FunctionDef:
    """One function definition: name + [body_start, body_end] token
    indices (inclusive of the braces)."""

    def __init__(self, name, qualifier, head_line, body_start,
                 body_end):
        self.name = name
        self.qualifier = qualifier
        self.head_line = head_line
        self.body_start = body_start
        self.body_end = body_end
        self.calls = set()


def find_function_defs(tokens):
    """Heuristic scan for function definitions: ID '(' ... ')'
    [qualifiers] '{'. Control-flow keywords and obvious non-functions
    are excluded. Good enough for this codebase's formatting (and the
    lint fixtures pin the behaviour)."""
    defs = []
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind != "id" or t.text in CPP_KEYWORDS:
            i += 1
            continue
        nxt = next_tok(tokens, i)
        if nxt is None or nxt.text != "(":
            i += 1
            continue
        close = match_forward(tokens, i + 1, "(", ")")
        if close < 0:
            i += 1
            continue
        # Skip trailer: const, noexcept(...), override, ->, type ids.
        j = close + 1
        while j < n:
            tj = tokens[j]
            if tj.kind == "punct" and tj.text == "{":
                break
            if tj.kind == "punct" and tj.text in (";", "=", ",", ")",
                                                  "}"):
                j = -1
                break
            if tj.kind == "punct" and tj.text == "(":
                j2 = match_forward(tokens, j, "(", ")")
                if j2 < 0:
                    j = -1
                    break
                j = j2 + 1
                continue
            if tj.kind in ("id", "punct"):
                j += 1
                continue
            j = -1
            break
        if j < 0 or j >= n:
            i += 1
            continue
        body_end = match_forward(tokens, j, "{", "}")
        if body_end < 0:
            i += 1
            continue
        qual = None
        p = prev_tok(tokens, i)
        if p is not None and p.kind == "punct" and p.text == "::" \
                and i >= 2:
            qual = tokens[i - 2].text
        defs.append(FunctionDef(t.text, qual, t.line, j, body_end))
        # Continue scanning *inside* the body too (lambdas, local
        # classes) — nested hits are separate defs, harmless.
        i += 1
    return defs


def collect_calls(tokens, fdef):
    """Names called (ID followed by '(') inside a function body."""
    calls = set()
    for i in range(fdef.body_start + 1, fdef.body_end):
        t = tokens[i]
        if t.kind != "id" or t.text in CPP_KEYWORDS:
            continue
        nxt = next_tok(tokens, i)
        if nxt is not None and nxt.kind == "punct" and nxt.text == "(":
            calls.add(t.text)
    return calls


def reachable_defs(defs, roots):
    """File-local closure: all defs reachable from root names."""
    by_name = {}
    for d in defs:
        by_name.setdefault(d.name, []).append(d)
    seen_names = set()
    work = list(roots)
    out = []
    while work:
        name = work.pop()
        if name in seen_names:
            continue
        seen_names.add(name)
        for d in by_name.get(name, []):
            out.append(d)
            for callee in d.calls:
                if callee not in seen_names and callee in by_name:
                    work.append(callee)
    return out, seen_names


# --------------------------------------------------------------------
# Declared-variable scanning (for DET-UNORD / DET-FLOAT)
# --------------------------------------------------------------------

def scan_declared_names(tokens):
    """Map variable name -> coarse declared type tag.

    Tags: 'unordered' for std::unordered_* containers,
    'float' for float/double and std::vector<float|double>."""
    names = {}
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.kind != "id":
            continue
        if t.text in UNORDERED_TYPES or (
                t.text == "vector" and _vector_of_float(tokens, i)):
            tag = "unordered" if t.text in UNORDERED_TYPES else "float"
            j = i + 1
            if j < n and tokens[j].text == "<":
                j = _skip_template_args(tokens, j)
                if j < 0:
                    continue
            # Declarator: optional &, * then the variable name.
            while j < n and tokens[j].kind == "punct" \
                    and tokens[j].text in ("&", "*"):
                j += 1
            if j < n and tokens[j].kind == "id" \
                    and tokens[j].text not in CPP_KEYWORDS:
                names[tokens[j].text] = tag
        elif t.text in ("float", "double"):
            p = prev_tok(tokens, i)
            if p is not None and p.kind == "punct" and p.text in (
                    "(", ",", "<"):
                # Parameter or template argument, not an accumulator
                # declaration we can track reliably; parameters are
                # still caught when a tracked member is involved.
                pass
            j = i + 1
            while j < n and tokens[j].kind == "id" \
                    and tokens[j].text in ("const", "static",
                                           "constexpr", "long"):
                j += 1
            if j < n and tokens[j].kind == "id" \
                    and tokens[j].text not in CPP_KEYWORDS:
                nxt = next_tok(tokens, j)
                if nxt is not None and nxt.text in ("=", ";", "{", ",",
                                                    ")"):
                    names[tokens[j].text] = "float"
    return names


def _skip_template_args(tokens, idx):
    """tokens[idx] is '<'; return index after the matching '>'."""
    depth = 0
    for j in range(idx, len(tokens)):
        txt = tokens[j].text
        if txt == "<":
            depth += 1
        elif txt == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif txt == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif txt in (";", "{"):
            return -1
    return -1


def _vector_of_float(tokens, idx):
    nxt = next_tok(tokens, idx)
    if nxt is None or nxt.text != "<":
        return False
    nn = next_tok(tokens, idx + 1)
    return nn is not None and nn.text in ("float", "double")


# --------------------------------------------------------------------
# The rules
# --------------------------------------------------------------------

def det_exempt(relpath):
    rel = relpath.replace(os.sep, "/")
    return rel.startswith(DET_EXEMPT_PREFIXES) or \
        rel in DET_EXEMPT_FILES


def check_det_rand(tokens, relpath, findings):
    if det_exempt(relpath):
        return
    for i, t in enumerate(tokens):
        if t.kind != "id":
            continue
        p = prev_tok(tokens, i)
        after_member = p is not None and p.text in (".", "->")
        after_scope = p is not None and p.text == "::"
        std_qualified = after_scope and i >= 2 \
            and tokens[i - 2].text == "std"
        foreign_scope = after_scope and not std_qualified
        if t.text == "random_device":
            if not after_member and not foreign_scope:
                findings.append(Finding(
                    relpath, t.line, t.col, "DET-RAND",
                    "std::random_device draws entropy from the OS"))
            continue
        nxt = next_tok(tokens, i)
        is_call = nxt is not None and nxt.text == "("
        if not is_call or after_member or foreign_scope:
            continue
        if t.text in ("rand", "srand"):
            findings.append(Finding(
                relpath, t.line, t.col, "DET-RAND",
                "call to '%s'; use aegis::Rng seeded from the "
                "manifest seed" % t.text))
        elif t.text == "time" and std_qualified:
            findings.append(Finding(
                relpath, t.line, t.col, "DET-RAND",
                "call to 'std::time'; wall-clock values must not "
                "reach scheme or sim code"))


def check_det_chrono(tokens, relpath, findings):
    if det_exempt(relpath):
        return
    for i, t in enumerate(tokens):
        if t.kind != "id" or t.text != "now":
            continue
        nxt = next_tok(tokens, i)
        nn = next_tok(tokens, i + 1)
        if nxt is None or nxt.text != "(" or nn is None \
                or nn.text != ")":
            continue
        p = prev_tok(tokens, i)
        if p is None or p.text != "::" or i < 2:
            continue
        owner = tokens[i - 2].text
        if owner in DET_CHRONO_VIRTUAL_CLOCKS:
            continue
        if owner.endswith("_clock") or owner == "chrono":
            findings.append(Finding(
                relpath, t.line, t.col, "DET-CHRONO",
                "argless %s::now() outside src/obs/" % owner))


def check_det_unord(tokens, relpath, declared, findings):
    for i, t in enumerate(tokens):
        if t.kind != "id":
            continue
        if t.text == "for":
            # range-for over a tracked name: for ( decl : NAME )
            nxt = next_tok(tokens, i)
            if nxt is None or nxt.text != "(":
                continue
            close = match_forward(tokens, i + 1, "(", ")")
            if close < 0:
                continue
            inner = tokens[i + 2:close]
            for k, it in enumerate(inner):
                if it.kind == "punct" and it.text == ":":
                    rest = [x for x in inner[k + 1:] if x.kind == "id"]
                    if rest and declared.get(rest[-1].text) == \
                            "unordered":
                        findings.append(Finding(
                            relpath, t.line, t.col, "DET-UNORD",
                            "range-for over unordered container "
                            "'%s'" % rest[-1].text))
                    break
        elif t.text in ("begin", "cbegin") and i >= 2:
            p = prev_tok(tokens, i)
            if p is not None and p.text in (".", "->") and \
                    declared.get(tokens[i - 2].text) == "unordered":
                findings.append(Finding(
                    relpath, t.line, t.col, "DET-UNORD",
                    "iterator walk over unordered container '%s'"
                    % tokens[i - 2].text))


def check_det_float(tokens, relpath, declared, findings):
    rel = relpath.replace(os.sep, "/")
    if rel == "src/util/stats.cc":
        return    # RunningStat / Chan merge: the blessed accumulator
    for i, t in enumerate(tokens):
        if t.kind != "punct" or t.text not in ("+=", "-="):
            continue
        p = prev_tok(tokens, i)
        if p is None or p.kind != "id":
            # Possibly name[expr] += : walk back over the subscript.
            if p is not None and p.text == "]":
                depth = 0
                for j in range(i - 1, -1, -1):
                    txt = tokens[j].text
                    if txt == "]":
                        depth += 1
                    elif txt == "[":
                        depth -= 1
                        if depth == 0:
                            tgt = prev_tok(tokens, j)
                            if tgt is not None and declared.get(
                                    tgt.text) == "float":
                                findings.append(Finding(
                                    relpath, tgt.line, tgt.col,
                                    "DET-FLOAT",
                                    "accumulation into float element "
                                    "'%s[...]'" % tgt.text))
                            break
            continue
        if declared.get(p.text) == "float":
            findings.append(Finding(
                relpath, p.line, p.col, "DET-FLOAT",
                "accumulation into floating-point '%s'" % p.text))


def check_hot_alloc(tokens, relpath, findings):
    # Roots: names of functions whose definition head is preceded by
    # an AEGIS_HOT marker (on the declaration or the definition).
    hot_names = set()
    for i, t in enumerate(tokens):
        if t.kind == "id" and t.text == "AEGIS_HOT":
            for j in range(i + 1, min(i + 40, len(tokens))):
                if tokens[j].kind == "id" and \
                        tokens[j].text not in CPP_KEYWORDS and \
                        j + 1 < len(tokens) and \
                        tokens[j + 1].text == "(":
                    hot_names.add(tokens[j].text)
                    break
    if not hot_names:
        return
    defs = find_function_defs(tokens)
    for d in defs:
        d.calls = collect_calls(tokens, d)
    hot_defs, hot_closure = reachable_defs(defs, hot_names)
    for d in hot_defs:
        root_note = "" if d.name in hot_names else \
            " (reached from an AEGIS_HOT function)"
        for i in range(d.body_start + 1, d.body_end):
            t = tokens[i]
            if t.kind != "id":
                continue
            p = prev_tok(tokens, i)
            nxt = next_tok(tokens, i)
            if t.text == "new":
                findings.append(Finding(
                    relpath, t.line, t.col, "HOT-ALLOC",
                    "operator new in hot function '%s'%s"
                    % (d.name, root_note)))
            elif t.text in ALLOCATING_METHODS and p is not None \
                    and p.text in (".", "->") and nxt is not None \
                    and nxt.text == "(":
                findings.append(Finding(
                    relpath, t.line, t.col, "HOT-ALLOC",
                    "call to allocation-capable '%s' in hot function "
                    "'%s'%s" % (t.text, d.name, root_note)))
            elif t.text in ALLOCATING_IDENTS and nxt is not None \
                    and nxt.text in ("(", "<"):
                findings.append(Finding(
                    relpath, t.line, t.col, "HOT-ALLOC",
                    "call to '%s' in hot function '%s'%s"
                    % (t.text, d.name, root_note)))
            elif t.text in ALLOCATING_STD_TYPES and p is not None \
                    and p.text == "::" and i >= 2 \
                    and tokens[i - 2].text == "std":
                findings.append(Finding(
                    relpath, t.line, t.col, "HOT-ALLOC",
                    "std::%s in hot function '%s'%s"
                    % (t.text, d.name, root_note)))
            elif t.text == "vector" and p is not None \
                    and p.text == "::" and i >= 2 \
                    and tokens[i - 2].text == "std" \
                    and nxt is not None and nxt.text == "<" \
                    and not _is_ref_or_ptr_declarator(tokens, i):
                findings.append(Finding(
                    relpath, t.line, t.col, "HOT-ALLOC",
                    "local std::vector constructed in hot function "
                    "'%s'%s" % (d.name, root_note)))


def _is_ref_or_ptr_declarator(tokens, i):
    """True when the std::vector<...> at token *i* declares a reference
    or pointer (binds to existing storage — no construction)."""
    j = i + 1
    if j >= len(tokens) or tokens[j].text != "<":
        return False
    depth = 0
    while j < len(tokens):
        text = tokens[j].text
        if text == "<":
            depth += 1
        elif text == ">":
            depth -= 1
            if depth == 0:
                break
        elif text == ">>":
            depth -= 2
            if depth <= 0:
                break
        j += 1
    nxt = next_tok(tokens, j)
    return nxt is not None and nxt.text in ("&", "*")


def check_sig_safe(tokens, relpath, findings):
    # Handlers: function names appearing as an argument of
    # std::signal(...) / sigaction(...).
    defs = find_function_defs(tokens)
    def_names = {d.name for d in defs}
    handlers = set()
    for i, t in enumerate(tokens):
        if t.kind == "id" and t.text in ("signal", "sigaction"):
            nxt = next_tok(tokens, i)
            if nxt is None or nxt.text != "(":
                continue
            close = match_forward(tokens, i + 1, "(", ")")
            if close < 0:
                continue
            for a in tokens[i + 2:close]:
                if a.kind == "id" and a.text in def_names:
                    handlers.add(a.text)
    if not handlers:
        return
    for d in defs:
        d.calls = collect_calls(tokens, d)
    handler_defs, _ = reachable_defs(defs, handlers)
    for d in handler_defs:
        for i in range(d.body_start + 1, d.body_end):
            t = tokens[i]
            if t.kind != "id" or t.text in CPP_KEYWORDS:
                continue
            nxt = next_tok(tokens, i)
            if nxt is None or nxt.text != "(":
                continue
            if t.text in SIGNAL_SAFE_CALLS or t.text in def_names:
                continue
            findings.append(Finding(
                relpath, t.line, t.col, "SIG-SAFE",
                "'%s' called from signal handler '%s' is not "
                "async-signal-safe" % (t.text, d.name)))


def simd_exempt(relpath):
    return relpath.replace(os.sep, "/").startswith(
        SIMD_EXEMPT_PREFIXES)


def check_simd_confine(tokens, text, relpath, findings):
    if simd_exempt(relpath):
        return
    for line_no, line in enumerate(text.splitlines(), start=1):
        m = SIMD_INCLUDE_RE.match(line)
        if m:
            findings.append(Finding(
                relpath, line_no, m.start(1) + 1, "SIMD-CONFINE",
                "intrinsics header '%s' included outside "
                "src/util/simd/" % m.group(1)))
    for t in tokens:
        if t.kind == "id" and SIMD_IDENT_RE.match(t.text):
            findings.append(Finding(
                relpath, t.line, t.col, "SIMD-CONFINE",
                "raw SIMD intrinsic '%s'; call the dispatched "
                "kernels in util/simd/simd.h instead" % t.text))


# --------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------

def paired_header_tokens(path, engine, repo_root):
    """Tokens of the .h next to a .cc (member declarations feed the
    declared-name scan), or []. Suppression comments in the header
    apply to the header's own lint run, not the .cc's."""
    if not path.endswith(".cc"):
        return []
    header = path[:-3] + ".h"
    if not os.path.isfile(header):
        return []
    return lint_tokens_for(header, engine, repo_root,
                           sink_suppressions=False)[0]


_token_cache = {}


def lint_tokens_for(path, engine, repo_root, sink_suppressions=True):
    key = (os.path.abspath(path), engine)
    if key in _token_cache:
        return _token_cache[key]
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    suppressions = {}
    bad = []
    if engine == "clang":
        tokens = tokenize_with_libclang(text, path, suppressions, bad)
    else:
        tokens = tokenize(text, path, suppressions, bad)
    _token_cache[key] = (tokens, suppressions, bad, text)
    return _token_cache[key]


def lint_file(path, repo_root, engine):
    relpath = os.path.relpath(os.path.abspath(path), repo_root)
    tokens, suppressions, bad_sup, text = lint_tokens_for(path, engine,
                                                          repo_root)
    findings = []
    check_det_rand(tokens, relpath, findings)
    check_det_chrono(tokens, relpath, findings)

    declared = scan_declared_names(tokens)
    declared.update({k: v for k, v in scan_declared_names(
        paired_header_tokens(path, engine, repo_root)).items()
        if k not in declared})
    check_det_unord(tokens, relpath, declared, findings)
    check_det_float(tokens, relpath, declared, findings)

    check_hot_alloc(tokens, relpath, findings)
    check_sig_safe(tokens, relpath, findings)
    check_simd_confine(tokens, text, relpath, findings)

    # Apply suppressions: a finding is silenced when its line, or the
    # line below a comment-only line (i.e. the annotation sits right
    # above), carries an allow() for its rule.
    kept = []
    used = set()
    for f in findings:
        sup_here = suppressions.get(f.line, set())
        sup_above = suppressions.get(f.line - 1, set())
        if f.rule in sup_here:
            used.add((f.line, f.rule))
            continue
        if f.rule in sup_above:
            used.add((f.line - 1, f.rule))
            continue
        kept.append(f)
    for line, rules in sorted(suppressions.items()):
        for rule in sorted(rules):
            if (line, rule) not in used:
                kept.append(Finding(
                    relpath, line, 1, "LINT-SUPPRESS",
                    "suppression of %s matches no finding on this or "
                    "the next line; delete it" % rule))
    for f in bad_sup:
        f.path = relpath
        kept.append(f)
    kept.sort(key=lambda f: (f.line, f.col, f.rule))
    return kept


def default_files(repo_root):
    out = []
    src = os.path.join(repo_root, "src")
    for dirpath, _dirnames, filenames in os.walk(src):
        for name in sorted(filenames):
            if name.endswith((".cc", ".h")):
                out.append(os.path.join(dirpath, name))
    return sorted(out)


def pick_engine(requested):
    if requested == "tokens":
        return "tokens"
    try:
        from clang import cindex
        cindex.Index.create()
        return "clang"
    except Exception:
        if requested == "clang":
            print("aegis-lint: libclang bindings unavailable",
                  file=sys.stderr)
            sys.exit(2)
        return "tokens"


def main(argv):
    ap = argparse.ArgumentParser(
        prog="aegis-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="*",
                    help="files to check (default: src/**/*.{cc,h})")
    ap.add_argument("--repo-root", default=None,
                    help="repository root (default: the tool's "
                         "grandparent directory)")
    ap.add_argument("--engine", choices=["auto", "tokens", "clang"],
                    default="auto")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress the summary line")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            print("%-13s %s" % (rule, RULES[rule]))
        return 0

    repo_root = os.path.abspath(
        args.repo_root if args.repo_root else
        os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "..", ".."))
    engine = pick_engine(args.engine)
    files = []
    for arg in (args.files if args.files else default_files(repo_root)):
        if os.path.isdir(arg):
            for dirpath, _dirnames, filenames in sorted(os.walk(arg)):
                for name in sorted(filenames):
                    files.append(os.path.join(dirpath, name))
        else:
            files.append(arg)

    total = 0
    checked = 0
    for path in files:
        if not path.endswith((".cc", ".h")) or not os.path.isfile(path):
            continue
        checked += 1
        try:
            findings = lint_file(path, repo_root, engine)
        except SyntaxError as e:
            print("aegis-lint: %s" % e, file=sys.stderr)
            return 2
        for f in findings:
            print(f.render())
        total += len(findings)
    if not args.quiet:
        print("aegis-lint: %d finding%s in %d file%s [engine=%s]"
              % (total, "" if total == 1 else "s", checked,
                 "" if checked == 1 else "s", engine),
              file=sys.stderr)
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
