#!/usr/bin/env python3
"""cloudlb determinism linter.

Enforces the project rules that keep every run bit-reproducible and every
invariant loud (docs/static-analysis.md):

  wall-clock       no ambient time sources in library code
  ambient-rng      no unseeded / OS-entropy randomness in result paths
  unordered-iter   no range-for over unordered containers in result paths
  naked-new        no naked new/delete outside the slot-arena machinery
  assert           no <cassert> assert() in src/ (CLB_CHECK throws instead)
  float-load       no `float` in load accounting (Eq. 1-3 are double)
  float-literal    no bare 0.05*wall slack literals; use wall_slack()
  pragma-once      headers start with #pragma once
  using-namespace  no `using namespace` at header scope
  shard-annotation partitioned-runtime files (src/runtime/, src/sim/)
                   with per-shard members or ranked scheduling include
                   util/shard_annotations.h
  exact-fp         no target attribute or pragma naming fma, avx512*,
                   arch= or tune=, and no -mfma, -march, -mavx512*,
                   -ffast-math, -ffp-contract=fast or -Ofast in src/ or
                   the CMake files: the kernels must match their scalar
                   references bit for bit

Diagnostics are `path:line: [rule] message`, one per finding; the exit
code is 0 when the tree is clean and 1 otherwise. A finding is suppressed
by a trailing comment naming its rule:

    std::mt19937 gen;  // NOLINT-CLOUDLB(ambient-rng): fixture for tests

Multiple rules separate with commas: `// NOLINT-CLOUDLB(rule-a,rule-b)`.
In CMake files the comment starts with `#` instead of `//`.
A suppression naming a rule that fires no diagnostic on its line is itself
reported as `stale-nolint`, so suppressions cannot rot in place after the
code they excused is fixed (and rule-name typos are caught). Rules whose
name starts with `analyzer-` belong to the Clang AST analyzer
(tools/analyzer/), which shares this suppression syntax; the Python
linter cannot evaluate those and leaves them alone.

Usage:
    cloudlb_lint.py [--root DIR]          lint DIR's src/tests/bench/tools
    cloudlb_lint.py [--root DIR] FILE...  lint specific files
    cloudlb_lint.py --selftest DIR        fixture mode (tests/lint/): every
                                          `// EXPECT-LINT(rule)` annotation
                                          must match one diagnostic on its
                                          line, and vice versa
    cloudlb_lint.py --list-rules          print the rule table

Run via scripts/lint.sh, the CMake `lint` target, or `ctest -L lint`.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from typing import Callable, NamedTuple

# Top-level directories walked in tree mode.
SCAN_DIRS = ("src", "tests", "bench", "tools")

# The linter's own fixture corpus: deliberately bad code, never linted as
# part of the real tree.
EXCLUDED = ("tests/lint/fixtures", "tests/analyzer/fixtures")

SOURCE_SUFFIXES = (".cc", ".cpp", ".h", ".hpp")
HEADER_SUFFIXES = (".h", ".hpp")

# CMake files are walked at the root and in these top-level directories
# (never in build trees, whose generated .cmake files are not ours).
CMAKE_DIRS = SCAN_DIRS + ("examples", "perfbench")


def _is_cmake(path: pathlib.Path) -> bool:
    return path.name == "CMakeLists.txt" or path.suffix == ".cmake"


class Diagnostic(NamedTuple):
    path: pathlib.Path
    line: int  # 1-based
    rule: str
    message: str


class Rule(NamedTuple):
    name: str
    scopes: tuple[str, ...]  # top-level dirs the rule applies to
    headers_only: bool
    description: str
    check: "Callable[[Rule, pathlib.Path, list[str], list[str]], list[Diagnostic]]"
    # Per-file allowlist: (glob, reason). Files matching any glob are
    # exempt; the reason documents why, like an in-tree NOLINT would.
    allow: tuple[tuple[str, str], ...] = ()
    # Whether the rule also reads every CMake file (the only rules that
    # do), whatever its scopes.
    cmake: bool = False


def _raw_prefix_len(line: str, i: int) -> int:
    """Length of a raw-string-literal prefix (R, u8R, uR, UR, LR) ending
    immediately before the quote at line[i], or 0 when the quote does not
    open a raw string (including `FOOBAR"..."`, an identifier that merely
    ends in R)."""
    for pre in ("u8R", "uR", "UR", "LR", "R"):
        if line.endswith(pre, 0, i):
            before = i - len(pre) - 1
            if before < 0 or not (line[before].isalnum() or line[before] == "_"):
                return len(pre)
    return 0


def _strip_comments_and_strings(lines: list[str]) -> list[str]:
    """Blanks out comments and string/char literal bodies, keeping the
    line structure so diagnostics still point at real lines. Handles raw
    string literals (`R"delim(...)delim"`, possibly spanning lines) and
    backslash line continuations that splice a // comment or a quoted
    literal onto the next physical line; trigraphs are ignored."""
    out: list[str] = []
    in_block = False          # inside /* ... */
    raw_delim: str | None = None  # inside R"delim( ... , awaiting )delim"
    in_line_comment = False   # // comment spliced on by a trailing backslash
    quote: str | None = None  # quoted literal spliced on by a trailing backslash
    for line in lines:
        res: list[str] = []
        i, n = 0, len(line)
        if in_line_comment:
            in_line_comment = line.endswith("\\")
            out.append(" " * n)
            continue
        while i < n:
            c = line[i]
            if raw_delim is not None:
                close = line.find(")" + raw_delim + '"', i)
                if close == -1:
                    res.append(" " * (n - i))
                    i = n
                else:
                    end = close + len(raw_delim) + 2
                    res.append(" " * (end - 1 - i) + '"')
                    i = end
                    raw_delim = None
            elif in_block:
                if line.startswith("*/", i):
                    in_block = False
                    res.append("  ")
                    i += 2
                else:
                    res.append(" ")
                    i += 1
            elif quote:
                if c == "\\":
                    if i + 1 < n:
                        res.append("  ")
                        i += 2
                    else:  # line splice: literal continues on the next line
                        res.append(" ")
                        i += 1
                elif c == quote:
                    quote = None
                    res.append(c)
                    i += 1
                else:
                    res.append(" ")
                    i += 1
            elif line.startswith("//", i):
                in_line_comment = line.endswith("\\")
                res.append(" " * (n - i))
                break
            elif line.startswith("/*", i):
                in_block = True
                res.append("  ")
                i += 2
            elif c == '"' and _raw_prefix_len(line, i):
                paren = line.find("(", i + 1)
                delim = line[i + 1:paren] if paren != -1 else None
                if delim is not None and len(delim) <= 16 and not re.search(
                        r'[\s\\)"]', delim):
                    close = line.find(")" + delim + '"', paren + 1)
                    if close == -1:
                        res.append('"' + " " * (n - i - 1))
                        raw_delim = delim
                        i = n
                    else:
                        end = close + len(delim) + 2
                        res.append('"' + " " * (end - i - 2) + '"')
                        i = end
                else:  # malformed d-char-seq: fall back to a plain string
                    quote = c
                    res.append(c)
                    i += 1
            elif c in "\"'":
                quote = c
                res.append(c)
                i += 1
            else:
                res.append(c)
                i += 1
        if quote and not line.endswith("\\"):
            quote = None  # unterminated literal; don't poison later lines
        out.append("".join(res))
    return out


def _regex_rule(patterns: list[tuple[str, str]]):
    """Builds a check that flags every line where a pattern matches the
    comment/string-stripped code."""
    compiled = [(re.compile(p), msg) for p, msg in patterns]

    def check(rule: Rule, path: pathlib.Path, raw: list[str],
              code: list[str]) -> list[Diagnostic]:
        del raw
        found = []
        for lineno, text in enumerate(code, 1):
            for pat, msg in compiled:
                if pat.search(text):
                    found.append(Diagnostic(path, lineno, rule.name, msg))
        return found

    return check


def _strip_cmake_comments(lines: list[str]) -> list[str]:
    """Blanks out CMake `#` comments outside quoted arguments, keeping the
    strings: compiler flags live in them. Bracket comments (`#[[ ]]`) are
    treated line by line, like ordinary ones."""
    out: list[str] = []
    for line in lines:
        quoted = False
        i = 0
        while i < len(line):
            c = line[i]
            if c == "\\":
                i += 2
                continue
            if c == '"':
                quoted = not quoted
            elif c == "#" and not quoted:
                break
            i += 1
        out.append(line[:i] + " " * (len(line) - i))
    return out


# Instruction sets a target attribute or pragma must not name: FMA fuses
# a multiply and an add into one rounding (AVX-512 implies it), and arch=
# or tune= may bring in either.
_FUSING_ISA = re.compile(r"\bfma\w*|\bavx512\w*|\barch=|\btune=")
# Flags that let the compiler reassociate or contract floating-point
# expressions, or enable FMA for a whole translation unit.
_INEXACT_FLAG = re.compile(
    r"(?<![\w-])(?:-mfma|-march\b|-mavx512\w*|-ffast-math"
    r"|-ffp-contract=fast|-Ofast)")
_TARGET_ATTR = re.compile(
    r"\btarget(?:_clones)?\s*\(|#\s*pragma\s+GCC\s+target\b")
_OPTIMIZE_ATTR = re.compile(r"\boptimize\s*\(|#\s*pragma\s+GCC\s+optimize\b")
_INEXACT_OPTIMIZE = re.compile(r"fast-math|fp-contract=fast|Ofast")


def _check_exact_fp(rule: Rule, path: pathlib.Path, raw: list[str],
                    code: list[str]) -> list[Diagnostic]:
    """The force and stencil kernels must match their scalar references
    bit for bit (docs/applications.md), which holds only while no product
    is fused into an add and no expression is reassociated. In a source
    file, a target attribute or pragma is checked for the instruction sets
    it names and an optimize attribute or pragma for the flags; in a CMake
    file, every flag is. The names sit in string literals, which `code`
    blanks, so the checks read the raw line up to its trailing comment
    (the stripped line keeps every column, so its length marks the end of
    the code). A target list split across lines escapes the check, the
    usual precision trade-off of these line rules."""
    found = []
    for lineno, (text, stripped) in enumerate(zip(raw, code), 1):
        line = text[:len(stripped.rstrip())]
        if _is_cmake(path):
            m = _INEXACT_FLAG.search(line)
            if m:
                found.append(Diagnostic(
                    path, lineno, rule.name,
                    f"{m.group(0)} lets the compiler fuse or reassociate "
                    "floating-point operations; the kernels must match "
                    "their scalar references bit for bit"))
            continue
        if _TARGET_ATTR.search(stripped):
            m = _FUSING_ISA.search(line)
            if m:
                found.append(Diagnostic(
                    path, lineno, rule.name,
                    f"target names '{m.group(0)}', which may fuse a "
                    "multiply and an add; name only the instruction sets "
                    "the kernel needs (e.g. avx2), so results stay "
                    "bit-identical to the scalar references"))
        if _OPTIMIZE_ATTR.search(stripped):
            m = _INEXACT_OPTIMIZE.search(line)
            if m:
                found.append(Diagnostic(
                    path, lineno, rule.name,
                    f"optimize names '{m.group(0)}', which lets the "
                    "compiler fuse or reassociate floating-point "
                    "operations"))
    return found


def _check_pragma_once(rule: Rule, path: pathlib.Path, raw: list[str],
                       code: list[str]) -> list[Diagnostic]:
    del raw
    for lineno, text in enumerate(code, 1):
        stripped = text.strip()
        if not stripped:
            continue
        if re.fullmatch(r"#\s*pragma\s+once", stripped):
            return []
        return [Diagnostic(path, lineno, rule.name,
                           "header must open with #pragma once")]
    return [Diagnostic(path, 1, rule.name,
                       "header must open with #pragma once")]


def _check_unordered_iter(rule: Rule, path: pathlib.Path, raw: list[str],
                          code: list[str]) -> list[Diagnostic]:
    """Flags range-for statements whose range is (or is declared as) an
    unordered associative container. Identifier tracking is per-file and
    regex-based: declarations split across lines can escape it, which is
    the documented precision/complexity trade-off."""
    del raw
    decl = re.compile(r"unordered_(?:map|set)\s*<[^;{}]*?>[&\s]+(\w+)\s*[;{=(,)]")
    names: set[str] = set()
    for text in code:
        for m in decl.finditer(text):
            names.add(m.group(1))
    range_for = re.compile(r"\bfor\s*\([^;()]*:\s*([^)]+)\)")
    found = []
    for lineno, text in enumerate(code, 1):
        m = range_for.search(text)
        if not m:
            continue
        range_expr = m.group(1).strip()
        ident = re.fullmatch(r"[\w.\->:]*?(\w+)_?", range_expr)
        if "unordered_" in range_expr or (
                ident and (ident.group(0) in names
                           or range_expr in names)):
            found.append(Diagnostic(
                path, lineno, rule.name,
                f"range-for over unordered container '{range_expr}': "
                "iteration order is hash-dependent and breaks the "
                "determinism contract"))
    return found


def _check_shard_annotation(rule: Rule, path: pathlib.Path, raw: list[str],
                            code: list[str]) -> list[Diagnostic]:
    """Files in the partitioned runtime (src/runtime/, src/sim/) that
    declare per-shard members or call the ranked scheduling API must pull
    in the effect annotations (util/shard_annotations.h), so the AST
    analyzer's shard-safety checks can see the file's contracts. Matching
    on adjacent path components (not a root-relative prefix) keeps the
    rule testable from the fixture corpus."""
    parts = path.parts
    if not any(parts[i:i + 2] in (("src", "runtime"), ("src", "sim"))
               for i in range(len(parts) - 1)):
        return []
    # The include path is a quoted literal, which `code` blanks out;
    # match it on the raw text.
    include = re.compile(r'#\s*include\s+"util/shard_annotations\.h"')
    if any(include.search(text) for text in raw):
        return []
    trigger = re.compile(
        r"\b(?:\w+_shard_\w+|per_shard_\w+"
        r"|schedule_at_ranked|schedule_at_stamped)\b")
    for lineno, text in enumerate(code, 1):
        if trigger.search(text):
            return [Diagnostic(
                path, lineno, rule.name,
                "per-shard state or ranked scheduling without "
                '#include "util/shard_annotations.h"; include the effect '
                "annotations so cloudlb-analyzer can check this file's "
                "shard-safety contracts")]
    return []


RULES: list[Rule] = [
    Rule(
        name="wall-clock",
        scopes=("src",),
        headers_only=False,
        description="No ambient time sources in library code: results "
                    "must be a function of simulated time only.",
        check=_regex_rule([
            (r"std::chrono::(system|steady|high_resolution)_clock",
             "wall-clock reads make runs irreproducible; use SimTime"),
            (r"(?<![\w.])time\s*\(", "time() is ambient state; use SimTime"),
            (r"\bgettimeofday\s*\(|\bclock_gettime\s*\(",
             "OS clock reads make runs irreproducible; use SimTime"),
        ]),
    ),
    Rule(
        name="ambient-rng",
        scopes=("src", "bench", "tools"),
        headers_only=False,
        description="All randomness flows from an explicit seed: no OS "
                    "entropy, no default-seeded generators in result "
                    "paths.",
        check=_regex_rule([
            (r"std::random_device",
             "std::random_device is OS entropy; seed an Rng explicitly"),
            (r"std::rand\b|(?<![\w.])srand\s*\(",
             "the C PRNG is hidden global state; use util/rng.h"),
            # Locals only: a trailing-underscore identifier is a class
            # member (seeded by its constructor), and `T name();` is a
            # function declaration, so both stay exempt.
            (r"std::mt19937(?:_64)?\s+\w+\b(?<!_)\s*(?:;|\{\s*\})",
             "unseeded std::mt19937 uses a fixed default seed silently; "
             "use an explicitly seeded Rng"),
            (r"\bRng\s+\w+\b(?<!_)\s*(?:;|\{\s*\})",
             "default-seeded Rng: pass the scenario seed explicitly"),
        ]),
    ),
    Rule(
        name="unordered-iter",
        scopes=("src", "bench", "tools"),
        headers_only=False,
        description="No range-for over unordered containers in result- or "
                    "trace-affecting paths: hash order is not part of the "
                    "determinism contract.",
        check=_check_unordered_iter,
    ),
    Rule(
        name="naked-new",
        scopes=("src",),
        headers_only=False,
        description="No naked new/delete outside the slot-arena machinery; "
                    "ownership lives in containers and smart pointers.",
        check=_regex_rule([
            (r"(?<!::)\bnew\b(?!\s*\()(?!\s*$)",
             "naked new: use make_unique/containers (placement ::new is "
             "reserved for the arena machinery)"),
            # `= delete;` (deleted functions) and `operator delete` are
            # exempt; both naked `delete p` and `delete[] p` are not.
            (r"(?<!operator )\bdelete\b(?!\s*;)",
             "naked delete: ownership must live in a container or smart "
             "pointer"),
        ]),
        allow=(
            ("src/util/small_function.h",
             "the SBO callback arena: placement-new into the inline "
             "buffer plus the audited heap-fallback pair"),
        ),
    ),
    Rule(
        name="assert",
        scopes=("src",),
        headers_only=False,
        description="assert() compiles away in release builds and aborts "
                    "in debug ones; library invariants use CLB_CHECK, "
                    "which always throws CheckFailure.",
        check=_regex_rule([
            (r"(?<![\w.])assert\s*\(",
             "use CLB_CHECK/CLB_CHECK_MSG (util/check.h) instead of "
             "assert()"),
        ]),
    ),
    Rule(
        name="float-load",
        scopes=("src",),
        headers_only=False,
        description="Load accounting (Eq. 1-3) is double end to end; a "
                    "single float narrows T_avg and breaks bitwise "
                    "reproducibility across optimization levels.",
        check=_regex_rule([
            (r"\bfloat\b",
             "use double: Eq. 1-3 load accounting must not narrow"),
        ]),
    ),
    Rule(
        name="float-literal",
        scopes=("src",),
        headers_only=False,
        description="Shared tolerances flow through their named helper: a "
                    "bare wall-slack literal (0.05 x wall) duplicated at a "
                    "use site drifts silently when the canonical value "
                    "changes.",
        check=_regex_rule([
            (r"0\.05\s*\*|\*\s*0\.05",
             "bare wall-slack multiplication; call wall_slack() "
             "(core/background_estimator.h) so the tolerance has one "
             "definition"),
        ]),
    ),
    Rule(
        name="pragma-once",
        scopes=("src", "tests", "bench", "tools"),
        headers_only=True,
        description="Headers open with #pragma once.",
        check=_check_pragma_once,
    ),
    Rule(
        name="shard-annotation",
        scopes=("src",),
        headers_only=False,
        description="Partitioned-runtime files (src/runtime/, src/sim/) "
                    "declaring per-shard members or using the ranked "
                    "scheduling API include util/shard_annotations.h so "
                    "the analyzer sees their effect contracts.",
        check=_check_shard_annotation,
    ),
    Rule(
        name="exact-fp",
        scopes=("src",),
        headers_only=False,
        description="No target attribute or pragma naming fma, avx512*, "
                    "arch= or tune=, and no -mfma, -march, -mavx512*, "
                    "-ffast-math, -ffp-contract=fast or -Ofast in src/ or "
                    "any CMake file: the kernels must match their scalar "
                    "references bit for bit.",
        check=_check_exact_fp,
        cmake=True,
    ),
    Rule(
        name="using-namespace",
        scopes=("src", "tests", "bench", "tools"),
        headers_only=True,
        description="`using namespace` in a header leaks into every "
                    "includer.",
        check=_regex_rule([
            (r"^\s*using\s+namespace\b",
             "no using-namespace at header scope"),
        ]),
    ),
]

NOLINT = re.compile(r"(?://|#)\s*NOLINT-CLOUDLB\(([^)]*)\)")
EXPECT = re.compile(r"(?://|#)\s*EXPECT-LINT\(([^)]*)\)")

# The stale-suppression meta-rule (not in RULES: it checks the NOLINT
# comments themselves, after every ordinary rule has run).
STALE_RULE = "stale-nolint"
# Suppressions owned by the Clang AST analyzer (tools/analyzer/), which
# shares the NOLINT-CLOUDLB syntax. The Python linter cannot decide
# whether they are live, so they are exempt from staleness checking here;
# cloudlb-analyzer does its own accounting.
ANALYZER_RULE_PREFIX = "analyzer-"


def _suppressed_rules(line: str) -> set[str]:
    rules: set[str] = set()
    for m in NOLINT.finditer(line):
        rules.update(r.strip() for r in m.group(1).split(","))
    return rules


def lint_file(path: pathlib.Path, rel: pathlib.PurePath) -> list[Diagnostic]:
    """Lints one file; `rel` (relative to the scanned root) decides which
    rule scopes apply."""
    try:
        raw = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as err:
        return [Diagnostic(path, 1, "io", f"unreadable: {err}")]
    cmake = _is_cmake(path)
    code = (_strip_cmake_comments(raw) if cmake
            else _strip_comments_and_strings(raw))
    scope = rel.parts[0] if rel.parts else ""
    is_header = path.suffix in HEADER_SUFFIXES

    found: list[Diagnostic] = []
    for rule in RULES:
        if cmake:
            if not rule.cmake:
                continue
        elif scope not in rule.scopes:
            continue
        if rule.headers_only and not is_header:
            continue
        if any(rel.match(glob) or str(rel) == glob for glob, _ in rule.allow):
            continue
        found.extend(rule.check(rule, path, raw, code))

    # Stale-suppression pass: a NOLINT-CLOUDLB naming a rule that fired no
    # diagnostic on its line does nothing — either the offending code was
    # fixed (drop the comment) or the rule name is a typo (fix it). Runs
    # against the pre-suppression findings, so a working suppression is
    # "consumed" and never reported stale.
    fired: dict[int, set[str]] = {}
    for d in found:
        fired.setdefault(d.line, set()).add(d.rule)
    for lineno, line in enumerate(raw, 1):
        for name in sorted(_suppressed_rules(line)):
            if name == STALE_RULE or name.startswith(ANALYZER_RULE_PREFIX):
                continue
            if name not in fired.get(lineno, set()):
                found.append(Diagnostic(
                    path, lineno, STALE_RULE,
                    f"suppression '{name}' matches no diagnostic on this "
                    "line; drop it (or fix the rule name)"))

    return [d for d in found
            if d.line > len(raw)
            or d.rule not in _suppressed_rules(raw[d.line - 1])]


def iter_tree(root: pathlib.Path):
    candidates = [p for p in sorted(root.glob("*")) if _is_cmake(p)]
    for top in CMAKE_DIRS:
        base = root / top
        if base.is_dir():
            candidates.extend(
                p for p in sorted(base.rglob("*"))
                if (top in SCAN_DIRS and p.suffix in SOURCE_SUFFIXES)
                or _is_cmake(p))
    for path in candidates:
        if not path.is_file():
            continue
        rel = path.relative_to(root)
        if any(str(rel).startswith(ex) for ex in EXCLUDED):
            continue
        yield path, rel


def lint_tree(root: pathlib.Path) -> list[Diagnostic]:
    found: list[Diagnostic] = []
    for path, rel in iter_tree(root):
        found.extend(lint_file(path, rel))
    return found


def selftest(root: pathlib.Path) -> int:
    """Fixture mode: diagnostics must match `// EXPECT-LINT(rule)`
    annotations exactly — same line, same rule, nothing extra. Proves each
    rule fires where intended and NOLINT-CLOUDLB suppresses it."""
    failures = 0
    checked = 0
    for path, rel in iter_tree(root):
        raw = path.read_text(encoding="utf-8").splitlines()
        expected: set[tuple[int, str]] = set()
        for lineno, line in enumerate(raw, 1):
            for m in EXPECT.finditer(line):
                for rule in m.group(1).split(","):
                    expected.add((lineno, rule.strip()))
        actual = {(d.line, d.rule) for d in lint_file(path, rel)}
        checked += 1
        for line, rule in sorted(expected - actual):
            print(f"{path}:{line}: FAIL expected [{rule}] diagnostic "
                  "did not fire")
            failures += 1
        for line, rule in sorted(actual - expected):
            print(f"{path}:{line}: FAIL unexpected [{rule}] diagnostic")
            failures += 1
    print(f"selftest: {checked} fixture file(s), {failures} failure(s)")
    return 1 if failures or not checked else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[2],
                        help="repository root (default: two levels up)")
    parser.add_argument("--selftest", type=pathlib.Path, metavar="DIR",
                        help="run fixture expectations under DIR")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("files", nargs="*", type=pathlib.Path,
                        help="specific files to lint (default: whole tree)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            where = ", ".join(rule.scopes + (("CMake",) if rule.cmake else ()))
            kind = "headers" if rule.headers_only else "all sources"
            print(f"{rule.name:16} [{where}; {kind}]\n    {rule.description}")
        print(f"{STALE_RULE:16} [{', '.join(SCAN_DIRS)}; all sources]\n"
              "    A NOLINT-CLOUDLB suppression that fires no diagnostic "
              "on its line\n    is dead weight or a typo; `analyzer-*` "
              "names belong to\n    tools/analyzer/ and are exempt here.")
        return 0

    if args.selftest:
        return selftest(args.selftest.resolve())

    root = args.root.resolve()
    if args.files:
        found: list[Diagnostic] = []
        for f in args.files:
            path = f.resolve()
            found.extend(lint_file(path, path.relative_to(root)))
    else:
        found = lint_tree(root)

    for d in sorted(found, key=lambda d: (str(d.path), d.line, d.rule)):
        print(f"{d.path}:{d.line}: [{d.rule}] {d.message}")
    print(f"cloudlb-lint: {len(found)} finding(s)", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
