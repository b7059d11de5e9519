#!/usr/bin/env python3
"""Selftest for cloudlb-analyzer against the annotated fixture corpus.

Every fixture under fixtures/src/ declares its expected findings inline:

    total += kv.second;  // EXPECT-ANALYZER(unordered-accum)

The analyzer is run over each fixture (hermetically: -nostdinc plus the
mock header, so no system headers or clang resource dir are needed) and
the reported (line, check) pairs must match the annotations exactly —
a missing finding, an extra finding, or a finding on the wrong line all
fail. Files without annotations (the *_good.cc corpus, including the
NOLINT-CLOUDLB suppression fixture) must come back empty.

Exit codes: 0 all fixtures behave, 1 mismatch, 2 harness error, 77
skipped (analyzer binary not built).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import subprocess
import sys

EXPECT_RE = re.compile(r"//\s*EXPECT-ANALYZER\(([a-z0-9-]+(?:,[a-z0-9-]+)*)\)")
FINDING_RE = re.compile(
    r"^(?P<file>[^:]+):(?P<line>\d+):(?P<col>\d+): warning: .+ "
    r"\[analyzer-(?P<check>[a-z0-9-]+)\]$")


def expected_findings(fixture: pathlib.Path) -> set[tuple[int, str]]:
    expected: set[tuple[int, str]] = set()
    for lineno, line in enumerate(fixture.read_text().splitlines(), start=1):
        match = EXPECT_RE.search(line)
        if match is None:
            continue
        for check in match.group(1).split(","):
            expected.add((lineno, check.strip()))
    return expected


def run_analyzer(binary: pathlib.Path, fixture: pathlib.Path,
                 include_dir: pathlib.Path) -> tuple[int, str, str]:
    proc = subprocess.run(
        [str(binary), str(fixture), "--",
         "-xc++", "-std=c++17", "-nostdinc", f"-I{include_dir}"],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", default="",
                        help="path to cloudlb-analyzer (empty => skip)")
    parser.add_argument("--fixtures", required=True,
                        help="fixture root (holds src/ and include/)")
    args = parser.parse_args()

    binary = pathlib.Path(args.binary) if args.binary else None
    if binary is None or not binary.exists():
        print("analyzer selftest: cloudlb-analyzer not built (configure "
              "with -DCLOUDLB_ANALYZER=ON and LLVM dev libraries); "
              "skipping", file=sys.stderr)
        return 77

    fixtures_root = pathlib.Path(args.fixtures)
    include_dir = fixtures_root / "include"

    fixtures = sorted((fixtures_root / "src").glob("*.cc"))
    if not fixtures or not include_dir.is_dir():
        print(f"analyzer selftest: no fixtures under {fixtures_root}",
              file=sys.stderr)
        return 2

    failures = 0
    for fixture in fixtures:
        expected = expected_findings(fixture)
        code, out, err = run_analyzer(binary, fixture, include_dir)
        if code == 2:
            print(f"{fixture.name}: analyzer reported a tool error:\n{err}",
                  file=sys.stderr)
            failures += 1
            continue
        actual: set[tuple[int, str]] = set()
        for line in out.splitlines():
            match = FINDING_RE.match(line)
            if match is None:
                print(f"{fixture.name}: unparseable output line: {line!r}",
                      file=sys.stderr)
                failures += 1
                continue
            if pathlib.Path(match.group("file")).name != fixture.name:
                print(f"{fixture.name}: stray finding outside the fixture: "
                      f"{line!r}", file=sys.stderr)
                failures += 1
                continue
            actual.add((int(match.group("line")), match.group("check")))
        if (code != 0) != bool(actual):
            print(f"{fixture.name}: exit code {code} disagrees with "
                  f"{len(actual)} parsed findings", file=sys.stderr)
            failures += 1
        for line_no, check in sorted(expected - actual):
            print(f"{fixture.name}:{line_no}: expected analyzer-{check} "
                  "but the analyzer stayed silent", file=sys.stderr)
            failures += 1
        for line_no, check in sorted(actual - expected):
            print(f"{fixture.name}:{line_no}: unexpected analyzer-{check} "
                  "(no EXPECT-ANALYZER annotation)", file=sys.stderr)
            failures += 1

    print(f"analyzer selftest: {len(fixtures)} fixtures, "
          f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
