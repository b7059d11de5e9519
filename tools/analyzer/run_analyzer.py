#!/usr/bin/env python3
"""Run cloudlb-analyzer over the project's compile database.

Selects every compile_commands.json entry under --root/src (tests and
benches opt in via --also), queries the host clang for its resource
directory (an out-of-tree LibTooling binary does not know where the
builtin headers live), and runs the analyzer once over the whole batch.

Exit codes mirror the binary: 0 clean, 1 findings, 2 tool error — plus
77 ("skipped") when the environment cannot support a run at all, so
CTest's SKIP_RETURN_CODE can report the tier as skipped rather than
broken.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import subprocess
import sys


def resource_dir() -> str | None:
    """The builtin-header directory of the host clang, if any."""
    for candidate in ("clang", "clang-18", "clang-17", "clang-16",
                      "clang-15", "clang-14"):
        exe = shutil.which(candidate)
        if exe is None:
            continue
        try:
            out = subprocess.run([exe, "-print-resource-dir"],
                                 capture_output=True, text=True, check=True)
        except (OSError, subprocess.CalledProcessError):
            continue
        path = out.stdout.strip()
        if path:
            return path
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", required=True,
                        help="path to the cloudlb-analyzer executable")
    parser.add_argument("--build", required=True,
                        help="build dir holding compile_commands.json")
    parser.add_argument("--root", required=True, help="repository root")
    parser.add_argument("--also", action="append", default=[],
                        help="additional top-level dirs to analyze "
                             "(default: only src/)")
    args = parser.parse_args()

    binary = pathlib.Path(args.binary)
    if not args.binary or not binary.exists():
        print("run_analyzer: cloudlb-analyzer binary not built "
              "(configure with -DCLOUDLB_ANALYZER=ON and the LLVM dev "
              "libraries installed); skipping", file=sys.stderr)
        return 77

    build = pathlib.Path(args.build)
    compile_db = build / "compile_commands.json"
    if not compile_db.exists():
        print(f"run_analyzer: {compile_db} not found", file=sys.stderr)
        return 2

    root = pathlib.Path(args.root).resolve()
    wanted = [root / "src"] + [root / extra for extra in args.also]
    sources = sorted(
        {entry["file"] for entry in json.loads(compile_db.read_text())
         if any(str(pathlib.Path(entry["file"]).resolve()).startswith(
                    str(prefix) + "/") for prefix in wanted)})
    if not sources:
        print("run_analyzer: no matching entries in the compile database",
              file=sys.stderr)
        return 2

    command = [str(binary), "-p", str(build)]
    res_dir = resource_dir()
    if res_dir is not None:
        command.append(f"--extra-arg-before=-resource-dir={res_dir}")
    else:
        # Without builtin headers clang cannot parse <cstddef> & co.; a
        # machine with the dev libs but no clang driver cannot run over
        # real sources, only over the hermetic fixtures.
        print("run_analyzer: no clang driver on PATH to supply "
              "-resource-dir; skipping", file=sys.stderr)
        return 77
    return subprocess.run(command + sources).returncode


if __name__ == "__main__":
    sys.exit(main())
