#!/usr/bin/env python3
"""Self-test of the CloudLB benchmark.

Runs every workload of BENCHMARK.json, and scale-jacobi128-sharded, at a
tiny size, untraced and traced, and asserts that:
  * the JSON result line carries exactly the metrics BENCHMARK.json names
    for that mode, each with its unit, and reports no failure;
  * the human-readable report prints all seven end-to-end metrics with
    their units;
  * an injected output mismatch makes the run report failed > 0.

    python3 perfbench/selftest.py

Exit code 0 when every assertion holds.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py: build step and paths)

TINY = ["--seconds", "0.2", "--iterations", "10"]
# Runnable but not in BENCHMARK.json (see README.md); checked all the same.
EXTRA_WORKLOADS = ["scale-jacobi128-sharded"]
# The report shows these; the JSON leaves out the two that are 0 on a
# correct tenant run (see README.md).
REPORTED_ONLY = {"bg_penalty_pct": "%", "failed_frac": "ratio"}


def bench(workload, trace, *extra):
    command = [run.BINARY, "--workload", workload, "--seed", "3",
               "--trace", str(trace)] + TINY + list(extra)
    proc = subprocess.run(command, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"{command} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check(condition, message, failures):
    if not condition:
        failures.append(message)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not run.build():
        return 1
    failures = []
    for workload in [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            report, result = bench(workload, trace)
            tag = f"{workload} trace {trace}"
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            check(printed == expected,
                  f"{tag}: metrics {printed} != BENCHMARK.json {expected}",
                  failures)
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{tag}: run reported failures: {result}", failures)
            if trace == 0:
                shown = dict(expected, **REPORTED_ONLY)
                for name, unit in shown.items():
                    check(any(line.split()[:1] == [name] and f" {unit} " in line
                              for line in report),
                          f"{tag}: report lacks {name} in {unit}", failures)
        _, injected = bench(workload, 0, "--inject-mismatch", "1")
        check(injected["failed"] > 0 and not injected["correct"],
              f"{workload}: injected mismatch not counted: {injected}",
              failures)
        print(f"selftest: {workload} checked", flush=True)
    for failure in failures:
        print("selftest: FAIL " + failure)
    print("selftest: " + ("FAILED" if failures else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
