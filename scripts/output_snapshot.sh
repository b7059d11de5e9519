#!/usr/bin/env bash
# Writes the stdout of every evaluation harness and a fixed set of
# `cloudlb penalty` runs into one file each, so two builds can be compared
# byte for byte:
#
#   scripts/output_snapshot.sh BUILD_DIR OUT_DIR
#   diff -r base_snapshot head_snapshot
#
# BUILD_DIR is a configured and built tree (bench/ and tools/cloudlb).
# Covered: every bench/fig* and bench/ablation_* binary with --jobs 4, and
# `cloudlb penalty` for jacobi2d with ia-refine and greedy at 16 and 32
# cores across --shards 1, 2, 4 and 8, plus a failmig-with-retries run.
# A run that exits nonzero records its stderr and exit status in its file
# instead of failing the script, so a rejection shows up as a diff.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
build="$(cd "$1" && pwd)"
out="$2"
mkdir -p "${out}"

# run NAME CMD...: stdout to OUT_DIR/NAME.txt; on failure append stderr
# and the exit status.
run() {
  local name="$1"
  shift
  local status=0
  "$@" >"${out}/${name}.txt" 2>"${out}/${name}.err" || status=$?
  if [[ ${status} -ne 0 ]]; then
    {
      cat "${out}/${name}.err"
      echo "exit ${status}"
    } >>"${out}/${name}.txt"
  fi
  rm -f "${out}/${name}.err"
}

for bin in "${build}"/bench/fig* "${build}"/bench/ablation_*; do
  [[ -x "${bin}" && -f "${bin}" ]] || continue
  run "$(basename "${bin}")" "${bin}" --jobs 4
done

cloudlb="${build}/tools/cloudlb"
common=(--app=jacobi2d --iterations=40 --bg-iterations=100 --lb-period=5)
for balancer in ia-refine greedy; do
  for cores in 16 32; do
    for shards in 1 2 4 8; do
      run "penalty_${balancer}_c${cores}_s${shards}" "${cloudlb}" penalty \
        "${common[@]}" --balancer="${balancer}" --cores="${cores}" \
        --shards="${shards}"
    done
  done
done

failmig=(--balancer=greedy --cores=32 --migration-retries=2
  "--faults=failmig(prob=0.3);seed(value=7)")
for shards in 1 2 4; do
  run "penalty_failmig_retries_s${shards}" "${cloudlb}" penalty \
    "${common[@]}" "${failmig[@]}" --shards="${shards}"
done
