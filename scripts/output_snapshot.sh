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
# cores across --shards 1, 2, 4 and 8, a failmig-with-retries run, and
# estimator runs with 16 tenants on 32 cores (the ia-refine-ewma preset
# and its spelled-out form, gain-gated and refine with --estimator).
# A run that exits nonzero records its stderr (minus the failing check's
# source location) and exit status in its file instead of failing the
# script, so a rejection shows up as a diff.
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
      sed 's/CHECK failed: .* at [^ ]*:[0-9]* — //' "${out}/${name}.err"
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

tenants=(--tenants=16 --cores=32)
run penalty_tenants_preset_ia-refine-ewma "${cloudlb}" penalty \
  "${common[@]}" "${tenants[@]}" --balancer=ia-refine-ewma
run penalty_tenants_ia-refine_estimator-ewma "${cloudlb}" penalty \
  "${common[@]}" "${tenants[@]}" --balancer=ia-refine --estimator=ewma
for balancer in gain-gated refine; do
  run "penalty_tenants_${balancer}_regress" "${cloudlb}" penalty \
    "${common[@]}" "${tenants[@]}" --balancer="${balancer}" \
    --estimator=regress
done
