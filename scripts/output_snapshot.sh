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
# every cloudlb command:
#  - `penalty` for jacobi2d with ia-refine and greedy at 16 and 32 cores
#    across --shards 1, 2, 4 and 8, a failmig-with-retries run, runs with
#    16 tenants on 32 cores (the ia-refine-ewma preset and its spelled-out
#    form, gain-gated with --estimator=regress, refine, and refine with
#    --estimator, which is rejected), an interference plan of spike,
#    square-wave and Pareto hog VMs at --shards 1 and 4, and --jobs
#    without --shards (rejected);
#  - `penalty` for mol3d: perfbench's cloud-mol3d-tenants configuration
#    (32 cores, 16 tenants, --estimator=regress) cut to 40 iterations, and
#    a run beside the 2-core background job;
#  - `timeline` with the 2-core background job and with a tenant field;
#  - `record`, then `replay` of the trace it wrote (record.lbstats, kept
#    in OUT_DIR; both run from OUT_DIR so no output names its path);
#  - a small `sweep` at --jobs 1 and --jobs 4;
#  - `apps` and `balancers`.
# A run that exits nonzero records its stderr (minus the failing check's
# source location) and exit status in its file instead of failing the
# script, so a rejection shows up as a diff.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
build="$(cd "$1" && pwd)"
mkdir -p "$2"
out="$(cd "$2" && pwd)"

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

hogs=(--balancer=ia-refine --cores=16
  "--faults=spike(core=3,start=0.05,duration=0.2);square(core=9,start=0.02,period=0.1,on=0.04);pareto(cores=3,min_on=0.01,mean_off=0.08);seed(value=11)")
for shards in 1 4; do
  run "penalty_hogs_s${shards}" "${cloudlb}" penalty \
    "${common[@]}" "${hogs[@]}" --shards="${shards}"
done

tenants=(--tenants=16 --cores=32)
run penalty_tenants_preset_ia-refine-ewma "${cloudlb}" penalty \
  "${common[@]}" "${tenants[@]}" --balancer=ia-refine-ewma
run penalty_tenants_ia-refine_estimator-ewma "${cloudlb}" penalty \
  "${common[@]}" "${tenants[@]}" --balancer=ia-refine --estimator=ewma
run penalty_tenants_gain-gated_regress "${cloudlb}" penalty \
  "${common[@]}" "${tenants[@]}" --balancer=gain-gated --estimator=regress
run penalty_tenants_refine "${cloudlb}" penalty "${common[@]}" \
  "${tenants[@]}" --balancer=refine
run penalty_tenants_refine_estimator_rejected "${cloudlb}" penalty \
  "${common[@]}" "${tenants[@]}" --balancer=refine --estimator=regress
run penalty_mol3d_tenants_regress "${cloudlb}" penalty --app=mol3d \
  --cores=32 --tenants=16 --estimator=regress --iterations=40
run penalty_mol3d_bg "${cloudlb}" penalty --app=mol3d --cores=16 \
  --iterations=40 --bg-iterations=100 --lb-period=5
run penalty_jobs_without_shards "${cloudlb}" penalty "${common[@]}" \
  --cores=16 --jobs=2

timeline=(--app=jacobi2d --cores=4 --iterations=20 --bg-iterations=40
  --width=60)
run timeline_bg "${cloudlb}" timeline "${timeline[@]}"
run timeline_tenants "${cloudlb}" timeline "${timeline[@]}" --tenants=4

(
  cd "${out}"
  run record "${cloudlb}" record --out=record.lbstats "${common[@]}" \
    --cores=8
  run replay "${cloudlb}" replay --trace=record.lbstats
)

sweep=(--app=jacobi2d --cores=4,8 --balancers=null,ia-refine
  --iterations=20 --bg-iterations=40)
for jobs in 1 4; do
  run "sweep_jobs${jobs}" "${cloudlb}" sweep "${sweep[@]}" --jobs "${jobs}"
done

run apps "${cloudlb}" apps
run balancers "${cloudlb}" balancers
