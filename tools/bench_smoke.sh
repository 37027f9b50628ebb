#!/usr/bin/env bash
# Reduced-scale benchmark smoke test: run fig8 + fig9 in --quick mode,
# export their metrics and compare key ratios against the checked-in
# expectations in bench/baselines.json. fig8 is additionally re-run with
# --jobs $SPIDER_SMOKE_JOBS (default 4) and its stdout + metrics JSON are
# diffed byte-for-byte against the serial run (DESIGN.md §5f); fig9, which
# runs its campaign serially and takes no --jobs, is re-run serially and
# diffed the same way (its churn drives the overlay's route-tree repair
# hardest). The other nine figure, overhead and ablation benches (fig10,
# fig11, the overhead comparison and ablations A1-A6) get the serial vs
# --jobs byte-diff; no baseline pins their numbers, but a non-zero exit or
# a diff fails the run (A4 drives BCP's check-only hold branch, A6 the
# all-or-nothing confirm). Only fig8, fig9 and fig10 get --metrics-out,
# since each bench rejects a flag it does not honour. The bench_scale
# quick tier (1k/2k peers) runs next; its per-row probe message counts,
# and the IP nodes the exact worlds' builds settled, are compared exactly
# against the scale_rows baseline and its BENCH_scale.json lands at
# $SPIDER_SCALE_JSON_OUT for CI to archive.
# A third scale pass re-runs the quick tier with --build-jobs
# $SPIDER_SMOKE_JOBS (parallel world construction, DESIGN.md §5k) and
# byte-diffs its stdout against the serial build.
# The serving bench (bench_serve --quick) runs next, serial and --jobs,
# with the same byte-diff discipline; every counter a serve_rows baseline
# row pins (arrivals/established/rejected, plus retries/retry_gaveups on
# the closed-loop cell) is compared exactly and its BENCH_serve.json
# lands at $SPIDER_SERVE_JSON_OUT. The community-partitioned two-tier
# sweep (bench_communities --quick) runs last — serial, --jobs, and
# --build-jobs byte-diffed — with its per-row counters pinned against
# communities_rows and its JSON at $SPIDER_COMMUNITIES_JSON_OUT.
#
#   tools/bench_smoke.sh                 # uses ./build
#   SPIDER_BUILD_DIR=build-ci tools/bench_smoke.sh
#   SPIDER_SMOKE_JOBS=8 tools/bench_smoke.sh
#   SPIDER_SCALE_JSON_OUT=$PWD/BENCH_scale.json tools/bench_smoke.sh
#   SPIDER_SERVE_JSON_OUT=$PWD/BENCH_serve.json tools/bench_smoke.sh
#   SPIDER_SMOKE_XL=1 tools/bench_smoke.sh      # adds the 500k-peer row
#
# With SPIDER_SMOKE_XL=1 the --xl --quick tier also runs: one 500k-peer
# world built through the landmark estimator (DESIGN.md §5h), depth-2
# row only (~10 min single-threaded). The binary self-asserts its RSS
# and wall-clock budgets (non-zero exit on breach), and the xl row joins
# the exact probe-message comparison below, keyed estimator-aware. Its
# JSON lands at $SPIDER_SCALE_XL_JSON_OUT.
#
# The runs are deterministic (fixed seed), so a failure means a real
# behavior change: either a regression, or an intentional tuning that
# must update bench/baselines.json in the same commit.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${SPIDER_BUILD_DIR:-$repo_root/build}"
smoke_jobs="${SPIDER_SMOKE_JOBS:-4}"
out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT
scale_json="${SPIDER_SCALE_JSON_OUT:-$out_dir/BENCH_scale.json}"
serve_json="${SPIDER_SERVE_JSON_OUT:-$out_dir/BENCH_serve.json}"
communities_json="${SPIDER_COMMUNITIES_JSON_OUT:-$out_dir/BENCH_communities.json}"
smoke_xl="${SPIDER_SMOKE_XL:-0}"
scale_xl_json="${SPIDER_SCALE_XL_JSON_OUT:-$out_dir/BENCH_scale_xl.json}"

# The benches no baseline pins that write no metrics file (name:binary).
unpinned_benches=(
  fig11:bench_fig11_budget_sweep
  overhead:bench_overhead_vs_centralized
  ablation_commutation:bench_ablation_commutation
  ablation_quota:bench_ablation_quota
  ablation_backup_policy:bench_ablation_backup_policy
  ablation_soft_alloc:bench_ablation_soft_alloc
  ablation_trust:bench_ablation_trust
  ablation_psi_weights:bench_ablation_psi_weights
)

for bench in bench_fig8_success_ratio bench_fig9_failure_recovery \
             bench_scale bench_serve bench_communities \
             bench_fig10_setup_time "${unpinned_benches[@]#*:}"; do
  if [[ ! -x "$build_dir/bench/$bench" ]]; then
    echo "error: $build_dir/bench/$bench not built (cmake --build $build_dir)" >&2
    exit 1
  fi
done

# The two passes of a figure bench run from their own working directories
# with the same relative --metrics-out path, so their stdout (which echoes
# the metrics path) can be diffed byte-for-byte; so is every metrics file
# the bench writes. The first pass's files are then copied to $out_dir for
# the ratio checks below.
mkdir -p "$out_dir/first" "$out_dir/second"
# paired_runs <fig> <bench> <jobs> [metrics...] runs <bench> --quick
# --seed 42 serially, then again with --jobs <jobs> (empty: serially
# again), and byte-diffs the two. Only a bench that lists the metrics
# files it writes gets --metrics-out.
paired_runs() {
  local fig=$1 bench=$2 jobs=$3
  shift 3
  local label="serial repeat" second=() metrics_flag=()
  if [[ -n $jobs ]]; then
    label="--jobs $jobs"
    second=(--jobs "$jobs")
  fi
  if (($# > 0)); then
    metrics_flag=(--metrics-out "$fig.json")
  fi
  echo "== $fig (quick) =="
  local first_start=$SECONDS
  (cd "$out_dir/first" && "$build_dir/bench/$bench" \
    --quick --seed 42 ${metrics_flag[@]+"${metrics_flag[@]}"} > "$fig.out")
  local first_secs=$((SECONDS - first_start))
  tail -n 3 "$out_dir/first/$fig.out"

  echo "== $fig (quick, $label) =="
  local second_start=$SECONDS
  (cd "$out_dir/second" && "$build_dir/bench/$bench" \
    --quick --seed 42 ${second[@]+"${second[@]}"} \
    ${metrics_flag[@]+"${metrics_flag[@]}"} > "$fig.out")
  local second_secs=$((SECONDS - second_start))
  if ! diff -u "$out_dir/first/$fig.out" "$out_dir/second/$fig.out"; then
    echo "FAIL: $fig stdout differs between the serial run and $label" >&2
    exit 1
  fi
  local metrics
  for metrics in "$@"; do
    if ! cmp -s "$out_dir/first/$metrics" "$out_dir/second/$metrics"; then
      echo "FAIL: $fig metrics JSON $metrics differs between the serial" \
           "run and $label" >&2
      exit 1
    fi
    cp "$out_dir/first/$metrics" "$out_dir/$metrics"
  done
  echo "ok   stdout and metrics byte-identical to serial" \
       "(serial ${first_secs}s, $label ${second_secs}s)"
}

paired_runs fig8 bench_fig8_success_ratio "$smoke_jobs" fig8.json
paired_runs fig9 bench_fig9_failure_recovery "" fig9.json fig9_lease.json
paired_runs fig10 bench_fig10_setup_time "$smoke_jobs" fig10.json
for entry in "${unpinned_benches[@]}"; do
  paired_runs "${entry%%:*}" "${entry#*:}" "$smoke_jobs"
done

# Scaling sweep, quick tier: only deterministic columns reach stdout, so
# the serial and --jobs runs must again match byte-for-byte (modulo the
# banner line that echoes the jobs value itself).
echo "== scale (quick) =="
mkdir -p "$out_dir/scale_serial" "$out_dir/scale_jobs"
(cd "$out_dir/scale_serial" && "$build_dir/bench/bench_scale" \
  --quick --seed 42 --json-out BENCH_scale.json > scale.out)
tail -n +4 "$out_dir/scale_serial/scale.out" | head -n 8
cp "$out_dir/scale_serial/BENCH_scale.json" "$scale_json"
(cd "$out_dir/scale_jobs" && "$build_dir/bench/bench_scale" \
  --quick --seed 42 --jobs "$smoke_jobs" \
  --json-out BENCH_scale.json > scale.out)
if ! diff -u <(sed "s/jobs=$smoke_jobs/jobs=1/" "$out_dir/scale_jobs/scale.out") \
             "$out_dir/scale_serial/scale.out"; then
  echo "FAIL: bench_scale stdout differs between --jobs 1 and --jobs $smoke_jobs" >&2
  exit 1
fi
echo "ok   stdout byte-identical to serial"

# Parallel world construction (DESIGN.md §5k) must not change a single
# output byte either: rebuild the same worlds with --build-jobs and diff
# against the serial run, normalizing only the banner token.
mkdir -p "$out_dir/scale_build_jobs"
(cd "$out_dir/scale_build_jobs" && "$build_dir/bench/bench_scale" \
  --quick --seed 42 --build-jobs "$smoke_jobs" \
  --json-out BENCH_scale.json > scale.out)
if ! diff -u <(sed "s/build-jobs=$smoke_jobs/build-jobs=1/" \
               "$out_dir/scale_build_jobs/scale.out") \
             "$out_dir/scale_serial/scale.out"; then
  echo "FAIL: bench_scale stdout differs between --build-jobs 1 and" \
       "--build-jobs $smoke_jobs" >&2
  exit 1
fi
echo "ok   stdout byte-identical with --build-jobs $smoke_jobs"

# Open-loop serving: the quick tier is fully deterministic in virtual
# time (wall-clock only reaches the JSON), so serial vs --jobs stdout is
# byte-diffed like the others; the bench's own exit code asserts the
# admission/quiesce invariants (utilization <= 1, saturate rejects,
# zero leaked grants/holds).
echo "== serve (quick) =="
mkdir -p "$out_dir/serve_serial" "$out_dir/serve_jobs"
(cd "$out_dir/serve_serial" && "$build_dir/bench/bench_serve" \
  --quick --seed 42 --json-out BENCH_serve.json > serve.out)
tail -n 4 "$out_dir/serve_serial/serve.out"
cp "$out_dir/serve_serial/BENCH_serve.json" "$serve_json"
(cd "$out_dir/serve_jobs" && "$build_dir/bench/bench_serve" \
  --quick --seed 42 --jobs "$smoke_jobs" \
  --json-out BENCH_serve.json > serve.out)
if ! diff -u <(sed "s/jobs=$smoke_jobs/jobs=1/" "$out_dir/serve_jobs/serve.out") \
             "$out_dir/serve_serial/serve.out"; then
  echo "FAIL: bench_serve stdout differs between --jobs 1 and --jobs $smoke_jobs" >&2
  exit 1
fi
echo "ok   stdout byte-identical to serial"

# Community-partitioned two-tier BCP (DESIGN.md §5l): the quick tier is
# one 1k-peer world whose community maps are rebuilt in-bench per count,
# so the serial, --jobs, and --build-jobs passes must all produce
# byte-identical stdout (map fingerprints included — partition
# determinism at any parallelism). The binary self-asserts the C=1
# flat-equivalence oracle; the per-row counters are pinned exactly
# against the communities_rows baseline below.
echo "== communities (quick) =="
mkdir -p "$out_dir/comm_serial" "$out_dir/comm_jobs" "$out_dir/comm_build_jobs"
(cd "$out_dir/comm_serial" && "$build_dir/bench/bench_communities" \
  --quick --seed 42 --json-out BENCH_communities.json > comm.out)
tail -n +4 "$out_dir/comm_serial/comm.out" | head -n 8
cp "$out_dir/comm_serial/BENCH_communities.json" "$communities_json"
(cd "$out_dir/comm_jobs" && "$build_dir/bench/bench_communities" \
  --quick --seed 42 --jobs "$smoke_jobs" \
  --json-out BENCH_communities.json > comm.out)
if ! diff -u <(sed "s/jobs=$smoke_jobs/jobs=1/" "$out_dir/comm_jobs/comm.out") \
             "$out_dir/comm_serial/comm.out"; then
  echo "FAIL: bench_communities stdout differs between --jobs 1 and" \
       "--jobs $smoke_jobs" >&2
  exit 1
fi
(cd "$out_dir/comm_build_jobs" && "$build_dir/bench/bench_communities" \
  --quick --seed 42 --build-jobs "$smoke_jobs" \
  --json-out BENCH_communities.json > comm.out)
if ! diff -u <(sed "s/build-jobs=$smoke_jobs/build-jobs=1/" \
               "$out_dir/comm_build_jobs/comm.out") \
             "$out_dir/comm_serial/comm.out"; then
  echo "FAIL: bench_communities stdout differs between --build-jobs 1 and" \
       "--build-jobs $smoke_jobs" >&2
  exit 1
fi
echo "ok   stdout byte-identical across --jobs and --build-jobs"

# Optional 500k-peer xl row: the landmark-estimated build path, with the
# RSS / wall-clock budget assertion enforced by bench_scale itself.
if [[ "$smoke_xl" == "1" ]]; then
  echo "== scale (--xl, 500k peers) =="
  xl_start=$SECONDS
  "$build_dir/bench/bench_scale" --xl --seed 42 --build-jobs "$smoke_jobs" \
    --json-out "$scale_xl_json" | tail -n 8
  echo "ok   xl sweep within budget ($((SECONDS - xl_start))s)"
else
  scale_xl_json=""
fi

python3 - "$repo_root/bench/baselines.json" "$out_dir" "$scale_json" \
    "$serve_json" "$communities_json" "$scale_xl_json" <<'PY'
import json
import sys

baselines_path, out_dir, scale_json = sys.argv[1], sys.argv[2], sys.argv[3]
serve_json = sys.argv[4]
communities_json = sys.argv[5]
scale_xl_json = sys.argv[6] if len(sys.argv) > 6 else ""
with open(baselines_path) as f:
    baselines = json.load(f)

metrics = {}
failures = 0

# Exact per-row baselines. Each section maps to the bench JSON its rows
# come from, the fields that key a row, and how a verdict names the row;
# every other field a baseline row pins is an integer counter compared
# exactly, because the quick tiers are deterministic — drift means probing,
# traffic, admission, retry or coarse-tier behaviour changed and the
# baseline must be updated deliberately in the same commit. Scale rows are
# keyed estimator-aware (the same (peers, depth) legitimately differs
# between the exact and the landmark-estimated world), and xl rows are only
# checked when the xl tier ran (bench_scale --xl itself exits non-zero on
# any estimator bound violation).
sections = {
    "scale": ([scale_json, scale_xl_json], ("peers", "depth", "estimator"),
              lambda k: f"peers={k[0]},depth={k[1]},estimator={k[2]}"),
    "serve": ([serve_json], ("cell", "phase"), lambda k: f"{k[0]}/{k[1]}"),
    "communities": ([communities_json], ("peers", "communities"),
                    lambda k: f"peers={k[0]},C={k[1]}"),
}
for name, (paths, key_fields, label) in sections.items():
    def row_key(r):
        return tuple(r.get(f, False) for f in key_fields)
    rows = {}
    for path in filter(None, paths):
        with open(path) as f:
            rows.update({row_key(r): r for r in json.load(f)["rows"]})
    for expect in baselines.get(f"{name}_rows", []):
        key = row_key(expect)
        if name == "scale" and key[2] and not scale_xl_json:
            continue
        row = rows.get(key)
        if row is None:
            print(f"FAIL {name}:{key}: row missing from BENCH_{name}.json")
            failures += 1
            continue
        for field in sorted(k for k in expect if k not in key_fields):
            actual = row[field]
            status = "ok  " if actual == expect[field] else "FAIL"
            print(f"{status} {name}:{label(key)}: {field}={actual} "
                  f"expected={expect[field]}")
            if actual != expect[field]:
                failures += 1

for check in baselines["checks"]:
    bench = check["bench"]
    if bench not in metrics:
        with open(f"{out_dir}/{bench}.json") as f:
            metrics[bench] = json.load(f)["counters"]
    counters = metrics[bench]
    num = sum(counters.get(k, 0) for k in check["numerator"])
    den = sum(counters.get(k, 0) for k in check["denominator"])
    if den == 0:
        print(f"FAIL {bench}:{check['name']}: denominator is zero "
              f"({check['denominator']})")
        failures += 1
        continue
    actual = num / den
    delta = abs(actual - check["expected"])
    status = "ok  " if delta <= check["abs_tol"] else "FAIL"
    print(f"{status} {bench}:{check['name']}: actual={actual:.4f} "
          f"expected={check['expected']} (+/- {check['abs_tol']})")
    if delta > check["abs_tol"]:
        failures += 1

if failures:
    print(f"\n{failures} baseline check(s) failed. If the change is "
          "intentional, update bench/baselines.json in the same commit.")
    sys.exit(1)
print("\nall baseline checks passed")
PY
