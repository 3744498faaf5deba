#!/usr/bin/env bash
# The benchmark's one command. Run from the repository root.
#
#   bash benchmark/run.sh                      every workload, three untraced runs
#                                              and one traced run each; prints every
#                                              metric (median [min .. max], unit,
#                                              samples); non-zero exit on any
#                                              correctness mismatch
#   bash benchmark/run.sh --smoke              the same at 1/20 of every request
#                                              count, one run each, under 30 s
#   bash benchmark/run.sh --workload <name> …  one run of one workload; arguments
#                                              go to kwsearch-benchmark unchanged
#                                              (this is BENCHMARK.json's command)
#
# Builds with the release profile into $CARGO_TARGET_DIR (default: the root
# target/, so no benchmark/target tree appears).
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
export KWSEARCH_GIT_SHA="${KWSEARCH_GIT_SHA:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/kwsearch-benchmark"

case " $* " in
*" --workload "*) exec "$bin" "$@" ;;
esac

seed=42
smoke=()
traces="0 0 0 1"
while [ $# -gt 0 ]; do
    case "$1" in
    --smoke) smoke=(--smoke) traces="0 1" ;;
    --seed) seed="$2" && shift ;;
    *) echo "usage: benchmark/run.sh [--smoke] [--seed <n>] | --workload <name> …" >&2 && exit 2 ;;
    esac
    shift
done

out=benchmark/out
mkdir -p "$out"
records="$out/suite.jsonl"
: >"$records"
status=0
for workload in cold_explore data_bound hot_serve sharded_scatter live_mixed; do
    for trace in $traces; do
        echo "== $workload --trace $trace" >&2
        # The first of a run's two output lines is its full record.
        "$bin" --workload "$workload" --seed "$seed" --trace "$trace" --out "$out" \
            "${smoke[@]}" | sed -n 1p >>"$records" || status=1
    done
done

python3 - "$records" <<'PY' || status=1
import json, statistics, sys

runs = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
ok = True
for workload in dict.fromkeys(r["workload"] for r in runs):
    mine = [r for r in runs if r["workload"] == workload]
    head = mine[0]
    print(f"\n== {workload}  seed {head['seed']}  nproc {head['nproc']}  "
          f"clients {head['clients']}  git {head['git_sha']}")
    for traced in (False, True):
        group = [r for r in mine if r["trace"] == traced]
        if not group:
            continue
        digests = sorted({r["result_digest"] for r in group})
        failed = max(r["failed_frac"] for r in group)
        print(f"  -- {'traced' if traced else 'untraced'}: {len(group)} run(s), "
              f"result_digest {' '.join(digests)}, failed_frac {failed}")
        if len(digests) != 1:
            ok = False
            print("  INCORRECT: result_digest differs between runs of one seed")
        for r in group:
            for problem in r["problems"]:
                ok = False
                print(f"  INCORRECT: {problem}")
        idle = []
        for name, first in group[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in group]
            samples = min(r["metrics"][name]["samples"] for r in group)
            if samples == 0 and not any(values):
                idle.append(name)
                continue
            print(f"  {name:46s} {statistics.median(values):14.6g} "
                  f"[{min(values):.6g} .. {max(values):.6g}] {first['unit']:9s} n={samples}")
        if idle:
            print("  0 (layer not exercised by this workload): " + " ".join(idle))
sys.exit(0 if ok else 1)
PY
exit "$status"
