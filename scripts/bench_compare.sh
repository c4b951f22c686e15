#!/usr/bin/env bash
# Advisory A/B comparison of the xeebench benchmark (BENCHMARK.json)
# between a base commit and the current checkout.
#
#   scripts/bench_compare.sh [--base REV] [--pairs N] [--seconds S]
#                            [--workloads w1,w2] [--seed0 K] [--trace 0|1]
#                            [--base-dir DIR] [--out DIR]
#
# The base commit (default HEAD^) is exported with `git archive` into
# DIR/<sha> (default .bench_base/), a plain directory, so the
# repository's own worktree list and index stay untouched; each side's
# xeebench/run.py builds its own sources there. The change is the
# current checkout, uncommitted edits included.
#
# For every workload (default: all of BENCHMARK.json's) it runs N pairs
# (default 10) at one --seconds (default BENCHMARK.json's run_seconds).
# Pair i runs seed K+i (default K = 101) on both sides, and the side that
# runs first alternates from pair to pair. Raw outputs go to --out
# (default .bench_compare/<timestamp>/), and the report is written to
# report.txt beside them.
#
# The report gives, per workload and metric, each side's median and
# quartiles, how many pairs the change won (ties count for neither
# side), and two verdicts:
#   gain:  the change won at least nine tenths of the pairs and its
#          median beats the base's by more than the base's interquartile
#          range (the rule a claimed gain must meet);
#   bound: the change's median is no worse than the base's by more than
#          the metric's BENCHMARK.json bound (end-to-end metrics only);
#          "unresolved" when the base's interquartile range, relative to
#          its median, is wider than that bound and not every change run
#          beats every base run: such a spread cannot show the bound held.
# It also checks that both sides passed their correctness gate, failed
# no more operations, and printed identical fingerprint lines per pair.
# Runs whose box lines differ in nproc or cpu_model are refused: numbers
# from two machines do not compare.
#
# Advisory: the exit status reports whether the runs could be made and
# compared (0), not what the comparison found.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

base=HEAD^
pairs=10
seconds=
workloads=
seed0=101
trace=0
base_dir=.bench_base
out=

while [[ $# -gt 0 ]]; do
  case "$1" in
    --base) base=$2; shift 2 ;;
    --pairs) pairs=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --workloads) workloads=$2; shift 2 ;;
    --seed0) seed0=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    --base-dir) base_dir=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    -h|--help) sed -n '2,38p' "$0"; exit 0 ;;
    *) echo "bench_compare: unknown argument $1" >&2; exit 2 ;;
  esac
done

analyze_dir() {
  python3 - "$1" "$root/BENCHMARK.json" <<'PY'
import json, os, statistics, sys

out_dir, bench_path = sys.argv[1], sys.argv[2]
bench = json.load(open(bench_path))
meta = json.load(open(os.path.join(out_dir, "meta.json")))
bounds = {m["name"]: m for m in bench["end_to_end"]}
better = dict((m["name"], m["better"]) for m in bench["per_layer"])
better.update((m["name"], m["better"]) for m in bench["end_to_end"])


def read_run(path):
    run = {"box": None, "fingerprint": None, "result": None}
    for line in open(path):
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            d = json.loads(line)
        except ValueError:
            continue
        if "box" in d:
            run["box"] = d["box"]
        elif "fingerprint" in d:
            run["fingerprint"] = line
        elif "metrics" in d:
            run["result"] = d
    if run["result"] is None or run["box"] is None:
        print("bench_compare: no result or box line in %s" % path)
        return None
    return run


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


boxes = set()
print("base %s vs change %s: %d pairs per workload at --seconds %s%s" %
      (meta["base"], meta["change"], meta["pairs"], meta["seconds"],
       ", traced" if meta["trace"] == "1" else ""))
for wl in meta["workloads"]:
    print("\n== %s ==" % wl)
    runs = {"base": [], "change": []}
    for i in range(meta["pairs"]):
        pair = [read_run(os.path.join(out_dir, "%s.%s.%d.txt" % (wl, side, i)))
                for side in runs]
        if None in pair:
            continue  # a failed run loses its pair: it counts as no win
        for side, run in zip(runs, pair):
            runs[side].append(run)
    if not runs["base"]:
        continue
    for side in runs:
        for r in runs[side]:
            boxes.add((r["box"]["nproc"], r["box"]["cpu_model"]))
    if len(boxes) != 1:
        sys.exit("bench_compare: refusing to compare runs from different "
                 "boxes (nproc, cpu_model): %s" % sorted(boxes))
    for side in runs:
        rs = runs[side]
        bad = sum(1 for r in rs if not r["result"]["correct"])
        att = sum(r["result"]["attempted"] for r in rs)
        fail = sum(r["result"]["failed"] for r in rs)
        print("%-6s correct %d/%d runs, failed %d of %d operations" %
              (side, len(rs) - bad, len(rs), fail, att))
    same = sum(1 for b, c in zip(runs["base"], runs["change"])
               if b["fingerprint"] == c["fingerprint"])
    print("%d/%d pairs complete; fingerprint lines identical in %d" %
          (len(runs["base"]), meta["pairs"], same))
    print("%-36s %-33s %-33s %6s  %-5s %s" %
          ("metric", "base q1 / median / q3", "change q1 / median / q3",
           "wins", "gain", "bound"))
    names = [m for m in runs["base"][0]["result"]["metrics"]]
    for name in names:
        if name not in better:
            continue
        b = [r["result"]["metrics"][name]["value"] for r in runs["base"]]
        c = [r["result"]["metrics"][name]["value"] for r in runs["change"]]
        sign = -1.0 if better[name] == "lower" else 1.0
        wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
        losses = sum(1 for x, y in zip(b, c) if sign * (y - x) < 0)
        bq1, bmed, bq3 = quartiles(b)
        cq1, cmed, cq3 = quartiles(c)
        gain = (wins >= 0.9 * meta["pairs"] and
                sign * (cmed - bmed) > bq3 - bq1)
        bound = ""
        if name in bounds:
            limit = bounds[name]["bound"]
            worse = -sign * (cmed - bmed) / abs(bmed) if bmed else 0.0
            spread = (bq3 - bq1) / abs(bmed) if bmed else 0.0
            separated = all(sign * (y - x) > 0 for x in b for y in c)
            if worse > limit:
                bound = "WORSE %+.1f%% > %.0f%%" % (100 * worse, 100 * limit)
            elif spread > limit and not separated:
                bound = "unresolved (base IQR %.0f%% > %.0f%%)" % (
                    100 * spread, 100 * limit)
            else:
                bound = "ok"
        print("%-36s %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g %3d-%-2d  %-5s %s"
              % (name, bq1, bmed, bq3, cq1, cmed, cq3, wins, losses,
                 "yes" if gain else "no", bound))
if boxes:
    print("\nbox: nproc=%s cpu_model=%s" % next(iter(boxes)))
PY
}

if [[ -z "$seconds" ]]; then
  seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
fi
if [[ -z "$workloads" ]]; then
  workloads=$(python3 -c 'import json; print(",".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi
sha=$(git rev-parse --verify "$base^{commit}")
change="$(git rev-parse --short HEAD)$(git diff --quiet HEAD -- . && echo '' || echo '+edits')"
base_tree="$base_dir/$sha"
if [[ ! -f "$base_tree/xeebench/run.py" ]]; then
  echo "bench_compare: exporting $sha to $base_tree" >&2
  mkdir -p "$base_tree"
  git archive "$sha" | tar -x -C "$base_tree"
fi
base_tree=$(cd "$base_tree" && pwd)
out=${out:-.bench_compare/$(date +%Y%m%d-%H%M%S)}
mkdir -p "$out"
out=$(cd "$out" && pwd)
IFS=, read -r -a wl_list <<< "$workloads"
python3 - "$out/meta.json" "$(git rev-parse --short "$sha")" "$change" \
  "$pairs" "$seconds" "$trace" "${wl_list[@]}" <<'PY'
import json, sys
path, base, change, pairs, seconds, trace = sys.argv[1:7]
json.dump({"base": base, "change": change, "pairs": int(pairs),
           "seconds": seconds, "trace": trace, "workloads": sys.argv[7:]},
          open(path, "w"))
PY

run_side() {  # side workload pair seed
  local dir=$root
  [[ "$1" == base ]] && dir=$base_tree
  (cd "$dir" && python3 xeebench/run.py --workload "$2" --seed "$4" \
     --seconds "$seconds" --trace "$trace") \
    > "$out/$2.$1.$3.txt" 2>> "$out/build.log" ||
    echo "bench_compare: $1 run of $2 seed $4 exited non-zero" >&2
}

# Build both sides once before timing anything.
for side in base change; do
  dir=$root
  [[ "$side" == base ]] && dir=$base_tree
  echo "bench_compare: building $side" >&2
  (cd "$dir" && python3 xeebench/run.py --workload "${wl_list[0]}" \
     --seed "$seed0" --seconds 0.5 --trace 0) > /dev/null 2>> "$out/build.log"
done

for wl in "${wl_list[@]}"; do
  for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    if ((i % 2 == 0)); then order="base change"; else order="change base"; fi
    for side in $order; do
      echo "bench_compare: $wl pair $((i + 1))/$pairs $side (seed $seed)" >&2
      run_side "$side" "$wl" "$i" "$seed"
    done
  done
done

analyze_dir "$out" | tee "$out/report.txt"
