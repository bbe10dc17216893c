#!/usr/bin/env bash
# Regenerates every experiment artifact (EXPERIMENTS.md's evidence).
# Each binary asserts the paper claims internally; a clean exit IS the
# reproduction. JSON rows land in target/experiments/.
set -euo pipefail

EXPERIMENTS=(
  exp_fig1           # Figure 1: the index table + bijectivity audit
  exp_environments   # TAB-ENV: the seven environments
  exp_theorem_iii8   # TAB-III8: the characterization, two engines
  exp_round_lb       # TAB-LB: tight round complexity
  exp_bivalency      # TAB-BIVAL: mechanical bivalency chains
  exp_spair          # TAB-SPAIR: the special-pair matching
  exp_valency        # TAB-VALENCY: valency maps + decisive prefixes
  exp_network        # TAB-V1: the f < c(G) threshold
  exp_reduction      # TAB-RED: emulation equivalence + A_L
  exp_budget         # TAB-BUDGET: the classic f+1 bound
  exp_sigma          # TAB-SIGMA: double omission (open §VI), mapped
)

for exp in "${EXPERIMENTS[@]}"; do
  echo
  echo "================================================================"
  echo ">>> $exp"
  echo "================================================================"
  cargo run --release --quiet --bin "$exp"
done

echo
echo "================================================================"
echo ">>> bench_checker (minobs/bench/v1 perf trajectory, checker side)"
echo "================================================================"
# The recorded checker baseline: the pinned exp_budget configuration
# (total_budget(4) at horizons 4/5), timed; plus the shape gauges
# (peak frontier, dedup ratio) from one instrumented pass. Lands at
# the repo root so the trajectory is versioned alongside the code it
# measures.
cargo run --release --quiet --bin bench_checker -- --out BENCH_checker.json

echo
echo "================================================================"
echo ">>> perfbench (hit, then miss: the service's recorded trajectory)"
echo "================================================================"
# The service-side trajectory is the benchmark itself (perfbench/, the
# workloads BENCHMARK.json declares): per workload, five end-to-end runs
# (--trace 0, seeds 11-15) and one per-layer run (--trace 1, seed 11),
# each at BENCHMARK.json's run_seconds, collected into BENCH_<workload>.json
# as {"workload", "seconds", "runs": [five results], "layers": result}.
# `perf_gate parent/BENCH_hit.json BENCH_hit.json` compares two such
# recordings made on the same machine. A run that exits non-zero (a
# wrong verdict, or an invalid run) stops the script; it is not retried.
RUN_SECONDS=$(sed -n 's/^ *"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
test -n "$RUN_SECONDS"
perfbench_run() { # perfbench_run WORKLOAD SEED TRACE -> the result line
  local out status=0
  out=$(bash perfbench/run.sh --workload "$1" --seed "$2" \
    --seconds "$RUN_SECONDS" --trace "$3") || status=$?
  if [ "$status" -ne 0 ]; then
    echo "perfbench --workload $1 --seed $2 --trace $3 exited $status" >&2
    exit 1
  fi
  printf '%s\n' "$out" | tail -n 1
}
for workload in hit miss; do
  runs=""
  for seed in 11 12 13 14 15; do
    result=$(perfbench_run "$workload" "$seed" 0)
    echo "$workload seed $seed: $result"
    runs="${runs:+$runs,}$result"
  done
  layers=$(perfbench_run "$workload" 11 1)
  echo "$workload traced: $layers"
  printf '{"workload":"%s","seconds":%s,"runs":[%s],"layers":%s}\n' \
    "$workload" "$RUN_SECONDS" "$runs" "$layers" > "BENCH_$workload.json"
done

echo
echo "All experiments reproduced. Artifacts: target/experiments/*.json"
echo "Perf trajectory: BENCH_checker.json, BENCH_hit.json, BENCH_miss.json (repo root)"
