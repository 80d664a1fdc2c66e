#!/usr/bin/env bash
# The golden command set: tests/golden.sh TREE OUT runs the ofo CLI of the
# source tree TREE on a fixed set of commands, each in its own directory
# OUT/NAME, which keeps its stdout, stderr, exit code and emitted files.
# Two trees emit the same bytes when `diff -r` of their OUT directories is
# empty.  The bytes depend on the numpy/BLAS build, so compare two trees on
# one machine, e.g. a change against its base:
#
#   tests/golden.sh "$BASE_TREE" golden-base
#   tests/golden.sh . golden-head
#   diff -r golden-base golden-head
set -eu
if [ $# -ne 2 ]; then
  echo "usage: $0 TREE OUT" >&2
  exit 2
fi
tree=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
# the command configs, outside OUT so that it holds only the run directories
configs=$(mktemp -d)
trap 'rm -rf "$configs"' EXIT
echo '{"grid": {}, "controller": {"eta": 0.05}}' > "$configs/grid.json"
for mode in centralized decentralized; do
  for loop in algebraic lti; do
    printf '{"grid": {}, "controller": {"eta": 0.05, "mode": "%s"}, "simulation": {"loop": "%s"}}\n' \
      "$mode" "$loop" > "$configs/grid-$mode-$loop.json"
  done
done
cat > "$configs/plant.json" <<'JSON'
{"plant": {"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0, 0.5], [0.0, 1.0]],
           "C": [[1.0, 0.0], [0.0, 1.0]], "D": [[0.0, 0.0], [0.0, 0.0]], "d": [1.0, 1.0]},
 "controller": {"eta": 0.1}}
JSON
# B[0][0] is true: rejected while the rows are read (exit 2 naming 'plant.B')
cat > "$configs/plant-bool.json" <<'JSON'
{"plant": {"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[true, 0.5], [0.0, 1.0]],
           "C": [[1.0, 0.0], [0.0, 1.0]], "D": [[0.0, 0.0], [0.0, 0.0]], "d": [1.0, 1.0]},
 "controller": {"eta": 0.1}}
JSON
# ||A||_2 = 1.38 >= 1 with rho(A) = 0.5: the Schur screen's eigenvalue
# branch, and a dynamic certificate with no eta_star
cat > "$configs/plant-nonnormal.json" <<'JSON'
{"plant": {"A": [[0.5, 1.2], [0.0, 0.5]], "B": [[1.0, 0.0], [0.0, 1.0]],
           "C": [[0.1, 0.0], [0.0, 0.1]], "D": [[2.0, 0.0], [0.0, 2.0]], "d": [1.0, -1.0]},
 "controller": {"eta": 0.05}, "simulation": {"loop": "lti", "steps": 4000}}
JSON
# a jittered grid whose --g below spans coupling-failing, stable,
# unstable and diverging rows of the stacked sweep assembly
cat > "$configs/grid-jitter.json" <<'JSON'
{"grid": {"c_cap": [1.2, 0.8, 1.1, 0.9, 1.3, 0.7, 1.05, 0.95],
          "l_ind": [0.9, 1.1, 1.2, 0.8, 1.0, 1.15, 0.85, 1.25, 0.75],
          "r_line": [9.0, 11.0, 10.5, 8.5, 12.0, 9.5, 10.0, 11.5, 8.0],
          "i_star": [1.1, 0.9, 1.0, 1.2, 0.8, 1.05, 0.95, 1.15],
          "d_meas": [0.0, 0.1, -0.1, 0.0, 0.05, 0.0, -0.05, 0.0]},
 "controller": {"eta": 0.05}}
JSON
# a jittered grid with non-unit objective weights and a finer Euler step:
# the sweep's stacked reference-point solves read both weights, and its
# --g below spans diverging, coupling-failing, stable and unstable rows
cat > "$configs/grid-weights.json" <<'JSON'
{"grid": {"c_cap": [1.2, 0.8, 1.1, 0.9, 1.3, 0.7, 1.05, 0.95],
          "l_ind": [0.9, 1.1, 1.2, 0.8, 1.0, 1.15, 0.85, 1.25, 0.75],
          "r_line": [9.0, 11.0, 10.5, 8.5, 12.0, 9.5, 10.0, 11.5, 8.0],
          "gamma1": 0.5, "gamma2": 2.0, "eps": 0.05},
 "controller": {"eta": 0.05}}
JSON
# a six-node ring with a chord and per-node conductances
cat > "$configs/grid-ring.json" <<'JSON'
{"grid": {"n_nodes": 6, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6], [1, 4]],
          "g_node": [0.8, 1.2, 1.5, 0.9, 1.1, 2.0]},
 "controller": {"eta": 0.05, "mode": "decentralized"}, "simulation": {"loop": "lti"}}
JSON
# failure paths: a step that diverges part-way (exit 1 with a truncated
# CSV) and an unstable discretization (exit 1; the sweep annotates rows)
echo '{"grid": {}, "controller": {"eta": 30}, "simulation": {"steps": 200}}' \
  > "$configs/grid-diverge.json"
echo '{"grid": {"eps": 5}, "controller": {"eta": 0.05}}' > "$configs/grid-unstable.json"
# the streamed trajectory CSV: decimation 7 over 12,614 rows (one
# handover of 7 recorder blocks, then a tail of 5 blocks), a run that
# does not stop early with 3,073 = 3 * 1024 + 1 rows (a one-row tail),
# and a divergence at step 2,032, after the first block went to the
# CSV worker (exit 1 with a truncated CSV)
echo '{"grid": {}, "controller": {"eta": 0.001}, "simulation": {"loop": "lti", "decimation": 7}}' \
  > "$configs/grid-decimated.json"
echo '{"grid": {}, "controller": {"eta": 0.001}, "simulation": {"steps": 3072}}' \
  > "$configs/grid-one-row-tail.json"
# exactly one full recorder block and no tail: 1,024 rows, and 3,070
# rows at decimation 3, which keep 1,024
for loop in algebraic lti; do
  printf '{"grid": {}, "controller": {"eta": 0.001}, "simulation": {"loop": "%s", "steps": 1023}}\n' \
    "$loop" > "$configs/grid-full-block-$loop.json"
  printf '{"grid": {}, "controller": {"eta": 0.001}, "simulation": {"loop": "%s", "steps": 3069, "decimation": 3}}\n' \
    "$loop" > "$configs/grid-full-block-decimated-$loop.json"
  # two full blocks: 2,048 rows, one block handed to the CSV worker and
  # one full block held, which the CLI process formats at completion
  printf '{"grid": {}, "controller": {"eta": 0.001}, "simulation": {"loop": "%s", "steps": 2047}}\n' \
    "$loop" > "$configs/grid-two-blocks-$loop.json"
done
echo '{"grid": {}, "controller": {"eta": 1.3}}' > "$configs/grid-diverge-late.json"
# the same divergence at decimation 7: 291 kept rows, and the final
# error comes from row 2,031, the last finite one, which is not kept
echo '{"grid": {}, "controller": {"eta": 1.3}, "simulation": {"decimation": 7}}' \
  > "$configs/grid-diverge-decimated.json"
# certificates past the float range: (L eta)^2 at eta = 1e200, and
# sigma_max(H)^2 at B = 1e200 (exit 1 with one error line, no report)
echo '{"grid": {}, "controller": {"eta": 1e200}}' > "$configs/grid-huge-eta.json"
# objective weights of 1e-200: the rate window's (L - c)(L + c)
# underflows to zero (exit 1 with one error line, no report)
echo '{"grid": {}, "objective": {"gamma1": 1e-200, "gamma2": 1e-200}, "controller": {"eta": 0.05}}' \
  > "$configs/grid-tiny-weights.json"
cat > "$configs/plant-huge-gain.json" <<'JSON'
{"plant": {"A": [[0.0]], "B": [[1e200]], "C": [[1.0]], "D": [[0.0]], "d": [0.0]},
 "controller": {"eta": 0.1}}
JSON
# the centralized loop solves only the optimum, whose matrix holds H^2
# (exit 1 with one error line, no metrics.json or trajectory.csv)
cat > "$configs/plant-huge-gain-centralized.json" <<'JSON'
{"plant": {"A": [[0.0]], "B": [[1e200]], "C": [[1.0]], "D": [[0.0]], "d": [0.0]},
 "controller": {"eta": 0.1, "mode": "centralized"}}
JSON
# the squares of sigma_max(A) = 1e160 and of sigma_min(C) = 1e160 in
# the Xi constants (exit 1 with one error line and no warning)
cat > "$configs/plant-nonnormal-huge.json" <<'JSON'
{"plant": {"A": [[0.5, 1e160], [0.0, 0.5]], "B": [[1.0, 0.0], [0.0, 0.0]],
           "C": [[1.0, 0.0], [0.0, 1.0]], "D": [[1.0, 0.0], [0.0, 1.0]], "d": [0.0, 0.0]},
 "controller": {"eta": 0.05}}
JSON
cat > "$configs/plant-large-output.json" <<'JSON'
{"plant": {"A": [[0.5]], "B": [[1e-170]], "C": [[1e160]], "D": [[0.0]], "d": [0.0]},
 "controller": {"eta": 0.05}}
JSON
# last-row overflow: every u is finite (|u| up to 5e303), y_100 = 100 u_100 is
# not (exit 1, 101-line CSV); the squares of u overflow, its norms do not
cat > "$configs/plant-overflow-algebraic.json" <<'JSON'
{"plant": {"A": [[0.0]], "B": [[100.0]], "C": [[1.0]], "D": [[0.0]], "d": [0.0]},
 "objective": {"y_ref": [0.0]}, "controller": {"eta": 0.1},
 "simulation": {"loop": "algebraic", "steps": 100, "u0": [5.5e6]}}
JSON
cat > "$configs/plant-overflow-lti.json" <<'JSON'
{"plant": {"A": [[0.0]], "B": [[0.0]], "C": [[0.0]], "D": [[100.0]], "d": [0.0]},
 "objective": {"y_ref": [0.0]}, "controller": {"eta": 0.1},
 "simulation": {"loop": "lti", "steps": 100, "u0": [5.5e6]}}
JSON
# H = I: the tight window is (0, 1) and the N-scaled one (0, 0.5), which
# ends exactly at eta
cat > "$configs/plant-identity.json" <<'JSON'
{"plant": {"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0, 0.0], [0.0, 1.0]],
           "C": [[1.0, 0.0], [0.0, 1.0]], "D": [[0.0, 0.0], [0.0, 0.0]], "d": [0.0, 0.0]},
 "controller": {"eta": 0.5}}
JSON
# B[0][1] = 10 makes the coupling fail (c > m): exit 1, and the report
# holds an empty window (eta_upper 0, rho >= 1) and a full lti block
cat > "$configs/plant-coupling.json" <<'JSON'
{"plant": {"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0, 10.0], [0.0, 1.0]],
           "C": [[1.0, 0.0], [0.0, 1.0]], "D": [[0.0, 0.0], [0.0, 0.0]], "d": [1.0, 1.0]},
 "controller": {"eta": 0.01}}
JSON
# H = 0: the coupling condition's right side m / (sigma_max(H) L_y) is inf
cat > "$configs/plant-zero.json" <<'JSON'
{"plant": {"A": [[0.0]], "B": [[0.0]], "C": [[1.0]], "D": [[0.0]], "d": [1.0]},
 "controller": {"eta": 0.1}, "simulation": {"steps": 1000}}
JSON
# d = 1e300: u_star - u_inf is finite, its square is not, so the distance
# and the dropped-gradient bound take the rescuing norm
cat > "$configs/plant-huge-disturbance.json" <<'JSON'
{"plant": {"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0, 0.5], [0.0, 1.0]],
           "C": [[1.0, 0.0], [0.0, 1.0]], "D": [[0.0, 0.0], [0.0, 0.0]], "d": [1e300, 1e300]},
 "controller": {"eta": 0.1}, "simulation": {"steps": 2000}}
JSON
# the input increment settles at step 114, the state's only at step
# 26,936: the state decides the early stop (a 26,937-row CSV)
cat > "$configs/plant-slow-state.json" <<'JSON'
{"plant": {"A": [[0.999]], "B": [[1.0]], "C": [[1e-13]], "D": [[1.0]], "d": [1.0]},
 "controller": {"eta": 0.1}, "simulation": {"loop": "lti"}}
JSON
# cells across the float range: a 3,001-row CSV streamed through the
# worker, with cells Python formats (1e300, 0, inf), 17-digit integers,
# the switch to exponent form at 1e17, 0.0001 and e-05, and 3-digit exponents
cat > "$configs/plant-wide-range.json" <<'JSON'
{"plant": {"A": [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
           "B": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
           "C": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
           "D": [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
           "d": [1e300, 2e17, 1e-4, -3e-150]},
 "controller": {"eta": 0.001}, "simulation": {"loop": "lti", "steps": 3000}}
JSON
# eta = 0.8 lies past the default grid's tight window end 0.6175
echo '{"grid": {}, "controller": {"eta": 0.8}}' > "$configs/grid-outside.json"
# a positive, finite capacitance whose reciprocal overflows: the
# sensitivity is not finite (build exits 1; the sweep annotates rows)
echo '{"grid": {"c_cap": [1e-320, 1, 1, 1, 1, 1, 1, 1]}, "controller": {"eta": 0.05}}' \
  > "$configs/grid-overflow.json"
# finite inputs whose derived vectors leave the float range: i_star - delta_i
# (the effective disturbance), and H i_star at g = 0.01 (the voltage
# reference); exit 1 with one error line
echo '{"grid": {"i_star": [1e308, 1, 1, 1, 1, 1, 1, 1], "delta_i": [-1e308, 1, 1, 1, 1, 1, 1, 1]}, "controller": {"eta": 0.05}}' \
  > "$configs/grid-huge-injection.json"
echo '{"grid": {"g_node": [0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01], "i_star": [1e308, 1e308, 1e308, 1e308, 1e308, 1e308, 1e308, 1e308], "delta_i": [1e308, 1e308, 1e308, 1e308, 1e308, 1e308, 1e308, 1e308]}, "controller": {"eta": 0.05}}' \
  > "$configs/grid-huge-reference.json"
# i_star = delta_i = 1e308 at g = 1: every vector is finite, the square of
# the equilibrium residual is not (exit 0, no warning)
echo '{"grid": {"i_star": [1e308, 1e308, 1e308, 1e308, 1e308, 1e308, 1e308, 1e308], "delta_i": [1e308, 1e308, 1e308, 1e308, 1e308, 1e308, 1e308, 1e308]}, "controller": {"eta": 0.05}}' \
  > "$configs/grid-huge-residual.json"
# an Euler step whose A_d overflows: its radius counts as inf (exit 1 with
# one error line; the sweep notes every row and exits 0)
echo '{"grid": {"eps": 1e308}, "controller": {"eta": 0.05}}' > "$configs/grid-huge-eps.json"
# objective weights whose coupling rhs m / (sigma_max(H) L_y) overflows to inf
# (simulate exits 0, analyze and sweep exit 1 with one error line; no warning)
echo '{"grid": {"gamma1": 1e300, "gamma2": 1e-300}, "controller": {"eta": 0.05}}' \
  > "$configs/grid-extreme-weights.json"
# finite equations whose reference points are not: u_1 = -inf (exit 1 with
# one error line naming the point)
cat > "$configs/plant-overflowing-point.json" <<'JSON'
{"plant": {"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0, 0.0], [0.0, 1.0]],
           "C": [[1.0, 0.0], [4.0, 1.0]], "D": [[0.0, 0.0], [0.0, 0.0]], "d": [1e308, 0.0]},
 "controller": {"eta": 0.05}, "simulation": {"steps": 1}}
JSON
echo '{"grid": {}, "controller": {"eta": 0.05}, "simulation": {"steps": 50}}' \
  > "$configs/grid-steps-50.json"
# the CLI with perfbench's callable objective (generic-n64's) registered
# as 'logcosh': argv[1] 'shared' keeps its agents' shared callables,
# 'closures' wraps them in one closure per agent, and the rest is the
# CLI's argv
logcosh=$(cat <<'PY'
import sys

from bench_inputs import logcosh_objective
from ofonet import cli
from ofonet.objective import SeparableObjective


def closures(costs):
    return tuple((f, lambda v, df=df: df(v)) for f, df in costs)


def factory(n):
    obj = logcosh_objective(n)
    if sys.argv[1] == "shared":
        return obj
    return SeparableObjective(
        closures(obj.input_costs), closures(obj.output_costs), obj.L_u, obj.m_u, obj.L_y, obj.m_y
    )


cli.register_objective("logcosh", factory)
sys.exit(cli.main(sys.argv[2:]))
PY
)
# invoke NAME PATH ARGS: python ARGS in OUT/NAME, with PYTHONPATH=PATH
invoke() {
  name=$1 path=$2
  shift 2
  mkdir -p "$out/$name"
  code=0
  (cd "$out/$name" && PYTHONPATH="$path" python "$@" > stdout 2> stderr) || code=$?
  echo "$code" > "$out/$name/exit"
}
run() {
  name=$1
  shift
  invoke "$name" "$tree/src" -m ofonet.cli "$@"
}
# run_logcosh NAME SHARING ARGS: the CLI with the 'logcosh' objective
# of TREE's perfbench registered
run_logcosh() {
  name=$1 sharing=$2
  shift 2
  invoke "$name" "$tree/src:$tree/perfbench" -c "$logcosh" "$sharing" "$@"
}
run fig3 figures fig3
run fig4 figures fig4
run grid-build grid build
run grid-sweep grid sweep --eta 0.05
run grid-analyze --config "$configs/grid.json" analyze
run grid-analyze-outside --config "$configs/grid-outside.json" analyze
run grid-build-overflow --config "$configs/grid-overflow.json" grid build
run grid-sweep-overflow --config "$configs/grid-overflow.json" grid sweep
for mode in centralized decentralized; do
  for loop in algebraic lti; do
    run "grid-simulate-$mode-$loop" --config "$configs/grid-$mode-$loop.json" grid simulate
  done
done
run grid-sweep-jitter --config "$configs/grid-jitter.json" grid sweep \
  --g 0.1,0.2,0.3,0.5,1,2,5,10,20,50,100,300 --steps 3000
run grid-sweep-weights --config "$configs/grid-weights.json" grid sweep \
  --g 0.1,0.3,0.5,1,2,5,10,20,50,100 --steps 3000
# g = 1e-18 passes the sensitivity solve of the jittered grid, but
# its global optimum equations are singular: a noted row, not an exit 1
run grid-sweep-jitter-singular --config "$configs/grid-jitter.json" grid sweep \
  --g 1,1e-18 --steps 100
run grid-build-ring --config "$configs/grid-ring.json" grid build
run grid-simulate-ring --config "$configs/grid-ring.json" grid simulate
run grid-simulate-diverge --config "$configs/grid-diverge.json" grid simulate
run grid-simulate-unstable --config "$configs/grid-unstable.json" grid simulate
run simulate-decimated --config "$configs/grid-decimated.json" simulate
run grid-simulate-one-row-tail --config "$configs/grid-one-row-tail.json" grid simulate
for loop in algebraic lti; do
  run "grid-simulate-full-block-$loop" --config "$configs/grid-full-block-$loop.json" \
    grid simulate
  run "grid-simulate-full-block-decimated-$loop" \
    --config "$configs/grid-full-block-decimated-$loop.json" grid simulate
  run "grid-simulate-two-blocks-$loop" --config "$configs/grid-two-blocks-$loop.json" \
    grid simulate
done
run grid-simulate-diverge-late --config "$configs/grid-diverge-late.json" grid simulate
run grid-simulate-diverge-decimated --config "$configs/grid-diverge-decimated.json" \
  grid simulate
run grid-analyze-huge-eta --config "$configs/grid-huge-eta.json" analyze
run grid-analyze-tiny-weights --config "$configs/grid-tiny-weights.json" analyze
run plant-huge-gain-analyze --config "$configs/plant-huge-gain.json" analyze
run plant-huge-gain-simulate --config "$configs/plant-huge-gain.json" simulate
run plant-huge-gain-centralized-simulate --config "$configs/plant-huge-gain-centralized.json" \
  simulate
run plant-nonnormal-huge-analyze --config "$configs/plant-nonnormal-huge.json" analyze
run plant-large-output-analyze --config "$configs/plant-large-output.json" analyze
run grid-sweep-unstable --config "$configs/grid-unstable.json" grid sweep \
  --eta 0.05 --steps 100
# two non-positive rows, a singular slice (the per-row path of the
# stacked assembly), a stable row and an unstable one
run grid-sweep-edge grid sweep --g 0,-1,1e-18,1,1000 --eta 0.05 --steps 100
# a non-finite conductance is a usage error naming '--g' (exit 2, no CSV)
run grid-sweep-non-finite-g grid sweep --g 1,inf --eta 0.05 --steps 100
# g = 0.5 first overflows in its last output, y_148; g = 1 ends
# finite with a final error whose square overflows
run grid-sweep-last-output grid sweep --g 0.5,1 --eta 30 --steps 148
run plant-analyze --config "$configs/plant.json" analyze
# an environment override rebuilds the plant section, which the
# command then takes out of its config; D = 0.5 I changes the report
OFO_PLANT_D='[[0.5, 0.0], [0.0, 0.5]]' run plant-analyze-override-d \
  --config "$configs/plant.json" analyze
run plant-bool-analyze --config "$configs/plant-bool.json" analyze
run plant-identity-analyze --config "$configs/plant-identity.json" analyze
run plant-coupling-analyze --config "$configs/plant-coupling.json" analyze
run plant-zero-analyze --config "$configs/plant-zero.json" analyze
run plant-zero-simulate --config "$configs/plant-zero.json" simulate
run plant-simulate --config "$configs/plant.json" simulate
run plant-slow-state-simulate --config "$configs/plant-slow-state.json" simulate
run plant-wide-range-simulate --config "$configs/plant-wide-range.json" simulate
run simulate-huge-disturbance --config "$configs/plant-huge-disturbance.json" simulate
run analyze-huge-disturbance --config "$configs/plant-huge-disturbance.json" analyze
run plant-nonnormal-analyze --config "$configs/plant-nonnormal.json" analyze
run plant-nonnormal-simulate --config "$configs/plant-nonnormal.json" simulate
run grid-build-huge-injection --config "$configs/grid-huge-injection.json" grid build
run grid-simulate-huge-injection --config "$configs/grid-huge-injection.json" grid simulate
run grid-analyze-huge-injection --config "$configs/grid-huge-injection.json" analyze
run grid-sweep-huge-injection --config "$configs/grid-huge-injection.json" grid sweep
run grid-simulate-huge-reference --config "$configs/grid-huge-reference.json" grid simulate
run grid-analyze-huge-reference --config "$configs/grid-huge-reference.json" analyze
run grid-analyze-huge-residual --config "$configs/grid-huge-residual.json" analyze
run grid-simulate-huge-residual --config "$configs/grid-huge-residual.json" grid simulate
for loop in algebraic lti; do
  run "plant-overflow-$loop" --config "$configs/plant-overflow-$loop.json" simulate
done
for command in analyze "grid build" "grid simulate" "grid sweep"; do
  run "grid-${command##* }-huge-eps" --config "$configs/grid-huge-eps.json" $command
done
for command in analyze "grid simulate" "grid sweep"; do
  run "grid-${command##* }-extreme-weights" --config "$configs/grid-extreme-weights.json" \
    $command
done
for command in analyze simulate; do
  run "plant-$command-overflowing-point" --config "$configs/plant-overflowing-point.json" \
    "$command"
done
# a decimation past the int64 range keeps only row 0, as decimation 51 does
OFO_SIMULATION_DECIMATION=1e30 run grid-simulate-huge-decimation \
  --config "$configs/grid-steps-50.json" grid simulate
# the per-agent gradients and the generic equilibrium iteration; analyze
# exits 1, as eta = 0.05 lies past this objective's tight window
# (0, 0.0286), after its report with both equilibria
for sharing in shared closures; do
  for mode in centralized decentralized; do
    for loop in algebraic lti; do
      OFO_OBJECTIVE_CUSTOM=logcosh OFO_CONTROLLER_MODE=$mode OFO_SIMULATION_LOOP=$loop \
        run_logcosh "logcosh-$sharing-$mode-$loop" "$sharing" \
        --config "$configs/plant-nonnormal.json" simulate
    done
  done
  OFO_OBJECTIVE_CUSTOM=logcosh run_logcosh "logcosh-$sharing-analyze" "$sharing" \
    --config "$configs/plant-nonnormal.json" analyze
done
