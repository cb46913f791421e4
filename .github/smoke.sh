#!/usr/bin/env bash
# Smoke test of the installed console script, run by every CI job that
# installs the package.  Run it outside the checkout and without PYTHONPATH,
# so the installed package and its entry point are what runs; it writes its
# configs and outputs into the working directory.  A RuntimeWarning from
# numpy (an overflow, a NaN) fails it.
set -euo pipefail
export PYTHONWARNINGS=error::RuntimeWarning

echo '{"radius": 3.0, "interior": [{"x": 0, "y": 0, "n": 1}]}' > flat3.json
nvortex verify --nr 64
nvortex check --config flat3.json
nvortex solve-radial --config flat3.json --out radial
nvortex metric --config flat3.json --out metric
nvortex solve-2d --config flat3.json --nr 64 --ntheta 64 --out field
echo '{"radius": 3.0, "omega": [[0, 1.0], [0.75, 1.1], [1.5, 1.25], [2.25, 1.4], [3.0, 1.5]], "interior": [{"x": 0, "y": 0, "n": 1}]}' > table3.json
nvortex metric --config table3.json --out table-metric
# Omega falls at the rim: the exact area puts this table 3.0e-8 below the
# existence bound for one vortex, and the gate refuses it (exit 2).
echo '{"radius": 3.0, "omega": [[0, 0.4594374050974581], [2.9, 0.4594374050974581], [3.0, 0.004594374050974581]], "interior": [{"x": 0, "y": 0, "n": 1}]}' > rimfall.json
status=0
nvortex check --config rimfall.json || status=$?
test "$status" -eq 2
# The gate runs before --out is made: a refused run leaves no directory.
status=0
nvortex solve-radial --config rimfall.json --out rimfall-radial || status=$?
test "$status" -eq 2
status=0
nvortex metric --config rimfall.json --out rimfall-metric || status=$?
test "$status" -eq 2
test ! -e rimfall-radial
test ! -e rimfall-metric
echo '{"radius": 2000.0, "interior": [{"x": 0, "y": 0, "n": 1}]}' > flat2000.json
nvortex metric --config flat2000.json --out wide-metric
# n = 100 on R = 200 and n = 20 on R = 19.42: core values far below -50
# converge with no overflow warning.
echo '{"radius": 200.0, "interior": [{"x": 0, "y": 0, "n": 100}]}' > n100.json
nvortex solve-radial --config n100.json --out n100
echo '{"radius": 19.42, "interior": [{"x": 0, "y": 0, "n": 20}]}' > n20.json
nvortex solve-radial --config n20.json --out n20
# Constant Omega = 1000 on R = 3: the core value, 5.897, lies above 5, and
# Newton's capped steps reach it with no overflow warning.
echo '{"radius": 3.0, "omega": [[0, 1000.0], [3.0, 1000.0]], "interior": [{"x": 0, "y": 0, "n": 1}]}' > omega1000.json
nvortex solve-radial --config omega1000.json --out omega1000
# Flat R = 2000 at 1,000 steps: the tail's steps leave RK4's stability
# interval, the shoot stops (exit 3) and says so, and its report.json is
# strict JSON (no NaN or Infinity).
echo '{"radius": 2000.0, "interior": [{"x": 0, "y": 0, "n": 1}], "radial": {"steps": 1000}}' > wide1k.json
status=0
nvortex solve-radial --config wide1k.json --out wide1k 2> wide1k.err || status=$?
test "$status" -eq 3
grep -q "RK4's stability interval" wide1k.err
python -c "import json, sys; json.load(open('wide1k/report.json'), parse_constant=lambda c: sys.exit('not JSON: ' + c))"
