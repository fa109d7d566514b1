"""Record the reference average precision that bench/run.py checks against.

Usage (from the repository root):

    python3 bench/record_reference.py --seeds 0-20

Runs one untraced repetition of every workload for each seed and writes
bench/reference.json: every average precision the CLI reports (the eval
report; the best grid cell; all four ablation rows), keyed by workload and
seed. Run it only at a commit whose outputs are known to be right: a later
change that claims a speed-up must reproduce these values, not re-record them.
"""

import argparse
import json
import sys
import time

import run

TOLERANCE = 1e-6  # absolute, for a recorded seed; the CLI output is deterministic
BAND_MARGIN = 0.02  # absolute, around the recorded range, for any other seed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-20")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    table = {}
    for name, wl in sorted(run.WORKLOADS.items()):
        for seed in seeds:
            inputs = run.gen.ensure_inputs(run.CACHE / "inputs", name, wl.shape, wl.noise_scale, seed, wl.stream)
            rep = run.run_rep(wl, inputs, seed, False, {}, time.monotonic() + run.RUN_LIMIT_S)
            errors = [c["error"] for c in rep["commands"] if c["error"]]
            if errors:
                print(f"{name} seed {seed}: {errors}", file=sys.stderr)
                return 1
            for key, value in rep["average_precision"].items():
                table.setdefault(name, {}).setdefault(key, {})[str(seed)] = value
            print(f"{name} seed {seed}: {rep['average_precision']}", flush=True)
    reference = {
        "tolerance": TOLERANCE,
        "band_margin": BAND_MARGIN,
        "environment": run.environment(),
        "workloads": table,
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
