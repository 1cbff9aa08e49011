"""Check that two runs with the same seed give identical deterministic outputs.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload sparse-fullspace --seed 1712

Runs ``perfbench/run.py --trace 1`` twice in fresh processes and compares the
``deterministic`` sections of the two result files: the digest of every
returned ``x``, status and objective trace, the iteration counts,
``converged_frac``, ``failed_frac``, ``objective.*``, ``rel_l2_err.*`` and
every per-layer count.  Exits 0 when they are identical, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def deterministic_outputs(workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    path = ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-trace1.json"
    return json.loads(path.read_text())["deterministic"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    first = deterministic_outputs(args.workload, args.seed)
    second = deterministic_outputs(args.workload, args.seed)
    first.update(first.pop("layer_counts"))
    second.update(second.pop("layer_counts"))
    differing = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    for key in differing:
        print(f"DIFFERS {key}: {first.get(key)!r} vs {second.get(key)!r}")
    print(f"{args.workload} seed={args.seed}: {len(first)} deterministic outputs, "
          f"{'identical' if not differing else f'{len(differing)} differ'}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
