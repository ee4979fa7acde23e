"""Compare the completion outputs of two source checkouts byte for byte.

    python3 scripts/compare_modularity_outputs.py OTHER_CHECKOUT [--seeds 1 10]

Runs the benchmark's `modularity` ops (perfbench/workloads.py, a 20 s pass,
three ops per seed) of each seed in the range and, at each op's tau, `theta
complete` on every coset of the op's lattice (the 32 of L∨/L), once from
this checkout's src/ and once from OTHER_CHECKOUT's, each in its own
process, and reports every output that differs.  Exits 1 if any does.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUN = """
import dataclasses, json, sys
from pathlib import Path
root, lo, hi, work = Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3]), \\
    Path(sys.argv[4])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import workloads
from ngontheta.lattice import disc_group
from ngontheta.sig12 import SPACE_ABC
inp = workloads.make_inputs("modularity", work)
out = {}
for seed in range(lo, hi + 1):
    ops = workloads.make_ops("modularity", seed, workloads.BASE_SECONDS, inp)
    out[seed] = []
    for op in ops:
        tau = op.meta["tau"]
        out[seed].append([f"modularity at tau {tau}", workloads.run_op(op)])
        for mu in map(workloads.vec_arg, disc_group(SPACE_ABC)):
            argv = ["theta", "complete", *op.argv[2:], f"--mu={mu}"]
            out[seed].append([f"complete at tau {tau}, mu {mu}",
                              workloads.run_op(dataclasses.replace(
                                  op, argv=argv))])
print(json.dumps(out))
"""


def outputs(root, lo, hi):
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run([sys.executable, "-c", RUN, str(root), str(lo),
                               str(hi), work], capture_output=True, text=True,
                              check=True)
    return json.loads(done.stdout)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("other")
    p.add_argument("--seeds", nargs=2, type=int, default=(1, 10))
    args = p.parse_args()
    mine = outputs(ROOT, *args.seeds)
    theirs = outputs(Path(args.other).resolve(), *args.seeds)
    count = sum(len(ops) for ops in mine.values())
    diff = [(seed, name) for seed in mine
            for (name, a), (_, b) in zip(mine[seed], theirs[seed]) if a != b]
    for seed, name in diff:
        print(f"seed {seed}, {name}: outputs differ")
    print(f"{count - len(diff)} of {count} outputs byte-identical")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
