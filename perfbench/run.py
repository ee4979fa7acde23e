"""ngontheta benchmark: three closed-loop workloads, one process each.

    python3 perfbench/run.py --workload {class_series,modularity,dodec} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; ngontheta is imported from ./src.
Set-up (import ngontheta, write and validate the seed's inputs, draw the op
list) happens before the pass.  The pass runs the whole op list once, sized
from --seconds; every output is checked after the pass.

--trace 0 prints the end-to-end metrics; --trace 1 runs the pass untraced
and then traced, and prints the per-layer metrics (see perfbench/README.md).
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Spans of a traced pass go to .perfbench/ in the checkout.
"""

import argparse
import gzip
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5         # set-ups per run; setup_s is their median
# Machine speed drifts by up to 1.7x in phases of seconds to minutes (see
# README), and CPU time drifts with it.  A fixed probe of the same kind of
# work as the ops runs before the first op and after every op; each op's
# time is scaled by PROBE_REF_S over the mean of the two probes around it,
# that is, reported at the speed at which the probe takes PROBE_REF_S (its
# time in the fast phase of the 2-vCPU Xeon the benchmark was built on).
PROBE_REF_S = 0.010

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (stdlib only; imports no ngontheta)
from tracer import MODULES  # noqa: E402

UNITS = {"ops_per_s": "ops/s", "op_s.p50": "s", "setup_s": "s",
         "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up in a fresh interpreter, inputs written to DIR
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def probe():
    """Seconds for a fixed piece of work that does not use ngontheta:
    Fraction arithmetic and small numpy products, like the ops."""
    import numpy as np
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 1500):
        s += Fraction(i, i + 7) * Fraction(3, i + 1)
    a = np.arange(64.0).reshape(8, 8)
    for _ in range(300):
        a = (a @ a.T) / (1.0 + np.abs(a).max())
    return time.perf_counter() - t0


def setup(args, workdir):
    """Import ngontheta, write and validate the inputs, draw the op list.
    Returns (seconds taken at the probe's reference speed, inputs, ops)."""
    t0 = time.perf_counter()
    for name in MODULES:
        importlib.import_module(f"ngontheta.{name}")
    package = sys.modules["ngontheta"]
    if Path(package.__file__).resolve().parent != SRC / "ngontheta":
        raise RuntimeError(f"imported ngontheta from {package.__file__}")
    inp = workloads.make_inputs(args.workload, workdir)
    ops = workloads.make_ops(args.workload, args.seed, args.seconds, inp)
    elapsed = time.perf_counter() - t0
    return elapsed * PROBE_REF_S / probe(), inp, ops


def setup_in_child(args, workdir):
    """One set-up in a fresh interpreter; returns its setup time."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--setup-only", str(workdir), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


@dataclass
class Pass:
    times: list        # seconds per op
    scaled: list       # seconds per op at the probe's reference speed
    probes: list       # probe seconds: before the first op and after each
    outputs: dict      # op index -> output
    errors: dict       # op index -> why the op raised
    warnings: int      # scipy IntegrationWarnings


def run_pass(ops, tracer=None):
    """Run every op once, with a probe before the first op and after each."""
    from scipy.integrate import IntegrationWarning
    run = Pass([], [], [probe()], {}, {}, 0)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always", IntegrationWarning)
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                run.outputs[i] = workloads.run_op(op)
            except Exception as e:  # a failed op is counted, not fatal
                run.errors[i] = f"{type(e).__name__}: {e}"
            except SystemExit as e:  # argparse exits on bad arguments
                run.errors[i] = f"SystemExit {e.code}"
            run.times.append(time.perf_counter() - t0)
            run.probes.append(probe())
            speed = 2 * PROBE_REF_S / (run.probes[-2] + run.probes[-1])
            run.scaled.append(run.times[-1] * speed)
    run.warnings = sum(1 for w in seen
                       if issubclass(w.category, IntegrationWarning))
    for w in seen:
        if not issubclass(w.category, IntegrationWarning):
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return run


def failures(ops, run, refs):
    bad = dict(run.errors)
    for i, why in workloads.check_outputs(ops, run.outputs, refs):
        bad.setdefault(i, why)
    return bad


def _cpu_times():
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
        return sum(fields), fields[7]
    except (OSError, ValueError, IndexError):
        return None


def run_record(args, t_start_cpu, t_end_cpu):
    def version(mod):
        try:
            return __import__(mod).__version__
        except ImportError:
            return None
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    steal = None
    if t_start_cpu and t_end_cpu and t_end_cpu[0] > t_start_cpu[0]:
        steal = (t_end_cpu[1] - t_start_cpu[1]) / (t_end_cpu[0] - t_start_cpu[0])
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": commit, "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"),
        "thread_env": {k: os.environ.get(k) for k in (
            "NGON_THETA_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS")},
        "steal_share": steal,
    }


# NegativePlane constructions per certification span at this commit; a
# different count means a binding was missed (or the algorithm changed)
EXPECTED_PLANES = {"lattice.certify_window": 133,
                   "dodec.certify_dodec_window": 261}


def traced_pass(ops, untraced, refs):
    """Run the pass again with every public function wrapped.  Returns
    (failures, per-layer metrics, spans)."""
    from tracer import Tracer, descendant_counts, layer_metrics
    tracer = Tracer().install("ngontheta")
    try:
        run = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    layer = layer_metrics(spans)
    layer["errfn.integration_warnings"] = run.warnings
    layer["bench.trace_overhead"] = sum(run.times) / sum(untraced.times) - 1
    for name, want in EXPECTED_PLANES.items():
        got = sorted(set(descendant_counts(spans, name,
                                           "qspace.NegativePlane")))
        print(f"  binding check: NegativePlane spans per {name} span: "
              f"{got or '-'} (expected {want})")
        if got and got != [want]:
            print(f"warning: {name} spans hold {got} NegativePlane spans, "
                  f"not {want}", file=sys.stderr)
    return failures(ops, run, refs), layer, spans


def write_spans(args, record, ops, spans):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump({"record": record, "ops": [op.kind for op in ops],
                   "fields": ["name", "start", "end", "parent", "op",
                              "value"],
                   "spans": spans}, fh)
    print(f"  spans: {len(spans)} written to {path.relative_to(ROOT)}")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ngontheta" / "__init__.py").is_file():
        print(f"error: no ngontheta sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one worker: the thread pool is opt-in through this variable
    os.environ.pop("NGON_THETA_THREADS", None)

    if args.setup_only:
        workdir = Path(args.setup_only)
        workdir.mkdir(parents=True, exist_ok=True)
        print(json.dumps({"setup_s": setup(args, workdir)[0]}))
        return 0

    cpu0 = _cpu_times()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t_setup, inp, ops = setup(args, workdir)
        setups = [t_setup]
        if args.trace == 0:
            setups += [setup_in_child(args, workdir / f"child{k}")
                       for k in range(SETUP_REPEATS - 1)]
        refs = workloads.load_refs()
        run = run_pass(ops)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bad = failures(ops, run, refs)
        attempted, nfailed = len(ops), len(bad)
        if args.trace:
            tbad, layer, spans = traced_pass(ops, run, refs)
            attempted, nfailed = 2 * len(ops), nfailed + len(tbad)
            bad.update({i + len(ops): why for i, why in tbad.items()})
        record = run_record(args, cpu0, _cpu_times())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for i, why in sorted(bad.items()):
        print(f"FAILED op {i % len(ops)} ({ops[i % len(ops)].kind}): {why}",
              file=sys.stderr)
    passed = len(ops) - sum(1 for i in bad if i < len(ops))
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per "
          f"pass, {attempted - nfailed} passed, {nfailed} failed")
    print(f"  as timed: ops {sum(run.times):.3f} s in all, "
          f"{passed / sum(run.times):.4g} passed ops/s, "
          f"op p50 {statistics.median(run.times):.4g} s; "
          f"probe median {statistics.median(run.probes) * 1e3:.2f} ms "
          f"(reference {PROBE_REF_S * 1e3:.2f} ms)")
    for kind in sorted({op.kind for op in ops}):
        kt = [t for op, t in zip(ops, run.scaled) if op.kind == kind]
        print(f"  {kind:<13} {len(kt):>3} ops, {sum(kt):8.3f} s in all, "
              f"median {statistics.median(kt):.4f} s (reference speed)")
    print(f"  fail_ratio   {nfailed / attempted:.4g} ratio "
          f"({nfailed}/{attempted})")
    if args.trace == 0:
        metrics = {
            "ops_per_s": passed / sum(run.scaled),
            "op_s.p50": statistics.median(run.scaled),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_mb,
        }
        notes = {"op_s.p50": f"n={len(ops)} ops",
                 "setup_s": f"median of {len(setups)} set-ups"}
        result = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
        for k, v in metrics.items():
            print(f"  {k:<12} {v:.6g} {UNITS[k]}  {notes.get(k, '')}")
    else:
        from tracer import unit
        result = {k: {"value": v, "unit": unit(k)} for k, v in layer.items()}
        for k, v in layer.items():
            print(f"  {k:<42} {v:.6g} {unit(k)}")
        write_spans(args, record, ops, spans)
    print("record: " + json.dumps(record))
    print(json.dumps({"correct": nfailed == 0, "attempted": attempted,
                      "failed": nfailed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
