"""Record the reference outputs that the dodec checks compare against.

    python3 perfbench/record_refs.py

Writes perfbench/refs/dodec_series.json (the exact `dodec series` output for
each of the 16 cosets and each nmax the workload draws) and
perfbench/refs/dodec_E.json (dodec_E_kernel at the E points of the pinned
seeds 0..19).  Run it only at a commit whose outputs are known good: the
benchmark treats any later difference as a failed op.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402

PINNED_SEEDS = range(20)


def main():
    import tempfile
    out = HERE.parent / ".perfbench"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        inp = workloads.make_inputs("dodec", Path(tmp))
        data = inp.files["dodec"]
        series = {}
        lo, hi = workloads.DODEC_SERIES_NMAX
        for mu in workloads.dodec_cosets():
            for nmax in range(lo, hi + 1):
                op = workloads.Op("dodec_series", argv=[
                    "dodec", "series", "--data", data,
                    "--mu", workloads.vec_arg(mu), "--nmax", str(nmax)])
                series[workloads.series_key(mu, nmax)] = workloads.run_op(op)
        (HERE / "refs" / "dodec_series.json").write_text(
            json.dumps(series, indent=1, sort_keys=True) + "\n")
        print(f"{len(series)} series references", flush=True)
        from ngontheta.dodec import dodec_E_kernel
        values = {}
        for seed in PINNED_SEEDS:
            for i in range(workloads.DODEC_E_OPS):
                x = workloads.e_point(seed, i)
                key = workloads.vec_arg(x)
                values[key] = dodec_E_kernel(inp.objects["dodec"], x)
                print(seed, i, values[key], flush=True)
        (HERE / "refs" / "dodec_E.json").write_text(
            json.dumps(values, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
