"""The repository benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload hdiff_paper --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics (and the cost of
tracing itself).  Both sets of metric names and units are declared in
``BENCHMARK.json``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each invocation is one process with its own temporary cache directory
under ``.bench_tmp/`` in the repository, removed at exit, so nothing
persisted by another run (results, compiled kernels, reports) turns an
operation into a lookup.
"""

import argparse
import importlib.util
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _environment() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cffi": importlib.util.find_spec("cffi") is not None,
        "numba": importlib.util.find_spec("numba") is not None,
        "REPRO_KERNEL_BACKEND": os.environ.get("REPRO_KERNEL_BACKEND"),
    }


def _declared(key: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "api.py").is_file():
        print(f"no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, Context, write_spans

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r} (expected one of "
              f"{', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    key = "per_layer" if args.trace else "end_to_end"
    declared = _declared(key)

    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=scratch_root))
    (scratch / "tmp").mkdir()
    os.environ.pop("REPRO_ARTIFACT_DIR", None)
    os.environ.update(REPRO_CACHE_DIR=str(scratch / "cache"),
                      TMPDIR=str(scratch / "tmp"), PYTHONPATH=str(SRC))
    tempfile.tempdir = None

    print("environment: " + json.dumps(_environment()), flush=True)
    ctx = Context(root=ROOT, seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace), env=dict(os.environ))
    try:
        WORKLOADS[args.workload](ctx)
        if ctx.trace:
            write_spans(ctx, args.workload)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    out = ctx.outcome
    reported = out.per_layer if args.trace else out.end_to_end
    wrong = sorted(name for name, (_, unit, _) in reported.items()
                   if declared.get(name) != unit)
    if wrong:
        print(f"undeclared metrics or units: {wrong}", file=sys.stderr)
        return 1
    missing = set(declared) - set(reported)
    if not args.trace and missing:
        print(f"no measurement for {sorted(missing)}", file=sys.stderr)
        return 1
    for name in sorted(missing):
        # A layer this workload never calls: zero time, zero work.
        reported[name] = (0.0, declared[name], 0)
    for note in out.notes:
        print(note)
    for name in declared:
        value, unit, samples = reported[name]
        print(f"{name} = {value:.6g} {unit} (n={samples})")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": reported[name][0],
                           "unit": reported[name][1]}
                    for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
