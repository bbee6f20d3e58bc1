"""Fresh processes the benchmark times: a cold start, or a server.

``python perfbench/child.py once WORKLOAD SEED SECONDS TRACE``
    imports ``repro.api`` and sets up one operation of WORKLOAD
    (resolve the program, generate its inputs, lower it with the
    deadlock certificate) and prints one JSON line with the time of
    each step.  It then runs the operation cold, and warm for SECONDS
    (``workloads.sample_process``; TRACE 1 traces every other warm
    operation), and prints a second JSON line with what it measured.
    The parent times the set-up from spawn to the first line.

``python perfbench/child.py serve``
    starts the config-query service on an ephemeral port with the
    ``repro serve`` defaults, prints one JSON line (``url`` and the
    time of each start-up step), serves until its standard input
    closes, then prints a last JSON line with its peak memory.

Both read ``REPRO_CACHE_DIR`` and ``PYTHONPATH`` from the environment
the parent sets.
"""

import json
import resource
import sys
import time


def _once(workload: str, seed: str, seconds: str, trace: str) -> None:
    began = time.perf_counter()
    import repro.api  # noqa: F401
    from repro.lowering import default_cache
    from tracing import Tracer
    from workloads import OPERATIONS, SCALED, install_wrappers, \
        sample_process
    steps = {"import_s": time.perf_counter() - began}
    tracer = Tracer()
    if trace == "1":
        install_wrappers(tracer)
    operation = OPERATIONS[workload](workload, int(seed), steps)
    steps["lowering_cache_misses"] = default_cache().misses
    print(json.dumps(steps), flush=True)
    record = sample_process(operation, tracer, float(seconds),
                            trace == "1", workload in SCALED)
    print(json.dumps(record), flush=True)


def _serve() -> None:
    began = time.perf_counter()
    from repro import api
    imported = time.perf_counter()
    server = api.serve(port=0)
    started = time.perf_counter()
    print(json.dumps({
        "url": server.url,
        "import_s": imported - began,
        "start_s": started - imported,
    }), flush=True)
    try:
        sys.stdin.read()
    finally:
        server.close(wait_jobs=60.0)
        print(json.dumps({"peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0}), flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "once":
        _once(*sys.argv[2:6])
    elif sys.argv[1] == "serve":
        _serve()
    else:
        raise SystemExit(f"unknown mode {sys.argv[1]!r}")
