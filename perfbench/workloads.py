"""The four benchmark workloads.

Each workload function takes a :class:`Context` and fills its
:class:`Outcome`: end-to-end metrics from untraced operations, and,
when the context traces, per-layer metrics from the traced ones.  The
rationale for each workload is in ``README.md`` beside this file.
"""

from __future__ import annotations

import contextlib
import functools
import http.client
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from tracing import Tracer, from_json, operations, patch_function, \
    patch_method, self_time_by_name, wrap

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

#: Fresh processes per run of a closed-loop workload; ``setup_s``,
#: ``cold_op_s`` and ``peak_rss_mb`` are medians over them.
COLD_STARTS = 4
#: Server starts per ``serve_mixed`` run; ``setup_s`` is their median.
SERVER_STARTS = 5
#: Seconds between re-sends of a miss query while its sweep runs.
MISS_POLL_S = 0.025
#: Misses per ``serve_mixed`` run, one due in each fifth of the
#: window, and the shapes the seed picks from.  The first miss of a
#: server converges about 0.5 s slower than the rest, so ``cold_op_s``
#: (their median) needs several.  A miss sweep takes about 1.5 s, so a
#: sweep runs for about half of a 15 s window: hits while the server is
#: idle and hits beside a sweep both have samples, for
#: ``serve.sweep_interference_ratio``.
MISSES_PER_RUN = 5
MISS_SHAPES = [(24, 24, 8), (24, 28, 8), (28, 24, 8), (20, 32, 8),
               (32, 20, 8), (26, 26, 8), (22, 30, 8), (30, 22, 8)]
#: Report-store keys seeded before the server starts.
SEEDED_SHAPES = [(32, 32, 16), (48, 48, 16)]
#: A miss whose query still returns 202 after this long has failed.
MISS_DEADLINE_S = 60.0
#: Seconds a child process may take beyond its measuring time before
#: it is killed, so that a hung run still ends within three minutes.
CHILD_GRACE_S = 40.0

HDIFF = {
    "hdiff_paper": dict(shape=(128, 128, 80), width=8, devices=1,
                        sim_config={}),
    "hdiff_4dev_link": dict(shape=(64, 64, 32), width=4, devices=4,
                            sim_config={"network_words_per_cycle": 1 / 3,
                                        "network_latency": 64}),
}
SWEEP_SHAPE = (96, 96, 64)

#: Closed-loop workloads whose host times are reported at a reference
#: host speed.  Their operations are mostly interpreter work, and on
#: a shared host the interpreter's speed drifts by a third over minutes
#: (one 4dev run took 1.4 s or 2.2 s depending on when it ran).  Each
#: process's times are scaled by ``PROBE_REF_S`` over the mean of the
#: speed probes it ran (see ``speed_probe``).  The numpy data pass of
#: ``hdiff_paper`` does not follow the probe.
SCALED = {"hdiff_4dev_link", "explore_sweep"}
#: Seconds ``speed_probe`` takes on the reference host.
PROBE_REF_S = 0.2


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    #: name -> (value, unit, sample count)
    end_to_end: Dict[str, Tuple[float, str, int]] = field(
        default_factory=dict)
    per_layer: Dict[str, Tuple[float, str, int]] = field(
        default_factory=dict)
    notes: List[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def count(self, ok: bool, what: str = "") -> bool:
        """Count one attempted operation; a failed check is reported
        and counted, never raised."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"check failed: {what}", file=sys.stderr)
        return ok


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    trace: bool
    env: Dict[str, str]
    tracer: Tracer = field(default_factory=Tracer)
    outcome: Outcome = field(default_factory=Outcome)

    def child(self, *args: str, stdin=subprocess.DEVNULL
              ) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=self.root, env=self.env, stdin=stdin,
            stdout=subprocess.PIPE, text=True)


# -- the operations (run by child.py) -------------------------------------------

class HdiffRun:
    """One validated ``api.run`` of an hdiff workload, set up."""

    root_name = "api.run"
    cycles_key = "cycles"

    def __init__(self, workload: str, seed: int, steps: Dict[str, float]):
        spec = HDIFF[workload]
        self.devices = spec["devices"]
        from repro import api
        from repro.explore import default_inputs
        from repro.simulator import SimulatorConfig
        self.api = api
        began = time.perf_counter()
        self.program = api.resolve_program(
            "horizontal_diffusion",
            shape=spec["shape"]).with_vectorization(spec["width"])
        resolved = time.perf_counter()
        self.inputs = default_inputs(self.program, seed)
        generated = time.perf_counter()
        api.lower(self.program).certificate()
        steps.update(resolve_s=resolved - began,
                     inputs_s=generated - resolved,
                     lower_s=time.perf_counter() - generated)
        self.config = SimulatorConfig(**spec["sim_config"])
        self.device_of = api.session(self.program).placement(
            "contiguous", self.devices) if self.devices > 1 else None

    def __call__(self) -> dict:
        result = self.api.run(self.program, self.inputs,
                              config=self.config, devices=self.devices)
        return {"validated": result.validated,
                "cycles": result.simulation.cycles}

    def traced_extra(self, tracer: Tracer) -> dict:
        """The timing engine alone, on the same program, config and
        placement, as its own operation."""
        from repro.simulator import simulate_control
        with tracer.span("control") as root:
            simulate_control(self.program, self.inputs, self.config,
                             self.device_of)
        return {"control_s": root.duration}

    @staticmethod
    def check(out: Outcome, workload: str, result: dict) -> None:
        expected = EXPECTED[workload]["sim_cycles"]
        out.count(result["validated"] and result["cycles"] == expected,
                  f"{result} (expected {expected} cycles)")


def entry_fingerprint(report) -> List[list]:
    """Per entry: point, simulated, simulated_cycles, rank, pareto (in
    the JSON form ``expected.json`` records)."""
    return json.loads(json.dumps(
        [[e.point.to_json(), e.simulated, e.simulated_cycles, e.rank,
          e.pareto] for e in report.entries]))


class Sweep:
    """One ``api.explore`` sweep from empty result and lowering caches,
    as a fresh ``repro explore`` process would run it."""

    root_name = "api.explore"
    cycles_key = "best"

    def __init__(self, workload: str, seed: int, steps: Dict[str, float]):
        from repro import api
        from repro.explore import default_inputs
        self.api = api
        self.seed = seed
        began = time.perf_counter()
        self.program = api.resolve_program("horizontal_diffusion",
                                           shape=SWEEP_SHAPE)
        resolved = time.perf_counter()
        self.inputs = default_inputs(self.program, seed)
        generated = time.perf_counter()
        api.lower(self.program).certificate()
        steps.update(resolve_s=resolved - began,
                     inputs_s=generated - resolved,
                     lower_s=time.perf_counter() - generated)
        self.last_report = None

    def __call__(self) -> dict:
        from repro.explore import ResultCache
        from repro.lowering import reset_default_cache
        reset_default_cache()
        report = self.api.explore(
            self.program, strategy="greedy", beam_width=8,
            backend="thread", workers=os.cpu_count() or 1,
            persist=False, cache=ResultCache(), inputs=self.inputs,
            seed=self.seed)
        self.last_report = report
        return {"fingerprint": entry_fingerprint(report),
                "best": report.best.simulated_cycles
                if report.best else None}

    def traced_extra(self, tracer: Tracer) -> dict:
        """The last sweep's counts and its lowering-cache statistics."""
        from repro.lowering import default_cache
        report = self.last_report
        hits, misses = default_cache().stats()
        return {"points": len(report.entries),
                "simulated": sum(e.simulated for e in report.entries),
                "result_cache_hits": report.cache_hits,
                "pareto": len(report.pareto_frontier),
                "eq1_error_max": report.worst_model_error,
                "lowering_hits": hits, "lowering_misses": misses}

    @staticmethod
    def check(out: Outcome, workload: str, result: dict) -> None:
        expected = EXPECTED[workload]
        want = expected["fingerprint"]
        got = result["fingerprint"]
        for index in range(max(len(got), len(want))):
            entry = got[index] if index < len(got) else None
            recorded = want[index] if index < len(want) else None
            out.count(entry == recorded,
                      f"sweep entry {index}: {entry} != {recorded}")
        out.count(result["best"] == expected["sim_cycles"],
                  f"best cycles {result['best']} != "
                  f"{expected['sim_cycles']}")


OPERATIONS = {"hdiff_paper": HdiffRun, "hdiff_4dev_link": HdiffRun,
              "explore_sweep": Sweep}


def speed_probe() -> float:
    """The host's current interpreter speed: seconds a fixed pure-Python
    loop takes.  It uses nothing from the program, so a change to the
    program cannot change the probe."""
    began = time.perf_counter()
    counts: Dict[int, int] = {}
    for i in range(1_200_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    return time.perf_counter() - began


def sample_process(operation, tracer: Tracer, seconds: float,
                   trace: bool, scaled: bool) -> dict:
    """What one fresh process measures (run by ``child.py once``): the
    cold first operation and the process's peak memory after it, then
    warm operations back to back for ``seconds`` (at least one, or two
    when tracing; it stops once less than half of the last step's time
    is left, so that on average it does not overrun ``seconds``).  When
    tracing, every other warm operation is traced, so traced and
    untraced operations share the same process state.

    Times are wall seconds.  When ``scaled``, a speed probe runs right
    after set-up and after each operation, and ``speed_factor`` brings
    this process's times to the reference host speed; else it is 1."""
    record = {"results": [], "errors": [], "warm": [], "traced": [],
              "extras": [], "probes": []}

    def probe() -> None:
        if scaled:
            record["probes"].append(speed_probe())

    probe()
    began = time.perf_counter()
    try:
        record["results"].append(operation())
    except Exception as exc:  # counted by the parent, never fatal
        record["errors"].append(repr(exc))
    record["cold_s"] = time.perf_counter() - began
    probe()
    record["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    deadline = time.perf_counter() + seconds
    minimum = 2 if trace else 1
    done = 0
    step = 0.0
    while done < minimum or time.perf_counter() + step / 2 < deadline:
        traced = trace and done % 2 == 1
        done += 1
        tracer.enabled = traced
        ok = True
        began = time.perf_counter()
        try:
            with tracer.span(operation.root_name):
                record["results"].append(operation())
        except Exception as exc:  # counted by the parent, never fatal
            record["errors"].append(repr(exc))
            ok = False
        # A failed operation still took this long.
        record["traced" if traced else "warm"].append(
            time.perf_counter() - began)
        probe()
        try:
            if traced and ok:
                record["extras"].append(operation.traced_extra(tracer))
        except Exception as exc:  # counted by the parent, never fatal
            record["errors"].append(repr(exc))
        finally:
            tracer.enabled = False
        step = time.perf_counter() - began
    record["spans"] = [s.to_json() for s in tracer.records()]
    record["speed_factor"] = PROBE_REF_S / statistics.mean(
        record["probes"]) if scaled else 1.0
    return record


# -- statistics ---------------------------------------------------------------

def tail(values: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    ``(value, percentile)``.  Below 21 samples that percentile would
    not lie above the median, so p90, interpolated between the samples,
    stands in for it.  It is steadier than the maximum, which a single
    slow run sets."""
    ordered = sorted(values)
    if len(ordered) < 2:
        return ordered[-1], 100.0
    if len(ordered) < 21:
        return statistics.quantiles(ordered, n=10,
                                    method="inclusive")[-1], 90.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def median_of(rows: List[Dict[str, float]], key: str) -> float:
    return statistics.median(row.get(key, 0.0) for row in rows) \
        if rows else 0.0


def report_latency(ctx: Context, samples: List[float], rate: float,
                   cold: List[float]) -> None:
    """The end-to-end latency metrics: ``samples`` are warm operations
    and ``cold`` operations that start from no warm state.  Throughput
    (``rate``) is printed, not reported: in a closed loop it is the
    client count over the mean latency."""
    out = ctx.outcome
    value, percentile = tail(samples)
    out.end_to_end["op_p50_ms"] = (statistics.median(samples) * 1e3,
                                   "ms", len(samples))
    out.end_to_end["op_tail_ms"] = (value * 1e3, "ms", len(samples))
    out.end_to_end["cold_op_s"] = (statistics.median(cold), "s",
                                   len(cold))
    if len(samples) < 50:
        out.notes.append("warm operations (s): " + " ".join(
            f"{x:.3f}" for x in samples))
    out.notes.append("cold operations (s): " + " ".join(
        f"{x:.3f}" for x in cold))
    out.notes.append(f"op_tail_ms is p{percentile:.2f} of "
                     f"{len(samples)} samples; {rate:.4g} operations/s")


def report_cold_starts(ctx: Context, starts: List[Tuple[float, dict]]):
    out = ctx.outcome
    n = len(starts)
    steps = [info for _, info in starts]
    out.end_to_end["setup_s"] = (
        statistics.median(s for s, _ in starts), "s", n)
    out.end_to_end["peak_rss_mb"] = (
        median_of(steps, "peak_rss_mb"), "MB", n)
    if ctx.trace:
        out.per_layer["api.import_s"] = (
            median_of(steps, "import_s"), "s", n)
        out.per_layer["run.inputs_s"] = (
            median_of(steps, "inputs_s"), "s", n)
        out.per_layer["lowering.setup_lower_s"] = (
            median_of(steps, "lower_s"), "s", n)
        out.per_layer["lowering.setup_cache_misses"] = (
            median_of(steps, "lowering_cache_misses"), "count", n)


# -- tracing hooks --------------------------------------------------------------

def _record_profile(span, result) -> None:
    profile = result.profile
    span.attrs.update(
        cycles=profile.cycles, plan_count=profile.plan_count,
        window_count=profile.window_count,
        drift_windows=profile.drift_windows,
        scalar_cycles=profile.scalar_cycles,
        batched_cycles=profile.batched_cycles)


def install_wrappers(tracer: Tracer) -> None:
    """Wrap the public layer entry points the workloads reach."""
    import repro.api  # noqa: F401  (load every layer first)
    import repro.explore
    import repro.lowering
    import repro.run
    import repro.simulator
    from repro.explore import Pruner
    from repro.lowering import LoweredProgram

    functions = [
        (repro.simulator.simulate, "simulator.simulate",
         _record_profile),
        (repro.simulator.simulate_control, "simulator.control", None),
        (repro.run.run_reference, "run.reference", None),
        (repro.lowering.lower, "lowering.lower", None),
        (repro.lowering.analysis_for, "lowering.analysis", None),
        (repro.lowering.graph_for, "lowering.graph", None),
        (repro.lowering.compiled_stencil, "lowering.compile", None),
    ]
    for func, name, on_result in functions:
        patch_function("repro", func, wrap(tracer, func, name, on_result))
    patch_method(LoweredProgram, "certificate", tracer,
                 "lowering.certificate")
    patch_method(LoweredProgram, "sdfg", tracer, "lowering.sdfg")
    patch_method(Pruner, "predict", tracer, "explore.prune")


def op_layers(ctx: Context, root_name: str) -> List[Dict[str, float]]:
    """Per traced operation named ``root_name``: summed self time per
    layer (every ``lowering.*`` span folds into ``lowering``), plus
    the simulator profile counts and the simulate-stage extent."""
    rows = []
    for root, spans in operations(ctx.tracer.records(), root_name):
        row: Dict[str, float] = {}
        for name, seconds in self_time_by_name(root, spans).items():
            key = "lowering" if name.startswith("lowering.") else name
            row[key] = row.get(key, 0.0) + seconds
        sims = [s for s in spans if s.name == "simulator.simulate"]
        for key in ("cycles", "plan_count", "window_count",
                    "drift_windows", "scalar_cycles", "batched_cycles"):
            row[key] = sum(s.attrs.get(key, 0) for s in sims)
        row["sim_wall_sum"] = sum(s.duration for s in sims)
        if sims:
            row["sim_extent"] = (max(s.end for s in sims) -
                                 min(s.start for s in sims))
        rows.append(row)
    return rows


def report_simulator_layers(ctx: Context, rows: List[Dict[str, float]],
                            control_s: float) -> None:
    out = ctx.outcome
    n = len(rows)
    simulate_s = median_of(rows, "simulator.simulate")
    plans = median_of(rows, "plan_count")
    out.per_layer["simulator.simulate_s"] = (simulate_s, "s", n)
    out.per_layer["simulator.control_s"] = (control_s, "s", n)
    out.per_layer["simulator.data_s"] = (
        simulate_s - control_s if control_s else 0.0, "s", n)
    for key in ("plan_count", "window_count", "drift_windows",
                "scalar_cycles"):
        out.per_layer[f"simulator.{key}"] = (
            median_of(rows, key), "count", n)
    out.per_layer["simulator.mean_batch"] = (
        median_of(rows, "batched_cycles") / plans if plans else 0.0,
        "cycles", n)
    out.per_layer["simulator.host_cycles_per_s"] = (
        median_of(rows, "cycles") / simulate_s if simulate_s else 0.0,
        "1/s", n)
    out.per_layer["lowering.lower_s"] = (
        median_of(rows, "lowering"), "s", n)


def report_overhead(ctx: Context, traced: List[float],
                    untraced: List[float]) -> None:
    if traced and untraced:
        ctx.outcome.per_layer["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(untraced),
            "ratio", len(traced))


def write_spans(ctx: Context, workload: str) -> None:
    out_dir = ctx.root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload}-seed{ctx.seed}-spans.json"
    spans = ctx.tracer.records()
    path.write_text(json.dumps([s.to_json() for s in spans]))
    ctx.outcome.notes.append(f"{len(spans)} spans written "
                             f"to {path.relative_to(ctx.root)}")


# -- hdiff_paper, hdiff_4dev_link and explore_sweep -----------------------------

def closed_loop_workload(ctx: Context, workload: str) -> None:
    """A closed loop of operations, one at a time, spread over
    ``COLD_STARTS`` fresh processes that each get an equal share of the
    run.  Pooling warm operations across processes averages over
    per-process state (allocator and page placement) that otherwise
    sets one process's speed for its whole life."""
    out = ctx.outcome
    starts = []
    for index in range(COLD_STARTS):
        began = time.perf_counter()
        share = ctx.seconds / COLD_STARTS
        proc = ctx.child("once", workload, str(ctx.seed), str(share),
                         str(int(ctx.trace)))
        watchdog = threading.Timer(share + CHILD_GRACE_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - began
            done = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait()
        finally:
            watchdog.cancel()
        if code != 0 or not done:
            raise RuntimeError(f"a {workload} process failed")
        record = {**json.loads(ready), **json.loads(done)}
        starts.append((setup_s * record["speed_factor"], record))
        for result in record["results"]:
            OPERATIONS[workload].check(out, workload, result)
        for error in record["errors"]:
            out.count(False, f"{workload} operation raised {error}")
        ctx.tracer.extend(from_json(span, index)
                          for span in record["spans"])

    records = [record for _, record in starts]
    wall = [x for r in records for x in r["warm"]]
    untraced = [x * r["speed_factor"] for r in records for x in r["warm"]]
    cold = [r["cold_s"] * r["speed_factor"] for r in records]
    report_cold_starts(ctx, starts)
    if untraced and cold:
        report_latency(ctx, untraced, len(wall) / sum(wall), cold)
    if workload in SCALED and wall:
        out.notes.append(
            f"host times are scaled to a {PROBE_REF_S * 1e3:g} ms speed "
            f"probe; unscaled, op p50 {statistics.median(wall) * 1e3:.1f} "
            f"ms and cold op "
            f"{statistics.median(r['cold_s'] for r in records):.3f} s")
    cycles = [r[OPERATIONS[workload].cycles_key] for record in records
              for r in record["results"]]
    cycles = [c for c in cycles if c is not None]
    if cycles:
        out.end_to_end["sim_cycles"] = (
            float(statistics.median(cycles)), "cycles", len(cycles))
    if not ctx.trace:
        return
    rows = op_layers(ctx, OPERATIONS[workload].root_name)
    extras = [x for r in records for x in r["extras"]]
    report_overhead(ctx, [x * r["speed_factor"] for r in records
                          for x in r["traced"]], untraced)
    if not extras:
        return
    if OPERATIONS[workload] is HdiffRun:
        # The layer times are wall-clock, so their shares are of the
        # wall-clock run.
        report_hdiff_layers(ctx, rows, extras, wall)
    else:
        report_sweep_layers(ctx, rows, extras)


def report_hdiff_layers(ctx: Context, rows, extras, untraced):
    out = ctx.outcome
    n = len(rows)
    control_s = statistics.median(x["control_s"] for x in extras)
    report_simulator_layers(ctx, rows, control_s)
    out.per_layer["run.reference_s"] = (
        median_of(rows, "run.reference"), "s", n)
    out.per_layer["run.validate_s"] = (median_of(rows, "api.run"), "s", n)
    run_p50 = statistics.median(untraced)
    data_s = out.per_layer["simulator.data_s"][0]
    reference_s = out.per_layer["run.reference_s"][0]
    out.notes.append(
        f"share of the untraced run p50 ({run_p50:.3f} s): data pass + "
        f"reference {(data_s + reference_s) / run_p50:.0%}, timing engine "
        f"{control_s / run_p50:.0%}")


def report_sweep_layers(ctx: Context, rows, extras):
    out = ctx.outcome
    n = len(rows)
    workers = os.cpu_count() or 1
    report_simulator_layers(ctx, rows, control_s=0.0)
    pl = out.per_layer
    pl["explore.prune_s"] = (median_of(rows, "explore.prune"), "s", n)
    pl["explore.simulate_s"] = (median_of(rows, "sim_wall_sum"), "s", n)
    busy = [r["sim_wall_sum"] / (workers * r["sim_extent"])
            for r in rows if r.get("sim_extent")]
    pl["explore.worker_busy_ratio"] = (
        statistics.median(busy) if busy else 0.0, "ratio", len(busy))
    for key in ("points", "simulated", "result_cache_hits"):
        pl[f"explore.{key}"] = (median_of(extras, key), "count", n)
    pl["explore.pruned"] = (statistics.median(
        x["points"] - x["simulated"] for x in extras), "count", n)
    pl["explore.pareto_yield"] = (statistics.median(
        x["pareto"] / x["simulated"] for x in extras), "ratio", n)
    pl["explore.eq1_error_max"] = (
        median_of(extras, "eq1_error_max"), "ratio", n)
    pl["lowering.cache_misses"] = (
        median_of(extras, "lowering_misses"), "count", n)
    pl["lowering.cache_hit_ratio"] = (statistics.median(
        x["lowering_hits"] / (x["lowering_hits"] + x["lowering_misses"])
        for x in extras), "ratio", n)


# -- serve_mixed ----------------------------------------------------------------

class _Connection:
    """One kept-alive HTTP/1.1 client connection to the server.  After
    an error it is closed, and the next request opens it again."""

    def __init__(self, server: "_Server"):
        self.conn = http.client.HTTPConnection(server.host, server.port,
                                               timeout=10)

    def get(self, path: str) -> Tuple[int, dict]:
        try:
            self.conn.request("GET", path)
            response = self.conn.getresponse()
            return response.status, json.loads(response.read())
        except BaseException:
            self.conn.close()
            raise

    def close(self) -> None:
        self.conn.close()


class _Server:
    """A ``repro serve`` instance in its own process."""

    def __init__(self, ctx: Context):
        began = time.perf_counter()
        self.proc = ctx.child("serve", stdin=subprocess.PIPE)
        watchdog = threading.Timer(CHILD_GRACE_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        self.setup_s = time.perf_counter() - began
        if not line:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("serve process failed to start")
        self.info = json.loads(line)
        host, port = self.info["url"].rsplit("//", 1)[1].split(":")
        self.host, self.port = host, int(port)

    def close(self) -> dict:
        """Stop the server; returns its last report (peak memory)."""
        if self.proc.returncode is not None:
            return {}
        try:
            rest, _ = self.proc.communicate(timeout=CHILD_GRACE_S + 35)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rest, _ = self.proc.communicate()
        lines = rest.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


@dataclass
class _Hit:
    start: float
    rtt: float
    lookup: float
    traced: bool


@dataclass
class _Miss:
    shape: tuple
    path: str
    due: float
    job_id: str = ""
    accepted: float = 0.0
    settled: float = 0.0
    ok: bool = False
    next_poll: float = 0.0
    sweep_s: float = 0.0


def serve_mixed(ctx: Context) -> None:
    """Two closed-loop clients of one server: warm hits on the seeded
    keys, and a few seed-chosen misses that each fund a sweep."""
    from repro import api
    from repro.explore import ConfigSpace

    out = ctx.outcome
    expected = EXPECTED["serve_mixed"]
    rng = random.Random(ctx.seed)

    # The report store the server warm-loads: one sweep per key, run
    # like a miss job (greedy beam 4 over a two-device space).
    fronts = {}
    for shape in SEEDED_SHAPES:
        program = api.resolve_program("horizontal_diffusion", shape=shape)
        report = api.explore(
            program, strategy="greedy", beam_width=4, backend="thread",
            persist=False, seed=ctx.seed,
            space=ConfigSpace.default_for(program, max_devices=2))
        report.store()
        fronts[shape] = (
            report.best.to_json(),
            sorted(e.simulated_cycles for e in report.pareto_frontier))
    seeded_cycles = fronts[SEEDED_SHAPES[0]][0]["simulated_cycles"]
    out.count(seeded_cycles == expected["sim_cycles"],
              f"seeded best cycles {seeded_cycles} != "
              f"{expected['sim_cycles']}")

    servers: List[_Server] = []
    try:
        for _ in range(SERVER_STARTS):
            if servers:
                servers[-1].close()
            servers.append(_Server(ctx))
        _measure_serve(ctx, servers, fronts, rng)
    finally:
        for server in servers:
            server.close()


def _measure_serve(ctx: Context, servers: List[_Server], fronts,
                   rng: random.Random) -> None:
    from repro.explore import report_store_dir

    out = ctx.outcome
    server = servers[-1]
    out.end_to_end["setup_s"] = (statistics.median(
        s.setup_s for s in servers), "s", len(servers))

    keys = [(endpoint, shape) for shape in SEEDED_SHAPES
            for endpoint in ("best", "pareto")]

    def path_for(endpoint: str, shape) -> str:
        return (f"/v1/{endpoint}?program=horizontal_diffusion"
                f"&shape={','.join(map(str, shape))}")

    def check_hit(endpoint: str, shape, status: int, body: dict) -> bool:
        best, pareto = fronts[shape]
        if status != 200:
            return False
        if endpoint == "best":
            got = body.get("best") or {}
            return (got.get("point") == best["point"] and
                    got.get("simulated_cycles") ==
                    best["simulated_cycles"])
        return sorted(e.get("simulated_cycles")
                      for e in body.get("pareto", ())) == pareto

    # Each client's connection, and one for the queries around the
    # measured window.  First-time resolution of each key is memoized
    # by the server, so the warm-up queries take it out of the window.
    connections = [_Connection(server) for _ in range(3)]
    control = connections[2]
    for endpoint, shape in keys:
        status, body = control.get(path_for(endpoint, shape))
        out.count(check_hit(endpoint, shape, status, body),
                  f"warm-up query {endpoint} {shape} -> {status}")

    window = ctx.seconds
    miss_shapes = rng.sample(MISS_SHAPES, MISSES_PER_RUN)
    misses = [_Miss(shape, path_for("best", shape),
                    due=window * (0.03 + 0.19 * i +
                                       rng.uniform(0, 0.04)))
              for i, shape in enumerate(miss_shapes)]
    hits: List[List[_Hit]] = [[], []]
    client_rngs = [random.Random(rng.random()) for _ in hits]
    began = time.perf_counter()
    deadline = began + window

    def hit(index: int, traced: bool) -> None:
        endpoint, shape = client_rngs[index].choice(keys)
        start = time.perf_counter()
        try:
            with ctx.tracer.span("serve.query") if traced \
                    else contextlib.nullcontext():
                status, body = connections[index].get(
                    path_for(endpoint, shape))
        except (OSError, http.client.HTTPException, ValueError) as exc:
            out.count(False, f"hit {endpoint} {shape} raised {exc!r}")
            return
        rtt = time.perf_counter() - start
        out.count(check_hit(endpoint, shape, status, body),
                  f"hit {endpoint} {shape} -> {status}")
        hits[index].append(_Hit(start - began, rtt,
                                body.get("lookup_seconds") or 0.0, traced))

    def miss_step(miss: _Miss) -> bool:
        """Send or re-send one miss query on client 0's connection;
        True once it is settled (a failed miss settles when it fails)."""
        try:
            status, body = connections[0].get(miss.path)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            status, body = None, {"error": repr(exc)}
        now = time.perf_counter()
        if not miss.job_id:
            ok = status == 202 and body.get("kind") == "miss"
            if out.count(ok, f"miss {miss.shape} -> {status} {body}"):
                miss.job_id = body["job"]["job_id"]
                miss.accepted = now
                miss.next_poll = now + MISS_POLL_S
            return not ok
        if status == 200:
            cycles = (body.get("best") or {}).get("simulated_cycles")
            miss.ok = out.count(bool(cycles) and cycles > 0,
                                f"miss {miss.shape} best cycles {cycles}")
        elif status != 202 or now - miss.accepted > MISS_DEADLINE_S:
            out.count(False, f"miss {miss.shape} -> {status} {body}")
        else:
            miss.next_poll = now + MISS_POLL_S
            return False
        miss.settled = now
        return True

    def client(index: int) -> None:
        pending = list(misses) if index == 0 else []
        active: Optional[_Miss] = None
        done = 0
        while True:
            now = time.perf_counter()
            if active is not None and now >= active.next_poll:
                if miss_step(active):
                    active = None
                continue
            if active is None and pending and \
                    now - began >= pending[0].due and now < deadline:
                active = pending.pop(0)
                if miss_step(active):
                    active = None
                continue
            if now >= deadline:
                if active is None:
                    break
                time.sleep(max(0.0, active.next_poll - now))
                continue
            hit(index, ctx.trace and done % 2 == 1)
            done += 1

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(len(hits))]
    ctx.tracer.enabled = ctx.trace
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ctx.tracer.enabled = False

    store = report_store_dir()
    for miss in misses:
        if not miss.ok:
            continue
        status, body = control.get(f"/v1/jobs/{miss.job_id}")
        job = body.get("job", {})
        out.count(status == 200 and job.get("state") == "done",
                  f"job {miss.job_id} {status} {job.get('state')}")
        report_key = job.get("report_key")
        if report_key:
            miss.sweep_s = json.loads(
                (store / report_key).read_text())["wall_seconds"]
    status, body = control.get("/v1/metricsz")
    for connection in connections:
        connection.close()
    counters: Dict[str, float] = {}
    for record in body.get("metrics", {}).get("counters", ()):
        counters[record["name"]] = counters.get(record["name"], 0) + \
            record["value"]
    final = server.close()
    seeded_cycles = fronts[SEEDED_SHAPES[0]][0]["simulated_cycles"]

    all_hits = [h for per_client in hits for h in per_client]
    untraced = [h for h in all_hits if not h.traced]
    converged = [m for m in misses if m.settled]
    converge_s = [m.settled - m.accepted for m in converged]
    if untraced and converged:
        window_s = max(h.start + h.rtt for h in untraced)
        report_latency(ctx, [h.rtt for h in untraced],
                       len(untraced) / window_s, converge_s)
    out.end_to_end["sim_cycles"] = (float(seeded_cycles), "cycles",
                                    len(all_hits))
    out.end_to_end["peak_rss_mb"] = (final.get("peak_rss_mb", 0.0),
                                     "MB", 1)
    out.notes.append(f"{len(all_hits)} hits, {len(converged)} of "
                     f"{len(misses)} misses settled: "
                     + ", ".join(f"{m.shape} {s:.2f} s"
                                 for m, s in zip(converged, converge_s)))
    if ctx.trace:
        pl = out.per_layer
        n = len(all_hits)
        pl["api.import_s"] = (statistics.median(
            s.info["import_s"] for s in servers), "s", len(servers))
        pl["serve.start_s"] = (statistics.median(
            s.info["start_s"] for s in servers), "s", len(servers))
        pl["serve.lookup_s"] = (statistics.median(
            h.lookup for h in all_hits), "s", n)
        pl["serve.http_s"] = (statistics.median(
            h.rtt - h.lookup for h in all_hits), "s", n)
        hits_n = counters.get("serve.query_hits", 0)
        misses_n = counters.get("serve.query_misses", 0)
        pl["serve.hit_ratio"] = (
            hits_n / (hits_n + misses_n) if hits_n + misses_n else 0.0,
            "ratio", int(hits_n + misses_n))
        pl["serve.jobs_enqueued"] = (
            counters.get("serve.jobs_enqueued", 0), "count", 1)
        busy = [(m.accepted - began, m.settled - began)
                for m in converged]
        during = [h.rtt for h in untraced
                  if any(a <= h.start <= b for a, b in busy)]
        idle = [h.rtt for h in untraced
                if not any(a <= h.start <= b for a, b in busy)]
        if during and idle:
            pl["serve.sweep_interference_ratio"] = (
                statistics.median(during) / statistics.median(idle),
                "ratio", len(during))
        swept = [m for m in converged if m.ok and m.sweep_s]
        if swept:
            pl["service.sweep_s"] = (statistics.median(
                m.sweep_s for m in swept), "s", len(swept))
            pl["service.job_overhead_s"] = (statistics.median(
                m.settled - m.accepted - m.sweep_s for m in swept),
                "s", len(swept))
        report_overhead(ctx, [h.rtt for h in all_hits if h.traced],
                        [h.rtt for h in untraced])


WORKLOADS = {
    **{name: functools.partial(closed_loop_workload, workload=name)
       for name in OPERATIONS},
    "serve_mixed": serve_mixed,
}
