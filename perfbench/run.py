"""Layer benchmark for the scheduling and wait-prediction stack.

Run from the repository root::

    python3 perfbench/run.py --workload sched-max --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process

The program is imported from ``src/`` next to this directory; there is
nothing to build.  Each run works in one process and one thread:

1. **Set-up**, repeated ``SETUP_REPEATS`` times (``setup_s`` is the
   median): generate the seed's trace and, for ``service-poll``, record
   the replay's event stream and draw the query plan.  Every repeat must
   build the same inputs.
2. **Measurement**: one checked warm-up pass, then whole timed passes
   over the workload's cells, in blocks of the workload's ``block``
   passes, until ``--seconds`` have gone by and the last block is full.
   Each metric is the median over the blocks of the block's figure (see
   ``block_figures``).
3. **Checks**: every schedule passes ``validate_schedule``; at seed 0
   every cell's mean wait, utilization and wait-prediction MAE equal the
   values pinned in ``pins.json``; on ``service-poll`` one query in
   ``PARITY_EVERY`` is re-answered by an uncached ``predict_wait`` and
   must be bit-identical, and no query may raise; later passes must
   reproduce the first pass's outputs exactly.  A cell that fails a
   check counts all its operations as failed.

With ``--trace 1`` the run instead measures per-layer metrics: after
the warm-up pass, untraced passes alternate with traced ones (at least
two) that run with span wrappers around each layer's entry points (see
``spans.py``).  The traced outputs must equal the untraced ones, every
count must repeat exactly between traced passes, and the layers' self
times plus the residual must add up to the traced wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` /
``attempted`` is the run's failed fraction; it is not a metric of its
own because it is 0 whenever the program is right.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
WORKLOADS = ("sched-smith", "sched-max", "wait-gibbons", "service-poll")
SETUP_REPEATS = 9
#: Tolerance, as a share of traced wall time, of the self-time sum check.
SUM_TOLERANCE = 1e-9

_perf = time.perf_counter


def import_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit if it is missing."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def block_figures(block) -> dict[str, float]:
    """One block's end-to-end figures, from the cheapest instance of each segment.

    Every pass of a block does the same work in the same order, cut into
    the same segments (``cells.PassResult``).  On a shared host a
    neighbour slows stretches of a pass down by up to 2x, in bursts of
    milliseconds to seconds, while the cheapest of a few instances of
    one short segment, taken seconds apart, hardly moves.  So each
    segment counts with its least time over the block's passes: a cell's
    time is the sum of those minima, and its query latencies are the
    minima of the query segments.  Blocks have a fixed number of passes,
    so the figure does not drift with how many passes fit into a run.
    A slow spell that outlasts a whole block still shows.

    Query percentiles are taken per cell and averaged over the cells,
    because the cells' latencies sit apart (an LWF decision is an order
    of magnitude cheaper than a Backfill one), and a percentile of the
    mixture would jump between them.
    """
    first = block[0]
    seconds = 0.0
    p50, p99 = [], []
    for cell, seg in first.segments.items():
        same = [p.segments[cell] for p in block if p.segments[cell].shape == seg.shape]
        best = np.min(np.stack(same), axis=0)
        seconds += float(best.sum())
        q = best[first.queries[cell]]
        p50.append(float(np.percentile(q, 50)))
        p99.append(float(np.percentile(q, 99)))
    return {
        "jobs_per_s": first.jobs / seconds,
        "ops_per_s": first.ops / seconds,
        "query_p50_us": statistics.fmean(p50) * 1e6,
        "query_p99_us": statistics.fmean(p99) * 1e6,
    }


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


class Checker:
    """Counts failed operations against the first pass and the pins."""

    def __init__(self, name: str, seed: int, pins: dict) -> None:
        self.pins = pins.get(name, {}) if seed == 0 else None
        if seed == 0 and not self.pins:
            raise SystemExit(f"perfbench: no pinned outputs for {name} in {PINS}")
        self.reference = None
        self.failed = 0
        self.attempted = 0
        self.problems: list[str] = []

    def add(self, res) -> None:
        self.attempted += res.ops
        self.failed += res.failed
        self.problems += res.problems
        if self.reference is None:
            self.reference = res.outputs
            self.shapes = {c: s.shape for c, s in res.segments.items()}
            if self.pins is not None:
                self._check_pins(res)
            return
        for cell, out in res.outputs.items():
            if out != self.reference[cell]:
                self.failed += res.cell_ops[cell]
                self.problems.append(f"{cell}: outputs differ between passes")
            elif res.segments[cell].shape != self.shapes[cell]:
                self.failed += res.cell_ops[cell]
                self.problems.append(f"{cell}: segments differ between passes")

    def _check_pins(self, res) -> None:
        for cell, pinned in self.pins.items():
            out = res.outputs.get(cell, {})
            bad = [k for k, v in pinned.items() if out.get(k) != v]
            if bad:
                self.failed += res.cell_ops.get(cell, 1)
                self.problems.append(
                    f"{cell}: {', '.join(bad)} differ from pins "
                    f"({[out.get(k) for k in bad]} != {[pinned[k] for k in bad]})"
                )


def _setup(wl, checker: Checker, repeats: int) -> float:
    """Set up ``repeats`` times; the median set-up time."""
    times = []
    digests = set()
    for _ in range(repeats):
        t0 = _perf()
        wl.setup()
        times.append(_perf() - t0)
        digests.add(wl.input_digest())
    if len(digests) != 1:
        checker.failed += 1
        checker.problems.append("set-up built different inputs from one seed")
    return statistics.median(times)


def run_untraced(wl, seconds: float, pins: dict) -> tuple[dict, Checker, dict]:
    checker = Checker(wl.spec.name, wl.seed, pins)
    setup_s = _setup(wl, checker, SETUP_REPEATS)
    # The first pass is checked and untimed: it also pays for lazy
    # imports and first-call set-up inside the program.  The peak RSS is
    # read after it, before the timed passes pile up segment times.
    checker.add(wl.run_pass(check=True))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes = []
    size = wl.spec.block
    t_start = _perf()
    while len(passes) < size or len(passes) % size or _perf() - t_start < seconds:
        gc.collect()  # every pass starts from the same heap
        res = wl.run_pass(check=False)
        checker.add(res)
        passes.append(res)
    blocks = [block_figures(passes[i:i + size]) for i in range(0, len(passes), size)]
    units = {"jobs_per_s": "1/s", "ops_per_s": "1/s", "query_p50_us": "us", "query_p99_us": "us"}
    metrics = {"setup_s": _metric(setup_s, "s")}
    for name, unit in units.items():
        metrics[name] = _metric(statistics.median(b[name] for b in blocks), unit)
    metrics["peak_rss_mb"] = _metric(peak_rss_mb, "MB")
    info = {
        "passes": len(passes),
        "blocks": len(blocks),
        "queries_per_pass": {c: len(q) for c, q in passes[0].queries.items()},
        "jobs_per_pass": passes[0].jobs,
        "ops_per_pass": passes[0].ops,
        "raw_jobs_per_s": statistics.median(p.jobs / p.seconds for p in passes),
    }
    return metrics, checker, info


def _layer_extras(wl, rec) -> dict[str, float]:
    """Per-layer ratios the program counts itself, read after a traced pass.

    The engine's estimate cache counts only its misses outside detail
    mode; the lookups come from the traced run's counter on
    ``SchedulerView.estimate``.
    """
    stats = wl.estimator_stats()
    calls = stats.get("predict_calls", 0)
    fallbacks = sum(stats.get(k, 0) for k in ("fallback_max", "fallback_mean", "fallback_default"))
    lookups = rec.estimate_lookups
    svc = getattr(wl, "service_counters", {})
    queries = svc.get("service.queries", 0)
    return {
        "engine.estimate_cache_hit_ratio": 1 - wl.cache_misses / lookups if lookups else 0.0,
        "estimator.fallback_ratio": fallbacks / calls if calls else 0.0,
        "service.hit_ratio": svc.get("service.cache_hits", 0) / queries if queries else 0.0,
        "service.fallback_simulations": svc.get("service.fallback_simulations", 0),
    }


def run_traced(wl, seconds: float, pins: dict) -> tuple[dict, Checker, dict]:
    from spans import COUNT_METRICS, LAYERS, Recorder, layer_metrics, patched

    checker = Checker(wl.spec.name, wl.seed, pins)
    _setup(wl, checker, 1)
    checker.add(wl.run_pass(check=True))  # checked warm-up pass
    rec = Recorder()
    untraced, traced, layers = [], [], []
    t_start = _perf()
    # Untraced and traced passes alternate, so the overhead ratio compares
    # passes that ran side by side.  Every pass's outputs must equal the
    # warm-up pass's.
    while len(traced) < 2 or _perf() - t_start < seconds:
        gc.collect()
        res = wl.run_pass(check=False)
        checker.add(res)
        untraced.append(res.seconds)
        rec.reset()
        gc.collect()
        with patched(rec):
            res = wl.run_pass(rec, check=False)
        checker.add(res)
        m = layer_metrics(rec, res.seconds)
        m.update(_layer_extras(wl, rec))
        traced.append(res.seconds)
        layers.append(m)
    counted = COUNT_METRICS + ("engine.estimate_cache_hit_ratio", "service.fallback_simulations")
    for name in counted:
        if len({m[name] for m in layers}) != 1:
            checker.failed += 1
            checker.problems.append(f"{name} differs between traced passes")
    for m in layers:
        total = sum(m[f"share.{layer}"] for layer in LAYERS) * m["trace.wall_s"]
        if m["trace.residual_s"] < -SUM_TOLERANCE * m["trace.wall_s"] or not math.isclose(
            total + m["trace.residual_s"], m["trace.wall_s"], rel_tol=SUM_TOLERANCE
        ):
            checker.failed += 1
            checker.problems.append(
                f"layer self times {total} + residual {m['trace.residual_s']} "
                f"!= traced wall {m['trace.wall_s']}"
            )
    units = per_layer_units()
    metrics = {
        name: _metric(statistics.median(m[name] for m in layers), units[name])
        for name in layers[0]
    }
    metrics["workloads.generate_s"] = _metric(wl.generate_s, "s")
    metrics["trace.overhead_ratio"] = _metric(
        statistics.median(traced) / statistics.median(untraced), "ratio"
    )
    return metrics, checker, {"traced_passes": len(traced)}


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, pins: dict):
    import cells

    wl = cells.build(name, seed)
    if trace:
        return run_traced(wl, seconds, pins)
    return run_untraced(wl, seconds, pins)


def _report(name: str, metrics: dict, checker: Checker, info: dict) -> None:
    print(f"== {name}")
    for key, m in metrics.items():
        print(f"  {key:40s} {m['value']:.6g} {m['unit']}")
    frac = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"  {'failed_frac':40s} {frac:.6g} ({checker.failed}/{checker.attempted})")
    for key, value in info.items():
        print(f"  {key:40s} {value}")
    for problem in checker.problems[:20]:
        print(f"  FAILED: {problem}")


def seed0_outputs(name: str) -> dict:
    """The pinnable seed-0 outputs of ``name``'s cells, from one checked pass."""
    import cells

    wl = cells.build(name, 0)
    wl.setup()
    res = wl.run_pass(check=True)
    if res.failed:
        raise SystemExit(f"perfbench: not pinning failed outputs: {res.problems[:3]}")
    keep = ("mean_wait_min", "utilization_pct", "mae_min", "queries", "misses", "max_queue")
    return {
        cell: {k: v for k, v in out.items() if k in keep} for cell, out in res.outputs.items()
    }


def repin(name: str) -> None:
    """Record the seed-0 outputs of ``name``'s cells in ``pins.json``."""
    pins = load_pins()
    pins[name] = seed0_outputs(name)
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"pinned {name}: {pins[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repin", action="store_true",
        help="write the workload's seed-0 outputs to pins.json instead of measuring",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    import_program()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.repin:
        for name in names:
            repin(name)
        return 0
    pins = load_pins()
    metrics: dict = {}
    attempted = failed = 0
    for name in names:
        m, checker, info = run_workload(name, args.seed, args.seconds, bool(args.trace), pins)
        _report(name, m, checker, info)
        attempted += checker.attempted
        failed += checker.failed
        prefix = "" if len(names) == 1 else f"{name}/"
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
