"""One repetition of a workload in a fresh process.

    python3 bench/worker.py --workload <name> --seed <n> --mode plain|repeat|traced|cli

``plain`` times set-up and work with no instrumentation, chunk by chunk
(``chunks``), and checks every output; ``repeat`` does the same but leaves
the costly output checks to the ``plain`` repetition of its run, which
must give the same digest; ``traced`` puts spans around every call into
the sumdisc modules, appends them to the workload's span file
(``spans.spans_path``) as JSON lines and derives the per-layer metrics;
``cli`` runs the workload's ``sumdisc`` commands through click.  The last
line of stdout is a JSON record.  A fresh process per repetition matters:
the solver's mask and engine caches live as long as the process does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import threading
from bisect import bisect_left, bisect_right
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from spans import SpanStats, Tracer, percentile, spans_path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Time of the calibration loop when the host the benchmark was written on
# (2-vCPU Xeon) runs at its fast speed: a chunk's time scaled by this over
# the calibration time around and during it is its time in reference seconds.
REFERENCE_S = 0.0016
SAMPLE_PERIOD_S = 0.03
# The numpy scans over packed masks of the discrepancy searches slow down
# less than the calibration loop: their time grows as its time to this
# power (0.60 and 0.62 fitted over 38 runs each of random and local search
# at n=32), so a scan chunk is scaled by the ratio to this power.
SCAN_EXPONENT = 0.6


def _import_sumdisc():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import sumdisc

    if Path(sumdisc.__file__).resolve().parent != SRC / "sumdisc":
        raise SystemExit(f"sumdisc imported from {sumdisc.__file__}, not {SRC}")
    from sumdisc import certifier, family, solver

    return {"certifier": certifier, "family": family, "solver": solver}


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _layer_metrics(stats, chk) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of a traced repetition, and the guards whose
    traced call counts disagree with the workload's own count."""
    from workloads import DiscSearch

    m: dict[str, float] = {}
    for name in ("numtheory.dirichlet_approx", "certifier.select_delta1",
                 "fourier.indicator_fourier", "hypergraph.edge_cardinality"):
        m[f"{name}.calls"] = stats.calls[name]
        m[f"{name}.us"] = stats.mean_us(name)
    m["numtheory.totatives.calls"] = stats.calls["numtheory.totatives"]
    m["numtheory.totatives.s"] = stats.total_s("numtheory.totatives")
    m["certifier.certify.calls"] = stats.calls["certifier.certify"]
    m["certifier.certify.self_us"] = stats.mean_us("certifier.certify", self_time=True)
    m["certifier.sweep_alphas.s"] = stats.total_s("certifier.sweep_alphas")
    p50 = {}
    for n in (4096, 1 << 18):
        durs = stats.within("certifier.certify", f"work.n{n}")
        m[f"certifier.certify.samples.n{n}"] = len(durs)
        p50[n] = percentile(durs, 50) / 1e3 if durs else 0.0
        m[f"certifier.certify.p50_us.n{n}"] = p50[n]
        m[f"certifier.certify.p99_us.n{n}"] = percentile(durs, 99) / 1e3 if durs else 0.0
    m["certifier.scale_ratio"] = p50[1 << 18] / p50[4096] if p50[4096] else 0.0
    m["hypergraph.translate_values.calls"] = stats.calls["hypergraph.translate_values"]
    m["hypergraph.translate_values.ms"] = stats.total_s("hypergraph.translate_values") * 1e3
    for n in (16, 32):
        durs = stats.within("hypergraph.canonical_edge_masks", f"setup.n{n}")
        m[f"hypergraph.canonical_edge_masks.s.n{n}"] = sum(durs) / 1e9
    m["family.build_family.s"] = stats.total_s("family.build_family")
    m["solver.engine_build.self_s"] = stats.self_ns["solver.engine_build"] / 1e9
    m["solver.evaluate.calls"] = stats.calls["solver.evaluate"]
    m["solver.evaluate.self_ms"] = stats.self_ns["solver.evaluate"] / 1e6
    # the searches of the work phase, not the set-up warm-up
    search_ns = {name: sum(stats.within(name, "work"))
                 for name in ("solver.random_coloring_upper", "solver.local_search_upper",
                              "solver.exact_discrepancy")}
    for name, ns in search_ns.items():
        m[f"{name}.s"] = ns / 1e9
    m["solver.scan_us"] = search_ns["solver.random_coloring_upper"] / DiscSearch.TRIALS / 1e3
    m["trace.spans"] = sum(stats.calls.values())
    # a traced count that a workload fixes must match the workload's own
    mismatched = [f"traced {name} = {m[name]}, workload made {value}"
                  for name, value in chk.guards.items()
                  if name in m and m[name] != value]
    m.update(chk.layers)
    m.update(chk.guards)
    return m, mismatched


def calibrate() -> float:
    """Seconds of a fixed loop of ``Fraction`` and dict arithmetic: the
    host's speed right now.  When the host slows down, Python code that
    allocates and branches (the certifier's ``Fraction`` arithmetic, the
    enumeration, the engine, exact search) slows down about as much as this
    loop, up to 1.7x; a tight integer loop slows down less and tracks it
    about half as well."""
    start = perf_counter()
    x = Fraction(0)
    for i in range(1, 300):
        x += Fraction(i, i + 7)
    d: dict[int, int] = {}
    for i in range(6000):
        d[i % 97] = d.get(i % 97, 0) + i * 3 // 7
    return perf_counter() - start


class Sampler:
    """Times the calibration loop every SAMPLE_PERIOD_S in a background
    thread while the worker runs its chunks, so that a chunk of several
    seconds is scaled by the host's speed during it, not at its ends.  The
    worker is pinned to one CPU, so the samples measure the CPU the chunks
    run on; they take about 5% of it."""

    def __init__(self):
        self.times: list[float] = []
        self.secs: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(SAMPLE_PERIOD_S):
            t = perf_counter()
            self.secs.append(calibrate())
            self.times.append(t)

    def during(self, start: float, end: float) -> list[float]:
        """Calibration times of the samples that started in [start, end]."""
        return self.secs[bisect_left(self.times, start):bisect_right(self.times, end)]

    @contextmanager
    def running(self):
        self._thread.start()
        try:
            yield self
        finally:
            self._stop.set()
            self._thread.join()


def chunk_kind(name: str) -> str:
    """``import``, ``setup`` or ``work``: the part of a repetition a chunk is in."""
    if name == "import":
        return name
    return "work" if name.startswith("work.") else "setup"


def run_rep(workload: str, seed: int, mode: str) -> dict:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cal_before = calibrate()
    start = perf_counter()
    modules = _import_sumdisc()
    from workloads import WORKLOADS

    # every timed piece of set-up and work is one chunk (name, seconds,
    # scale); the calibration loop is timed before, during and after it
    chunks = [("import", perf_counter() - start,
               2 * REFERENCE_S / (cal_before + calibrate()))]
    wl = WORKLOADS[workload]
    tracer = None
    if mode == "traced":
        tracer = Tracer(f"{workload}-seed{seed}-pid{os.getpid()}")
        tracer.install(modules)
    sampler = Sampler()

    def phase(name, scan=False):
        return tracer.span(name) if tracer else nullcontext()

    @contextmanager
    def lap(name, scan=False):
        before = calibrate()
        t = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            cals = [before, *sampler.during(t, end), calibrate()]
            ratio = REFERENCE_S * len(cals) / sum(cals)
            chunks.append((name, end - t, ratio ** SCAN_EXPONENT if scan else ratio))

    chunk = phase if tracer else lap
    rec = {"workload": workload, "seed": seed, "mode": mode}
    with sampler.running() if not tracer else nullcontext():
        try:
            with phase("setup"):
                t_setup = perf_counter()
                state = wl.setup(seed, chunk)
                setup_s = perf_counter() - t_setup
        except Exception as exc:  # set-up failure fails the whole repetition
            rec.update(attempted=1, failed=1, failures=[f"setup: {exc!r}"])
            return rec
        with phase("work"):
            t_work = perf_counter()
            results = wl.work(state, seed, chunk)
            end = perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s, work_s = end - start, end - t_work
    if not tracer:  # the chunks' own times, without the calibrations between them
        kinds = {"import": 0.0, "setup": 0.0, "work": 0.0}
        for name, secs, _ in chunks:
            kinds[chunk_kind(name)] += secs
        wall_s, setup_s, work_s = sum(kinds.values()), kinds["setup"], kinds["work"]
    chk = wl.check(state, results, verify=mode != "repeat")
    rec.update(
        wall_s=wall_s, setup_s=setup_s, work_s=work_s, chunks=chunks,
        ops=wl.work_ops(state), ops_per_s=wl.work_ops(state) / work_s,
        peak_rss_mb=peak_rss_mb,
        attempted=chk.attempted, failed=chk.failed, failures=chk.failures,
        digest=_digest(chk.digest_lines), cli_digest=_digest(chk.cli_lines),
        guards=chk.guards)
    if tracer:
        tracer.write(spans_path(workload))
        rec["layers"], mismatched = _layer_metrics(SpanStats(tracer.spans), chk)
        if mismatched:
            rec["failed"] = rec["attempted"]
            rec["failures"] += mismatched
    return rec


def run_cli(workload: str, seed: int) -> dict:
    _import_sumdisc()
    from workloads import WORKLOADS

    chk, times = WORKLOADS[workload].cli(seed)
    return {"workload": workload, "seed": seed, "mode": "cli",
            "attempted": chk.attempted, "failed": chk.failed,
            "failures": chk.failures, "cli_digest": _digest(chk.cli_lines),
            "layers": times}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "repeat", "traced", "cli"), required=True)
    args = ap.parse_args()
    if args.mode == "cli":
        rec = run_cli(args.workload, args.seed)
    else:
        rec = run_rep(args.workload, args.seed, args.mode)
    print(json.dumps(rec))


if __name__ == "__main__":
    main()
