"""sumdisc benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json and bench/README.md): certify_sweep,
twonorm_chain, disc_search.  Each repetition runs in a fresh
single-threaded worker process (bench/worker.py).

--trace 0 repeats the untraced workload until the time is used up and
reports every time in reference seconds (see reference_times).  The
shared host this was written on switches between a fast speed and one up
to 1.7x slower, for a fraction of a second to minutes at a time; wall
times spread by 30% between runs, reference times by a few %.  The first
repetition checks every output; the others must give the same digest.
--trace 1 alternates untraced and traced repetitions, then runs the
workload's CLI commands once, and reports the per-layer metrics; the
traced spans are written under .bench_out/.  Both print one line per
metric with its unit, the machine record and the output digest, and end
with one JSON line:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from importlib import metadata
from pathlib import Path
from time import perf_counter

from spans import OUT_DIR, spans_path
from worker import calibrate, chunk_kind

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 0
MIN_REPS = 3
RUN_TIMEOUT_S = 170  # the whole run must end within 180 s
GUARD_REL_TOL = 1e-9  # min_slack guards are floats
# on each workload, the name its ops_per_s goes by, and how to get it
ALIASES = {
    "certify_sweep": ("certify_per_s", "1/s", lambda m: m["ops_per_s"]),
    "twonorm_chain": ("colorings_per_s", "1/s", lambda m: m["ops_per_s"]),
    "disc_search": ("search_s", "s", lambda m: m["work_s"]),
}


class WorkerFailed(RuntimeError):
    pass


def _calibrate() -> float:
    """Median time in ms of the workers' calibration loop: host speed now."""
    return statistics.median(calibrate() for _ in range(25)) * 1e3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "nproc": os.cpu_count(),
        "mem_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2 ** 20,
        "cpu": _cpu_model(),
        "calib_ms": _calibrate(),
    }


def run_worker(workload: str, seed: int, mode: str, timeout: float) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=max(1.0, timeout))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker for {workload} exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return json.loads(lines[-1])


def _median(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def reference_times(records: list[dict]) -> dict[str, float]:
    """End-to-end metrics with every chunk in reference seconds.

    The same seed gives the same chunks (a few tens of ms to a few s of
    set-up or work) in every repetition.
    Each carries the scale the worker measured for it (``worker.run_rep``:
    the calibration loop's reference time over its time around and during
    the chunk); a chunk's reference time is the median of its scaled times.
    """
    scaled: dict[str, list[float]] = defaultdict(list)
    for r in records:
        for name, secs, scale in r["chunks"]:
            scaled[name].append(secs * scale)
    kinds = {"import": 0.0, "setup": 0.0, "work": 0.0}
    for name, values in scaled.items():
        kinds[chunk_kind(name)] += statistics.median(values)
    return {
        "wall_s": sum(kinds.values()),
        "setup_s": kinds["setup"],
        "work_s": kinds["work"],
        "ops_per_s": records[0]["ops"] / kinds["work"],
        "peak_rss_mb": _median(records, "peak_rss_mb"),
    }


def _spread(values: list[float]) -> str:
    return (f"per repetition: median {statistics.median(values):.6g}, "
            f"min {min(values):.6g}, max {max(values):.6g}")


def main() -> int:
    ap = argparse.ArgumentParser(description="sumdisc benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "sumdisc" / "__init__.py").is_file():
        print(f"no sumdisc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH / "expected.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)

    machine = machine_record()
    start = perf_counter()
    deadline = start + args.seconds
    tag = f"{args.workload}-seed{args.seed}"
    plain: list[dict] = []
    traced: list[dict] = []
    cli = None
    longest = 0.0

    def worker(mode: str) -> dict:
        return run_worker(args.workload, args.seed, mode,
                          start + RUN_TIMEOUT_S - perf_counter())

    try:
        if not args.trace:
            # the first repetition checks every output and so takes longest;
            # the repeats after it set the pace
            plain.append(worker("plain"))
            longest = perf_counter() - start
            repeat_s = 0.0
            while len(plain) < MIN_REPS or perf_counter() + longest < deadline:
                t = perf_counter()
                plain.append(worker("repeat"))
                repeat_s = max(repeat_s, perf_counter() - t)
                longest = repeat_s
        else:
            # pairs of untraced and traced repetitions, leaving room for the
            # CLI pass, which costs about as much as one repetition; the
            # span file holds the traced repetitions of the latest run
            spans_path(args.workload).unlink(missing_ok=True)
            while not traced or perf_counter() + 3 * longest < deadline:
                t = perf_counter()
                plain.append(worker("plain"))
                traced.append(worker("traced"))
                longest = max(longest, (perf_counter() - t) / 2)
            cli = worker("cli")
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    machine["calib_end_ms"] = _calibrate()
    elapsed = perf_counter() - start

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps) + (cli["attempted"] if cli else 0)
    failed = sum(r["failed"] for r in reps) + (cli["failed"] if cli else 0)
    failures = [f for r in reps + ([cli] if cli else []) for f in r["failures"]]
    timed = [r for r in plain if "wall_s" in r]
    traced = [r for r in traced if "layers" in r]
    if not timed or (args.trace and not traced):
        print("error: no repetition finished its set-up:\n" + "\n".join(failures[:10]),
              file=sys.stderr)
        return 1

    # outputs and guards must repeat exactly; for the default seed they must
    # also match those stored at the commit the benchmark was defined on
    digests = {r.get("digest") for r in reps}
    cli_digests = {r.get("cli_digest") for r in reps}
    default_seed = args.seed == DEFAULT_SEED
    want = expected["digests"][args.workload] if default_seed else None
    digest_ok = len(digests) == 1 and (want is None or digests == {want})
    if cli:
        digest_ok = digest_ok and cli_digests == {cli["cli_digest"]}
    if not digest_ok:
        failed = attempted
        failures.append(f"output digest mismatch: runs {sorted(map(str, digests))}, "
                        f"expected {want}, CLI {cli and cli['cli_digest']} "
                        f"vs library {sorted(map(str, cli_digests))}")
    guards = reps[0].get("guards")
    moved = [f"{name} {guards and guards.get(name)!r}, expected {value!r}"
             for name, value in (expected["guards"][args.workload].items()
                                 if default_seed else ())
             if not (guards and math.isclose(guards.get(name, math.nan), value,
                                             rel_tol=GUARD_REL_TOL))]
    if guards is None or any(r.get("guards") != guards for r in reps) or moved:
        failed = attempted
        failures.append("guards differ between repetitions or moved: "
                        + ("; ".join(moved) or "see .bench_out"))

    print("machine " + json.dumps(machine))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced and {len(traced)} traced repetitions in {elapsed:.1f} s")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    best = reference_times(timed)
    for m in spec["end_to_end"]:
        values = [r[m["name"]] for r in timed]
        how = "median" if m["unit"] == "MB" else "reference time, wall time"
        print(f"{m['name']} {best[m['name']]!r} {m['unit']} (of {len(timed)} "
              f"repetitions; {how} {_spread(values)})")
    alias, unit, get = ALIASES[args.workload]
    print(f"{alias} {get(best)!r} {unit}")
    print(f"fail_ratio {failed / attempted!r} ratio ({failed} of {attempted} ops)")
    print(f"digest {sorted(map(str, digests))[0]} "
          + ("(checked against the stored digest)" if want else "(no stored digest for this seed)")
          + ("" if digest_ok else " MISMATCH"))
    for f in failures[:10]:
        print(f"failure {f}")

    if not args.trace:
        metrics = {m["name"]: best[m["name"]] for m in spec["end_to_end"]}
    else:
        # median_low keeps counts whole and reports a value one repetition measured
        layers = {name: statistics.median_low(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers.update(cli["layers"])
        library_s = statistics.median(r["setup_s"] + r["work_s"] for r in timed)
        layers["cli.overhead_s"] = sum(cli["layers"].values()) - library_s
        layers["trace.overhead_s"] = _median(traced, "wall_s") - _median(timed, "wall_s")
        unknown = set(layers) - {m["name"] for m in spec["per_layer"]}
        if unknown:
            print(f"error: per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}",
                  file=sys.stderr)
            return 1
        # a layer the workload bypasses reports 0
        metrics = {m["name"]: layers.get(m["name"], 0) for m in spec["per_layer"]}
        for name, value in metrics.items():
            print(f"layer {name} {value!r} {units[name]}")

    record = {"machine": machine, "args": vars(args), "elapsed_s": elapsed,
              "repetitions": reps, "cli": cli, "metrics": metrics}
    (OUT_DIR / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
