#!/usr/bin/env python3
"""Benchmark of qwtrap: one closed-loop client, one process, one thread.

    python3 bench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Workloads (see ``bench/NOTES.md``): ``spectrum``, ``cesaro``, ``verify``,
``cli``.  Each run sets up ``SETUP_REPEATS`` times in fresh processes and
reports the median as ``setup_s``, then runs whole cycles of operations
until ``--seconds`` of operation time have passed, checking every result
outside the timed interval.  With ``--trace 1`` it instead runs half the
time untraced, then the same operations again with spans around qwtrap's
public functions, and reports the per-layer metrics and the tracing
overhead.  ``all`` runs every workload untraced, each in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run environment and the figures that are not gated (tail
latency, failed fraction, per-kind medians).  Everything the run writes
goes under ``bench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = Path("bench") / "out"

WORKLOADS = ("spectrum", "cesaro", "verify", "cli")
#: fresh-process set-ups per run; their median is ``setup_s``
SETUP_REPEATS = 5
#: fresh processes per start-up probe in the traced run
PROBE_REPEATS = 3
#: samples that must lie beyond the reported tail latency
TAIL_BEYOND = 10
#: wall-clock cap on one measuring loop, so a run ends well inside 180 s
LOOP_DEADLINE_S = 110.0

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"calls": "count", "s": "s", "self_s": "s", "interpreter_s": "s", "import_s": "s",
                   "phases_found": "count", "calls_per_field": "calls/field",
                   "runtime_warnings": "count", "cone_sites": "sites", "ns_per_cone_site": "ns",
                   "trace_overhead_frac": "frac", "ops": "count"}


def python_child(args: list[str], timeout: float = 120.0) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout, check=True)


# ------------------------------------------------------------ environment --


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qwtrap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }


# ----------------------------------------------------------------- set-up --


def workdir(workload: str) -> str:
    return str(OUT / workload)


def setup_probe(workload: str, seed: int) -> None:
    """In a fresh process: time ``import qwtrap`` plus the workload's set-up."""
    t0 = time.perf_counter()
    import workloads
    t1 = time.perf_counter()
    workloads.WORKLOADS[workload](seed, workdir(workload)).setup()
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))


def measure_setup(workload: str, seed: int) -> list[float]:
    out = []
    for _ in range(SETUP_REPEATS):
        done = python_child([str(BENCH / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)])
        out.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return out


def startup_probes() -> tuple[float, float]:
    """Median wall time of a bare interpreter and of ``import qwtrap`` on top of it."""
    def wall(code: str) -> float:
        t0 = time.perf_counter()
        python_child(["-c", code])
        return time.perf_counter() - t0
    bare = statistics.median(wall("pass") for _ in range(PROBE_REPEATS))
    imp = statistics.median(wall("import qwtrap") for _ in range(PROBE_REPEATS))
    return bare, imp - bare


# --------------------------------------------------------------- measuring --


class Record(NamedTuple):
    kind: str
    cycle: int
    latency: float
    failure: str | None
    rss_kb: int


def measure(wl, seconds: float | None, cycles: int | None = None, tracer=None):
    """Whole cycles until ``seconds`` of op time (or ``cycles`` cycles) have run.

    Returns ``(records, cycles_run, truncated)``, one record per operation.
    """
    records = []
    busy, k, start = 0.0, 0, time.perf_counter()
    truncated = False
    while (busy < seconds) if cycles is None else (k < cycles):
        for op in wl.cycle(k):
            if time.perf_counter() - start > LOOP_DEADLINE_S:
                truncated = True
                break
            t0 = time.perf_counter()
            try:
                out = tracer.call(f"op.{wl.name}", op.call, op=True) if tracer else op.call()
                failure = None
            except Exception as exc:  # an op that raises is a failed op, the loop goes on
                out, failure = None, f"raised {exc!r}"
            latency = time.perf_counter() - t0
            busy += latency
            if failure is None:
                try:
                    if tracer:
                        with tracer.paused():
                            failure = op.check(out)
                    else:
                        failure = op.check(out)
                except Exception as exc:
                    failure = f"check raised {exc!r}"
            records.append(Record(op.kind, k, latency, failure, getattr(out, "rss_kb", 0)))
        if truncated:
            break
        k += 1
    return records, k, truncated


def tail(latencies: list[float]) -> dict:
    """Highest nearest-rank percentile with ``TAIL_BEYOND`` samples beyond it."""
    n = len(latencies)
    if n < 2 * TAIL_BEYOND:
        return {"omitted": f"{n} ops; the tail needs at least {2 * TAIL_BEYOND}"}
    ordered = sorted(latencies)
    idx = n - TAIL_BEYOND - 1
    return {"value": ordered[idx] * 1e3, "unit": "ms", "percentile": 100.0 * (idx + 1) / n,
            "samples": n, "beyond": n - idx - 1}


def per_kind(records) -> dict:
    kinds: dict[str, list[float]] = {}
    for r in records:
        kinds.setdefault(r.kind, []).append(r.latency)
    return {k: {"n": len(v), "p50_ms": statistics.median(v) * 1e3} for k, v in kinds.items()}


def throughput(records) -> float:
    """Median over whole cycles of ops per second of op time.

    A cycle holds the full mix of kinds, so each cycle's rate is comparable,
    and the median keeps a slow spell of the machine during one cycle out.
    """
    cycles: dict[int, list[float]] = {}
    for r in records:
        cycles.setdefault(r.cycle, []).append(r.latency)
    full = max(len(c) for c in cycles.values())
    return statistics.median(len(c) / sum(c) for c in cycles.values() if len(c) == full)


def run_untraced(workload: str, seed: int, seconds: float, detail: dict) -> tuple[dict, list]:
    import workloads
    setups = measure_setup(workload, seed)
    wl = workloads.WORKLOADS[workload](seed, workdir(workload))
    wl.setup()
    records, cycles, truncated = measure(wl, seconds)
    lat = [r.latency for r in records]
    if workload == "cli":
        rss_kb = max(r.rss_kb for r in records)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": throughput(records),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    detail.update(cycles=cycles, truncated=truncated, setup_samples_s=setups,
                  seed_affects_inputs=wl.seed_affects_inputs, op_tail_ms=tail(lat), kinds=per_kind(records))
    return metrics, records


def run_traced(workload: str, seed: int, seconds: float, detail: dict) -> tuple[dict, list]:
    import workloads
    from tracer import Tracer, layer_metrics

    def make():
        cls = workloads.WORKLOADS[workload]
        if workload == "cli":
            return cls(seed, workdir(workload), in_process=True)
        return cls(seed, workdir(workload))

    interpreter_s, import_s = startup_probes()
    plain = make()
    plain.setup()
    first, cycles, truncated = measure(plain, seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = make()
        tracer.call("setup", traced.setup)
        second, _, truncated_b = measure(traced, None, cycles=cycles, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer)
    metrics["cli.interpreter_s"] = interpreter_s
    metrics["cli.import_s"] = import_s
    untraced = sum(r.latency for r in first)
    metrics["trace_overhead_frac"] = sum(r.latency for r in second) / untraced - 1.0
    metrics["trace.ops"] = len(second)
    os.makedirs(OUT, exist_ok=True)
    spans_path = OUT / f"trace-{workload}.jsonl"
    tracer.write(str(spans_path))
    detail.update(cycles=cycles, truncated=truncated or truncated_b, spans=str(spans_path),
                  span_count=len(tracer.spans), kinds_untraced=per_kind(first), kinds_traced=per_kind(second))
    return metrics, first + second


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


def run_one(args) -> int:
    detail: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    env = environment()
    runner = run_traced if args.trace else run_untraced
    metrics, records = runner(args.workload, args.seed, float(args.seconds), detail)
    env["loadavg_end"] = list(os.getloadavg())
    failures = [(r.kind, r.failure) for r in records if r.failure is not None]
    detail.update(env=env, failed_frac=len(failures) / len(records), failures=failures[:20])

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops {len(records)}  "
          f"cycles {detail['cycles']}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit_of(name)}")
    if not args.trace:
        t = detail["op_tail_ms"]
        if "value" in t:
            print(f"  {'op_tail_ms':34s} {t['value']:14.6g} ms  (p{t['percentile']:.1f}, "
                  f"{t['beyond']} of {t['samples']} beyond)")
        else:
            print(f"  {'op_tail_ms':34s} omitted: {t['omitted']}")
    print(f"  {'failed_frac':34s} {detail['failed_frac']:14.6g} frac  "
          f"({len(failures)} of {len(records)})")
    for kind, why in failures[:5]:
        print(f"  FAILED {kind}: {why}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


def run_every(args) -> int:
    """Each workload untraced in its own process, then one summary table."""
    results, status = {}, 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = done.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-2]) + "\n")
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        results[name]["detail"] = json.loads(lines[-2])["detail"]
        status |= not results[name]["correct"]
    print(f"\n{'workload':10s}" + "".join(f"{m + ' [' + u + ']':>20s}" for m, u in END_TO_END.items())
          + f"{'op_tail_ms [ms]':>20s}{'failed_frac':>14s}")
    for name, res in results.items():
        row = "".join(f"{res['metrics'][m]['value']:20.6g}" for m in END_TO_END)
        t = res["detail"]["op_tail_ms"]
        row += f"{t['value']:20.6g}" if "value" in t else f"{'omitted':>20s}"
        print(f"{name:10s}{row}{res['detail']['failed_frac']:14.6g}")
    print(json.dumps({name: {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
                      for name, res in results.items()}))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20, help="operation time to measure per run (>= 1)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "qwtrap" / "__init__.py").is_file():
        print(f"error: no qwtrap source under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(SRC), str(BENCH)]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_every(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
