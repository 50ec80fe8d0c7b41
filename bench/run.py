"""Benchmark entry point: run workloads, print and record every metric.

    python3 bench/run.py [--workload W ...] [--seed S] [--trace [0|1]]
                         [--smoke] [--out FILE] [--expect-digest PREV]
    python3 bench/run.py --compare A B

Each workload runs in a fresh process (``workload.py``), one at a time,
after a few set-up-only processes that sample set-up time.  Every metric
prints as ``workload metric value unit``; the run is appended to ``--out``
(JSON lines) and the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric names,
units, directions and bounds are the ones declared in ``BENCHMARK.json``,
and so is the run length, ``run_seconds``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
WORKLOADS = ("table3-cold", "table3-warm", "serial-elision", "manycore-paper")
#: CPUs the benchmark may use, read before anything narrows the set.
CPUS = tuple(sorted(os.sched_getaffinity(0)))
#: Set-up-only processes per workload; their median is ``setup_s``.
SETUP_PROBES = 7
#: ``fastest_cpu`` rounds (~2 ms each) a set-up probe may wait for a
#: fast spell.  Ungated, the median start-up followed the host's load.
SETUP_WAIT_ROUNDS = 100
#: Measured seconds per workload under ``--smoke``.
SMOKE_SECONDS = 1.0
#: Runs a side of ``--compare`` needs before a verdict other than unresolved.
MIN_COMPARE_RUNS = 3


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values: List[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def timing(values: List[float]) -> dict:
    """A workload timing as the benchmark reports it: the fastest of the
    run's repetitions of one deterministic piece of work, with the median
    and upper quartile kept beside it.

    On the shared hosts this runs on, each vCPU runs 1.5-2x slower for
    seconds at a time while its host sibling is busy, and in busy hours
    that is most of the time.  A slowdown only ever adds time, so the
    fastest repetition is what the code costs; the median and even the
    lower quartile follow the host.  ``setup_s`` stays a median of its
    start-ups.
    """
    q = quartiles(values)
    return {"value": min(values), "median": q["value"], "q3": q["q3"], "n": q["n"]}


def _probe_loop() -> int:
    """A fixed ~0.5 ms of dict-heavy interpreter work, like the simulator's."""
    table: Dict[int, int] = {}
    for i in range(4000):
        table[i & 255] = table.get(i & 255, 0) + i
    return len(table)


#: Fastest ``_probe_loop`` this process has timed on any CPU.
_fastest_probe_s = float("inf")
#: How much slower than that a CPU may run and still count as fast.
FAST_SPELL = 1.15


def fastest_cpu(rounds: int = 1) -> int:
    """The CPU of ``CPUS`` that runs ``_probe_loop`` fastest right now;
    the calling process is left pinned to it.

    Which vCPU is slowed changes every fraction of a second, so a piece of
    work started on the faster one is more often measured unslowed.  With
    ``rounds`` > 1 it probes again, up to that many times, until a CPU
    runs within ``FAST_SPELL`` of the fastest probe this process has
    seen: short work then starts in one of the host's fast spells.
    """
    global _fastest_probe_s
    for _ in range(rounds):
        best, best_s = CPUS[0], float("inf")
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            for _ in range(2):  # the first loop after a migration runs cold
                start = time.perf_counter()
                _probe_loop()
                elapsed = time.perf_counter() - start
                if elapsed < best_s:
                    best, best_s = cpu, elapsed
        seen, _fastest_probe_s = _fastest_probe_s, min(_fastest_probe_s, best_s)
        if seen < float("inf") and best_s <= FAST_SPELL * seen:
            break
    os.sched_setaffinity(0, {best})
    return best


# ----------------------------------------------------------------------
# Running workloads
# ----------------------------------------------------------------------
def child_env() -> dict:
    """The caller's environment without REPRO_* settings, which would
    redirect stores, ledgers, workers or the engine fast path."""
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def run_child(argv: List[str], timeout: float, cpus=CPUS) -> dict:
    """Run ``workload.py`` on ``cpus`` and return its record, with
    ``setup_s`` measured from the moment the process was started."""
    cmd = [sys.executable, str(BENCH_DIR / "workload.py")] + argv
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        start_new_session=True, preexec_fn=lambda: os.sched_setaffinity(0, cpus),
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as exc:
        # Timed out, interrupted or terminated: the process group holds the grid
        # workers too, so stop them all before leaving.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(f"{' '.join(argv)}: no result within {timeout:.0f}s") from None
        raise
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)}: exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    record["setup_s"] = record.pop("setup_done") - spawned
    return record


def run_workload(workload: str, args, seconds: float, spans: Path) -> dict:
    argv = ["--workload", workload, "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", str(args.trace)]
    if args.smoke:
        argv.append("--smoke")
    # Each probe starts in a fast spell of one CPU, if one comes within
    # SETUP_WAIT_ROUNDS, and stays on that CPU.
    def probes(count: int) -> List[float]:
        return [run_child(argv + ["--setup-only"], 120,
                          {fastest_cpu(SETUP_WAIT_ROUNDS)})["setup_s"]
                for _ in range(count)]

    # Half the probes run before the measured process and half after, a
    # run length apart, so one slow spell of the host does not set them all.
    setups = probes(SETUP_PROBES // 2)
    record = run_child(argv + ["--spans", str(spans)], timeout=100 + 2.5 * seconds)
    del record["setup_s"]
    setups += probes(SETUP_PROBES - SETUP_PROBES // 2)
    record["metrics"]["setup_s"] = quartiles(setups)
    record["metrics"]["error_rate"] = {"value": record["failed"] / record["attempted"]}
    return record


def digest_mismatches(expected: List[str], actual: List[str]) -> int:
    """Points whose result digest differs from the expected run's."""
    return sum(a != b for a, b in zip(expected, actual)) + abs(len(expected) - len(actual))


def previous_records(path: Path) -> List[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def expected_digests(path: Path, workload: str, seed: int, smoke: bool) -> List[str]:
    for run in reversed(previous_records(path)):
        entry = run["workloads"].get(workload)
        if entry and run["seed"] == seed and run["smoke"] == smoke:
            return entry["point_digests"]
    raise SystemExit(f"run.py: {path} has no {workload} run at seed {seed}"
                     f"{' (smoke)' if smoke else ''} to compare digests with")


def report(spec: dict, records: Dict[str, dict], trace: bool) -> dict:
    """Print every declared metric and build the result line."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    results = {}
    for workload, record in records.items():
        values = record["layers"] if trace else {
            name: m["value"] for name, m in record["metrics"].items()}
        metrics = {}
        for metric in declared:
            name, unit = metric["name"], metric["unit"]
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{workload} {name} {values[name]!r} {unit}")
        print(f"{workload} error_rate {record['metrics']['error_rate']['value']!r} fraction")
        print(f"{workload} result_digest {record['result_digest']}")
        results[workload] = metrics
    failed = sum(r["failed"] for r in records.values())
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": failed,
        # One workload (how the benchmark is normally run): its metrics;
        # several: one metrics object per workload.
        "metrics": next(iter(results.values())) if len(results) == 1 else results,
    }


# ----------------------------------------------------------------------
# Comparing runs
# ----------------------------------------------------------------------
def side_values(spec: dict, path: Path) -> Dict[tuple, List[float]]:
    """(workload, metric) -> that metric's value in every full run of a
    file: untraced (traced runs measure fewer untraced units), not smoke,
    and as long as ``run_seconds``."""
    values: Dict[tuple, List[float]] = {}
    for run in previous_records(path):
        if run["trace"] or run["smoke"] or run["seconds"] != spec["run_seconds"]:
            continue
        for workload, entry in run["workloads"].items():
            for name, metric in entry["metrics"].items():
                values.setdefault((workload, name), []).append(metric["value"])
    if not values:
        raise SystemExit(f"run.py: {path} holds no untraced, non-smoke run of "
                         f"{spec['run_seconds']} s to compare")
    return values


def verdict(base: List[float], change: List[float], bound: float, better: str) -> str:
    """better / worse / same / unresolved for ``change`` against ``base``.

    Unresolved when a side has too few runs or its own spread (quartile
    distance over median) exceeds the bound, unless every run of the
    change beats every run of the base.  A gain needs the change to win
    nine tenths of the index-paired runs by more than the base's spread.
    """
    sign = 1.0 if better == "higher" else -1.0
    if min(len(base), len(change)) < MIN_COMPARE_RUNS:
        return "unresolved"
    a, b = quartiles(base), quartiles(change)
    spread = lambda q: (q["q3"] - q["q1"]) / abs(q["value"]) if q["value"] else 0.0  # noqa: E731
    if max(spread(a), spread(b)) > bound:
        every_run_better = min(sign * v for v in change) > max(sign * v for v in base)
        return "better" if every_run_better else "unresolved"
    delta = sign * (b["value"] - a["value"])
    if a["value"] and -delta / abs(a["value"]) > bound:
        return "worse"
    pairs = list(zip(base, change))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    if wins >= 0.9 * len(pairs) and delta > a["q3"] - a["q1"]:
        return "better"
    return "same"


def compare(spec: dict, base_path: Path, change_path: Path) -> int:
    base, change = side_values(spec, base_path), side_values(spec, change_path)
    print(f"{'workload':<15} {'metric':<12} {'base median [q1, q3] n':<34} "
          f"{'change median [q1, q3] n':<34} {'bound':>6}  verdict")
    worse = 0
    for metric in spec["end_to_end"]:
        for workload in WORKLOADS:
            key = (workload, metric["name"])
            if key not in base or key not in change:
                continue
            cells = []
            for values in (base[key], change[key]):
                q = quartiles(values)
                cells.append(f"{q['value']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}] n={q['n']}")
            v = verdict(base[key], change[key], metric["bound"], metric["better"])
            worse += v == "worse"
            print(f"{workload:<15} {metric['name']:<12} {cells[0]:<34} {cells[1]:<34} "
                  f"{metric['bound']:>6.2f}  {v}")
    return 1 if worse else 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 = the paper's fixed inputs")
    parser.add_argument("--seconds", type=float,
                        help="accepted only as BENCHMARK.json's run_seconds, which "
                             "fixes the run length")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics and write a span file")
    parser.add_argument("--smoke", action="store_true",
                        help=f"two apps on the 4-core machine, {SMOKE_SECONDS:g} s per workload")
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out" / "results.jsonl",
                        help="JSON-lines file this run is appended to")
    parser.add_argument("--expect-digest", type=Path, metavar="PREV",
                        help="count points whose result differs from PREV's run as failed")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                        help="compare the runs recorded in two --out files")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare(spec, *args.compare)
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        # Both sides of a comparison must measure equally long.
        print(f"run.py: the run length is BENCHMARK.json's run_seconds "
              f"({spec['run_seconds']}), not {args.seconds:g}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    # Turn SIGTERM into an exception so a running workload is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    records = {}
    for workload in args.workload or WORKLOADS:
        spans = args.out.parent / f"spans-{workload}-seed{args.seed}.json"
        try:
            record = run_workload(workload, args, seconds, spans)
        except RuntimeError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        if args.expect_digest:
            expected = expected_digests(args.expect_digest, workload, args.seed, args.smoke)
            record["digest_mismatches"] = digest_mismatches(expected, record["point_digests"])
            record["failed"] += record["digest_mismatches"]
            record["metrics"]["error_rate"]["value"] = record["failed"] / record["attempted"]
        records[workload] = record

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "seed": args.seed, "seconds": seconds, "trace": args.trace,
            "smoke": args.smoke, "time": time.time(),
            "host": {"python": platform.python_version(), "machine": platform.machine(),
                     "cpus": len(os.sched_getaffinity(0))},
            "workloads": records,
        }) + "\n")
    print(json.dumps(report(spec, records, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
