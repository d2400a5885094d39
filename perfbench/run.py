"""The tbh benchmark: time to a passing certificate, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass verifies every item of the workload once, in a fresh interpreter
(``worker.py``), in an order drawn from the seed, and checks every result
against the recorded outputs in ``expected/``. Passes repeat while the next
one is expected to end within S seconds; there is always at least one (with
--trace 1, at least one untraced and one traced). Everything is one process
and one thread at a time.

--trace 0 reports the end-to-end metrics. Item times are corrected for the
machine's speed while they ran, which a probe in the worker samples (see
``corrected_item_s``); the uncorrected pass wall time is printed beside them.
Set-up time is the median of several timed launches that stop after the
imports and the item list.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones, checks that the top-level spans account for the
traced pass's wall time, and writes the spans of the last traced pass to
``.bench_out/``. The last line of output is one JSON object.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = sorted(path.stem for path in (HERE / "expected").glob("*.json"))

SETUP_LAUNCHES = 11
TAIL_BEYOND = 10  # the tail percentile has at least this many items above it
TAIL_MIN_ITEMS = 20  # below this, the tail is the slowest item
MIN_COVERAGE = 0.98  # share of a traced pass's wall time inside top-level spans
RUN_LIMIT_S = 170  # every worker must end before this much time has passed
# Times are scaled to a machine on which the contention probe's sample
# takes this long (typical on the 2-vCPU Xeon VM where the benchmark was
# written).
NOMINAL_PROBE_S = 0.00022


def git_sha():
    """HEAD's commit from ``.git`` in the checkout, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def context(seed):
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "seed": seed,
    }


def launch(args, deadline):
    """Run the worker with ``args``; return (stdout, wall seconds)."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - start),
    )
    wall = perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: worker {' '.join(args)} exited with {proc.returncode}")
    return proc.stdout, wall


def run_passes(workload, seed, seconds, trace, deadline, spans_file):
    """Untraced passes, alternating with traced ones when ``trace`` is set."""
    rng = random.Random(seed)
    passes = {False: [], True: []}
    walls = {False: [], True: []}
    start = perf_counter()
    traced = False
    while True:
        args = [workload, str(rng.randrange(2**32)), "1" if traced else "0"]
        if traced:
            args.append(str(spans_file))
        out, wall = launch(args, deadline)
        passes[traced].append(json.loads(out))
        walls[traced].append(wall)
        if trace:
            traced = not traced
        if trace and not passes[True]:
            continue
        elapsed = perf_counter() - start
        if elapsed + max(walls[traced]) > seconds:
            return passes[False], passes[True]


def tail(values):
    """(value, label) of the highest percentile with TAIL_BEYOND items above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < TAIL_MIN_ITEMS:
        return ordered[-1], f"slowest of {n} items"
    index = n - TAIL_BEYOND - 1
    return ordered[index], f"p{100 * (index + 1) / n:.1f} of {n} items, {TAIL_BEYOND} above it"


def corrected_item_s(p):
    """A pass's item times, each scaled by the probe speed measured during it.

    The scale is NOMINAL_PROBE_S times the mean speed (1 / sample) of the
    samples taken while the item ran, or of the whole pass for an item too
    short to hold one. Samples come at even wall-clock intervals, so their
    mean speed is the machine's mean speed over the item.
    """
    samples = p["probe_s"]
    starts = [start for start, _ in samples]

    def speed(chosen):
        return statistics.fmean(NOMINAL_PROBE_S / d for _, d in chosen)

    pass_speed = speed(samples) if samples else 1.0
    out = {}
    for key, (start, seconds) in p["item_s"].items():
        inside = samples[bisect_left(starts, start) : bisect_right(starts, start + seconds)]
        out[key] = seconds * (speed(inside) if inside else pass_speed)
    return out


def end_to_end(passes, setup):
    """Each item's median corrected time over the passes; verify_s is their sum."""
    corrected = [corrected_item_s(p) for p in passes]
    item_s = [statistics.median(c[key] for c in corrected) for key in corrected[0]]
    verify_s = sum(item_s)
    tail_s, tail_label = tail(item_s)
    size = passes[0]["size"]
    wall_s = statistics.median(p["verify_s"] for p in passes)
    print(f"uncorrected pass wall time {wall_s:.6g} s (median of {len(passes)} passes)")
    return [
        ("setup_s", statistics.median(setup), "s", f"median of {len(setup)} launches"),
        ("verify_s", verify_s, "s", f"sum over items of the median of {len(passes)} passes"),
        ("item_s.p50", statistics.median(item_s), "s", f"{len(item_s)} items"),
        ("item_s.tail", tail_s, "s", tail_label),
        ("dims_per_s", size / verify_s, "1/s", f"{size} basis vectors per pass"),
        (
            "peak_rss_mb",
            statistics.median(p["maxrss_kb"] for p in passes) / 1024,
            "MB",
            "median over passes",
        ),
    ]


def per_layer(untraced, traced):
    """Median over traced passes of every span and counter, per pass."""

    def med(get):
        return statistics.median(get(p) for p in traced)

    rows = []
    for name in traced[0]["trace"]["layers"]:
        for field, unit in (("s", "s"), ("self_s", "s"), ("calls", "count")):
            value = med(lambda p: p["trace"]["layers"][name][field])
            rows.append((f"{name}.{field}", value, unit, ""))
    counts = traced[0]["trace"]["counts"]
    for name in counts:
        if name != "seminormal.check_full_relations.exact":
            rows.append((name, med(lambda p: p["trace"]["counts"][name]), "count", ""))
    rows.append(
        (
            "seminormal.entry_table.per_module",
            med(lambda p: p["trace"]["layers"]["seminormal.entry_table"]["calls"] / p["attempted"]),
            "count",
            "entry tables built per item",
        )
    )

    def exact_ratio(p):
        c = p["trace"]["counts"]
        total = c["seminormal.check_full_relations.relations"]
        return c["seminormal.check_full_relations.exact"] / total if total else 0.0

    rows.append(("seminormal.check_full_relations.exact_ratio", med(exact_ratio), "ratio", ""))
    untraced_s = statistics.median(p["verify_s"] for p in untraced)
    traced_s = med(lambda p: p["verify_s"])
    rows.append(
        (
            "trace.overhead_ratio",
            traced_s / untraced_s,
            "ratio",
            f"traced {traced_s:.3f} s over untraced {untraced_s:.3f} s",
        )
    )
    rows.append(
        (
            "trace.coverage",
            med(lambda p: p["trace"]["top_level_s"] / p["verify_s"]),
            "ratio",
            "top-level spans over traced verify_s",
        )
    )
    return rows


def accounting_failures(traced):
    """Traced passes whose spans leave time untimed or have negative self time."""
    bad = []
    for p in traced:
        coverage = p["trace"]["top_level_s"] / p["verify_s"]
        if coverage < MIN_COVERAGE or p["trace"]["min_self_s"] < -1e-9:
            bad.append({"coverage": coverage, "min_self_s": p["trace"]["min_self_s"]})
    return bad


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S
    if not (ROOT / "src" / "tbh" / "__init__.py").is_file():
        sys.exit(f"error: no tbh package under {ROOT / 'src'}")
    print("context " + json.dumps(context(args.seed)))

    setup = []
    if not args.trace:
        for _ in range(SETUP_LAUNCHES):
            setup.append(launch([args.workload, "setup"], deadline)[1])
    spans_file = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
    untraced, traced = run_passes(
        args.workload, args.seed, args.seconds, args.trace, deadline, spans_file
    )

    runs = untraced + traced
    attempted = sum(p["attempted"] for p in runs)
    failed = sum(p["failed"] for p in runs)
    for p in runs:
        for failure in p["failures"]:
            print("failure " + json.dumps(failure))
    problems = accounting_failures(traced)
    for problem in problems:
        print("accounting " + json.dumps(problem))

    rows = per_layer(untraced, traced) if args.trace else end_to_end(untraced, setup)
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} item checks failed)")
    for name, value, unit, note in rows:
        print(f"{name} {value:.6g} {unit}" + (f" ({note})" if note else ""))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
