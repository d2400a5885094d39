"""One pass over a workload's items in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD ORDER_SEED TRACE [SPANS_FILE]
    python3 perfbench/worker.py WORKLOAD setup

The first form verifies every item once, in an order drawn from
ORDER_SEED, and prints one JSON object: per item its start (seconds into
the pass) and duration, the pass's wall time, failures and peak memory.
With TRACE=0 it adds the contention probe's samples as (start, duration),
with TRACE=1 the per-layer summary (spans are written to SPANS_FILE when
given). The second form stops after the imports and the item list; timing
it from outside gives the set-up time.
"""

import json
import random
import resource
import signal
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
PROBE_INTERVAL_S = 0.02


def reference():
    """A fixed piece of pure-Python work, independent of ``tbh``, mixed like it:
    rational arithmetic, tuples, sets and dicts."""
    acc = Fraction(0)
    for i in range(1, 16):
        acc += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
    seen = set()
    rows = []
    for i in range(60):
        t = tuple(sorted((i % 5, i % 3, i % 7), reverse=True))
        seen.add(t)
        rows.append([x * 2 for x in t])
    return acc, {t: len(t) for t in seen}, rows


class ContentionProbe:
    """Times ``reference()`` every PROBE_INTERVAL_S seconds while a pass runs.

    On a shared machine other tenants slow this process down by a factor
    that changes within a second. The same factor slows the reference, so
    the samples taken while an item runs give the machine's speed over it.
    """

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        start = perf_counter()
        reference()
        self.samples.append((start, perf_counter() - start))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def import_library():
    """Put the checkout's ``src`` first on the path; fail if it has no ``tbh``."""
    src = ROOT / "src"
    if not (src / "tbh" / "__init__.py").is_file():
        sys.exit(f"error: no tbh package under {src}")
    sys.path.insert(0, str(src))


def run_pass(workload, order_seed, trace, expected, spans_file=None):
    import workloads
    from tracing import Tracer

    items = workloads.WORKLOADS[workload]()
    random.Random(order_seed).shuffle(items)
    per_item = {}
    failures = []
    size = 0
    instrument = Tracer() if trace else ContentionProbe()
    with instrument:
        start = perf_counter()
        for key, item in items:
            t0 = perf_counter()
            try:
                record = workloads.verify(item)
            except workloads.TbhError as exc:
                record = None
                failures.append({"item": key, "error": f"{type(exc).__name__}: {exc}"})
            per_item[key] = (t0 - start, perf_counter() - t0)
            if record is not None:
                size += workloads.size(record)
                mismatched = workloads.compare(record, expected.get(key, {}))
                if mismatched:
                    failures.append({"item": key, "mismatch": mismatched})
        verify_s = perf_counter() - start
    result = {
        "verify_s": verify_s,
        "item_s": per_item,
        "attempted": len(items),
        "failed": len({f["item"] for f in failures}),
        "failures": failures,
        "size": size,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        result["trace"] = instrument.summary()
        if spans_file:
            instrument.dump(Path(spans_file))
    else:
        result["probe_s"] = [(t - start, d) for t, d in instrument.samples]
    return result


def main(argv):
    import_library()
    workload = argv[0]
    import workloads

    if workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {workload!r}")
    if argv[1] == "setup":
        workloads.WORKLOADS[workload]()
        return
    result = run_pass(
        workload,
        int(argv[1]),
        argv[2] == "1",
        workloads.load_expected(workload),
        argv[3] if len(argv) > 3 else None,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
