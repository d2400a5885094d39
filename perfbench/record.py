"""Write the recorded outputs ``expected/<workload>.json`` from the current code.

    python3 perfbench/record.py [WORKLOAD ...]

Run it only when a workload's items change, and review the diff: the
benchmark counts every later difference from these files as a failure.
Module dimensions are taken from ``bratteli.dimension_vector``, not from the
built modules, and a module's witness count must equal its dimension.
"""

import json
import sys

from worker import import_library


def record(workload):
    import workloads
    from tbh import bratteli

    out = {}
    for key, item in workloads.WORKLOADS[workload]():
        rec = workloads.verify(item)
        if item[0] == "seminormal":
            _, params, k, lam = item
            diagram = bratteli.build_diagram(params.with_k(k))
            rec["dim"] = bratteli.dimension_vector(diagram, k + 1)[lam]
            if rec["witnesses"] != rec["dim"]:
                sys.exit(f"error: {key}: {rec['witnesses']} witnesses for dim {rec['dim']}")
        out[key] = rec
    path = workloads.EXPECTED_DIR / f"{workload}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"{path.name}: {len(out)} items")


def main(names):
    import_library()
    import workloads

    for name in names or list(workloads.WORKLOADS):
        record(name)


if __name__ == "__main__":
    main(sys.argv[1:])
