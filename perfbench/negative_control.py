"""Negative control: corrupted recorded outputs must count as failures.

    python3 perfbench/negative_control.py

Runs one pass of sweep-k3 against recorded outputs with three items
corrupted (a dimension, a relation count, a criteria count) and exits
nonzero unless exactly those three items fail.
"""

import sys

from worker import import_library, run_pass


def main():
    import_library()
    import workloads

    expected = workloads.load_expected("sweep-k3")
    keys = sorted(k for k, rec in expected.items() if rec["relations"])
    corrupted = {keys[0]: "dim", keys[len(keys) // 2]: "relations", keys[-1]: "criteria"}
    for key, field in corrupted.items():
        if field == "criteria":
            expected[key]["criteria"]["1"] += 1
        else:
            expected[key][field] += 1
    result = run_pass("sweep-k3", 0, False, expected)
    failed_items = sorted({f["item"] for f in result["failures"]})
    ratio = result["failed"] / result["attempted"]
    print(f"fail_ratio {ratio:.6g} ({result['failed']} of {result['attempted']}): {failed_items}")
    if failed_items != sorted(corrupted):
        sys.exit("error: the corrupted items are not exactly the failed ones")


if __name__ == "__main__":
    main()
