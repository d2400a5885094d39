"""The benchmark's workloads: item lists, per-item verification, recorded outputs.

Every item is verified the way the ``tbh`` CLI verifies it and returns an
observed record. ``compare`` checks that record against the one stored in
``expected/<workload>.json``. The item list of a workload never depends on
the seed; the seed only permutes the order in which items run.
"""

import json
from pathlib import Path

from tbh import bratteli, partitions, seminormal
from tbh.errors import TbhError
from tbh.oracle import TensorOracle
from tbh.params import HeckeParams

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

SEMINORMAL_GRID = [(1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 2, 1), (2, 2, 2, 2)]
ORACLE_CONFIGS = [
    ((1, 1, 1, 1), 2, range(4)),
    ((1, 1, 1, 1), 3, range(3)),
    ((2, 1, 1, 1), 3, range(2)),
    ((1, 1, 2, 1), 3, range(2)),
    ((1, 1, 1, 1), 2, [5]),
]
QUAD_TOL = 1e-9


def _lam_key(lam):
    return ",".join(map(str, lam))


def _seminormal_item(abpq, k, lam):
    key = f"{_lam_key(abpq)} k={k} lambda={_lam_key(lam)}"
    return key, ("seminormal", HeckeParams(*abpq), k, tuple(lam))


def sweep_k3_items():
    items = []
    for abpq in SEMINORMAL_GRID:
        params = HeckeParams(*abpq)
        for k in range(4):
            for lam in sorted(partitions.enum_Pk(params, k), reverse=True):
                items.append(_seminormal_item(abpq, k, lam))
    return items


def module_k4_items():
    return [_seminormal_item((2, 2, 2, 2), 4, (5, 4, 2, 1))]


def tableaux_k5_items():
    params = HeckeParams(2, 2, 2, 2)
    return [
        (f"2,2,2,2 k=5 lambda={_lam_key(lam)}", ("tableaux", params, 5, lam))
        for lam in sorted(partitions.enum_Pk(params, 5), reverse=True)
    ]


def oracle_sweep_items():
    return [
        (f"{_lam_key(abpq)} n={n} k={k}", ("oracle", HeckeParams(*abpq, k), n))
        for abpq, n, ks in ORACLE_CONFIGS
        for k in ks
    ]


WORKLOADS = {
    "sweep-k3": sweep_k3_items,
    "module-k4": module_k4_items,
    "tableaux-k5": tableaux_k5_items,
    "oracle-sweep": oracle_sweep_items,
}


def verify_seminormal(params, k, lam):
    """The CLI's per-module verification (``tbh seminormal``)."""
    module = seminormal.build_module(lam, params, k)
    report = seminormal.check_criteria(lam, params, k)
    relations = seminormal.check_full_relations(module) if k >= 1 else []
    cert = seminormal.check_simplicity(module)
    dev = max(seminormal.quadratic_deviation(module)) if k >= 1 else 0.0
    return {
        "dim": module.dim,
        "witnesses": len(cert.witnesses),
        "criteria": report.items,
        "relations": len(relations),
        "quadratic_ok": dev < QUAD_TOL,
    }


def verify_tableaux(params, k, lam):
    """Both tableau enumerations, the dimension vector, and criteria (1)-(6)."""
    pk = partitions.enum_Pk(params, k)
    diagram = bratteli.build_diagram(params.with_k(k))
    dims = bratteli.dimension_vector(diagram, k + 1)
    paths = bratteli.paths_to(diagram, lam, k + 1).paths
    tabs = partitions.tableaux_to(lam, k, params)
    table = seminormal.entry_table(lam, params, k)
    report = seminormal.check_criteria(lam, params, k)
    return {
        "dim": dims[lam],
        "enumerations_agree": (
            set(dims) == pk
            and len(paths) == len(tabs) == len(table.basis) == dims[lam]
            and set(paths) == set(tabs)
        ),
        "criteria": report.items,
    }


def verify_oracle(params, n):
    """The CLI's oracle stages (``tbh oracle``), in the CLI's order."""
    oracle = TensorOracle(params, n)
    carrier = oracle.check_dimension_bookkeeping()
    commutant = oracle.check_commutant()["pairs_checked"]
    relations = len(oracle.check_transport())
    factor = oracle.check_factor_difference() if params.k >= 1 else 0
    oracle.check_twist_shifts()
    spectra = oracle.check_spectra()
    return {
        "carrier_dim": carrier,
        "module_dim": oracle.module_dim,
        "commutant_pairs": commutant,
        "relations": relations,
        "factor_differences": factor,
        "multiplicities": len(spectra),
    }


VERIFY = {"seminormal": verify_seminormal, "tableaux": verify_tableaux, "oracle": verify_oracle}


def verify(item):
    kind, *args = item
    return VERIFY[kind](*args)


def size(record):
    """Verified basis vectors: module dim, or the oracle's verified module dim."""
    return record.get("module_dim", record.get("dim"))


def load_expected(workload):
    return json.loads((EXPECTED_DIR / f"{workload}.json").read_text())


def compare(observed, expected):
    """Names of the fields where an observed record differs from the recorded one."""
    return sorted(
        name
        for name in set(observed) | set(expected)
        if observed.get(name) != expected.get(name)
    )
