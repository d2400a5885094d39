#!/usr/bin/env python3
"""Sweep every desk-scale configuration through the full verification stack.

Seminormal side: entry criteria, relation families, quadratic spectra, and
simplicity certificates for four rectangle pairs up to k = 3.  Oracle side:
commutant, transport of the Hecke and the braid algebra catalogs, twist
shifts, factor differences, and exact spectra for the tensor-space
realizations.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tbh import algebra
from tbh import seminormal as sn
from tbh.oracle import TensorOracle
from tbh.params import HeckeParams
from tbh.partitions import enum_Pk

SEMINORMAL_GRID = [(1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 2, 1), (2, 2, 2, 2)]
ORACLE_CONFIGS = [
    ((1, 1, 1, 1), 2, 3),
    ((1, 1, 1, 1), 3, 2),
    ((2, 1, 1, 1), 3, 1),
    ((1, 1, 2, 1), 3, 1),
]


def seminormal_sweep():
    total = 0
    start = time.time()
    for abpq in SEMINORMAL_GRID:
        params = HeckeParams(*abpq)
        for k in range(4):
            shapes = sorted(enum_Pk(params, k), reverse=True)
            relations = 0
            for lam in shapes:
                module = sn.build_module(lam, params, k)
                sn.check_criteria(lam, params, k)
                if k >= 1:
                    relations += len(sn.check_full_relations(module))
                    dev_x, dev_y = sn.quadratic_deviation(module)
                    if max(dev_x, dev_y) != 0:
                        sys.exit(f"quadratic relation fails on {abpq} k={k} lambda={lam}")
                sn.check_simplicity(module)
                total += 1
            print(f"  {abpq} k={k}: {len(shapes)} modules ok, {relations} relations exact")
    print(f"seminormal sweep: {total} modules in {time.time() - start:.1f} s")


def oracle_sweep():
    start = time.time()
    for abpq, n, kmax in ORACLE_CONFIGS:
        for k in range(kmax + 1):
            oracle = TensorOracle(HeckeParams(*abpq, k), n)
            oracle.check_dimension_bookkeeping()
            oracle.check_commutant()
            oracle.check_transport()
            oracle.check_transport(algebra.relations_braid(k))
            oracle.check_spectra()
            oracle.check_twist_shifts()
            if k >= 1:
                oracle.check_factor_difference()
            print(f"  {abpq} n={n} k={k}: dim U {oracle.module_dim} ok")
    print(f"oracle sweep done in {time.time() - start:.1f} s")


if __name__ == "__main__":
    seminormal_sweep()
    oracle_sweep()
    print("all verifications passed")
