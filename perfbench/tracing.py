"""Per-layer spans, recorded from outside the library.

Entering a ``Tracer`` wraps the public functions of each ``tbh`` layer at every
binding site (modules import functions by name, so ``tbh.oracle.rank_exact``
is a second binding of ``tbh.matrices.rank_exact``), and leaving it puts
the originals back. A span is a ``time.perf_counter`` record
``(name, start, end, parent)``; spans stay in memory until ``dump``.
"""

import json
import sys
from time import perf_counter

from tbh import algebra, bratteli, matrices, oracle, partitions, seminormal


def _count_tableaux(counts, args, result):
    counts["partitions.tableaux_to.tableaux"] += len(result)


def _count_criteria(counts, args, result):
    counts["seminormal.check_criteria.instances"] += sum(result.items.values())


def _count_relations(counts, args, result):
    counts["seminormal.check_full_relations.relations"] += len(result)
    counts["seminormal.check_full_relations.exact"] += sum(r.exact for r in result)


def _count_simplicity(counts, args, result):
    counts["seminormal.check_simplicity.projectors"] += result.projectors_checked
    counts["seminormal.check_simplicity.witness_moves"] += sum(
        len(w) for w in result.witnesses.values()
    )


def _count_mul(counts, args, result):
    counts["matrices.mul.ops"] += args[0].dim ** 3


def _count_rank(counts, args, result):
    rows = args[0]
    counts["matrices.rank_exact.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _is_matrix_product(args):
    return isinstance(args[1], matrices.Matrix)


# (span name, owner, attribute, counter hook or None, predicate or None).
# A predicate limits the span to calls it accepts: Matrix.__mul__ is spanned
# only for matrix-by-matrix products, not for scaling by a number.
LAYERS = [
    ("partitions.enum_Pk", partitions, "enum_Pk", None, None),
    ("partitions.tableaux_to", partitions, "tableaux_to", _count_tableaux, None),
    ("bratteli.build_diagram", bratteli, "build_diagram", None, None),
    ("bratteli.paths_to", bratteli, "paths_to", None, None),
    ("bratteli.dimension_vector", bratteli, "dimension_vector", None, None),
    ("seminormal.entry_table", seminormal, "entry_table", None, None),
    ("seminormal.build_module", seminormal, "build_module", None, None),
    ("seminormal.check_criteria", seminormal, "check_criteria", _count_criteria, None),
    ("seminormal.check_full_relations", seminormal, "check_full_relations", _count_relations, None),
    ("seminormal.check_simplicity", seminormal, "check_simplicity", _count_simplicity, None),
    ("seminormal.quadratic_deviation", seminormal, "quadratic_deviation", None, None),
    ("algebra.relations_short", algebra, "relations_short", None, None),
    ("algebra.definitions", algebra, "definitions", None, None),
    ("algebra.evaluate_word", algebra, "evaluate_word", None, None),
    ("algebra.check_relations", algebra, "check_relations", None, None),
    ("matrices.mul", matrices.Matrix, "__mul__", _count_mul, _is_matrix_product),
    ("matrices.rank_exact", matrices, "rank_exact", _count_rank, None),
    ("matrices.apply_to_columns", matrices, "apply_to_columns", None, None),
    ("oracle.init", oracle.TensorOracle, "__init__", None, None),
    ("oracle.check_dimension_bookkeeping", oracle.TensorOracle, "check_dimension_bookkeeping", None, None),
    ("oracle.check_commutant", oracle.TensorOracle, "check_commutant", None, None),
    ("oracle.check_transport", oracle.TensorOracle, "check_transport", None, None),
    ("oracle.check_factor_difference", oracle.TensorOracle, "check_factor_difference", None, None),
    ("oracle.check_twist_shifts", oracle.TensorOracle, "check_twist_shifts", None, None),
    ("oracle.check_spectra", oracle.TensorOracle, "check_spectra", None, None),
    ("oracle.evaluate_on_inclusion", oracle.TensorOracle, "evaluate_on_inclusion", None, None),
]

SPAN_NAMES = [layer[0] for layer in LAYERS]
COUNTER_NAMES = [
    "partitions.tableaux_to.tableaux",
    "seminormal.check_criteria.instances",
    "seminormal.check_full_relations.relations",
    "seminormal.check_full_relations.exact",
    "seminormal.check_simplicity.projectors",
    "seminormal.check_simplicity.witness_moves",
    "matrices.mul.ops",
    "matrices.rank_exact.cells",
]


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn, count, only):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if only is not None and not only(args):
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def __enter__(self):
        tbh_modules = [
            m for n, m in list(sys.modules.items()) if n == "tbh" or n.startswith("tbh.")
        ]
        for name, owner, attr, count, only in LAYERS:
            original = getattr(owner, attr)
            traced = self._wrap(name, original, count, only)
            sites = [owner] if isinstance(owner, type) else tbh_modules
            for site in sites:
                for site_attr, value in list(vars(site).items()):
                    if value is original:
                        self._patches.append((site, site_attr, original))
                        setattr(site, site_attr, traced)
        return self

    def __exit__(self, *exc):
        for site, attr, original in reversed(self._patches):
            setattr(site, attr, original)
        self._patches.clear()

    def summary(self):
        """Per span name: total seconds, self seconds, calls; plus the counters.

        Also the summed duration of top-level spans and the most negative
        self time (0 when none is negative), which the accounting check reads.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in SPAN_NAMES}
        top_level_s = 0.0
        min_self_s = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            own = duration - child_time[index]
            layer = layers[name]
            layer["s"] += duration
            layer["self_s"] += own
            layer["calls"] += 1
            min_self_s = min(min_self_s, own)
            if parent < 0:
                top_level_s += duration
        return {
            "layers": layers,
            "counts": dict(self.counts),
            "top_level_s": top_level_s,
            "min_self_s": min_self_s,
        }

    def dump(self, path):
        """Write every span once, as [name, start, end, parent] rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}))
