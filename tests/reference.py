"""Reference code that only the tests call.

Independent constructions the tests compare the package against: the
shifted contents c_T(i) (``shifted_content``, ``box``), tableau moves
rebuilt from them (``apply_si``, ``apply_s0``, ``from_content_list``), a
brute-force partition enumeration, Casimir
operators assembled from leg swaps, the highest-weight count of an
isotypic component, and the longer Hecke presentation
``relations_consolidated``, run as a second relation suite beside
``algebra.relations_short``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb

from tbh.algebra import T, X, Y, Z, RelationPair, _sym_group_relations, wadd, wconst, wmul, word
from tbh.bratteli import BratteliDiagram, dimension_vector
from tbh.errors import FactorOutOfRange, InvariantViolation, NotInP, TbhError
from tbh.matrices import SparseOperator, rank_of_columns
from tbh.oracle import Carrier, TensorOracle, _linear_operator, elementary_action, gamma_pair, leg_swap
from tbh.params import HeckeParams
from tbh.partitions import (
    Partition,
    Tableau,
    add_box,
    as_partition,
    content,
    gamma_rect,
    is_in_P,
    parents,
    remove_box,
    removable_corners,
    weyl_dim,
)

# ---------------------------------------------------------------------------
# partitions and tableaux


class IndexOutOfRange(TbhError):
    """Tableau position index outside 0..k."""


def box(t: Tableau, i: int):
    """(row, col) of the i-th added box, i = 1..k."""
    if not 1 <= i <= t.k:
        raise IndexOutOfRange(f"box index {i} outside 1..{t.k}")
    prev, cur = t.shapes[i - 1], t.shapes[i]
    for r in range(1, len(cur) + 1):
        a = cur[r - 1]
        b = prev[r - 1] if r <= len(prev) else 0
        if a != b:
            return (r, a)
    raise InvariantViolation("adjacent shapes identical")


def shifted_content(t: Tableau, i: int, params: HeckeParams) -> Fraction:
    """Shifted content c_T(i); c_T(0) encodes the starting shape's gamma value."""
    if not 0 <= i <= t.k:
        raise IndexOutOfRange(f"{i} outside 0..{t.k}")
    if i == 0:
        return gamma_rect(t.start, params) - params.shift
    r, c = box(t, i)
    return Fraction(content(r, c)) - params.shift


def critical_contents(params: HeckeParams):
    """Unshifted contents at which an added box has a unique parent."""
    a, b, p, q = params.a, params.b, params.p, params.q
    return {-p - q, a - q, a + b, b - p}


def enum_P_size(params: HeckeParams) -> int:
    """Predicted |P| = binomial(min(a,b)+q, q)."""
    return comb(min(params.a, params.b) + params.q, params.q)


@lru_cache(maxsize=None)
def all_partitions_of(n: int, max_height=None):
    """Every partition of n, optionally height capped (brute-force oracle aid)."""
    out = []

    def rec(prefix, remaining, cap):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if max_height is not None and len(prefix) >= max_height:
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(prefix + [part], remaining - part, part)

    rec([], n, n)
    return tuple(out)


def apply_si(t: Tableau, i: int, params: HeckeParams):
    """Swap the order of the i-th and (i+1)-th added boxes; None if adjacent.

    Defined exactly when c_T(i) != c_T(i+1) +- 1, and an involution there.
    """
    if not 1 <= i <= t.k - 1:
        raise IndexOutOfRange(f"s_{i} needs 1 <= i <= k-1 = {t.k - 1}")
    ci = shifted_content(t, i, params)
    cj = shifted_content(t, i + 1, params)
    if cj - ci in (1, -1):
        return None
    r, c = box(t, i + 1)
    middle = add_box(t.shapes[i - 1], r)
    shapes = t.shapes[:i] + (middle,) + t.shapes[i + 1 :]
    return Tableau(shapes)


def apply_s0(t: Tableau, params: HeckeParams):
    """Replace T^(0) by the other parent of T^(1); None at critical contents."""
    if t.k < 1:
        raise IndexOutOfRange("s_0 needs k >= 1")
    cands = parents(t.shapes[1], params)
    if len(cands) == 1:
        return None
    other = [lam for lam in cands if lam != t.shapes[0]]
    if len(other) != 1:
        raise InvariantViolation(f"expected exactly one other parent, got {other}")
    return Tableau((other[0],) + t.shapes[1:])


def from_content_list(clist, lam: Partition, params: HeckeParams) -> Tableau:
    """Rebuild the tableau with shifted contents c_T(1..k) ending at lam.

    Each c_T(i) names the diagonal of the i-th added box; a partition has at
    most one removable box per diagonal, so the chain is forced.
    """
    lam = as_partition(lam)
    shapes = [lam]
    cur = lam
    for c in reversed(list(clist)):
        plain = c + params.shift
        matches = [
            (r, col) for r, col in removable_corners(cur) if content(r, col) == plain
        ]
        if len(matches) != 1:
            raise ValueError(f"content {c} does not name a removable box of {cur}")
        cur = remove_box(cur, matches[0][0])
        shapes.append(cur)
    if not is_in_P(cur, params):
        raise NotInP(f"reconstruction bottomed out at {cur} not in P")
    return Tableau(tuple(reversed(shapes)))


# ---------------------------------------------------------------------------
# dimensions and Casimirs


def carrier_dimension(diagram: BratteliDiagram, rank: int, n: int) -> int:
    """Sum of path count times gl_n Weyl dimension over the rank's vertices."""
    return sum(cnt * weyl_dim(lam, n) for lam, cnt in dimension_vector(diagram, rank).items())


def kappa_V(n: int) -> Fraction:
    return Fraction(n)


def casimir_constant_gl(lam, n: int) -> int:
    """<lam, lam + 2 delta> - (n-1)|lam| with delta = (n-1, ..., 1, 0)."""
    lam = as_partition(lam)
    get = lambda i: lam[i - 1] if i <= len(lam) else 0
    inner = sum(get(i) * (get(i) + 2 * (n - i)) for i in range(1, n + 1))
    return inner - (n - 1) * sum(lam)


def kappa_operator(carrier: Carrier, legs) -> SparseOperator:
    """Casimir on the subfactor spanned by ``legs``: |legs| n + 2 internal swaps."""
    legs = tuple(legs)
    swaps = [(2, leg_swap(carrier, la, lb)) for la, lb in itertools.combinations(legs, 2)]
    return _linear_operator(carrier.dim, swaps, len(legs) * carrier.n)


def casimir_leq(carrier: Carrier, factor, j: int) -> SparseOperator:
    """kappa on the factor together with the first j copies of V.

    Assembled per the iterated coproduct: kappa_X + j kappa_V
    + 2 (sum_i gamma_{X,i} + sum_{r<s} gamma_{r,s}).
    """
    if j > carrier.k:
        raise FactorOutOfRange(f"only {carrier.k} copies of V")
    terms = [(1, kappa_operator(carrier, carrier.legs(factor)))]
    terms += [(2, gamma_pair(carrier, factor, i)) for i in range(1, j + 1)]
    terms += [(2, gamma_pair(carrier, r, s)) for r, s in itertools.combinations(range(1, j + 1), 2)]
    return _linear_operator(carrier.dim, terms, j * carrier.n)


def isotypic_multiplicity(oracle: TensorOracle, lam):
    """Multiplicity of the lam component: highest-weight space dimension."""
    lam = as_partition(lam)
    if len(lam) > oracle.n:
        return 0
    legs = tuple(range(oracle.carrier.total_legs))
    ops = [elementary_action(oracle.carrier, i, i + 1, legs) for i in range(oracle.n - 1)]
    get = lambda i: lam[i - 1] if i <= len(lam) else 0
    for j in range(oracle.n):
        weight_op = elementary_action(oracle.carrier, j, j, legs)
        ops.append(oracle._sum([(1, weight_op)], -get(j + 1)))
    images = [op.apply(oracle.inclusion_columns) for op in ops]
    # one column per inclusion column, its images stacked under keys (op, row)
    stacked = [
        {(o, r): v for o, col in enumerate(cols) for r, v in col.items()}
        for cols in zip(*images)
    ]
    return oracle.module_dim - rank_of_columns(stacked)


# ---------------------------------------------------------------------------
# the consolidated Hecke catalog


def relations_consolidated(params: HeckeParams) -> list:
    """Longer presentation over x_i, z_i (z_0 included), y_i derived, t's."""
    a, b, p, q, k = params.a, params.b, params.p, params.q, params.k
    out = []
    if k == 0:
        return out
    _sym_group_relations(k, out)
    out.append(
        RelationPair(
            f"(x1 - {a})(x1 + {p}) = 0",
            "x.quadratic",
            wmul(wadd(word((X, 1)), wconst(-a)), wadd(word((X, 1)), wconst(p))),
            (),
        )
    )
    out.append(
        RelationPair(
            f"(y1 - {b})(y1 + {q}) = 0",
            "y.quadratic",
            wmul(wadd(word((Y, 1)), wconst(-b)), wadd(word((Y, 1)), wconst(q))),
            (),
        )
    )
    for i in range(1, k):
        for j in list(range(1, k + 1)):
            if j in (i, i + 1):
                continue
            out.append(
                RelationPair(
                    f"t{i} x{j} = x{j} t{i}",
                    "commute.tx",
                    word((T, i), (X, j)),
                    word((X, j), (T, i)),
                )
            )
        for j in range(0, k + 1):
            if j in (i, i + 1):
                continue
            out.append(
                RelationPair(
                    f"t{i} z{j} = z{j} t{i}",
                    "commute.tz",
                    word((T, i), (Z, j)),
                    word((Z, j), (T, i)),
                )
            )
    for kind, fam in ((X, "commute.xx"), (Y, "commute.yy")):
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                out.append(
                    RelationPair(
                        f"{kind}{i} {kind}{j} = {kind}{j} {kind}{i}",
                        fam,
                        word((kind, i), (kind, j)),
                        word((kind, j), (kind, i)),
                    )
                )
    for i in range(0, k + 1):
        for j in range(i + 1, k + 1):
            out.append(
                RelationPair(
                    f"z{i} z{j} = z{j} z{i}",
                    "commute.zz",
                    word((Z, i), (Z, j)),
                    word((Z, j), (Z, i)),
                )
            )
    for i in range(1, k + 1):
        for j in range(1, i):
            out.append(
                RelationPair(
                    f"x{j} z{i} = z{i} x{j}",
                    "commute.xz",
                    word((X, j), (Z, i)),
                    word((Z, i), (X, j)),
                )
            )
    for kind, fam in ((X, "twist.xzsum"), (Y, "twist.yzsum")):
        for i in range(1, k + 1):
            zsum = wadd(*[word((Z, j)) for j in range(0, i + 1)])
            out.append(
                RelationPair(
                    f"{kind}{i} (z0+..+z{i}) = (z0+..+z{i}) {kind}{i}",
                    fam,
                    wmul(word((kind, i)), zsum),
                    wmul(zsum, word((kind, i))),
                )
            )
    return out
