"""Partition, box-content, and rectangle-pair combinatorics.

Partitions are tuples of weakly decreasing positive integers (trailing
zeros trimmed).  Boxes are (row, col) pairs, 1-indexed, with content
col - row.  P = P((a^p), (b^q)) is the family of partitions indexing the
simple summands of the tensor product of the two rectangle modules:
height <= p+q, rows q+1..p pinned to a, lambda_q >= max(a, b), and
complementary rows pairing to a+b.  P_k collects the shapes reachable
from P by adding k boxes, and tableaux are the chains
T = (T^(0), ..., T^(k)) with T^(0) in P that index seminormal bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import lt

from .errors import InvariantViolation, NotInP, NotInP1, NotInPk
from .params import HeckeParams

Partition = tuple  # weakly decreasing tuple of positive ints


def as_partition(parts) -> Partition:
    """Validate and normalize (trim trailing zeros) a parts sequence."""
    parts = tuple(map(int, parts))
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    if parts and min(parts) < 0:
        raise ValueError(f"negative part in {parts}")
    if any(map(lt, parts, parts[1:])):
        raise ValueError(f"parts not weakly decreasing: {parts}")
    return parts


def content(row: int, col: int) -> int:
    """Content col - row of the box in the given row and column (1-indexed)."""
    if row < 1 or col < 1:
        raise ValueError(f"box positions are 1-indexed, got ({row}, {col})")
    return col - row


def boxes(lam: Partition):
    """All (row, col) boxes of a partition."""
    for r, width in enumerate(lam, start=1):
        for c in range(1, width + 1):
            yield (r, c)


def addable_corners(lam: Partition, max_height=None):
    """Positions where a box may be added, optionally height capped."""
    out = []
    for r in range(1, len(lam) + 2):
        if max_height is not None and r > max_height:
            break
        width = lam[r - 1] if r <= len(lam) else 0
        above = lam[r - 2] if r >= 2 else None
        if r == 1 or above > width:
            out.append((r, width + 1))
    return out


def removable_corners(lam: Partition):
    """Positions whose removal leaves a partition."""
    out = []
    for r in range(1, len(lam) + 1):
        below = lam[r] if r < len(lam) else 0
        if lam[r - 1] > below:
            out.append((r, lam[r - 1]))
    return out


def add_box(lam: Partition, row: int) -> Partition:
    parts = list(lam) + [0]
    parts[row - 1] += 1
    return as_partition(parts)


def remove_box(lam: Partition, row: int) -> Partition:
    parts = list(lam)
    parts[row - 1] -= 1
    return as_partition(parts)


def add_box_set(lam: Partition, max_height=None):
    """All partitions obtained from lam by adding one box."""
    return {add_box(lam, r) for r, _ in addable_corners(lam, max_height)}


def is_in_P(lam: Partition, params: HeckeParams) -> bool:
    """Membership test straight from the defining constraints."""
    a, b, p, q = params.a, params.b, params.p, params.q
    if len(lam) > p + q:
        return False
    if sum(lam) != params.weight:
        return False
    get = lambda i: lam[i - 1] if i <= len(lam) else 0
    for i in range(q + 1, p + 1):
        if get(i) != a:
            return False
    if get(q) < max(a, b):
        return False
    for i in range(1, q + 1):
        if get(i) + get(p + q - i + 1) != a + b:
            return False
    return True


def enum_P(params: HeckeParams):
    """The rectangle-pair family P, built constructively.

    Members correspond to partitions mu inside a min(a,b) x q box: glue
    max(0, b-a) + mu_i onto row i of (a^p) and put the complement of row
    q+1-i into row p+i.
    """
    a, b, p, q = params.a, params.b, params.p, params.q
    base = max(0, b - a)
    out = set()
    for mu in _partitions_in_box(min(a, b), q):
        rows = [a + base + (mu[i] if i < len(mu) else 0) for i in range(q)]
        rows += [a] * (p - q)
        top = rows[:q]
        rows += [a + b - top[q - 1 - j] for j in range(q)]
        out.add(as_partition(rows))
    return out


def _partitions_in_box(width: int, height: int):
    """All partitions with at most `height` parts, each at most `width`."""
    return {
        as_partition(parts)
        for parts in combinations_with_replacement(range(width, -1, -1), height)
    }


def levels_Pk(params: HeckeParams, i: int, max_height=None):
    """The level loop P_0 = P, P_{j+1} = one box added to a member of P_j.

    Returns (steps, P_i), where steps[j] maps each member of P_j, j < i,
    to its set of one-box successors; P_{j+1} is the union of those sets.
    """
    if i < 0:
        raise ValueError("level must be nonnegative")
    level = enum_P(params)
    if max_height is not None:
        level = {lam for lam in level if len(lam) <= max_height}
    steps = []
    for _ in range(i):
        successors = {lam: add_box_set(lam, max_height) for lam in level}
        steps.append(successors)
        level = set().union(*successors.values())
    return steps, level


def enum_Pk(params: HeckeParams, i: int, max_height=None):
    """P_0 = P; P_i = one box added to some member of P_{i-1}."""
    return levels_Pk(params, i, max_height)[1]


def gamma_rect(lam: Partition, params: HeckeParams) -> Fraction:
    """Constant by which the two-factor Casimir half acts on the lam summand.

    a*b*q + 2 * sum over boxes below row p of (content - shift).
    """
    lam = as_partition(lam)
    if not is_in_P(lam, params):
        raise NotInP(f"{lam} not in P for {params}")
    below = [content(r, c) for r, c in boxes(lam) if r > params.p]
    return Fraction(params.a * params.b * params.q) + 2 * (
        sum(below) - len(below) * params.shift
    )


def parents(mu: Partition, params: HeckeParams):
    """The one or two members of P obtained by removing a box from mu.

    Ordered by the content of the removed box, ascending.
    """
    mu = as_partition(mu)
    found = []
    for r, c in removable_corners(mu):
        lam = remove_box(mu, r)
        if is_in_P(lam, params):
            found.append((content(r, c), lam))
    if not found:
        raise NotInP1(f"{mu} has no parent in P")
    found.sort(key=lambda t: t[0])
    return [lam for _, lam in found]


@dataclass(frozen=True)
class Tableau:
    """A chain of partitions T^(0) ... T^(k), each adding one box."""

    shapes: tuple

    def __post_init__(self):
        shapes = tuple(map(as_partition, self.shapes))
        object.__setattr__(self, "shapes", shapes)
        for prev, cur in zip(shapes, shapes[1:]):
            if sum(cur) != sum(prev) + 1:
                raise ValueError("consecutive shapes must differ by one box")
            if not _contains(cur, prev):
                raise ValueError("shapes must be nested")

    @property
    def k(self) -> int:
        return len(self.shapes) - 1

    @property
    def start(self) -> Partition:
        return self.shapes[0]

    @property
    def end(self) -> Partition:
        return self.shapes[-1]


def _contains(outer, inner):
    # map stops at the shorter shape, so a taller inner shape is rejected first.
    return len(inner) <= len(outer) and not any(map(lt, outer, inner))


def added_rows(shapes):
    """Row of each added box of a chain of shapes T^(0) ... T^(k), i = 1..k."""
    out = []
    for prev, cur in zip(shapes, shapes[1:]):
        row = len(cur)  # a box below every row of prev, unless a row grew
        for r, (x, y) in enumerate(zip(prev, cur), start=1):
            if x != y:
                row = r
                break
        out.append(row)
    return out


def plain_contents(shapes):
    """Integer contents col - row of the added boxes of a chain of shapes.

    Shifted contents are these minus one constant shift, so sorting by
    them gives the basis order (c_T(1), ..., c_T(k)).
    """
    return tuple(cur[r - 1] - r for cur, r in zip(shapes[1:], added_rows(shapes)))


def tableaux_to(lam: Partition, k: int, params: HeckeParams):
    """All tableaux from some member of P to lam in k steps, basis order."""
    lam = as_partition(lam)
    if sum(lam) != params.weight + k:
        raise NotInPk(f"{lam} not in P_{k} for {params}")

    chains = _chains_down(lam, k, params, {})
    if not chains:
        raise NotInPk(f"{lam} not in P_{k} for {params}")
    chains.sort(key=plain_contents)
    return [Tableau(ch) for ch in chains]


def _chains_down(lam, steps, params, memo):
    """Chains from P up to lam in `steps` boxes; memo maps (shape, steps) to them."""
    key = (lam, steps)
    if key in memo:
        return memo[key]
    if steps == 0:
        out = [(lam,)] if is_in_P(lam, params) else []
    else:
        out = [
            ch + (lam,)
            for r, _ in removable_corners(lam)
            for ch in _chains_down(remove_box(lam, r), steps - 1, params, memo)
        ]
    memo[key] = out
    return out


def row_tableau_of(start: Partition, end: Partition) -> Tableau:
    """The tableau filling end/start left to right, top to bottom."""
    skew = sorted(
        (box for box in boxes(end) if not has_box(start, box)),
        key=lambda rc: (rc[0], rc[1]),
    )
    shapes = [start]
    cur = start
    for r, _ in skew:
        cur = add_box(cur, r)
        shapes.append(cur)
    return Tableau(tuple(shapes))


def has_box(lam, box):
    """Whether the (row, col) box lies inside the partition."""
    r, c = box
    return r <= len(lam) and c <= lam[r - 1]


def lex_max_parent_in(lam: Partition, params: HeckeParams) -> Partition:
    """Lexicographically greatest member of P contained in lam."""
    cands = [mu for mu in enum_P(params) if _contains(lam, mu)]
    if not cands:
        raise NotInPk(f"no member of P inside {lam}")
    return max(cands)


def t_lambda(lam: Partition, params: HeckeParams, k: int) -> Tableau:
    """Distinguished tableau: lex-greatest starting shape, row filling."""
    lam = as_partition(lam)
    if sum(lam) != params.weight + k:
        raise NotInPk(f"{lam} does not have weight + {k} boxes")
    return row_tableau_of(lex_max_parent_in(lam, params), lam)


def weyl_dim(lam: Partition, n: int) -> int:
    """Dimension of the irreducible gl_n module indexed by lam.

    Product over 1 <= i < j <= n of (lam_i - lam_j + j - i)/(j - i);
    zero when the partition is taller than n.
    """
    lam = as_partition(lam)
    if len(lam) > n:
        return 0
    get = lambda i: lam[i - 1] if i <= len(lam) else 0
    num = 1
    den = 1
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            num *= get(i) - get(j) + j - i
            den *= j - i
    quotient, remainder = divmod(num, den)
    if remainder:
        raise InvariantViolation(f"Weyl dimension of {lam} for gl_{n} is not an integer")
    return quotient

