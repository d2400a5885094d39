"""Explicit seminormal matrix modules on path bases.

For lambda in P_k the module H^lambda has basis indexed by the tableaux
T from some member of P up to lambda.  The commutative generators w_i act
diagonally by shifted contents; t_{s_i} is supported on {T, s_i T} and x_1
on {T, s_0 T}, with

    [t_i]_{T,T}   = d_T = 1 / (c_T(i+1) - c_T(i)),
    [x_1]_{T,T}   = ((a-p) c + c^2 + K) / (2c),   c = c_T(1),
    K = ((a+p+b+q)/2) ((a+p-b-q)/2),

and squared off-diagonal products

    [t_i]_{T,S}[t_i]_{S,T}   = 1 - d_T^2,
    [x_1]_{T,S}[x_1]_{S,T}   = -(1/(2c)^2) (c^2 - A^2)(c^2 - B^2),

where A = (a+p+b+q)/2 and B = (a+p-b-q)/2.  The relations are checked on
column-sparse operators in a rational gauge (after Young's seminormal
form):

    [t_i]_{T,s_i T} = 1 + d_T,
    [x_1]_{T,s_0 T} = (A - c)(c - B) / (2c).

Since d_{s_i T} = -d_T and c_{s_0 T}(1) = -c_T(1), each pair of entries
multiplies to the squared product above, so everything is exact.  The
positive-root gauge (both off-diagonals the same nonnegative square root)
is conjugate to it by a diagonal matrix.  ``module_to_json`` writes the
rational-gauge operators and the squared products (the radicands), which
determine it, so no square root is ever taken here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import algebra, partitions
from .errors import (
    ConnectivityFailure,
    CriterionFailure,
    DistinctnessFailure,
    EntryPole,
    InvariantViolation,
    NotInPk,
    RelationFailure,  # re-exported: check_full_relations raises it
)
from .matrices import SparseOperator
from .params import HeckeParams
from .partitions import (
    Tableau,
    added_rows,
    as_partition,
    gamma_rect,
    t_lambda,
    tableaux_to,
)
from .scalars import rational_to_str


_ZERO = Fraction(0)


def _constants(params):
    a, b, p, q = params.a, params.b, params.p, params.q
    A = Fraction(a + p + b + q, 2)
    B = Fraction(a + p - (b + q), 2)
    return A, B, A * B


def diag_t_entry(c_i: Fraction, c_next: Fraction) -> Fraction:
    gap = c_next - c_i
    if gap == 0:
        raise EntryPole("consecutive shifted contents can never coincide")
    return Fraction(1) / gap


def offdiag_t_sq(c_i: Fraction, c_next: Fraction) -> Fraction:
    return 1 - diag_t_entry(c_i, c_next) ** 2


def diag_x_entry(c: Fraction, params: HeckeParams) -> Fraction:
    a, p = params.a, params.p
    _, B, K = _constants(params)
    if c == 0:
        # Only reachable when B = 0, and then c = 0 is the critical content
        # B itself: with p > q the first box sits at (q+1, a+1), extending
        # (a^p) to the right, so x_1 acts by a.  The formula's limit
        # ((a-p) + c)/2 is not that value, because K = AB = 0 cancels the
        # critical factor against the pole.
        if B != 0:
            raise EntryPole("zero shifted content with nonzero B")
        return Fraction(a)
    return ((a - p) * c + c * c + K) / (2 * c)


def offdiag_x_sq(c: Fraction, params: HeckeParams) -> Fraction:
    A, B, _ = _constants(params)
    if c == 0:
        # Critical (c = B = 0, see diag_x_entry): no s_0 neighbor.
        if B != 0:
            raise EntryPole("zero shifted content with nonzero B")
        return Fraction(0)
    return -(c * c - A * A) * (c * c - B * B) / (4 * c * c)


def offdiag_x_entry(c: Fraction, params: HeckeParams) -> Fraction:
    """Rational-gauge entry [x_1]_{T, s_0 T} at c = c_T(1)."""
    A, B, _ = _constants(params)
    if c == 0:
        raise EntryPole("zero shifted content is critical: no s_0 neighbor")
    return (A - c) * (c - B) / (2 * c)


@dataclass(frozen=True)
class EntryTable:
    """Exact entry data per basis tableau.

    diag_t[(ti, i)] and offdiag_t_sq[(ti, i)] for i = 1..k-1, diag_x[ti]
    and offdiag_x_sq[ti]; squared off-diagonals are 0 exactly where the
    neighbor tableau does not exist.
    """

    lam: tuple
    k: int
    basis: tuple
    contents: tuple  # contents[ti] = (c_T(0), ..., c_T(k))
    neighbor_s: tuple  # neighbor_s[ti][i] = basis index of s_i T or None, i = 0..k-1
    diag_t: dict
    offdiag_t_sq: dict
    diag_x: dict
    offdiag_x_sq: dict


def entry_table(lam, params: HeckeParams, k: int) -> EntryTable:
    """Contents, s_i neighbors and entries of the basis, reading each tableau once.

    A tableau is its chain of shapes; the added boxes are read off
    consecutive shapes as (row, integer content col - row).  s_i T puts the
    (i+1)-th box into T^(i-1) in place of the i-th, and is undefined exactly
    when the two integer contents differ by +-1; s_0 T puts the other parent
    of T^(1) in place of T^(0).  Neighbors are found by shape lookup in the
    basis.  c_T(0) is memoised per starting shape, c_T(i) per integer
    content, and the entries per content pair (t_i) or per c_T(1) (x_1).
    """
    lam = as_partition(lam)
    basis = tableaux_to(lam, k, params)
    index = {t.shapes: ti for ti, t in enumerate(basis)}
    shift = params.shift
    start_content = {}  # T^(0) -> c_T(0)
    shifted = {}  # integer content -> shifted content
    parent_lists = {}  # T^(1) -> its parents in P
    t_entries = {}  # integer content pair -> (diag_t, offdiag_t_sq)
    x_diag, x_sq = {}, {}  # integer content of the first box -> x_1 entry

    def neighbor_index(shapes):
        try:
            return index[shapes]
        except KeyError:
            raise InvariantViolation(f"neighbor {shapes} is not a basis tableau") from None

    contents, neighbor = [], []
    dt, ot, dx, ox = {}, {}, {}, {}
    for ti, t in enumerate(basis):
        shapes = t.shapes
        rows = added_rows(shapes)
        plain = [cur[r - 1] - r for cur, r in zip(shapes[1:], rows)]
        for x in plain:
            if x not in shifted:
                shifted[x] = Fraction(x) - shift
        start = shapes[0]
        if start not in start_content:
            start_content[start] = gamma_rect(start, params) - shift
        contents.append((start_content[start],) + tuple(shifted[x] for x in plain))

        near = [None] * k
        if k >= 1:
            level1 = shapes[1]
            if level1 not in parent_lists:
                parent_lists[level1] = partitions.parents(level1, params)
            cands = parent_lists[level1]
            if len(cands) > 1:
                other = [mu for mu in cands if mu != start]
                if len(other) != 1:
                    raise InvariantViolation(f"expected exactly one other parent, got {other}")
                near[0] = neighbor_index((other[0],) + shapes[1:])
            x1 = plain[0]
            if x1 not in x_diag:
                x_diag[x1] = diag_x_entry(shifted[x1], params)
            dx[ti] = x_diag[x1]
            if near[0] is None:
                ox[ti] = _ZERO
            else:
                if x1 not in x_sq:
                    x_sq[x1] = offdiag_x_sq(shifted[x1], params)
                ox[ti] = x_sq[x1]
        for i in range(1, k):
            pair = (plain[i - 1], plain[i])
            adjacent = pair[1] - pair[0] in (1, -1)
            if not adjacent:
                middle = list(shapes[i - 1])
                r = rows[i]
                if r > len(middle):
                    middle.append(1)
                else:
                    middle[r - 1] += 1
                near[i] = neighbor_index(shapes[:i] + (tuple(middle),) + shapes[i + 1 :])
            if pair not in t_entries:
                c_i, c_next = shifted[pair[0]], shifted[pair[1]]
                t_entries[pair] = (
                    diag_t_entry(c_i, c_next),
                    _ZERO if adjacent else offdiag_t_sq(c_i, c_next),
                )
            dt[(ti, i)], ot[(ti, i)] = t_entries[pair]
        neighbor.append(tuple(near))
    return EntryTable(
        lam, k, tuple(basis), tuple(contents), tuple(neighbor), dt, ot, dx, ox
    )


@dataclass(frozen=True)
class SeminormalModule:
    params: HeckeParams
    lam: tuple
    k: int
    table: EntryTable
    operators: dict  # generator -> SparseOperator; shared, treat as read-only

    @property
    def basis(self):
        return self.table.basis

    @property
    def dim(self):
        return len(self.table.basis)


def _operators(table: EntryTable, params: HeckeParams, k: int):
    """Column-sparse generators in the exact rational gauge.

    Column S holds the diagonal entry at row S and, when the neighbor
    T = s S exists, the off-diagonal [g]_{T,S} at row T.
    """
    contents = table.contents
    neighbor = table.neighbor_s
    n = len(table.basis)
    out = {
        (algebra.W, i): SparseOperator([{s: contents[s][i]} for s in range(n)])
        for i in range(k + 1)
    }
    if k >= 1:
        cols = []
        for s in range(n):
            col = {s: table.diag_x[s]}
            t = neighbor[s][0]
            if t is not None:
                col[t] = offdiag_x_entry(contents[t][1], params)
            cols.append(col)
        out[(algebra.X, 1)] = SparseOperator(cols)
    for i in range(1, k):
        cols = []
        for s in range(n):
            col = {s: table.diag_t[(s, i)]}
            t = neighbor[s][i]
            if t is not None:
                col[t] = 1 + table.diag_t[(t, i)]
            cols.append(col)
        out[(algebra.T, i)] = SparseOperator(cols)
    return out


def build_module(lam, params: HeckeParams, k: int) -> SeminormalModule:
    """The entry table of lam and the generators built from it."""
    lam = as_partition(lam)
    if sum(lam) != params.weight + k:
        raise NotInPk(f"{lam} has the wrong number of boxes for k={k}")
    table = entry_table(lam, params, k)
    return SeminormalModule(params, lam, k, table, _operators(table, params, k))


def module_to_json(module: SeminormalModule):
    """Basis paths, content lists, rational-gauge operators and radicands.

    ``matrices[g]["cols"][c]`` maps each row r (a decimal string) with a
    nonzero rational-gauge entry [g]_{r,c} to that entry, so a generator
    takes O(nonzeros), not dim^2, strings; ``radicands[g][T]`` is the
    squared off-diagonal product [g]_{T,sT}[g]_{sT,T} of x1 and each t_i,
    "0/1" where s T does not exist; all entries are "p/q" strings.  The
    positive-root matrix has the same diagonal and the nonnegative square
    root of the radicand at (T, sT).
    """
    table = module.table
    n = module.dim
    radicands = {}
    if module.k >= 1:
        radicands["x1"] = [rational_to_str(table.offdiag_x_sq[ti]) for ti in range(n)]
    for i in range(1, module.k):
        radicands[f"t{i}"] = [rational_to_str(table.offdiag_t_sq[(ti, i)]) for ti in range(n)]
    return {
        "lambda": list(module.lam),
        "k": module.k,
        "basis": [[list(shape) for shape in t.shapes] for t in module.basis],
        "contents": [[str(c) for c in row] for row in table.contents],
        "matrices": {
            f"{kind}{idx}": {
                "dim": n,
                "cols": [
                    {str(r): rational_to_str(v) for r, v in sorted(col.items())}
                    for col in op.cols
                ],
            }
            for (kind, idx), op in sorted(module.operators.items())
        },
        "radicands": radicands,
    }


# ---------------------------------------------------------------------------
# criteria (1)-(6)


@dataclass(frozen=True)
class CriteriaReport:
    lam: tuple
    k: int
    items: dict  # item label -> number of instances checked

    def to_dict(self):
        return {"lambda": list(self.lam), "k": self.k, "checked": dict(self.items)}


def check_criteria(lam, params: HeckeParams, k: int) -> CriteriaReport:
    """Verify the six entry criteria over the whole basis.

    Items 1, 2, 4, 5 are rational identities checked exactly.  Items 3
    and 6 mix square roots, so they are checked exactly after squaring
    both sides.  That is the whole check: in the positive-root gauge every
    off-diagonal factor is a nonnegative real, so each chain product is
    the nonnegative square root of its squared chain, and equal squared
    chains give equal chains.

    Each squared entry is read once into an integer numerator and
    denominator, so two squared chains n1/d1 and n2/d2 are compared by
    cross-multiplication, n1 * d2 == n2 * d1, with no Fraction built; an
    undefined move makes its chain 0.  The formula side of items 1, 2, 4
    and 5 depends only on a few exact values, so it is evaluated once per
    distinct key: item 1 per (diag_t, c_i, c_{i+1}), item 2 per (diag_x,
    c_1), item 4 per diag_t and item 5 per c_1.  The keys are the exact
    values read, so a corrupted entry is a new key and is checked anew.
    The sign flip of item 1 and the radicand, symmetry and zero-pattern
    comparisons of items 4 and 5 still run at every tableau.
    """
    table = entry_table(lam, params, k)
    counts = {str(i): 0 for i in range(1, 7)}
    A, B, K = _constants(params)
    a, p = params.a, params.p
    critical = params.critical_shifted_contents()
    basis, contents, neighbor = table.basis, table.contents, table.neighbor_s
    diag_t, t_sq = table.diag_t, table.offdiag_t_sq
    diag_x, x_sq = table.diag_x, table.offdiag_x_sq
    n = len(basis)

    # sq_num[ti][mv] / sq_den[ti][mv] is the squared off-diagonal entry of
    # move mv at tableau ti (mv = 0 is the x_1 move).
    sq_num, sq_den = [], []
    if k >= 1:
        for ti in range(n):
            row = [x_sq[ti]] + [t_sq[(ti, i)] for i in range(1, k)]
            sq_num.append([x.numerator for x in row])
            sq_den.append([x.denominator for x in row])

    def chain_sq(ti, moves):
        """Numerator and denominator of the squared entries along a move sequence.

        ``moves`` lists move indices applied left to right (0 stands for
        the x_1 move).  Returns (0, 1) as soon as a move is undefined,
        matching the vanishing of the corresponding matrix entry.
        """
        num = den = 1
        cur = ti
        for mv in moves:
            nxt = neighbor[cur][mv]
            if nxt is None:
                return 0, 1
            num *= sq_num[cur][mv]
            den *= sq_den[cur][mv]
            cur = nxt
        return num, den

    def chains_agree(ti, left, right):
        n1, d1 = chain_sq(ti, left)
        n2, d2 = chain_sq(ti, right)
        return n1 * d2 == n2 * d1

    passed_1, passed_2 = set(), set()  # keys whose identity already held
    want_4, want_5 = {}, {}  # diag_t -> 1 - diag_t^2; c_1 -> x radicand formula
    for ti in range(n):
        c = contents[ti]
        near = neighbor[ti]
        # (1) diagonal t entries: value * gap = 1, and sign flip across the move.
        for i in range(1, k):
            d = diag_t[(ti, i)]
            key = (d, c[i], c[i + 1])
            if key not in passed_1:
                if d * (c[i + 1] - c[i]) != 1:
                    raise CriterionFailure(1, f"diag t entry at {basis[ti]} i={i}")
                passed_1.add(key)
            si = near[i]
            if si is not None and diag_t[(si, i)] != -d:
                raise CriterionFailure(1, f"diag t sign across s_{i}")
            counts["1"] += 1
        # (2) diagonal x entry: 2c * value = (a-p)c + c^2 + K (pole-free form).
        if k >= 1:
            key = (diag_x[ti], c[1])
            if key not in passed_2:
                if 2 * c[1] * diag_x[ti] != (a - p) * c[1] + c[1] * c[1] + K:
                    raise CriterionFailure(2, f"diag x entry at {basis[ti]}")
                passed_2.add(key)
            counts["2"] += 1
        # (4) involutions: squared off-diagonal = 1 - diag^2, symmetric pair;
        # the zero pattern matches adjacency of consecutive contents.
        for i in range(1, k):
            d = diag_t[(ti, i)]
            if d not in want_4:
                want_4[d] = 1 - d * d
            want = want_4[d]
            si = near[i]
            if si is not None:
                if t_sq[(ti, i)] != want:
                    raise CriterionFailure(4, f"involution radicand at i={i}")
                if t_sq[(si, i)] != t_sq[(ti, i)]:
                    raise CriterionFailure(4, f"involution symmetry at i={i}")
                if want <= 0:
                    raise CriterionFailure(4, f"radicand not positive at i={i}")
            else:
                if c[i + 1] - c[i] not in (1, -1) or want != 0:
                    raise CriterionFailure(4, f"zero pattern broken at i={i}")
            counts["4"] += 1
        # (5) quadratic: four-factor product formula, symmetric, positive;
        # zero exactly at the critical shifted contents.
        if k >= 1:
            cc = c[1]
            if cc not in want_5:
                if cc != 0:
                    want_5[cc] = -((cc + A) * (cc - B) * (cc - A) * (cc + B)) / (4 * cc * cc)
                else:
                    want_5[cc] = _ZERO  # c = B = 0 is critical
            want = want_5[cc]
            s0 = near[0]
            if s0 is not None:
                if x_sq[ti] != want:
                    raise CriterionFailure(5, f"x radicand at {basis[ti]}")
                if x_sq[s0] != x_sq[ti]:
                    raise CriterionFailure(5, "x radicand not symmetric")
                if want <= 0:
                    raise CriterionFailure(5, "x radicand not positive")
            else:
                if cc not in critical or want != 0:
                    raise CriterionFailure(5, "x zero pattern broken")
            counts["5"] += 1
        # (3) commutation, squared: distant t moves and t against s_0.
        for i in range(1, k):
            for j in range(1, k):
                if abs(i - j) <= 1:
                    continue
                if not chains_agree(ti, (j, i), (i, j)):
                    raise CriterionFailure(3, f"t{i}/t{j} commutation at {ti}")
                counts["3"] += 1
            if i > 1:
                if not chains_agree(ti, (0, i), (i, 0)):
                    raise CriterionFailure(3, f"t{i}/x1 commutation at {ti}")
                counts["3"] += 1
        # (6) braid relations, squared.
        for i in range(1, k - 1):
            if not chains_agree(ti, (i, i + 1, i), (i + 1, i, i + 1)):
                raise CriterionFailure(6, f"t braid at i={i}, basis {ti}")
            counts["6"] += 1
        if k >= 2:
            if not chains_agree(ti, (1, 0, 1, 0), (0, 1, 0, 1)):
                raise CriterionFailure(6, f"x braid at basis {ti}")
            counts["6"] += 1

    return CriteriaReport(table.lam, k, counts)


# ---------------------------------------------------------------------------
# full relation suite on the rational operators


def check_full_relations(module: SeminormalModule, catalog=None):
    """Every relation of the compact catalog, exactly, on the rational operators."""
    params = module.params.with_k(module.k)
    if catalog is None:
        catalog = algebra.relations_short(params)
    return algebra.require_passed(
        algebra.check_relations(
            catalog, module.operators, algebra.definitions(params), dim=module.dim
        )
    )


# ---------------------------------------------------------------------------
# simplicity certificate


@dataclass(frozen=True)
class SimplicityCertificate:
    lam: tuple
    k: int
    target: Tableau
    witnesses: dict  # basis index -> tuple of moves (applied left to right)
    projectors_checked: int  # dim: the idempotents E_TT certified by distinctness

    def to_dict(self):
        return {
            "lambda": list(self.lam),
            "k": self.k,
            "witnesses": {str(i): list(w) for i, w in self.witnesses.items()},
            "projectors_checked": self.projectors_checked,
        }


def check_simplicity(module: SeminormalModule) -> SimplicityCertificate:
    """Distinct content lists and connectivity witnesses.

    This is the Okounkov-Vershik argument for Young's seminormal form.
    For each basis tableau T the seminormal projector

        P_T = prod_{S != T} W_S / sum_i (c_T(i) - c_S(i))^2,
        W_S = sum_i (w_i - c_S(i))^2,   i = 1..k,

    is a polynomial in the diagonal w_i, so it is diagonal, with entry
    prod_{S != T} sum_i (c_r(i) - c_S(i))^2 / sum_i (c_T(i) - c_S(i))^2
    at r.  At r = T every factor is 1; at r != T the factor with S = r has
    numerator 0.  Each denominator is a sum of rational squares, so it
    vanishes only when two content lists coincide, which the distinctness
    check rejects.  Hence distinct content lists give P_T = E_TT for every
    T, and ``projectors_checked`` counts those dim idempotents.

    A nonzero submodule therefore contains some basis vector v_T.  If S =
    s_mv T and the squared off-diagonal entry of the pair is nonzero, then
    E_SS g v_T = g_{S,T} v_S with g_{S,T} != 0 (g = x_1 for mv = 0, t_mv
    otherwise), so v_S lies in the submodule too.  Connectivity is one
    breadth-first search from the distinguished tableau over exactly those
    edges of the entry table's move graph.  Every basis tableau must be
    reached, and edges run both ways, so the submodule reaches the
    distinguished vector from v_T and every basis vector from there.  The
    witness of S is the move that reached it followed by the witness of
    its predecessor; each s_mv is an involution, so the word, applied left
    to right, runs from S to the distinguished tableau.
    """
    table = module.table
    n = len(table.basis)
    keys = [c[1:] for c in table.contents]
    if len(set(keys)) != n:
        raise DistinctnessFailure(f"content lists collide on {table.lam}")

    target = t_lambda(table.lam, module.params, module.k)
    try:
        root = table.basis.index(target)
    except ValueError:
        raise ConnectivityFailure(
            f"distinguished tableau {target.shapes} is not a basis tableau"
        ) from None
    witnesses = {root: ()}
    queue = deque([root])
    while queue:
        cur = queue.popleft()
        for mv, nxt in enumerate(table.neighbor_s[cur]):
            if nxt is None or nxt in witnesses:
                continue
            sq = table.offdiag_x_sq[nxt] if mv == 0 else table.offdiag_t_sq[(nxt, mv)]
            if sq == 0:
                continue
            witnesses[nxt] = (mv,) + witnesses[cur]
            queue.append(nxt)
    if len(witnesses) != n:
        raise ConnectivityFailure(
            f"{n - len(witnesses)} of {n} basis tableaux unreached from the "
            f"distinguished tableau of {table.lam}"
        )
    return SimplicityCertificate(
        table.lam, module.k, target, dict(sorted(witnesses.items())), n
    )


def quadratic_deviation(module: SeminormalModule):
    """Largest entries of (x1-a)(x1+p) and (y1-b)(y1+q), exact; 0 on a module.

    y_1 = z_1 - x_1 = w_1 - x_1 + shift.
    """
    params = module.params
    a, b, p, q = params.a, params.b, params.p, params.q
    x1 = algebra.word((algebra.X, 1))
    w1 = algebra.word((algebra.W, 1))
    y1 = algebra.wadd(w1, algebra.wneg(x1), algebra.wconst(params.shift))
    ops = module.operators

    def deviation(gen, lo, hi):
        word = algebra.wmul(
            algebra.wadd(gen, algebra.wconst(-lo)), algebra.wadd(gen, algebra.wconst(hi))
        )
        image = algebra.evaluate_word(word, ops)
        return max((abs(v) for col in image for v in col.values()), default=0)

    return deviation(x1, a, p), deviation(y1, b, q)
