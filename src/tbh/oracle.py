"""Brute-force gl_n tensor-space realization at desk scale.

The carrier is the subspace U = im(e_M) x im(e_N) x V^{x k} of the ambient
tensor power V^{x(ap+bq+k)}, where e_M and e_N are Young symmetrizers for
the rectangles.  A basis word of a tensor power is a tuple of values
0..n-1, one per leg.  Every operator is an exact column-sparse operator
built by one kernel, ``_leg_operator``, which sends each basis word to a
sum of words:

* a leg swap P_{l,m} exchanges two letters;
* gamma acting on factor sets A and B is the sum of the leg swaps P_{l,m}
  over l in A, m in B (trace-form dual bases collapse to swaps);
* E_ij turns one letter j into i, summed over the legs;
* a Young symmetrizer is a signed sum of leg permutations.

``young_image`` keeps the symmetrizer columns that exact integer
elimination over all of them finds independent, so the dimension of the
image is certified to be the Weyl dimension, and it checks that the
symmetrizer is quasi-idempotent on them.  The generator images are gamma
sums, integral for gl_n; they are built once per oracle into the read-only
mapping ``TensorOracle.images``, which every stage reads.

Sums and scalar shifts of operators are linear words, run through the
same word evaluator as the relations.  Relations that only hold on U are
checked on the sparse inclusion columns J; identities that hold
ambient-wide (commutant, factor-difference identity, twist shifts) are
checked on all ambient columns.  Both are exact comparisons of sparse
column lists.  Spectral multiplicities come from exact ranks computed
one connected block at a time (``matrices.rank_of_columns``):
the fraction-free ``rank_exact`` only ever sees one block, never the whole
module, and no numerical eigensolver is involved.

Two caps bound the work.  ``MAX_CARRIER_DIM`` bounds the ambient carrier,
on which the commutant, transport and twist stages build their operators.
``MAX_BLOCK_DIM`` bounds the largest gl_n weight space of the ambient
carrier, which contains every rank block: the z_i commute with every E_jj.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from . import algebra
from .bratteli import build_diagram, dimension_vector
from .errors import (
    CapExceeded,
    CommutantFailure,
    FactorOutOfRange,
    HeightExceeded,
    InvariantViolation,
    RelationFailure,
    SpectrumMismatch,
)
from .matrices import SparseOperator, rank_of_columns
from .params import HeckeParams
from .partitions import as_partition, enum_Pk, gamma_rect, plain_contents, tableaux_to, weyl_dim

MAX_RECT_BOXES = 6
MAX_CARRIER_DIM = 20000
MAX_BLOCK_DIM = 210


# ---------------------------------------------------------------------------
# ambient tensor carrier and the leg-operator kernel


@dataclass(frozen=True)
class Carrier:
    """Leg bookkeeping for V^{x(ap + bq + k)}."""

    n: int
    legs_m: int
    legs_n: int
    k: int

    @property
    def total_legs(self):
        return self.legs_m + self.legs_n + self.k

    @property
    def dim(self):
        return self.n ** self.total_legs

    @property
    def largest_weight_space(self):
        """The largest gl_n weight space: the legs split as evenly as possible."""
        q, r = divmod(self.total_legs, self.n)
        return math.factorial(self.total_legs) // (
            math.factorial(q + 1) ** r * math.factorial(q) ** (self.n - r)
        )

    @cached_property
    def index(self):
        """Basis word -> basis position; words run lexicographically, leg 0 leading."""
        words = itertools.product(range(self.n), repeat=self.total_legs)
        return {w: i for i, w in enumerate(words)}

    def legs(self, factor):
        if factor == "M":
            return tuple(range(self.legs_m))
        if factor == "N":
            return tuple(range(self.legs_m, self.legs_m + self.legs_n))
        if factor == "MN":
            return tuple(range(self.legs_m + self.legs_n))
        if isinstance(factor, int):
            if not 1 <= factor <= self.k:
                raise FactorOutOfRange(f"V factor {factor} outside 1..{self.k}")
            return (self.legs_m + self.legs_n + factor - 1,)
        raise FactorOutOfRange(f"unknown factor {factor!r}")


def _leg_operator(carrier: Carrier, moves) -> SparseOperator:
    """The operator sending each basis word w to the sum of c w' over (w', c) in moves(w)."""
    index = carrier.index
    cols = []
    for w in index:
        col = {}
        for image, c in moves(w):
            i = index[image]
            col[i] = col.get(i, 0) + c
        cols.append(col)
    return SparseOperator(cols)


def _swapped(w, a, b):
    s = list(w)
    s[a], s[b] = s[b], s[a]
    return tuple(s)


def _linear_word(terms, const=0):
    """The word sum_j c_j g_j + const and the assignment g_j -> op_j.

    ``terms`` are (c_j, op_j) pairs.  A sum or scalar shift of operators is
    this word, evaluated on the identity columns by the word evaluator, so
    operators need no arithmetic of their own.
    """
    word = algebra.wadd(
        algebra.wconst(const), *(algebra.word(j, coeff=c) for j, (c, _) in enumerate(terms))
    )
    return word, {j: op for j, (_, op) in enumerate(terms)}


def _linear_operator(dim, terms, const=0) -> SparseOperator:
    return SparseOperator(algebra.evaluate_word(*_linear_word(terms, const), dim=dim))


def leg_swap(carrier: Carrier, l1: int, l2: int) -> SparseOperator:
    return _leg_operator(carrier, lambda w: ((_swapped(w, l1, l2), 1),))


def gamma_pair(carrier: Carrier, factor_a, factor_b) -> SparseOperator:
    """Sum over leg pairs of the two factors of the value swap."""
    legs_a = carrier.legs(factor_a)
    legs_b = carrier.legs(factor_b)
    if set(legs_a) & set(legs_b):
        raise FactorOutOfRange("gamma needs distinct factors")
    pairs = [(la, lb) for la in legs_a for lb in legs_b]
    return _leg_operator(carrier, lambda w: ((_swapped(w, la, lb), 1) for la, lb in pairs))


def elementary_action(carrier: Carrier, i: int, j: int, legs) -> SparseOperator:
    """E_ij acting as a derivation across the given legs (0-indexed values)."""
    return _leg_operator(
        carrier, lambda w: ((w[:l] + (i,) + w[l + 1 :], 1) for l in legs if w[l] == j)
    )


# ---------------------------------------------------------------------------
# highest weight modules as Young symmetrizer images


def _block_perms(blocks, m):
    """(sign, perm) of every permutation of range(m) mapping each block onto itself."""
    out = []
    for images in itertools.product(*map(itertools.permutations, blocks)):
        perm = list(range(m))
        for block, image in zip(blocks, images):
            for src, dst in zip(block, image):
                perm[src] = dst
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        out.append((-1 if inversions % 2 else 1, tuple(perm)))
    return out


def _young_terms(lam):
    """(sign, src) terms of the symmetrizer: row permutations after signed column ones.

    Legs are labelled row by row.  A term sends a word w to the word whose
    leg j reads leg src[j] of w.  Each group is closed under inverses, so
    reading legs through perm rather than its inverse sums to the same
    operator.
    """
    m = sum(lam)
    rows = [range(s, s + width) for s, width in zip(itertools.accumulate(lam, initial=0), lam)]
    cols = [[row[c] for row in rows if c < len(row)] for c in range(lam[0])]
    col_perms = _block_perms(cols, m)
    return [
        (sign, tuple(tau[s] for s in sigma))
        for _, sigma in _block_perms(rows, m)
        for sign, tau in col_perms
    ]


def _independent_columns(cols):
    """The integer columns independent of the ones before them, in order.

    Exact fraction-free elimination on sparse columns: each kept column is
    reduced against the earlier pivots and stored, divided by its content,
    under its smallest remaining row.
    """
    kept = []
    echelon = []  # (pivot row, reduced column), zero at every earlier pivot
    for col in cols:
        vec = col
        for piv, row in echelon:
            a = vec.get(piv)
            if a:
                b = row[piv]
                vec = {i: b * vec.get(i, 0) - a * row.get(i, 0) for i in vec.keys() | row.keys()}
                vec = {i: v for i, v in vec.items() if v}
        if vec:
            g = math.gcd(*vec.values())
            echelon.append((min(vec), {i: v // g for i, v in vec.items()}))
            kept.append(col)
    return kept


def young_image(lam, n: int):
    """Sparse integer basis columns of the symmetrizer image in V^{x|lam|}.

    Every column of the symmetrizer y goes through the elimination, so the
    image's rank is certified, not only reached: it must equal the Weyl
    dimension of L(lam).  y must then act on every kept column by one
    scalar (quasi-idempotence).
    """
    lam = as_partition(lam)
    m = sum(lam)
    if m > MAX_RECT_BOXES:
        raise CapExceeded(f"|lam| = {m} exceeds the cap {MAX_RECT_BOXES}")
    if len(lam) > n:
        raise HeightExceeded(f"height {len(lam)} > n = {n}")
    terms = _young_terms(lam)
    y = _leg_operator(
        Carrier(n, m, 0, 0), lambda w: ((tuple(w[s] for s in src), sign) for sign, src in terms)
    )
    basis = _independent_columns(y.cols)
    if not basis:
        raise InvariantViolation(f"symmetrizer for {lam} is zero")
    images = y.apply(basis)
    i0, v0 = next(iter(basis[0].items()))
    norm = Fraction(images[0].get(i0, 0), v0)
    for col, image in zip(basis, images):
        if image != {i: norm * v for i, v in col.items()}:
            raise InvariantViolation("symmetrizer is not quasi-idempotent on its image")
    target = weyl_dim(lam, n)
    if len(basis) != target:
        raise InvariantViolation(
            f"symmetrizer image for {lam} has rank {len(basis)}, expected {target}"
        )
    return basis


# ---------------------------------------------------------------------------
# the full oracle


def _validate_caps(params: HeckeParams, carrier: Carrier):
    """Refuse a configuration before any operator is built.

    The carrier cap bounds the carrier-wide operators; the block cap bounds
    the largest rank block, which lies in one weight space.  The carrier
    cap alone lets (1,1,1,1) n=2 k=12 through: carrier 16,384, but a weight
    space of 3,432, far past any exact elimination at desk scale.
    """
    if params.p + params.q > carrier.n:
        raise CapExceeded(f"p + q = {params.p + params.q} exceeds n = {carrier.n}")
    if params.a * params.p > MAX_RECT_BOXES or params.b * params.q > MAX_RECT_BOXES:
        raise CapExceeded(f"rectangle size exceeds {MAX_RECT_BOXES} boxes")
    if carrier.dim > MAX_CARRIER_DIM:
        raise CapExceeded(f"carrier dimension {carrier.dim} exceeds {MAX_CARRIER_DIM}")
    if carrier.largest_weight_space > MAX_BLOCK_DIM:
        raise CapExceeded(
            f"largest weight space {carrier.largest_weight_space} exceeds {MAX_BLOCK_DIM}"
        )


# Factors whose gamma with V factor i opens the x, y and z images.  The
# twist shifts each image by -n/2 per head factor.
_HEADS = {algebra.X: ("M",), algebra.Y: ("N",), algebra.Z: ("M", "N")}


class TensorOracle:
    """Ambient operators, inclusion columns, and the verification suites."""

    def __init__(self, params: HeckeParams, n: int):
        self.carrier = Carrier(n, params.a * params.p, params.b * params.q, params.k)
        _validate_caps(params, self.carrier)
        self.params = params
        self.n = n
        self._gamma_cache = {}
        mod_m = young_image((params.a,) * params.p, n)
        mod_n = young_image((params.b,) * params.q, n)
        # im(e_M) x im(e_N) x V^{x k}: the ambient index is (i_M, i_N, i_V) in mixed radix
        dim_n, dim_v = n ** self.carrier.legs_n, n ** params.k
        self.inclusion_columns = [
            {(im * dim_n + jn) * dim_v + t: vm * vn for im, vm in cm.items() for jn, vn in cn.items()}
            for cm in mod_m
            for cn in mod_n
            for t in range(dim_v)
        ]

    # -- operators ---------------------------------------------------------

    def gamma(self, fa, fb):
        key = (fa, fb)
        if key not in self._gamma_cache:
            self._gamma_cache[key] = gamma_pair(self.carrier, fa, fb)
        return self._gamma_cache[key]

    def _sum(self, terms, const=0) -> SparseOperator:
        return _linear_operator(self.carrier.dim, terms, const)

    def _gamma_terms(self, kind, i, coeff):
        """coeff * gamma_{F,i} for the head factors F of ``kind``, then for l < i."""
        return [(coeff, self.gamma(f, i)) for f in _HEADS[kind] + tuple(range(1, i))]

    @cached_property
    def images(self):
        """Generator -> twisted image, built on first read and shared by every stage.

        t_i is the leg swap of V factors i and i+1; x_i, y_i and z_i are the
        gamma sums of their head factors with V factor i plus gamma_{l,i}
        for l < i; z_0 is gamma_{M,N}; w_i is z_i minus the shift.  All but
        the w_i are integral.  The mapping is read-only.
        """
        k = self.params.k
        out = {}
        for i in range(1, k):
            legs = self.carrier.legs(i) + self.carrier.legs(i + 1)
            out[(algebra.T, i)] = leg_swap(self.carrier, *legs)
        for i in range(1, k + 1):
            for kind in _HEADS:
                out[(kind, i)] = self._sum(self._gamma_terms(kind, i, 1))
        out[(algebra.Z, 0)] = self.gamma("M", "N")
        for i in range(k + 1):
            out[(algebra.W, i)] = self._sum([(1, out[(algebra.Z, i)])], -self.params.shift)
        return MappingProxyType(out)

    @property
    def module_dim(self):
        return len(self.inclusion_columns)

    # -- word evaluation on the inclusion -----------------------------------

    def evaluate_on_inclusion(self, word, assignment, defs=None):
        """Apply a formal word to the sparse inclusion columns, right to left."""
        return algebra.evaluate_word(
            word, assignment, defs, self.inclusion_columns, self.carrier.dim
        )

    # -- suites --------------------------------------------------------------

    def check_transport(self, catalog=None):
        """Every Hecke relation holds exactly on the carrier submodule."""
        params = self.params
        if catalog is None:
            catalog = algebra.relations_short(params)
        return algebra.require_passed(
            algebra.check_relations(
                catalog,
                self.images,
                algebra.definitions(params),
                self.inclusion_columns,
                self.carrier.dim,
            )
        )

    def check_commutant(self):
        """Generator images commute with every E_ij action, ambient-exact.

        Checked on the integral generating family t_i, x_i, y_i, z_i; the
        shifted w_i differ from z_i by central scalars, so nothing more is
        needed.  The columns of G E and E G are compared, each computed by
        applying one sparse operator to the columns of the other.
        """
        gens = {g: op for g, op in self.images.items() if g[0] != algebra.W}
        legs = tuple(range(self.carrier.total_legs))
        for i in range(self.n):
            for j in range(self.n):
                e = elementary_action(self.carrier, i, j, legs)
                for name, g in gens.items():
                    if g.apply(e.cols) != e.apply(g.cols):
                        raise CommutantFailure(f"{name} does not commute with E[{i},{j}]")
        return {"pairs_checked": self.n**2 * len(gens)}

    def predicted_spectra(self):
        """Eigenvalue -> multiplicity per level, from tableaux and Weyl dims.

        z_i eigenvalues are the plain contents of the added boxes for
        i >= 1 and the gamma constant of the starting shape for i = 0.
        """
        params = self.params
        preds = [dict() for _ in range(params.k + 1)]
        for lam in sorted(enum_Pk(params, params.k, max_height=self.n), reverse=True):
            wd = weyl_dim(lam, self.n)
            for t in tableaux_to(lam, params.k, params):
                eigenvalues = (gamma_rect(t.start, params),) + plain_contents(t.shapes)
                for pred, c in zip(preds, eigenvalues):
                    pred[c] = pred.get(c, 0) + wd
        return preds

    def check_spectra(self):
        """Annihilating polynomials and exact eigenvalue multiplicities."""
        preds = self.predicted_spectra()
        d = self.module_dim
        report = []
        for i, pred in enumerate(preds):
            op = self.images[(algebra.Z, i)]
            total = sum(pred.values())
            if total != d:
                raise SpectrumMismatch(
                    f"predicted multiplicities for z_{i} sum to {total}, dim is {d}"
                )
            shifted = {c: self._sum([(1, op)], -c) for c in pred}
            lowest, *rest = sorted(pred)
            # the image under z_i - lowest starts the annihilating chain and
            # gives that eigenvalue's rank
            first = shifted[lowest].apply(self.inclusion_columns)
            cols = first
            for c in rest:
                cols = shifted[c].apply(cols)
            if any(cols):
                raise SpectrumMismatch(f"annihilating polynomial of z_{i} is nonzero")
            for c, mult in sorted(pred.items()):
                # rank of the restriction as a map out of the submodule
                image = first if c == lowest else shifted[c].apply(self.inclusion_columns)
                rank = rank_of_columns(image)
                if d - rank != mult:
                    raise SpectrumMismatch(
                        f"z_{i} eigenvalue {c}: multiplicity {d - rank}, predicted {mult}"
                    )
                report.append({"level": i, "eigenvalue": str(c), "multiplicity": mult})
        return report

    def check_dimension_bookkeeping(self):
        """Sum over shapes of path count x Weyl dimension equals dim U."""
        diagram = build_diagram(self.params, max_height=self.n)
        dims = dimension_vector(diagram, self.params.k + 1)
        total = sum(cnt * weyl_dim(lam, self.n) for lam, cnt in dims.items())
        if total != self.module_dim:
            raise SpectrumMismatch(f"dimension count {total} != dim U {self.module_dim}")
        return total

    def check_factor_difference(self):
        """x_{i+1} - t x_i t = y_{i+1} - t y_i t = z_{i+1} - t z_i t = gamma_{i,i+1}.

        An ambient operator identity for the untwisted action; checked on
        doubled operators to stay integral.  On two copies of V,
        gamma_{i,i+1} is the single leg swap t_i, so the right side is t_i:
        the cached gamma_{i,i+1} is a term of the left side and would
        cancel against itself.
        """
        k = self.params.k
        difference = algebra.wsub(algebra.word("b"), algebra.word("t", "a", "t"))
        for i in range(1, k):
            t = self.images[(algebra.T, i)]
            expected = algebra.evaluate_word(algebra.word("t", coeff=2), {"t": t})
            for kind in _HEADS:
                ops = {
                    "t": t,
                    "a": self.untwisted_doubled(kind, i),
                    "b": self.untwisted_doubled(kind, i + 1),
                }
                if algebra.evaluate_word(difference, ops) != expected:
                    raise RelationFailure(f"{kind} factor difference at {i}", "nonzero")
        return k - 1

    def untwisted_doubled(self, kind, i) -> SparseOperator:
        """2 * (untwisted image of x_i, y_i or z_i, i >= 1): integral since 2 * (n/2) = n.

        Twice the gamma sum of the twisted image plus n per head factor:
        2(gamma_M,i + sum gamma) + n for x_i, likewise with N for y_i, and
        2(gamma_M,i + gamma_N,i + sum gamma) + 2n for z_i.  Built from the
        gammas, not read from ``images``, so that check_twist_shifts
        compares two constructions.
        """
        return self._sum(self._gamma_terms(kind, i, 2), self.n * len(_HEADS[kind]))

    def check_twist_shifts(self):
        """Twisted and untwisted images differ exactly by -n/2 per head factor.

        Compared at double scale so everything stays integral: the shift
        is -n/2 for x_i and y_i, -n for z_i.  z_0 = gamma_{M,N} is not
        twisted.
        """
        k = self.params.k
        for i in range(1, k + 1):
            for kind, heads in _HEADS.items():
                doubled = algebra.evaluate_word(*_linear_word([(2, self.images[(kind, i)])]))
                untwisted = self.untwisted_doubled(kind, i)
                shifted = algebra.evaluate_word(*_linear_word([(1, untwisted)], -self.n * len(heads)))
                if doubled != shifted:
                    raise RelationFailure(f"{kind} twist shift at {i}", "nonzero")
        return k
