"""Brute-force gl_n tensor-space realization at desk scale.

The carrier is the subspace U = im(e_M) x im(e_N) x V^{x k} of the ambient
tensor power V^{x(ap+bq+k)}, where e_M and e_N are Young symmetrizers for
the rectangles.  All operators are exact column-sparse operators on the
ambient space, built from leg transpositions:

* gamma acting on factor sets A and B is the sum of leg swaps P_{l,m}
  over l in A, m in B (trace-form dual bases collapse to swaps);
* the braid/Hecke generator images are gamma sums with the scalar
  constants folded in, so for gl_n the twisted images are integral.

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
from .partitions import as_partition, enum_Pk, shifted_content, tableaux_to, weyl_dim

MAX_RECT_BOXES = 6
MAX_CARRIER_DIM = 20000
MAX_BLOCK_DIM = 210


# ---------------------------------------------------------------------------
# constants


def twist_constants(n: int):
    """The shift constants making the braid action factor through the quotient.

    For gl_n both are -n/2, the same at every strand.
    """
    return {"c_x": Fraction(-n, 2), "c_y": Fraction(-n, 2)}


# ---------------------------------------------------------------------------
# ambient tensor carrier


@dataclass(frozen=True)
class Carrier:
    """Leg bookkeeping for V^{x(ap + bq + k)} with mixed-radix indexing."""

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

    def decode(self, idx):
        digits = []
        for _ in range(self.total_legs):
            digits.append(idx % self.n)
            idx //= self.n
        return tuple(reversed(digits))

    def encode(self, digits):
        idx = 0
        for d in digits:
            idx = idx * self.n + d
        return idx


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
    cols = []
    for j in range(carrier.dim):
        t = list(carrier.decode(j))
        t[l1], t[l2] = t[l2], t[l1]
        cols.append({carrier.encode(t): 1})
    return SparseOperator(cols)


def gamma_pair(carrier: Carrier, factor_a, factor_b) -> SparseOperator:
    """Sum over leg pairs of the two factors of the value swap."""
    legs_a = carrier.legs(factor_a)
    legs_b = carrier.legs(factor_b)
    if set(legs_a) & set(legs_b):
        raise FactorOutOfRange("gamma needs distinct factors")
    cols = []
    for j in range(carrier.dim):
        t = carrier.decode(j)
        col = {}
        for la in legs_a:
            for lb in legs_b:
                s = list(t)
                s[la], s[lb] = s[lb], s[la]
                i = carrier.encode(s)
                col[i] = col.get(i, 0) + 1
        cols.append(col)
    return SparseOperator(cols)


def elementary_action(carrier: Carrier, i: int, j: int, legs) -> SparseOperator:
    """E_ij acting as a derivation across the given legs (0-indexed values)."""
    cols = []
    for idx in range(carrier.dim):
        t = carrier.decode(idx)
        col = {}
        for leg in legs:
            if t[leg] == j:
                s = list(t)
                s[leg] = i
                new = carrier.encode(s)
                col[new] = col.get(new, 0) + 1
        cols.append(col)
    return SparseOperator(cols)


# ---------------------------------------------------------------------------
# highest weight realization via Young symmetrizers


@dataclass(frozen=True)
class HighestWeightRealization:
    lam: tuple
    n: int
    power: int  # number of tensor legs
    columns: tuple  # integer basis columns of the image, as tuples
    norm: Fraction  # y^2 = norm * y

    @property
    def dim(self):
        return len(self.columns)


def _row_group(lam):
    filling = []
    label = 0
    for width in lam:
        filling.append(list(range(label, label + width)))
        label += width
    groups = [list(itertools.permutations(row)) for row in filling]
    perms = []
    for combo in itertools.product(*groups):
        perm = list(range(sum(lam)))
        for row, img in zip(filling, combo):
            for src, dst in zip(row, img):
                perm[src] = dst
        perms.append(tuple(perm))
    return perms


def _col_group_signed(lam):
    m = sum(lam)
    cols = {}
    label = 0
    for r, width in enumerate(lam):
        for c in range(width):
            cols.setdefault(c, []).append(label)
            label += 1
    groups = []
    for _, members in sorted(cols.items()):
        groups.append([(p, _perm_sign(p)) for p in itertools.permutations(range(len(members)))])
    signed = []
    for combo in itertools.product(*groups):
        perm = list(range(m))
        sign = 1
        for (_, members), (img, sgn) in zip(sorted(cols.items()), combo):
            for pos, where in enumerate(img):
                perm[members[pos]] = members[where]
            sign *= sgn
        signed.append((tuple(perm), sign))
    return signed


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _young_terms(lam):
    """(sign, leg permutation) terms of the symmetrizer: rows after columns."""
    terms = []
    for sigma in _row_group(lam):
        for tau, sign in _col_group_signed(lam):
            composed = tuple(sigma[tau[i]] for i in range(len(sigma)))
            terms.append((sign, composed))
    return terms


def _apply_perm_to_tuple(perm, t):
    # position j of the image reads position perm^{-1}(j); build via scatter
    out = [0] * len(t)
    for src, dst in enumerate(perm):
        out[dst] = t[src]
    return tuple(out)


def young_image_columns(lam, n: int):
    """Integer basis of the symmetrizer image inside V^{x|lam|}."""
    lam = as_partition(lam)
    m = sum(lam)
    if m > MAX_RECT_BOXES:
        raise CapExceeded(f"|lam| = {m} exceeds the cap {MAX_RECT_BOXES}")
    if len(lam) > n:
        raise HeightExceeded(f"height {len(lam)} > n = {n}")
    target = weyl_dim(lam, n)
    terms = _young_terms(lam)
    dim = n ** m

    def decode(idx):
        digits = []
        for _ in range(m):
            digits.append(idx % n)
            idx //= n
        return tuple(reversed(digits))

    def encode(t):
        idx = 0
        for d in t:
            idx = idx * n + d
        return idx

    def y_column(j):
        t = decode(j)
        col = {}
        for sign, perm in terms:
            i = encode(_apply_perm_to_tuple(perm, t))
            col[i] = col.get(i, 0) + sign
        return {i: v for i, v in col.items() if v}

    basis = []  # accepted integer columns
    echelon = []  # (pivot index, Fraction row) pairs
    for j in range(dim):
        col = y_column(j)
        if not col:
            continue
        vec = [Fraction(0)] * dim
        for i, v in col.items():
            vec[i] = Fraction(v)
        for piv, row in echelon:
            if vec[piv]:
                coef = vec[piv] / row[piv]
                vec = [a - coef * b for a, b in zip(vec, row)]
        piv = next((i for i, v in enumerate(vec) if v), None)
        if piv is None:
            continue
        echelon.append((piv, vec))
        dense = [0] * dim
        for i, v in col.items():
            dense[i] = v
        basis.append(tuple(dense))
        if len(basis) == target:
            break
    if len(basis) != target:
        raise InvariantViolation(
            f"symmetrizer image for {lam} has rank {len(basis)}, expected {target}"
        )
    return basis, terms, (decode, encode)


def realize_module(lam, n: int) -> HighestWeightRealization:
    """Concrete copy of the irreducible module inside the tensor power."""
    lam = as_partition(lam)
    basis, terms, (decode, encode) = young_image_columns(lam, n)
    m = sum(lam)

    def apply_y(vec):
        out = {}
        for idx, v in enumerate(vec):
            if not v:
                continue
            t = decode(idx)
            for sign, perm in terms:
                i = encode(_apply_perm_to_tuple(perm, t))
                out[i] = out.get(i, 0) + sign * v
        return out

    # y acts on its own image by the quasi-idempotent scalar; pin it down
    # from the first basis vector and verify on the rest.
    first = apply_y(basis[0])
    ratios = {
        Fraction(first.get(i, 0), v) for i, v in enumerate(basis[0]) if v
    }
    if len(ratios) != 1:
        raise InvariantViolation("symmetrizer is not quasi-idempotent on its image")
    norm = ratios.pop()
    for col in basis:
        image = apply_y(col)
        for i, v in enumerate(col):
            if Fraction(image.get(i, 0)) != norm * v:
                raise InvariantViolation("symmetrizer normalization failed")
    return HighestWeightRealization(lam, n, m, tuple(basis), norm)


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


# Factors whose gamma with V factor i opens the x, y and z images.
_HEADS = {"x": ("M",), "y": ("N",), "z": ("M", "N")}


class TensorOracle:
    """Ambient operators, inclusion columns, and the verification suites."""

    def __init__(self, params: HeckeParams, n: int, c_z=0):
        self.carrier = Carrier(n, params.a * params.p, params.b * params.q, params.k)
        _validate_caps(params, self.carrier)
        self.params = params
        self.n = n
        self.c_z = Fraction(c_z)
        self._gamma_cache = {}
        self._mod_m = realize_module((params.a,) * params.p, n)
        self._mod_n = realize_module((params.b,) * params.q, n)
        self.inclusion_columns = self._build_inclusion()

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

    def t_image(self, i):
        legs = self.carrier.legs(i) + self.carrier.legs(i + 1)
        return leg_swap(self.carrier, legs[0], legs[1])

    def x_image(self, i):
        return self._sum(self._gamma_terms("x", i, 1))

    def y_image(self, i):
        return self._sum(self._gamma_terms("y", i, 1))

    def z_image(self, i):
        if i == 0:
            return self._sum([(1, self.gamma("M", "N"))], self.c_z)
        return self._sum(self._gamma_terms("z", i, 1))

    def w_image(self, i):
        return self._sum([(1, self.z_image(i))], -self.params.shift)

    def phi_images(self):
        """Twisted operators for every generator kind."""
        k = self.params.k
        out = {}
        for i in range(1, k):
            out[(algebra.T, i)] = self.t_image(i)
        for i in range(1, k + 1):
            out[(algebra.X, i)] = self.x_image(i)
            out[(algebra.Y, i)] = self.y_image(i)
            out[(algebra.Z, i)] = self.z_image(i)
        out[(algebra.Z, 0)] = self.z_image(0)
        for i in range(0, k + 1):
            out[(algebra.W, i)] = self.w_image(i)
        return out

    # -- inclusion ---------------------------------------------------------

    def _build_inclusion(self):
        """Sparse columns of im(e_M) x im(e_N) x V^{x k} in the ambient basis."""
        nk = self.n ** self.params.k
        dim_n_amb = self.n ** self._mod_n.power
        cols = []
        for cm in self._mod_m.columns:
            nz_m = [(i, v) for i, v in enumerate(cm) if v]
            for cn in self._mod_n.columns:
                nz_n = [(i, v) for i, v in enumerate(cn) if v]
                for t in range(nk):
                    cols.append(
                        {(im * dim_n_amb + inn) * nk + t: vm * vn for im, vm in nz_m for inn, vn in nz_n}
                    )
        return cols

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
                self.phi_images(),
                algebra.definitions(params),
                self.inclusion_columns,
                self.carrier.dim,
            )
        )

    def check_commutant(self):
        """Generator images commute with every E_ij action, ambient-exact.

        Checked on the integral generating family t, x_i, y_i, z_i; the
        shifted w_i differ from z_i by central scalars, so nothing more is
        needed.  The columns of G E and E G are compared, each computed by
        applying one sparse operator to the columns of the other.
        """
        k = self.params.k
        gens = {}
        for i in range(1, k):
            gens[("t", i)] = self.t_image(i)
        for i in range(1, k + 1):
            gens[("x", i)] = self.x_image(i)
            gens[("y", i)] = self.y_image(i)
            gens[("z", i)] = self.z_image(i)
        gens[("z", 0)] = self.gamma("M", "N")
        legs = tuple(range(self.carrier.total_legs))
        checked = 0
        for i in range(self.n):
            for j in range(self.n):
                e = elementary_action(self.carrier, i, j, legs)
                for name, g in gens.items():
                    if g.apply(e.cols) != e.apply(g.cols):
                        raise CommutantFailure(f"{name} does not commute with E[{i},{j}]")
                    checked += 1
        return {"pairs_checked": checked}

    def predicted_spectra(self):
        """Eigenvalue -> multiplicity per level, from tableaux and Weyl dims.

        z_i eigenvalues are plain box contents for i >= 1 and the gamma
        constant of the starting shape plus c_z for i = 0.
        """
        params = self.params
        k = params.k
        preds = [dict() for _ in range(k + 1)]
        for lam in sorted(enum_Pk(params, k, max_height=self.n), reverse=True):
            wd = weyl_dim(lam, self.n)
            for t in tableaux_to(lam, k, params):
                for i in range(0, k + 1):
                    c = shifted_content(t, i, params) + params.shift
                    if i == 0:
                        c = c + self.c_z
                    preds[i][c] = preds[i].get(c, 0) + wd
        return preds

    def check_spectra(self):
        """Annihilating polynomials and exact eigenvalue multiplicities."""
        preds = self.predicted_spectra()
        d = self.module_dim
        report = []
        for i, pred in enumerate(preds):
            op = self.z_image(i)
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
            t = self.t_image(i)
            expected = algebra.evaluate_word(algebra.word("t", coeff=2), {"t": t})
            for kind in ("x", "y", "z"):
                ops = {
                    "t": t,
                    "a": self.untwisted_doubled(kind, i),
                    "b": self.untwisted_doubled(kind, i + 1),
                }
                if algebra.evaluate_word(difference, ops) != expected:
                    raise RelationFailure(f"{kind} factor difference at {i}", "nonzero")
        return k - 1

    def untwisted_doubled(self, kind, i) -> SparseOperator:
        """2 * (untwisted image): integral since 2 * (n/2) = n.

        x_i doubles to 2(gamma_M,i + sum gamma) + n; y_i likewise with N;
        z_i doubles to 2(gamma_M,i + gamma_N,i + sum gamma) + 2n, and z_0
        to 2 gamma_{M,N}.  Built from the gammas, not from the twisted
        images, so that check_twist_shifts compares two constructions.
        """
        if kind == "z" and i == 0:
            return self._sum([(2, self.gamma("M", "N"))])
        return self._sum(self._gamma_terms(kind, i, 2), self.n * len(_HEADS[kind]))

    def check_twist_shifts(self):
        """Twisted and untwisted images differ exactly by the scalar shifts.

        Compared at double scale so everything stays integral: the
        shifts are c_x = c_y = -n/2 for x and y, c_x + c_y = -n for z.
        """

        def shifted_by(twisted, untwisted2, shift):
            doubled = algebra.evaluate_word(*_linear_word([(2, twisted)]))
            return doubled == algebra.evaluate_word(*_linear_word([(1, untwisted2)], 2 * shift))

        consts = twist_constants(self.n)
        shifts = {"x": consts["c_x"], "y": consts["c_y"], "z": consts["c_x"] + consts["c_y"]}
        images = {"x": self.x_image, "y": self.y_image, "z": self.z_image}
        k = self.params.k
        for i in range(1, k + 1):
            for kind, shift in shifts.items():
                if not shifted_by(images[kind](i), self.untwisted_doubled(kind, i), shift):
                    raise RelationFailure(f"{kind} twist shift at {i}", "nonzero")
        if not shifted_by(self.z_image(0), self.untwisted_doubled("z", 0), self.c_z):
            raise RelationFailure("z_0 twist shift", "nonzero")
        return k
