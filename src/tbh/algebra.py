"""Relation catalogs of the two-boundary braid and Hecke algebras.

Relations are data: formal words in the free algebra over the generator
alphabet with rational coefficients, paired left/right sides.  Two
catalogs are provided:

* ``relations_braid(k)``: the graded braid algebra presentation over
  generators t_{s_i}, x_i, y_i, z_i (z_0 included), with the mixed
  products m_{i,j} expanded through transpositions.
* ``relations_short(params)``: the compact Hecke presentation over
  w_0..w_k, x_1, t_{s_1}..t_{s_{k-1}}, with the numeric rectangle
  constants substituted.

The longer Hecke presentation over x_i, y_i, z_i and t_{s_i}, run by the
tests as an independent second suite, lives in ``tests/reference.py``.

A word is a tuple of (coefficient, factors) terms; a generator is a
(kind, index) pair.  ``evaluate_word`` applies words to sparse columns,
given exact column-sparse operators for some generators and a definition
table for the rest.  The seminormal modules evaluate on the identity
columns, the tensor oracle on the columns of its inclusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .errors import DimensionMismatch, RelationFailure, UnassignedGenerator
from .matrices import as_operator, identity_columns, integer_columns, rational_columns
from .params import HeckeParams

# ---------------------------------------------------------------------------
# generators and words

T = "t"  # simple transposition t_{s_i}, i = 1..k-1
X = "x"
Y = "y"
Z = "z"
W = "w"
M = "m"  # m_i = sum of transpositions t_{(j i)}, j < i
TP = "tp"  # t_{(i j)} transposition, index = (i, j) with i < j


def word(*factors, coeff=1):
    """Single-term word: coeff * product of generators."""
    coeff = Fraction(coeff)
    return ((coeff, tuple(factors)),) if coeff else ()


def wconst(c):
    c = Fraction(c)
    return ((c, ()),) if c else ()


def wadd(*words):
    out = []
    for w in words:
        out.extend(w)
    return tuple(out)


def wneg(w):
    return tuple((-c, fs) for c, fs in w)


def wsub(u, v):
    return wadd(u, wneg(v))


def wmul(*words):
    terms = [(Fraction(1), ())]
    for w in words:
        terms = [(c1 * c2, f1 + f2) for c1, f1 in terms for c2, f2 in w]
    return tuple(terms)


def wscale(c, w):
    c = Fraction(c)
    return tuple((c * c0, fs) for c0, fs in w) if c else ()


@dataclass(frozen=True)
class RelationPair:
    name: str
    family: str
    lhs: tuple
    rhs: tuple


@dataclass(frozen=True)
class RelationResult:
    name: str
    family: str
    passed: bool
    max_deviation: float
    exact: bool


# ---------------------------------------------------------------------------
# catalogs


def _sym_group_relations(k, out):
    for i in range(1, k):
        out.append(RelationPair(f"t{i}^2 = 1", "t.involution", word((T, i), (T, i)), wconst(1)))
    for i in range(1, k - 1):
        out.append(
            RelationPair(
                f"t{i} t{i+1} t{i} = t{i+1} t{i} t{i+1}",
                "t.braid",
                word((T, i), (T, i + 1), (T, i)),
                word((T, i + 1), (T, i), (T, i + 1)),
            )
        )
    for i in range(1, k):
        for j in range(i + 2, k):
            out.append(
                RelationPair(
                    f"t{i} t{j} = t{j} t{i}",
                    "t.commute",
                    word((T, i), (T, j)),
                    word((T, j), (T, i)),
                )
            )


@lru_cache(maxsize=None)
def relations_short(params: HeckeParams) -> tuple:
    """Compact presentation over w_0..w_k, x_1, t's with constants filled in.

    Built once per params and shared, so it is a tuple.
    """
    a, b, p, q, k = params.a, params.b, params.p, params.q, params.k
    K = Fraction(a + p + b + q, 2) * Fraction(a + p - (b + q), 2)
    out = []
    if k == 0:
        return ()
    _sym_group_relations(k, out)
    x1 = word((X, 1))
    if k >= 2:
        inner = wadd(word((T, 1), (X, 1), (T, 1)), word((T, 1)))
        out.append(
            RelationPair(
                "x1 (t1 x1 t1 + t1) = (t1 x1 t1 + t1) x1",
                "x.braid",
                wmul(x1, inner),
                wmul(inner, x1),
            )
        )
    out.append(
        RelationPair(
            f"(x1 - {a})(x1 + {p}) = 0",
            "x.quadratic",
            wmul(wadd(x1, wconst(-a)), wadd(x1, wconst(p))),
            (),
        )
    )
    for i in range(1, k):
        for j in range(0, k + 1):
            if j in (i, i + 1):
                continue
            out.append(
                RelationPair(
                    f"t{i} w{j} = w{j} t{i}",
                    "commute.tw",
                    word((T, i), (W, j)),
                    word((W, j), (T, i)),
                )
            )
    for i in range(2, k + 1):
        out.append(
            RelationPair(
                f"x1 w{i} = w{i} x1", "commute.xw", word((X, 1), (W, i)), word((W, i), (X, 1))
            )
        )
    for i in range(2, k):
        out.append(
            RelationPair(
                f"x1 t{i} = t{i} x1", "commute.xt", word((X, 1), (T, i)), word((T, i), (X, 1))
            )
        )
    for i in range(0, k + 1):
        for j in range(i + 1, k + 1):
            out.append(
                RelationPair(
                    f"w{i} w{j} = w{j} w{i}",
                    "commute.ww",
                    word((W, i), (W, j)),
                    word((W, j), (W, i)),
                )
            )
    for i in range(1, k):
        out.append(
            RelationPair(
                f"t{i} w{i} = w{i+1} t{i} - 1",
                "twist.tw",
                word((T, i), (W, i)),
                wadd(word((W, i + 1), (T, i)), wconst(-1)),
            )
        )
    out.append(
        RelationPair(
            "x1 w0 = w0 x1 - (x1 w1 - w1 x1)",
            "twist.xw0",
            word((X, 1), (W, 0)),
            wadd(word((W, 0), (X, 1)), wneg(word((X, 1), (W, 1))), word((W, 1), (X, 1))),
        )
    )
    out.append(
        RelationPair(
            f"x1 w1 = -w1 x1 + {a - p} w1 + w1^2 + {K}",
            "twist.xw1",
            word((X, 1), (W, 1)),
            wadd(
                wneg(word((W, 1), (X, 1))),
                wscale(a - p, word((W, 1))),
                word((W, 1), (W, 1)),
                wconst(K),
            ),
        )
    )
    return tuple(out)


def relations_braid(k: int) -> list:
    """Graded braid algebra catalog over t's, x_i, y_i, z_i (z_0 included)."""
    out = []
    if k == 0:
        return out
    _sym_group_relations(k, out)
    for i in range(1, k + 1):
        out.append(
            RelationPair(
                f"z{i} = x{i} + y{i} - m{i}",
                "z.definition",
                word((Z, i)),
                wadd(word((X, i)), word((Y, i)), wneg(word((M, i)))),
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
    for i in range(1, k):
        for kind, fam in ((X, "commute.tx"), (Y, "commute.ty")):
            for j in range(1, k + 1):
                if j in (i, i + 1):
                    continue
                out.append(
                    RelationPair(
                        f"t{i} {kind}{j} = {kind}{j} t{i}",
                        fam,
                        word((T, i), (kind, j)),
                        word((kind, j), (T, i)),
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
    for kind, fam in ((X, "twist.xzsum"), (Y, "twist.yzsum")):
        for j in range(1, k + 1):
            for i in range(j, k + 1):
                zsum = wadd(*[word((Z, r)) for r in range(0, i + 1)])
                out.append(
                    RelationPair(
                        f"(z0+..+z{i}) {kind}{j} = {kind}{j} (z0+..+z{i})",
                        fam,
                        wmul(zsum, word((kind, j))),
                        wmul(word((kind, j)), zsum),
                    )
                )
    for kind, fam in ((X, "twist.tsum.x"), (Y, "twist.tsum.y")):
        for i in range(1, k):
            pair = wadd(word((kind, i)), word((kind, i + 1)))
            out.append(
                RelationPair(
                    f"t{i} ({kind}{i}+{kind}{i+1}) = ({kind}{i}+{kind}{i+1}) t{i}",
                    fam,
                    wmul(word((T, i)), pair),
                    wmul(pair, word((T, i))),
                )
            )
    for kind, fam in ((X, "braid.shift.x"), (Y, "braid.shift.y")):
        for i in range(1, k - 1):
            diff_i = wsub(word((kind, i + 1)), word((T, i), (kind, i), (T, i)))
            diff_next = wsub(word((kind, i + 2)), word((T, i + 1), (kind, i + 1), (T, i + 1)))
            out.append(
                RelationPair(
                    f"(t{i} t{i+1}) m({kind}{i+1}) (t{i+1} t{i}) = m({kind}{i+2})",
                    fam,
                    wmul(word((T, i), (T, i + 1)), diff_i, word((T, i + 1), (T, i))),
                    diff_next,
                )
            )
    for i in range(1, k):
        out.append(
            RelationPair(
                f"x{i+1} - t{i} x{i} t{i} = y{i+1} - t{i} y{i} t{i}",
                "braid.xy.match",
                wsub(word((X, i + 1)), word((T, i), (X, i), (T, i))),
                wsub(word((Y, i + 1)), word((T, i), (Y, i), (T, i))),
            )
        )
    return out


# ---------------------------------------------------------------------------
# derived-element definitions


def transposition_word(i: int, j: int):
    """Reduced word for the transposition (i j), i < j, via adjacent swaps.

    (i j) = s_i s_{i+1} ... s_{j-2} s_{j-1} s_{j-2} ... s_{i+1} s_i.
    """
    if not i < j:
        raise ValueError("need i < j")
    ups = [(T, r) for r in range(i, j - 1)]
    downs = [(T, r) for r in range(j - 2, i - 1, -1)]
    return word(*(ups + [(T, j - 1)] + downs))


@lru_cache(maxsize=None)
def definitions(params: HeckeParams):
    """Definition table expanding derived generators.

    The shifted family w_i is the one assigned directly: z_i, x_{i+1},
    y_i, m_i and transpositions expand recursively down to it.  Built once
    per params and shared, so it is a read-only mapping.
    """
    k = params.k
    shift = params.shift
    defs = {}
    for i in range(2, k + 1):
        defs[(X, i)] = wadd(
            word((T, i - 1), (X, i - 1), (T, i - 1)), word((T, i - 1))
        )
    for i in range(1, k + 1):
        defs[(M, i)] = wadd(*[transposition_word(j, i) for j in range(1, i)])
        defs[(Y, i)] = wadd(word((Z, i)), wneg(word((X, i))), word((M, i)))
    for i in range(0, k + 1):
        defs[(Z, i)] = wadd(word((W, i)), wconst(shift))
    return MappingProxyType(defs)


# ---------------------------------------------------------------------------
# evaluation


def _prepare(assignment, columns, dim):
    """Operators, dimension checks and the scaled input block, once per suite.

    A block is (integer columns, den): the rational columns are the integer
    ones divided by the positive int den.
    """
    ops = {g: as_operator(v) for g, v in assignment.items()}
    for g, op in ops.items():
        if dim is None:
            dim = op.dim
        if op.dim != dim:
            raise DimensionMismatch(f"generator {g} has dim {op.dim}, expected {dim}")
    if columns is None:
        if dim is None:
            raise DimensionMismatch("identity columns need a dim or an assignment")
        return ops, (identity_columns(dim), 1)
    return ops, integer_columns(columns)


def _reduced(cols, den):
    """The canonical block: entries and den divided by their gcd."""
    if den == 1:
        return cols, 1
    g = den
    for col in cols:
        if col:
            g = math.gcd(g, *col.values())
            if g == 1:
                return cols, den
    return [{i: v // g for i, v in col.items()} for col in cols], den // g


def _word_evaluator(ops, defs):
    """apply_word(word, block) -> the word's image of the block, reduced.

    Applying a generator multiplies the denominators; a sum of terms goes
    over the lcm of coefficient denominator times block den.  Each result
    is reduced, so nested definitions do not grow the integers and two
    words agree on the block exactly when their results are equal.
    """

    def apply_gen(g, block):
        op = ops.get(g)
        if op is not None:
            cols, den = block
            return op.apply_num(cols), den * op.den
        if defs and g in defs:
            return apply_word(defs[g], block)
        raise UnassignedGenerator(f"no assignment or definition for {g}")

    def apply_word(wrd, block):
        # Terms often share trailing factors; each suffix is applied once.
        images = {(): block}
        terms = []
        for coeff, factors in wrd:
            cur = block
            for pos in range(len(factors) - 1, -1, -1):
                suffix = factors[pos:]
                cached = images.get(suffix)
                if cached is None:
                    cached = images[suffix] = apply_gen(factors[pos], cur)
                cur = cached
            terms.append((coeff, cur))
        if len(terms) == 1 and terms[0][0] == 1:
            return _reduced(*terms[0][1])
        den = 1
        for coeff, (_, d) in terms:
            den = math.lcm(den, coeff.denominator * d)
        total = [{} for _ in block[0]]
        for coeff, (cols, d) in terms:
            f = coeff.numerator * (den // (coeff.denominator * d))
            for acc, col in zip(total, cols):
                for i, v in col.items():
                    if f != 1:
                        v *= f
                    if i in acc:
                        acc[i] += v
                    else:
                        acc[i] = v
        return _reduced([{i: v for i, v in acc.items() if v} for acc in total], den)

    return apply_word


def evaluate_word(w, assignment, defs=None, columns=None, dim=None):
    """Apply a formal word to a list of sparse columns, right to left.

    ``assignment`` maps generators to operators (anything ``as_operator``
    accepts); a generator it lacks is replaced by its definition word from
    ``defs``, applied to the same columns, so no product of operators is
    ever formed.  ``columns`` are {row: entry} dicts without zero entries
    over a row space of ``dim``; they default to the identity columns, in
    which case the result is the word's matrix column by column.  The
    evaluation runs on integer numerators over one denominator per block
    (each operator's ``num`` and ``den``) and divides once at the end.
    Returns the image columns with zero entries dropped, so two results
    are equal exactly when the words agree on the columns.  The result may
    share dicts with the operators and the input columns; treat it as
    read-only.
    """
    ops, block = _prepare(assignment, columns, dim)
    return rational_columns(*_word_evaluator(ops, defs)(w, block))


def _max_deviation(lhs, rhs):
    return max(
        (
            abs(float(a.get(i, 0) - b.get(i, 0)))
            for a, b in zip(lhs, rhs)
            for i in a.keys() | b.keys()
        ),
        default=0.0,
    )


def check_relations(catalog, assignment, defs=None, columns=None, dim=None):
    """Evaluate both sides of every relation pair on the same columns.

    The operators and the input columns are prepared once for the whole
    catalog.  Both sides are compared as reduced (integer columns, den)
    pairs, which are equal exactly when the rational images are; only a
    failing relation is divided out, to report its largest entrywise
    deviation as a float.
    """
    ops, block = _prepare(assignment, columns, dim)
    apply_word = _word_evaluator(ops, defs)
    results = []
    for rel in catalog:
        lhs = apply_word(rel.lhs, block)
        rhs = apply_word(rel.rhs, block)
        passed = lhs == rhs
        if passed:
            dev = 0.0
        else:
            dev = _max_deviation(rational_columns(*lhs), rational_columns(*rhs))
        results.append(RelationResult(rel.name, rel.family, passed, dev, True))
    return results


def require_passed(results):
    """The results, unless a relation failed: then RelationFailure for the first."""
    for r in results:
        if not r.passed:
            raise RelationFailure(r.name, r.max_deviation)
    return results
