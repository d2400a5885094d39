"""Relation catalogs of the two-boundary braid and Hecke algebras.

Relations are data: formal words in the free algebra over the generator
alphabet with rational coefficients, paired left/right sides.  Three
catalogs are provided:

* ``relations_braid(k)``: the graded braid algebra presentation over
  generators t_{s_i}, x_i, y_i, z_i (z_0 included), with the mixed
  products m_{i,j} expanded through transpositions.
* ``relations_short(params)``: the compact Hecke presentation over
  w_0..w_k, x_1, t_{s_1}..t_{s_{k-1}}, with the numeric rectangle
  constants substituted.
* ``relations_consolidated(params)``: the longer Hecke presentation over
  x_i, y_i, z_i, t_{s_i}, used as an independent second suite.

A word is a tuple of (coefficient, factors) terms; a generator is a
(kind, index) pair.  ``evaluate_word`` applies words to sparse columns,
given exact column-sparse operators for some generators and a definition
table for the rest.  The seminormal modules evaluate on the identity
columns, the tensor oracle on the columns of its inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, UnassignedGenerator
from .matrices import as_operator, identity_columns
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


def gen(kind, index):
    return (kind, index)


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

    def to_dict(self):
        return {
            "name": self.name,
            "family": self.family,
            "pass": self.passed,
            "max_deviation": self.max_deviation,
            "exact": self.exact,
        }


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


def relations_short(params: HeckeParams) -> list:
    """Compact presentation over w_0..w_k, x_1, t's with constants filled in."""
    a, b, p, q, k = params.a, params.b, params.p, params.q, params.k
    K = Fraction(a + p + b + q, 2) * Fraction(a + p - (b + q), 2)
    out = []
    if k == 0:
        return out
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
    return out


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


def definitions(params: HeckeParams, primary: str = "w"):
    """Definition table expanding derived generators.

    ``primary`` states which commutative family is directly assigned:
    "w" (the shifted one) or "z".  Either way x_{i+1}, y_i, m_i, and
    transpositions expand recursively down to the assigned alphabet.
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
    if primary == "w":
        for i in range(0, k + 1):
            defs[(Z, i)] = wadd(word((W, i)), wconst(shift))
    elif primary == "z":
        for i in range(0, k + 1):
            defs[(W, i)] = wadd(word((Z, i)), wconst(-shift))
    else:
        raise ValueError("primary must be 'w' or 'z'")
    return defs


# ---------------------------------------------------------------------------
# evaluation


def evaluate_word(w, assignment, defs=None, columns=None, dim=None):
    """Apply a formal word to a list of sparse columns, right to left.

    ``assignment`` maps generators to operators (anything ``as_operator``
    accepts); a generator it lacks is replaced by its definition word from
    ``defs``, applied to the same columns, so no product of operators is
    ever formed.  ``columns`` are {row: entry} dicts without zero entries
    over a row space of ``dim``; they default to the identity columns, in which case the result
    is the word's matrix column by column.  Returns the image columns with
    zero entries dropped, so two results are equal exactly when the words
    agree on the columns.  The result may share dicts with the operators
    and the input columns; treat it as read-only.
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
        columns = identity_columns(dim)

    def apply_gen(g, cols):
        op = ops.get(g)
        if op is not None:
            return op.apply(cols)
        if defs and g in defs:
            return apply_word(defs[g], cols)
        raise UnassignedGenerator(f"no assignment or definition for {g}")

    def apply_word(wrd, cols):
        # Terms often share trailing factors; each suffix is applied once.
        images = {(): cols}
        total = [{} for _ in cols]
        for coeff, factors in wrd:
            cur = cols
            for pos in range(len(factors) - 1, -1, -1):
                suffix = factors[pos:]
                cached = images.get(suffix)
                if cached is None:
                    cached = images[suffix] = apply_gen(factors[pos], cur)
                cur = cached
            if coeff == 1:
                if len(wrd) == 1:
                    return cur
                coeff = None
            elif coeff.denominator == 1:
                coeff = coeff.numerator
            for acc, col in zip(total, cur):
                for i, v in col.items():
                    if coeff is not None:
                        v = coeff * v
                    if i in acc:
                        acc[i] += v
                    else:
                        acc[i] = v
        return [{i: v for i, v in acc.items() if v} for acc in total]

    return apply_word(w, columns)


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

    Every operator is exact, so every comparison is exact; a failing
    relation reports its largest entrywise deviation as a float.
    """
    results = []
    for rel in catalog:
        lhs = evaluate_word(rel.lhs, assignment, defs, columns, dim)
        rhs = evaluate_word(rel.rhs, assignment, defs, columns, dim)
        passed = lhs == rhs
        dev = 0.0 if passed else _max_deviation(lhs, rhs)
        results.append(RelationResult(rel.name, rel.family, passed, dev, True))
    return results
