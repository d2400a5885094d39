"""Exception hierarchy shared across the package."""


class TbhError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(TbhError):
    """Matrix operands have incompatible dimensions."""


class NotInP(TbhError):
    """Partition is not in the rectangle-pair set P."""


class NotInP1(TbhError):
    """Partition is not in P_1 (one box added to a member of P)."""


class NotInPk(TbhError):
    """Partition is not in P_k for the given strand count."""


class VertexNotFound(TbhError):
    """Requested vertex is absent from the Bratteli diagram."""


class UnassignedGenerator(TbhError):
    """A word mentions a generator with no operator assignment or definition."""


class InexactEntry(TbhError):
    """An operator handed to the word evaluator has an entry that is not int or Fraction."""


class EntryPole(TbhError):
    """A seminormal entry formula was evaluated at one of its poles.

    Consecutive shifted contents never coincide, and a zero first content
    occurs only when B = 0; hitting either pole is an upstream bug.
    """


class CriterionFailure(TbhError):
    """One of the six seminormal entry criteria failed."""

    def __init__(self, item, message):
        super().__init__(f"criterion ({item}): {message}")
        self.item = item


class RelationFailure(TbhError):
    """A defining relation failed on concrete matrices."""

    def __init__(self, name, deviation):
        super().__init__(f"relation {name} failed (max deviation {deviation})")
        self.name = name
        self.deviation = deviation


class InvariantViolation(TbhError):
    """An internal invariant that the mathematics guarantees did not hold.

    Raised instead of ``assert`` so that it survives ``python -O``; it
    always indicates an upstream bug rather than bad user input.
    """


class DistinctnessFailure(TbhError):
    """Two basis tableaux share a shifted-content list."""


class ConnectivityFailure(TbhError):
    """The move word connecting a tableau to the distinguished one broke down."""


class CapExceeded(TbhError):
    """A desk-scale cap of the tensor oracle was exceeded."""


class HeightExceeded(TbhError):
    """Partition height exceeds the number of matrix rows n."""


class FactorOutOfRange(TbhError):
    """Tensor-factor index outside the carrier layout."""


class CommutantFailure(TbhError):
    """An operator failed to commute with the gl_n action."""


class SpectrumMismatch(TbhError):
    """Observed spectrum disagrees with the combinatorial prediction."""
