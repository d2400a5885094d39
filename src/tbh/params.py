"""Rectangle parameters (a, b, p, q) and strand count k.

The pair of rectangles is normalized on construction so that p >= q, and
a >= b whenever p == q: the parent/child case analysis of the partition
combinatorics assumes exactly that ordering, and the two rectangles play
symmetric roles otherwise.  ``normalized`` records whether a swap happened
so the CLI can print a notice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class HeckeParams:
    a: int
    b: int
    p: int
    q: int
    k: int = 0
    normalized: bool = False

    def __post_init__(self):
        for name in ("a", "b", "p", "q"):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if not isinstance(self.k, int) or self.k < 0:
            raise ValueError(f"k must be a nonnegative integer, got {self.k!r}")
        # Normalize to p >= q, and a >= b when p == q, by swapping rectangles.
        if self.q > self.p or (self.p == self.q and self.b > self.a):
            a, b, p, q = self.b, self.a, self.q, self.p
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
            object.__setattr__(self, "p", p)
            object.__setattr__(self, "q", q)
            object.__setattr__(self, "normalized", True)

    @property
    def shift(self) -> Fraction:
        """The constant (a-p+b-q)/2 separating plain and shifted contents."""
        return Fraction(self.a - self.p + self.b - self.q, 2)

    @property
    def weight(self) -> int:
        """Number of boxes of every partition in P: a*p + b*q."""
        return self.a * self.p + self.b * self.q

    def with_k(self, k: int) -> "HeckeParams":
        return HeckeParams(self.a, self.b, self.p, self.q, k)

    def critical_shifted_contents(self):
        """Shifted contents (+-(a+p)+-(b+q))/2 where the x_1 off-diagonal dies."""
        a, b, p, q = self.a, self.b, self.p, self.q
        return {
            Fraction(sa * (a + p) + sb * (b + q), 2)
            for sa in (1, -1)
            for sb in (1, -1)
        }
