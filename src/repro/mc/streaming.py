"""Mergeable streaming moments for the sharded Monte-Carlo engine.

:class:`StreamingMoments` replaces the per-replication sample vectors the
serial simulators materialise: a shard folds its samples in as it produces
them, ships one tiny accumulator across the process boundary, and the
parent merges the shards — O(shards) memory instead of O(replications).

The hard requirement (see ``DESIGN.md`` section 11) is that one root seed
yields **bit-identical** ``(mean, stderr, replications)`` regardless of how
the replications are split into shards and chunks, how many workers run
them, or the order in which shards complete.  A textbook Welford/Chan
merge cannot promise that: float addition is not associative, so different
partitions round differently.  Instead the accumulator is *exact*: every
sample (a finite float64, hence a dyadic rational) is converted to a
fixed-point integer, and the running sum and sum of squares are arbitrary-
precision integers.  Integer addition is associative and commutative, so
``merge`` is exact by construction and any shard/chunk/order split of the
same sample multiset produces the same accumulator state.  Rounding back
to float happens once, at read time, via exactly-rounded ``Fraction``
arithmetic.

The cost is two big-int additions per distinct sample value (the integers
stay around 1.1k/2.2k bits), which is noise next to one Monte-Carlo
replication of any simulator in :mod:`repro.mc`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

import numpy as np

from repro.mc._common import MCResult

__all__ = ["StreamingMoments"]

#: Fixed-point shift for the first moment.  A finite float64 is
#: ``num / 2**k`` with ``k <= 1074`` (smallest subnormal), so scaling by
#: ``2**_SHIFT`` with ``_SHIFT >= 1074`` makes every sample an integer.
_SHIFT = 1080
#: Second-moment shift: squares have denominators up to ``2**(2*1074)``.
_SHIFT2 = 2 * _SHIFT


class StreamingMoments:
    """Exact, mergeable count / sum / sum-of-squares accumulator.

    The public face is the classic Welford triple — ``count``, ``mean``,
    ``m2`` — but the internal state is exact fixed-point integers so that
    :meth:`merge` commutes and associates *exactly* (see module docstring).

    Only finite samples are accepted; NaN/inf raise ``ValueError`` at
    ``update`` time rather than silently poisoning the estimate.
    """

    __slots__ = ("count", "_s1", "_s2")

    def __init__(self) -> None:
        self.count = 0
        self._s1 = 0  # sum(x)   * 2**_SHIFT, exact
        self._s2 = 0  # sum(x*x) * 2**_SHIFT2, exact

    # ------------------------------------------------------------------
    # accumulation
    # ------------------------------------------------------------------
    def update(self, sample: float) -> None:
        """Fold one sample in."""
        self._fold(float(sample), 1)

    def update_many(self, samples: Iterable[float] | np.ndarray) -> None:
        """Fold a chunk of samples in (order cannot affect the result).

        Each distinct value is folded once, weighted by how often it
        occurs: a chunk of ``sent / k`` samples holds a handful of distinct
        values, so this is a handful of big-int folds, not one per sample.
        A non-finite sample rejects the whole chunk before anything is
        folded.
        """
        flat = np.asarray(samples, dtype=float).ravel()
        finite = np.isfinite(flat)
        if not finite.all():
            bad = float(flat[np.argmin(finite)])
            raise ValueError(f"samples must be finite, got {bad}")
        values, counts = np.unique(flat, return_counts=True)
        for value, count in zip(values.tolist(), counts.tolist()):
            self._fold(value, count)

    def _fold(self, value: float, count: int) -> None:
        """Fold ``count`` copies of ``value`` in."""
        if not math.isfinite(value):
            raise ValueError(f"samples must be finite, got {value}")
        numerator, denominator = value.as_integer_ratio()
        k = denominator.bit_length() - 1  # denominator is 2**k exactly
        self._s1 += count * (numerator << (_SHIFT - k))
        self._s2 += count * ((numerator * numerator) << (_SHIFT2 - 2 * k))
        self.count += count

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Exact merge, in place; returns self for chaining.

        ``a.merge(b)`` leaves ``a`` in the state it would have reached by
        folding ``b``'s samples directly — bit-identical, whatever the
        interleaving.
        """
        self.count += other.count
        self._s1 += other._s1
        self._s2 += other._s2
        return self

    # ------------------------------------------------------------------
    # read-out (the only place rounding happens)
    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        """Exactly-rounded sample mean."""
        if self.count == 0:
            raise ValueError("no samples accumulated")
        return float(Fraction(self._s1, self.count << _SHIFT))

    def _m2_fraction(self) -> Fraction:
        # sum((x - mean)^2) == (n * sum(x^2) - sum(x)^2) / n, exactly;
        # non-negative by Cauchy-Schwarz because both sums are exact
        return Fraction(
            self.count * self._s2 - self._s1 * self._s1,
            self.count << _SHIFT2,
        )

    @property
    def m2(self) -> float:
        """Sum of squared deviations from the mean (Welford's ``M2``)."""
        if self.count == 0:
            raise ValueError("no samples accumulated")
        return float(self._m2_fraction())

    @property
    def variance(self) -> float:
        """Unbiased sample variance; NaN below two samples (undefined)."""
        if self.count == 0:
            raise ValueError("no samples accumulated")
        if self.count < 2:
            return math.nan
        return float(self._m2_fraction() / (self.count - 1))

    @property
    def stderr(self) -> float:
        """Standard error of the mean; NaN below two samples."""
        if self.count < 2:
            if self.count == 0:
                raise ValueError("no samples accumulated")
            return math.nan
        return math.sqrt(self.variance / self.count)

    def result(self) -> MCResult:
        """The accumulated estimate as an :class:`MCResult`."""
        return MCResult(self.mean, self.stderr, self.count)

    # ------------------------------------------------------------------
    # serialization (pool worker -> parent)
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """JSON-safe state; the big integers travel as decimal strings."""
        return {"count": self.count, "s1": str(self._s1), "s2": str(self._s2)}

    @classmethod
    def from_json(cls, data: dict) -> "StreamingMoments":
        """Inverse of :meth:`to_json`; rejects any state that no multiset
        of finite samples produces (it would merge silently and skew the
        accumulator it joins)."""
        moments = cls()
        moments.count = count = int(data["count"])
        moments._s1 = s1 = int(data["s1"])
        moments._s2 = s2 = int(data["s2"])
        if count < 0:
            raise ValueError(f"negative count {count}")
        if count == 0 and (s1 or s2):
            raise ValueError("s1/s2: non-zero sums with count 0")
        if s2 < 0:
            raise ValueError("s2: negative sum of squares")
        if count * s2 < s1 * s1:
            # Cauchy-Schwarz: n * sum(x^2) >= sum(x)^2 for real samples
            raise ValueError(f"s2: below s1**2 / count at count {count}")
        return moments

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamingMoments):
            return NotImplemented
        return (
            self.count == other.count
            and self._s1 == other._s1
            and self._s2 == other._s2
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.count == 0:
            return "StreamingMoments(empty)"
        return (
            f"StreamingMoments(count={self.count}, mean={self.mean:.6g}, "
            f"stderr={self.stderr:.3g})"
        )
