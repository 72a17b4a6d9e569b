"""Typed, exactly-mergeable metric instruments and their registry.

The observability layer's counterpart to
:class:`repro.mc.streaming.StreamingMoments`: every instrument's snapshot
obeys the same **partition-invariance contract** — observing a multiset of
samples split across any number of processes or shards and merging the
snapshots yields bit-identical state, whatever the split or merge order.
That is what lets a ``--mc-jobs 2`` run and a serial run report the
*same* replication and chunk totals.

Three instruments:

* :class:`Counter` — monotone integer; merge is integer addition (exact,
  commutative, associative).
* :class:`Gauge` — a commutative float aggregate (``max`` or ``min``
  only; "last write wins" is order-dependent and therefore banned).
* :class:`Histogram` — fixed buckets chosen at creation; per-bucket
  integer counts plus an **exact** fixed-point integer sum (the
  ``StreamingMoments`` dyadic-rational trick), so merged histograms agree
  bit-for-bit however the samples were partitioned.

Instruments are identified by ``(name, labels)`` where labels are
stringified key/value pairs; a :class:`MetricRegistry` hands out live
instruments, and :class:`MetricsSnapshot` is the frozen, JSON-safe,
mergeable form that crosses process boundaries (``run_sharded`` pool
workers) and lands in ``--metrics-out`` files.

Everything here is stdlib-only and never touches any RNG.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Any, Iterable, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "MetricsSnapshot",
    "DEFAULT_DURATION_BOUNDS",
    "labels_key",
]

#: Fixed-point shift making any finite float64 an exact integer (a finite
#: float is ``num / 2**e`` with ``e <= 1074``); same constant family as
#: ``repro.mc.streaming``.
_SHIFT = 1080

#: Default buckets for duration histograms (seconds): log-spaced from
#: 10 microseconds to 10 minutes, the range spanned by a GF matmul at one
#: end and a whole figure run at the other.
DEFAULT_DURATION_BOUNDS: tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 60.0, 600.0,
)


def _scaled(value: float) -> int:
    """``value * 2**_SHIFT`` as an exact integer (finite floats only)."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"metric samples must be finite, got {value}")
    numerator, denominator = value.as_integer_ratio()
    return numerator << (_SHIFT - (denominator.bit_length() - 1))


def _unscaled(total: int, count: int) -> float:
    """Exactly-rounded mean of a scaled sum over ``count`` samples."""
    if count == 0:
        return math.nan
    return float(Fraction(total, count << _SHIFT))


def labels_key(labels: dict) -> tuple[tuple[str, str], ...]:
    """Canonical identity of a label set: sorted, stringified pairs."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------
class Counter:
    """Monotone integer counter; snapshot merge is plain integer addition."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counters only go up; got inc({n})")
        self.value += int(n)

    def _state(self) -> dict:
        return {"value": self.value}

    def _load(self, state: dict) -> None:
        self.value = int(state["value"])

    def _merge(self, state: dict) -> None:
        self.value += int(state["value"])


class Gauge:
    """Commutative float aggregate: the running ``max`` (or ``min``).

    Only order-independent aggregations are offered — a last-write gauge
    would make merged snapshots depend on shard completion order, which
    the merge contract forbids.  ``value`` is ``None`` until the first
    observation.
    """

    kind = "gauge"
    __slots__ = ("mode", "value")
    _MODES = ("max", "min")

    def __init__(self, mode: str = "max") -> None:
        if mode not in self._MODES:
            raise ValueError(f"gauge mode must be one of {self._MODES}, got {mode!r}")
        self.mode = mode
        self.value: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric samples must be finite, got {value}")
        if self.value is None:
            self.value = value
        elif self.mode == "max":
            self.value = max(self.value, value)
        else:
            self.value = min(self.value, value)

    def _state(self) -> dict:
        return {"mode": self.mode, "value": self.value}

    def _load(self, state: dict) -> None:
        self.mode = state.get("mode", "max")
        value = state["value"]
        self.value = None if value is None else float(value)

    def _merge(self, state: dict) -> None:
        mode = state.get("mode", "max")
        if mode != self.mode:
            raise ValueError(
                f"cannot merge gauge modes {self.mode!r} and {mode!r}"
            )
        if state["value"] is not None:
            self.observe(float(state["value"]))


class Histogram:
    """Fixed-bucket histogram with an exact (mergeable) sum.

    ``bounds`` are the increasing upper bucket edges; a sample lands in
    the first bucket whose edge is ``>= sample``, with one implicit
    overflow bucket above the last edge.  Bucket counts and the total are
    integers; the sum is kept as an exact fixed-point integer so merged
    snapshots are bit-identical for any partition of the samples.
    """

    kind = "histogram"
    __slots__ = ("bounds", "counts", "count", "_sum", "min", "max")

    def __init__(self, bounds: Iterable[float] = DEFAULT_DURATION_BOUNDS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError(f"bucket bounds must be finite: {bounds}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self._sum = 0  # sum(x) * 2**_SHIFT, exact
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        self._sum += _scaled(value)  # validates finiteness
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def sum(self) -> float:
        """The sample sum, exactly rounded to float once, at read time."""
        return _unscaled(self._sum, 1) if self.count else 0.0

    @property
    def mean(self) -> float:
        return _unscaled(self._sum, self.count)

    def _state(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": str(self._sum),  # big int travels as a decimal string
            "min": self.min,
            "max": self.max,
        }

    def _load(self, state: dict) -> None:
        bounds = tuple(float(b) for b in state["bounds"])
        if bounds != self.bounds:
            raise ValueError(
                f"histogram bounds mismatch: {self.bounds} vs {bounds}"
            )
        self.counts = [int(c) for c in state["counts"]]
        if len(self.counts) != len(self.bounds) + 1:
            raise ValueError("histogram counts do not match its bounds")
        self.count = int(state["count"])
        self._sum = int(state["sum"])
        self.min = None if state["min"] is None else float(state["min"])
        self.max = None if state["max"] is None else float(state["max"])

    def _merge(self, state: dict) -> None:
        bounds = tuple(float(b) for b in state["bounds"])
        if bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {bounds}"
            )
        counts = [int(c) for c in state["counts"]]
        if len(counts) != len(self.counts):
            raise ValueError("histogram counts do not match its bounds")
        self.counts = [a + b for a, b in zip(self.counts, counts)]
        self.count += int(state["count"])
        self._sum += int(state["sum"])
        for attr, pick in (("min", min), ("max", max)):
            theirs = state[attr]
            if theirs is not None:
                ours = getattr(self, attr)
                setattr(
                    self,
                    attr,
                    float(theirs) if ours is None else pick(ours, float(theirs)),
                )


_INSTRUMENTS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class MetricRegistry:
    """Get-or-create home of live instruments, keyed by (name, labels).

    Label values are stringified at registration, so any hashable,
    printable value works as a label and the snapshot stays JSON-safe.
    Asking for an existing name with a different instrument kind (or
    different histogram bounds / gauge mode) is an error — silent
    redefinition would corrupt the merge contract.
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple, Any] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._instruments.items())

    def clear(self) -> None:
        self._instruments.clear()

    def _get(self, kind: str, name: str, labels: dict, factory) -> Any:
        key = (str(name), labels_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory()
            self._instruments[key] = instrument
        elif instrument.kind != kind:
            raise TypeError(
                f"metric {name!r}{dict(labels)} is a {instrument.kind}, "
                f"not a {kind}"
            )
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, mode: str = "max", **labels: Any) -> Gauge:
        gauge = self._get("gauge", name, labels, lambda: Gauge(mode))
        if gauge.mode != mode:
            raise ValueError(
                f"gauge {name!r} already registered with mode {gauge.mode!r}"
            )
        return gauge

    def histogram(
        self,
        name: str,
        bounds: Iterable[float] = DEFAULT_DURATION_BOUNDS,
        **labels: Any,
    ) -> Histogram:
        bounds = tuple(float(b) for b in bounds)
        histogram = self._get(
            "histogram", name, labels, lambda: Histogram(bounds)
        )
        if histogram.bounds != bounds:
            raise ValueError(
                f"histogram {name!r} already registered with bounds "
                f"{histogram.bounds}"
            )
        return histogram

    # ------------------------------------------------------------------
    def snapshot(self) -> "MetricsSnapshot":
        """Frozen, mergeable, JSON-safe copy of every instrument."""
        entries = {}
        for (name, labels), instrument in self._instruments.items():
            entries[(name, labels)] = {
                "type": instrument.kind,
                "name": name,
                "labels": dict(labels),
                **instrument._state(),
            }
        return MetricsSnapshot(entries)

    def merge_snapshot(self, snapshot: "MetricsSnapshot") -> None:
        """Fold a snapshot's state into this registry's live instruments.

        Used to roll worker snapshots up into the parent's registry;
        instruments are created on first sight.
        """
        for (name, labels), entry in snapshot._entries.items():
            kind = entry["type"]
            try:
                cls = _INSTRUMENTS[kind]
            except KeyError:
                raise ValueError(f"unknown instrument type {kind!r}") from None
            key = (name, labels)
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls.__new__(cls)
                cls.__init__(
                    instrument,
                    **(
                        {"bounds": entry["bounds"]}
                        if kind == "histogram"
                        else {"mode": entry.get("mode", "max")}
                        if kind == "gauge"
                        else {}
                    ),
                )
                instrument._load(entry)
                self._instruments[key] = instrument
            else:
                if instrument.kind != kind:
                    raise TypeError(
                        f"metric {name!r} is a {instrument.kind} here but a "
                        f"{kind} in the merged snapshot"
                    )
                instrument._merge(entry)


# ----------------------------------------------------------------------
# snapshots (the cross-process unit)
# ----------------------------------------------------------------------
class MetricsSnapshot:
    """Immutable-by-convention registry state: merge and serialize.

    ``merge`` is pure (returns a new snapshot) and — because every
    underlying aggregate is an integer sum, a min, or a max — exactly
    commutative and associative: ``a.merge(b) == b.merge(a)`` bit for
    bit, and any partition of the same observations merges to the same
    snapshot.
    """

    def __init__(self, entries: dict[tuple, dict] | None = None) -> None:
        self._entries = dict(entries or {})

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsSnapshot):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsSnapshot({len(self._entries)} instruments)"

    # ------------------------------------------------------------------
    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Exact commutative merge; returns a new snapshot."""
        registry = MetricRegistry()
        registry.merge_snapshot(self)
        registry.merge_snapshot(other)
        return registry.snapshot()

    @classmethod
    def merge_all(
        cls, snapshots: Iterable["MetricsSnapshot"]
    ) -> "MetricsSnapshot":
        registry = MetricRegistry()
        for snapshot in snapshots:
            registry.merge_snapshot(snapshot)
        return registry.snapshot()

    # ------------------------------------------------------------------
    def value(self, name: str, **labels: Any) -> Any:
        """The value of one instrument (counter/gauge value, histogram
        mean); ``KeyError`` if absent."""
        entry = self._entries[(str(name), labels_key(labels))]
        if entry["type"] == "histogram":
            return _unscaled(int(entry["sum"]), int(entry["count"]))
        return entry["value"]

    def counter_values(self) -> dict[tuple, int]:
        """Every counter as ``{(name, labels): value}`` — the
        deterministic subset used by shard-invariance assertions
        (durations and throughputs are real wall-clock measurements and
        legitimately differ between runs)."""
        return {
            key: int(entry["value"])
            for key, entry in self._entries.items()
            if entry["type"] == "counter"
        }

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "instruments": [
                self._entries[key] for key in sorted(self._entries)
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "MetricsSnapshot":
        registry = MetricRegistry()
        snapshot = cls(
            {
                (
                    str(entry["name"]),
                    labels_key(entry.get("labels", {})),
                ): dict(entry)
                for entry in data.get("instruments", ())
            }
        )
        # round-trip through a registry to validate every entry's shape
        registry.merge_snapshot(snapshot)
        return registry.snapshot()
