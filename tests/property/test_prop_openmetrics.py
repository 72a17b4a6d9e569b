"""Property-based tests of the exact metrics format.

The promise under test extends the obs merge laws to the export layer:
``MetricsSnapshot.from_json(json.loads(json.dumps(s.to_json()))) == s``
bit-for-bit — including exact fixed-point histogram sums whose decimal
strings run to hundreds of digits, "never observed" gauges, and label
values holding quotes, backslashes and newlines.  The same entries are
the NDJSON rows of ``--metrics-out`` files, so ``read_telemetry`` folds
an :func:`repro.obs.export_metrics` dump back to the snapshot exactly.
"""

import json
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import MetricRegistry, MetricsSnapshot

# JSON carries any label text; surrogates are excluded only because they
# cannot be encoded at all.
label_values = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8
)
label_sets = st.dictionaries(
    st.sampled_from(["protocol", "kind", "odd key", 'q"k']),
    label_values,
    max_size=2,
)
names = st.sampled_from(
    ["net.frames_tx", "transfer.naks", "weird name:x", "a.b", "a_b"]
)
samples = st.floats(
    allow_nan=False, allow_infinity=False, width=64,
    min_value=-1e300, max_value=1e300,
)

BOUNDS = (0.001, 1.0, 1000.0)

counter_events = st.tuples(
    st.just("counter"), names, label_sets,
    st.integers(min_value=0, max_value=1 << 60),
)
gauge_events = st.tuples(
    st.just("gauge"), names.map(lambda n: n + ".g"), label_sets,
    st.one_of(st.none(), samples),  # None: registered but never observed
)
histogram_events = st.tuples(
    st.just("histogram"), names.map(lambda n: n + ".h"), label_sets, samples
)
event_lists = st.lists(
    st.one_of(counter_events, gauge_events, histogram_events), max_size=40
)


def _json_transport(snapshot: MetricsSnapshot) -> MetricsSnapshot:
    return MetricsSnapshot.from_json(json.loads(json.dumps(snapshot.to_json())))


def _apply(registry: MetricRegistry, events) -> None:
    for kind, name, labels, value in events:
        if kind == "counter":
            registry.counter(name, **labels).inc(value)
        elif kind == "gauge":
            gauge = registry.gauge(name, mode="max", **labels)
            if value is not None:
                gauge.observe(value)
        else:
            registry.histogram(name, bounds=BOUNDS, **labels).observe(value)


class TestRoundTrip:
    @given(events=event_lists)
    @settings(max_examples=80, deadline=None)
    def test_parse_inverts_render_bit_identically(self, events):
        """The exact JSON text is the one form every reader parses back:
        parsing it inverts the render bit-for-bit."""
        registry = MetricRegistry()
        _apply(registry, events)
        snapshot = registry.snapshot()
        assert _json_transport(snapshot) == snapshot

    @given(events=event_lists)
    @settings(max_examples=30, deadline=None)
    def test_metrics_out_rows_fold_back_exactly(self, events):
        registry = MetricRegistry()
        _apply(registry, events)
        snapshot = registry.snapshot()
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "metrics.ndjson"
            assert obs.export_metrics(path, snapshot) == len(snapshot)
            rebuilt = obs.read_telemetry(path)
        assert rebuilt == snapshot

    @given(
        exponents=st.lists(
            st.integers(min_value=-250, max_value=250), min_size=1, max_size=12
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_big_int_histogram_sums_survive(self, exponents):
        """Histogram sums are exact fixed-point integers; observing
        10**250 makes the decimal string several hundred digits long and
        it must still round-trip without float truncation."""
        registry = MetricRegistry()
        hist = registry.histogram("h", bounds=BOUNDS)
        for exponent in exponents:
            hist.observe(float(10) ** exponent)
        snapshot = registry.snapshot()
        parsed = _json_transport(snapshot)
        key = ("h", ())
        assert parsed._entries[key]["sum"] == snapshot._entries[key]["sum"]
        assert parsed == snapshot
