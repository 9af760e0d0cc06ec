"""The per-frame ledger codec is exact, and its decoder fails only typed.

:class:`~repro.stream.FrameStats` is the serving protocol's per-row
payload: a streamed reply carries one per frame, and cache keys hash the
canonical ``to_dict`` JSON.  Its codec is table-driven (an explicit dict
literal out, a module-level ``(name, type, type name)`` table in).  These
properties pin it to the ``dataclasses.fields``-driven codec it replaced:

* any row round-trips exactly through ``to_dict`` -> JSON -> ``from_dict``,
  and encodes to the same JSON text as the old ``to_dict``;
* the keys come out in field order;
* a mutated row (key dropped, extra key, bool for int, int for bool, str
  for float, any field set to any JSON value, a non-dict row) raises
  ``ValueError`` — never another exception type — with the same message
  as the old decoder, and ``StreamOutcome.from_dict`` prefixes it with
  the row's index.
"""

import json
from dataclasses import fields

from hypothesis import given, settings, strategies as st

from repro.stream import FrameStats, StreamOutcome

FIELDS = [f.name for f in fields(FrameStats)]
INT_FIELDS = [f.name for f in fields(FrameStats) if f.type == "int"]
BOOL_FIELDS = [f.name for f in fields(FrameStats) if f.type == "bool"]


# -- the codec as it was before the table-driven rewrite -----------------------


def _reference_require(value, fieldname, kind, type_name):
    if kind is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ValueError(f"{fieldname}: expected {type_name}, got {value!r}")
    return value


def reference_to_dict(stats):
    return {f.name: getattr(stats, f.name) for f in fields(stats)}


def reference_from_dict(data):
    _reference_require(data, "frame_stats", dict, "dict")
    known = {f.name for f in fields(FrameStats)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"frame_stats: unknown field(s) {unknown}; "
            f"known fields: {sorted(known)}"
        )
    missing = sorted(known - set(data))
    if missing:
        raise ValueError(f"frame_stats: missing field(s) {missing}")
    kwargs = {}
    for f in fields(FrameStats):
        kind = {"int": int, "bool": bool, "str": str, "float": float}[f.type]
        value = _reference_require(data[f.name], f"frame_stats.{f.name}", kind, f.type)
        kwargs[f.name] = float(value) if kind is float else value
    return FrameStats(**kwargs)


# -- strategies ----------------------------------------------------------------

# NaN is left out: it never equals itself, so equality could not witness
# an exact round trip (the JSON-text comparisons below would still hold).
FLOATS = st.floats(allow_nan=False)

frame_stats = st.builds(
    FrameStats,
    frame_index=st.integers(min_value=0, max_value=2**40),
    ran_stage1=st.booleans(),
    reused_rois=st.booleans(),
    reason=st.text(max_size=12),
    n_rois=st.integers(min_value=0, max_value=64),
    stage1_bytes=st.integers(min_value=0),
    roi_feedback_bytes=st.integers(min_value=0),
    stage2_bytes=st.integers(min_value=0),
    stage1_conversions=st.integers(min_value=0),
    stage2_conversions=st.integers(),
    energy_j=FLOATS,
    peak_image_memory_bytes=st.integers(min_value=0),
)

JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), FLOATS, st.text(max_size=8)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=5), inner, max_size=3),
    ),
    max_leaves=6,
)


@st.composite
def mutation(draw, row: dict) -> None:
    """Apply one mutation to ``row`` in place."""
    kind = draw(
        st.sampled_from(
            ["drop", "extra", "bool-for-int", "int-for-bool", "str-for-float", "any"]
        )
    )
    if kind == "drop" and row:
        del row[draw(st.sampled_from(sorted(row)))]
    elif kind == "extra":
        row[draw(st.text(max_size=10).filter(lambda k: k not in FIELDS))] = draw(
            JSON_VALUES
        )
    elif kind == "bool-for-int":
        row[draw(st.sampled_from(INT_FIELDS))] = draw(st.booleans())
    elif kind == "int-for-bool":
        row[draw(st.sampled_from(BOOL_FIELDS))] = draw(st.integers())
    elif kind == "str-for-float":
        row["energy_j"] = draw(st.text(max_size=8))
    else:
        row[draw(st.sampled_from(FIELDS))] = draw(JSON_VALUES)


@st.composite
def mutated_rows(draw):
    """A valid row under 1-3 mutations, or something that is not a dict."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3)))
    row = draw(frame_stats).to_dict()
    for _ in range(draw(st.integers(1, 3))):
        draw(mutation(row))
    return row


def outcome(fn, data):
    """``("ok", result)`` or ``(exception type, message)``."""
    try:
        return ("ok", fn(data))
    except Exception as exc:  # noqa: BLE001 - the exception type is the property
        return (type(exc), str(exc))


# -- properties ----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(frame_stats)
def test_round_trip_through_json_is_exact(stats):
    wire = json.dumps(stats.to_dict(), separators=(",", ":"))
    rebuilt = FrameStats.from_dict(json.loads(wire))
    assert rebuilt == stats
    assert [type(getattr(rebuilt, name)) for name in FIELDS] == [
        type(getattr(stats, name)) for name in FIELDS
    ]
    assert json.dumps(rebuilt.to_dict(), separators=(",", ":")) == wire


@settings(max_examples=200, deadline=None)
@given(frame_stats)
def test_to_dict_is_the_old_encoding_in_field_order(stats):
    data = stats.to_dict()
    assert list(data) == FIELDS
    assert json.dumps(data) == json.dumps(reference_to_dict(stats))


@settings(max_examples=200, deadline=None)
@given(st.floats())
def test_energy_bits_survive_the_wire(energy):
    stats = FrameStats(0, True, False, "", 0, 0, 0, 0, 0, 0, energy, 0)
    rebuilt = FrameStats.from_dict(json.loads(json.dumps(stats.to_dict())))
    assert json.dumps(rebuilt.energy_j) == json.dumps(energy)


@settings(max_examples=600, deadline=None)
@given(mutated_rows())
def test_mutated_rows_fail_like_the_old_decoder(row):
    got = outcome(FrameStats.from_dict, row)
    want = outcome(reference_from_dict, row)
    assert got[0] in ("ok", ValueError)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(st.lists(frame_stats, min_size=1, max_size=8), st.data())
def test_outcome_errors_name_the_row_index(rows, data):
    payload = StreamOutcome(system="hirise", frames=rows).to_dict()
    index = data.draw(st.integers(0, len(rows) - 1))
    bad = data.draw(mutated_rows())
    payload["frames"][index] = bad
    expected = outcome(reference_from_dict, bad)
    got = outcome(StreamOutcome.from_dict, payload)
    if expected[0] == "ok":
        assert got[0] == "ok" and got[1].frames[index] == expected[1]
    else:
        assert got == (ValueError, f"stream_outcome.frames[{index}]: {expected[1]}")
