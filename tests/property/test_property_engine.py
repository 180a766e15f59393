"""Property-based tests of the DataFrame engine against a dict-based
reference implementation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Session, agg, col


@st.composite
def frames(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    keys = draw(
        st.lists(
            st.integers(min_value=0, max_value=5), min_size=n, max_size=n
        )
    )
    values = draw(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    parts = draw(st.integers(min_value=1, max_value=5))
    return keys, values, parts


def _df(keys, values, parts):
    session = Session(default_parallelism=parts)
    return session.create_dataframe(
        {
            "k": np.asarray(keys, dtype=np.int64),
            "v": np.asarray(values, dtype=np.float64),
        }
    )


@settings(max_examples=40, deadline=None)
@given(frames())
def test_count_invariant_to_partitioning(frame):
    keys, values, parts = frame
    assert _df(keys, values, parts).count() == len(keys)


@settings(max_examples=40, deadline=None)
@given(frames())
def test_filter_complement_partition(frame):
    keys, values, parts = frame
    df = _df(keys, values, parts)
    kept = df.filter(col("v") > 0).count()
    dropped = df.filter(~(col("v") > 0)).count()
    assert kept + dropped == len(keys)


@settings(max_examples=40, deadline=None)
@given(frames())
def test_groupby_matches_reference(frame):
    keys, values, parts = frame
    df = _df(keys, values, parts)
    rows = df.group_by("k").agg(
        agg.count(name="n"), agg.sum_("v", "s"), agg.min_("v", "lo"),
        agg.max_("v", "hi"), agg.mean("v", "m"),
    ).collect()
    reference: dict = {}
    for k, v in zip(keys, values):
        reference.setdefault(k, []).append(v)
    assert len(rows) == len(reference)
    for row in rows:
        ref = reference[row["k"]]
        assert row["n"] == len(ref)
        assert np.isclose(row["s"], sum(ref))
        assert np.isclose(row["lo"], min(ref))
        assert np.isclose(row["hi"], max(ref))
        assert np.isclose(row["m"], sum(ref) / len(ref))


@settings(max_examples=40, deadline=None)
@given(frames())
def test_order_by_sorted(frame):
    keys, values, parts = frame
    df = _df(keys, values, parts)
    ordered = [r["v"] for r in df.order_by("v").collect()]
    assert ordered == sorted(values)


@settings(max_examples=40, deadline=None)
@given(frames())
def test_union_doubles(frame):
    keys, values, parts = frame
    df = _df(keys, values, parts)
    assert df.union(df).count() == 2 * len(keys)


@settings(max_examples=40, deadline=None)
@given(frames(), st.integers(min_value=0, max_value=100))
def test_limit_bounds(frame, n):
    keys, values, parts = frame
    df = _df(keys, values, parts)
    assert df.limit(n).count() == min(n, len(keys))


@settings(max_examples=40, deadline=None)
@given(frames())
def test_join_with_self_keys(frame):
    keys, values, parts = frame
    df = _df(keys, values, parts)
    unique_keys = sorted(set(keys))
    session = Session(default_parallelism=2)
    if not unique_keys:
        return
    right = session.create_dataframe(
        {"k": np.asarray(unique_keys, dtype=np.int64),
         "tag": np.asarray(unique_keys, dtype=np.int64) * 10}
    )
    rows = df.join(right, on="k").collect()
    assert len(rows) == len(keys)  # every row matches exactly once
    assert all(r["tag"] == r["k"] * 10 for r in rows)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.one_of(
                st.floats(min_value=-100, max_value=100, allow_nan=False),
                st.just(float("nan")),
            ),
        ),
        min_size=1,
        max_size=60,
    ),
    st.integers(min_value=1, max_value=5),
)
def test_object_keys_match_int_keys_bitwise(rows, parts):
    """Object keys are dictionary-encoded onto the int64-key state, so
    every aggregate kind gives the same bits as the int64 labels."""
    keys = np.asarray([k for k, _ in rows], dtype=np.int64)
    values = np.asarray([v for _, v in rows], dtype=np.float64)
    specs = [
        agg.count(name="n"), agg.sum_("v", "s"), agg.min_("v", "lo"),
        agg.max_("v", "hi"), agg.mean("v", "m"), agg.var_("v", "var"),
        agg.std_("v", "sd"), agg.count_distinct("v", "cd"),
    ]
    session = Session(default_parallelism=parts)
    outs = []
    for labels in (keys, keys.astype(object)):
        df = session.create_dataframe({"k": labels, "v": values})
        with np.errstate(invalid="ignore"):
            out = df.group_by("k").agg(*specs).to_columns()
        order = np.argsort(out["k"].astype(np.int64), kind="stable")
        outs.append({name: arr[order] for name, arr in out.items()})
    as_int, as_object = outs
    assert as_int["k"].tolist() == as_object["k"].tolist()
    for spec in specs:
        name = spec.out_name
        assert as_int[name].tobytes() == as_object[name].tobytes(), spec.kind
