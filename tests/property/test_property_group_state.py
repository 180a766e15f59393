"""Property tests: the row-code group state equals the row-sort one.

``unique_rows`` and ``ArrayGroupState.update`` group and merge key rows
through order-preserving int64 row codes.  The oracle here is the
earlier scheme, kept only in this file: ``np.unique(rows, axis=0)``
per partition, and a re-unique of (state keys ++ partition keys) on
every merge.  Across integer, bool and float key dtypes, 1–4 key
columns, spans near the int64 code limit, partitions that add no new
groups and partitions that are all new groups, the two must agree
bitwise on ``keys``, ``counts``, every accumulator and the returned
``new_map``, through ``update``/``select``/``compact`` sequences.

Two things are not compared bitwise.  The sign of a zero key: -0.0
and 0.0 are one group either way, and which of the two the oracle's
unstable sort keeps is not specified, so float keys are compared after
folding -0.0 into 0.0.  NaN keys: the oracle gives every NaN row its
own group when there are two or more key columns; the row codes put
all NaN keys in one group, as 1-D ``np.unique`` does.  Those are
checked against that rule instead.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Partition, agg
from repro.engine.aggregates import ArrayGroupState, unique_rows

SPECS = [
    agg.count(name="n"),
    agg.sum_("v"),
    agg.min_("v"),
    agg.max_("v"),
    agg.mean("v"),
    agg.var_("v"),
    agg.std_("v"),
    agg.count_distinct("v"),
]


# ----------------------------------------------------------------------
# Oracle: sort whole rows, re-unique the whole state on every merge
# ----------------------------------------------------------------------
def oracle_unique_rows(rows, return_counts=False):
    if rows.shape[1] == 1:
        result = np.unique(
            rows[:, 0], return_inverse=True, return_counts=return_counts
        )
        uniques = result[0][:, None]
    else:
        result = np.unique(
            rows, axis=0, return_inverse=True, return_counts=return_counts
        )
        uniques = result[0]
    inverse = result[1].reshape(-1)
    if return_counts:
        return uniques, inverse, result[2]
    return uniques, inverse


class OracleGroupState(ArrayGroupState):
    def update(self, stacked, part):
        uniques, inverse, counts = oracle_unique_rows(
            stacked, return_counts=True
        )
        counts = counts.astype(np.int64)
        partials = self._partials(uniques, inverse, counts, part)
        if self.keys is None:
            self.keys, self.counts, self.values = uniques, counts, partials
            return np.arange(len(uniques), dtype=np.int64)
        num_old = len(self.keys)
        merged_keys, remap = oracle_unique_rows(
            np.concatenate([self.keys, uniques], axis=0)
        )
        old_map, new_map = remap[:num_old], remap[num_old:]
        size = len(merged_keys)
        old_counts = np.zeros(size, dtype=np.int64)
        old_counts[old_map] = self.counts
        merged_counts = old_counts.copy()
        merged_counts[new_map] += counts
        merged_values = []
        for spec, old, partial in zip(self.specs, self.values, partials):
            if spec.kind == "count":
                merged_values.append(None)
            elif spec.kind in ("sum", "mean"):
                merged = np.zeros(size)
                merged[old_map] = old
                merged[new_map] += partial
                merged_values.append(merged)
            elif spec.kind in ("min", "max"):
                fold = np.minimum if spec.kind == "min" else np.maximum
                merged = np.full(size, np.inf if spec.kind == "min" else -np.inf)
                merged[old_map] = old
                merged[new_map] = fold(merged[new_map], partial)
                merged_values.append(merged)
            elif spec.kind in ("var", "std"):
                merged_values.append(
                    self._merge_moments(
                        merged_keys, old_map, new_map, old_counts,
                        counts, old, partial,
                    )
                )
            else:
                merged = np.empty(size, dtype=object)
                merged[old_map] = old
                for slot, fresh in zip(new_map, partial):
                    existing = merged[slot]
                    merged[slot] = fresh if existing is None else existing | fresh
                merged_values.append(merged)
        self.keys, self.counts, self.values = (
            merged_keys, merged_counts, merged_values
        )
        return new_map


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------
def bits(arr):
    return arr.dtype.str, arr.shape, arr.tobytes()


def key_bits(keys):
    """Bitwise key view with -0.0 folded into 0.0 (see module doc)."""
    return bits(keys + 0.0 if keys.dtype.kind == "f" else keys)


def assert_lexsorted(keys):
    rows = [tuple(row) for row in keys.tolist()]
    assert all(a < b for a, b in zip(rows, rows[1:])), rows


def assert_same_state(state, oracle):
    assert key_bits(state.keys) == key_bits(oracle.keys)
    assert bits(state.counts) == bits(oracle.counts)
    for spec, got, want in zip(SPECS, state.values, oracle.values):
        if spec.kind == "count":
            assert got is None and want is None
        elif spec.kind in ("var", "std"):
            assert bits(got[0]) == bits(want[0])
            assert bits(got[1]) == bits(want[1])
        elif spec.kind == "count_distinct":
            assert [len(s) for s in got] == [len(s) for s in want]
            assert list(got) == list(want)
        else:
            assert bits(got) == bits(want)
    assert_lexsorted(state.keys)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
INT_DTYPES = [np.int8, np.int32, np.int64, np.uint8]


@st.composite
def key_columns(draw, num_rows, width, dtype):
    """``num_rows`` key rows of ``width`` columns of ``dtype``: values
    from a small lattice (collisions), the full dtype range, or for
    int64 values near +/-2**62 so span products pass the code limit."""
    kind = np.dtype(dtype).kind
    if kind == "b":
        values = st.booleans()
    elif kind == "f":
        # -0.0 next to 0.0; NaN is covered by its own test.
        values = st.sampled_from([-0.0, 0.0, 1.5, -2.25, 3.0, 1e300, -1e-300])
    else:
        info = np.iinfo(dtype)
        mode = draw(st.sampled_from(["small", "range", "huge"]))
        if mode == "small":
            values = st.integers(max(info.min, -3), min(info.max, 3))
        elif mode == "huge" and dtype == np.int64:
            values = st.sampled_from(
                [-(2**62), -(2**61), 0, 2**61, 2**62, info.min, info.max]
            )
        else:
            values = st.integers(int(info.min), int(info.max))
    rows = [[draw(values) for _ in range(width)] for _ in range(num_rows)]
    return np.array(rows, dtype=dtype).reshape(num_rows, width)


@st.composite
def partitioned_keys(draw):
    """Key-row partitions over one dtype: ordinary partitions drawn
    from a shared row pool, then a partition of rows already seen (no
    new groups) and one of rows never seen (all new groups)."""
    dtype = draw(st.sampled_from(INT_DTYPES + [np.bool_, np.float64]))
    width = draw(st.integers(1, 4))
    pool = draw(key_columns(draw(st.integers(1, 24)), width, dtype))
    pool, _ = oracle_unique_rows(pool)
    half = max(1, len(pool) // 2)
    seen_pool, unseen_pool = pool[:half], pool[half:]
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        picks = draw(st.lists(st.integers(0, half - 1), min_size=1, max_size=30))
        parts.append(seen_pool[picks])
    seen = np.concatenate(parts)
    picks = draw(st.lists(st.integers(0, len(seen) - 1), min_size=1, max_size=10))
    parts.append(seen[picks])
    if len(unseen_pool):
        parts.append(unseen_pool[::-1])
    return parts


def with_values(keys, seed):
    rng = np.random.default_rng(seed)
    values = np.round(rng.uniform(-4, 4, len(keys)), 1)
    return Partition({"v": values})


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@given(
    st.sampled_from(INT_DTYPES + [np.bool_, np.float64]).flatmap(
        lambda dt: st.integers(1, 4).flatmap(
            lambda k: st.integers(0, 40).flatmap(
                lambda n: key_columns(n, k, dt)
            )
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_unique_rows_matches_row_sort(rows):
    got = unique_rows(rows, return_counts=True)
    want = oracle_unique_rows(rows, return_counts=True)
    assert key_bits(got[0]) == key_bits(want[0])
    assert bits(got[1]) == bits(want[1])
    assert bits(got[2]) == bits(want[2])
    assert_lexsorted(got[0])


@given(partitioned_keys(), st.data())
@settings(max_examples=120, deadline=None)
def test_update_select_compact_match_reunique(parts, data):
    state, oracle = ArrayGroupState(SPECS), OracleGroupState(SPECS)
    for i, keys in enumerate(parts):
        part = with_values(keys, i)
        assert bits(state.update(keys, part)) == bits(oracle.update(keys, part))
        assert_same_state(state, oracle)
        mask = np.array(
            data.draw(st.lists(st.booleans(), min_size=state.num_groups,
                               max_size=state.num_groups)),
            dtype=bool,
        )
        picked, oracle_picked = state.select(mask), oracle.select(mask)
        if picked.keys is not None:
            assert_same_state(picked, oracle_picked)
        if data.draw(st.booleans()):
            assert state.compact(mask) == oracle.compact(mask)
            if state.keys is not None:
                assert_same_state(state, oracle)


def canon(row):
    """A NaN-aware sort key for one key row: NaN sorts after every
    number (``(True, 0.0)``), and -0.0 is folded into 0.0."""
    return tuple((True, 0.0) if np.isnan(x) else (False, x + 0.0) for x in row)


@given(
    st.lists(
        st.tuples(
            st.sampled_from([np.nan, 0.0, -0.0, 1.0]),
            st.sampled_from([np.nan, 2.0]),
        ),
        min_size=1,
        max_size=30,
    ),
    st.integers(1, 4),
)
@settings(max_examples=100, deadline=None)
def test_nan_keys_form_one_group(rows, num_parts):
    """Each distinct key tuple, NaN equal to NaN, is one group, and
    NaN sorts last column by column, as 1-D ``np.unique`` orders."""
    keys = np.array(rows, dtype=np.float64)
    state = ArrayGroupState([agg.count(name="n")])
    for chunk in np.array_split(keys, num_parts):
        if len(chunk):
            state.update(chunk, Partition({"x": np.zeros(len(chunk))}))
    got = [canon(row) for row in state.keys.tolist()]
    assert dict(zip(got, state.counts.tolist())) == Counter(map(canon, rows))
    assert len(got) == len(set(got))
    assert got == sorted(got)
