"""Aggregate specifications and mergeable accumulators.

Aggregation runs as Spark does: each input partition is *partially*
aggregated (vectorized), and the partial states are merged into a
global hash table keyed by the group key.  Only (num_groups) state is
ever held, never the input rows — this is the memory property Figure 8
measures.

Every aggregate here is *mergeable*: its per-partition partial is a
fixed-size summary that merges into the running state without seeing
the input rows again.  That property is what the spill paths and the
incremental streaming layer (:mod:`repro.engine.streaming`) rely on —
and it is why ``var`` / ``std`` carry a Chan-style ``(mean, M2)`` pair
instead of a naive sum-of-squares (numerically unstable) or the raw
values (non-mergeable), and why ``count_distinct`` carries the value *set*
rather than a count (counts of distinct values do not add).

:class:`ArrayGroupState` is the one form of that merge — whole
accumulator arrays combined with scatter updates, one merge per
partition.  Key rows are grouped and merged through one kind of key,
an order-preserving int64 code per row (:func:`unique_rows`): the
state keeps its key rows sorted, and each partition's sorted unique
rows are placed into them with one ``searchsorted``.  Both the batch
group-by executor (which
dictionary-encodes object keys to int64 codes first) and the streaming
``DeltaState`` run *this exact class*, which is what makes
incrementally maintained results bit-identical to a from-scratch
recompute over the same partition boundaries: the two paths execute
the same float operations in the same order by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AggSpec:
    """One output aggregate: ``kind`` over ``column`` named ``out_name``."""

    out_name: str
    column: str  # "*" for count
    kind: str  # count | sum | min | max | mean | var | std | count_distinct

    _KINDS = (
        "count",
        "sum",
        "min",
        "max",
        "mean",
        "var",
        "std",
        "count_distinct",
    )

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(
                f"unknown aggregate {self.kind!r}; expected one of {self._KINDS}"
            )
        if self.kind != "count" and self.column == "*":
            raise ValueError(f"aggregate {self.kind!r} needs a column")


def count(column: str = "*", name: str | None = None) -> AggSpec:
    return AggSpec(name or "count", column, "count")


def sum_(column: str, name: str | None = None) -> AggSpec:
    return AggSpec(name or f"sum_{column}", column, "sum")


def min_(column: str, name: str | None = None) -> AggSpec:
    return AggSpec(name or f"min_{column}", column, "min")


def max_(column: str, name: str | None = None) -> AggSpec:
    return AggSpec(name or f"max_{column}", column, "max")


def mean(column: str, name: str | None = None) -> AggSpec:
    return AggSpec(name or f"mean_{column}", column, "mean")


def var_(column: str, name: str | None = None) -> AggSpec:
    """Sample variance (ddof=1); NaN for groups with fewer than 2 rows."""
    return AggSpec(name or f"var_{column}", column, "var")


def std_(column: str, name: str | None = None) -> AggSpec:
    """Sample standard deviation (ddof=1); NaN below 2 rows."""
    return AggSpec(name or f"std_{column}", column, "std")


def count_distinct(column: str, name: str | None = None) -> AggSpec:
    return AggSpec(name or f"count_distinct_{column}", column, "count_distinct")


#: The one NaN object every count_distinct set holds: set membership
#: tests identity before equality, so NaN counts once (``np.unique``'s
#: rule) instead of once per row.
_NAN = float("nan")


def _distinct_sets(vals: np.ndarray, inverse: np.ndarray, num_groups: int):
    """Per-group sets of distinct values (object list of Python sets)."""
    order = np.argsort(inverse, kind="stable")
    sorted_inverse = inverse[order]
    sorted_vals = vals[order]
    values = sorted_vals.tolist()
    for i in np.flatnonzero(np.isnan(sorted_vals)).tolist():
        values[i] = _NAN
    boundaries = np.flatnonzero(np.diff(sorted_inverse)) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [len(sorted_vals)]))
    sets = [set() for _ in range(num_groups)]
    for g, start, stop in zip(sorted_inverse[starts], starts, stops):
        sets[g] = set(values[start:stop])
    return sets


# ----------------------------------------------------------------------
# Vectorized per-group state: whole accumulator arrays, scatter merges
# ----------------------------------------------------------------------
#: Row codes live in [0, 2**63): the mixed-radix product of the key
#: column spans may not exceed this.
_CODE_LIMIT = 1 << 63


def _dense_rank(columns: list) -> tuple[list, int]:
    """Shared dense rank of one column split over several arrays, in
    ``np.unique`` order (every NaN takes one rank, the last), and the
    rank count."""
    joined = np.concatenate(columns) if len(columns) > 1 else columns[0]
    uniques, inverse = np.unique(joined, return_inverse=True)
    bounds = np.cumsum([len(c) for c in columns])[:-1]
    return np.split(inverse.astype(np.int64), bounds), len(uniques)


def _digits(columns: list) -> tuple[list, int]:
    """One key column's order-preserving int64 digits per array and
    their span: ``value - min`` for integer and bool columns whose span
    fits the code range, the dense rank otherwise."""
    if columns[0].dtype.kind in "iub":
        filled = [c for c in columns if len(c)]
        if not filled:
            return [np.zeros(0, np.int64) for _ in columns], 1
        lo = min(int(c.min()) for c in filled)
        span = max(int(c.max()) for c in filled) - lo + 1
        if span <= _CODE_LIMIT:
            if columns[0].dtype == np.uint64:
                return [(c - np.uint64(lo)).astype(np.int64) for c in columns], span
            return [c.astype(np.int64) - lo for c in columns], span
    return _dense_rank(columns)


def _row_codes(arrays: list) -> list:
    """Order-preserving int64 codes of the key rows of each ``(n, K)``
    array in ``arrays``, on one shared basis: equal rows get equal
    codes, and codes sort as the rows sort lexicographically.

    Columns combine in mixed radix; when the running radix product
    would overflow the code range, the running code (and, if that is
    not enough, the column) is replaced by its dense rank first.
    """
    dtype = np.result_type(*arrays)
    arrays = [a.astype(dtype, copy=False) for a in arrays]
    codes, radix = None, 1
    for j in range(arrays[0].shape[1]):
        digits, span = _digits([a[:, j] for a in arrays])
        if codes is None:
            codes = digits
        else:
            if radix * span > _CODE_LIMIT:
                codes, radix = _dense_rank(codes)
                if radix * span > _CODE_LIMIT:
                    digits, span = _dense_rank(digits)
            codes = [c * span + d for c, d in zip(codes, digits)]
        radix *= span
    return codes


def unique_rows(rows: np.ndarray, return_counts: bool = False):
    """The lexicographically sorted unique key rows, the inverse, and
    optionally the counts — one 1-D ``np.unique`` over the rows' int64
    codes.  Float NaN keys are equal to each other, as 1-D
    ``np.unique`` has them, whatever the key count."""
    (codes,) = _row_codes([rows])
    codes_unique, inverse, *counts = np.unique(
        codes, return_inverse=True, return_counts=return_counts
    )
    # One representative row per code (equal codes are equal rows).
    representative = np.empty(len(codes_unique), dtype=np.intp)
    representative[inverse] = np.arange(len(rows))
    uniques = rows[representative]
    if return_counts:
        return uniques, inverse, counts[0]
    return uniques, inverse


def _key_column(values, dtype) -> np.ndarray:
    """One output key column; integer keys come out int64.  ``dtype``
    is the key's dtype over the whole input."""
    arr = np.asarray(values)
    if dtype.kind in "iu":
        return arr.astype(np.int64)
    return arr


def empty_group_partition(keys, specs, key_dtypes):
    """A zero-group output with the schema a non-empty one would have:
    key columns as :func:`_key_column` builds them (float64 when the
    key dtypes are unknown), int64 counts, float64 otherwise."""
    from repro.engine.partition import Partition

    key_dtypes = key_dtypes or [np.dtype(np.float64)] * len(keys)
    cols = {
        k: _key_column(np.empty(0, dtype=dt), dt)
        for k, dt in zip(keys, key_dtypes)
    }
    for s in specs:
        counted = s.kind in ("count", "count_distinct")
        cols[s.out_name] = np.empty(0, np.int64 if counted else np.float64)
    return Partition(cols)


class ArrayGroupState:
    """Per-group accumulators held as whole arrays, merged with
    scatter updates — one vectorized merge per partition instead of
    one Python dict update per key.

    ``keys`` holds the unique key rows in lexicographic order.  A
    partition's rows are grouped by their int64 row codes; its sorted
    unique rows and the state's keys are then coded on one shared
    basis and merged with ``searchsorted``, so a merge costs
    O(groups + partition) instead of a re-sort of every key seen.

    ``values[i]`` holds each spec's partial: a float64 array for
    sum/mean/min/max, a ``(means, m2s)`` array pair for var/std, an
    object array of Python sets for count_distinct, ``None`` for count
    (the shared ``counts`` array is its state).

    :meth:`update` returns the merged-state positions of the groups the
    incoming partition touched — the batch executor ignores this, the
    streaming :class:`~repro.engine.streaming.DeltaState` uses it to
    emit per-batch deltas.
    """

    def __init__(self, specs):
        self.specs = specs
        self.keys: np.ndarray | None = None  # (G, K) unique key rows
        self.counts: np.ndarray | None = None  # (G,) int64 rows per group
        self.values: list = [None] * len(specs)

    @property
    def num_groups(self) -> int:
        return 0 if self.keys is None else len(self.keys)

    @property
    def nbytes(self) -> int:
        total = 0
        for arr in [self.keys, self.counts]:
            if arr is not None:
                total += arr.nbytes
        for spec, value in zip(self.specs, self.values):
            if value is None:
                continue
            if spec.kind in ("var", "std"):
                total += value[0].nbytes + value[1].nbytes
            elif spec.kind == "count_distinct":
                # Rough per-set estimate: dict header + one slot/value.
                total += sum(64 + 32 * len(s) for s in value)
            else:
                total += value.nbytes
        return total

    def _partials(self, uniques, inverse, counts, part):
        partials = []
        for spec in self.specs:
            if spec.kind == "count":
                partials.append(None)
                continue
            vals = np.asarray(part.columns[spec.column], dtype=np.float64)
            if spec.kind in ("sum", "mean"):
                partial = np.bincount(
                    inverse, weights=vals, minlength=len(uniques)
                )
            elif spec.kind in ("var", "std"):
                # Two-pass per-group (mean, M2).
                sums = np.bincount(inverse, weights=vals, minlength=len(uniques))
                means = sums / counts
                dev = vals - means[inverse]
                partial = means, np.bincount(
                    inverse, weights=dev * dev, minlength=len(uniques)
                )
            elif spec.kind == "min":
                partial = np.full(len(uniques), np.inf)
                np.minimum.at(partial, inverse, vals)
            elif spec.kind == "max":
                partial = np.full(len(uniques), -np.inf)
                np.maximum.at(partial, inverse, vals)
            elif spec.kind == "count_distinct":
                partial = np.empty(len(uniques), dtype=object)
                partial[:] = _distinct_sets(vals, inverse, len(uniques))
            partials.append(partial)
        return partials

    def update(self, stacked: np.ndarray, part) -> np.ndarray:
        """Merge one partition's rows (key rows ``stacked``) into the
        state; returns the merged-state indices of the touched groups
        (aligned with the partition's sorted unique key rows)."""
        uniques, inverse, counts = unique_rows(stacked, return_counts=True)
        counts = counts.astype(np.int64)
        partials = self._partials(uniques, inverse, counts, part)

        if self.keys is None:
            self.keys = uniques
            self.counts = counts
            self.values = partials
            return np.arange(len(uniques), dtype=np.int64)

        # Sorted merge: both key sets are sorted and unique, so their
        # shared-basis codes are strictly increasing and one
        # searchsorted places every incoming group.
        old_codes, new_codes = _row_codes([self.keys, uniques])
        at = np.searchsorted(old_codes, new_codes)
        fresh = old_codes[np.minimum(at, len(old_codes) - 1)] != new_codes
        # Position in the merged keys = old keys before + fresh keys before.
        new_map = at + (np.cumsum(fresh) - fresh)
        fresh_slot = np.zeros(len(old_codes) + np.count_nonzero(fresh), dtype=bool)
        fresh_slot[new_map[fresh]] = True
        old_map = np.flatnonzero(~fresh_slot)
        merged_keys = np.empty(
            (len(fresh_slot), uniques.shape[1]),
            dtype=np.result_type(self.keys, uniques),
        )
        merged_keys[old_map] = self.keys
        merged_keys[new_map[fresh]] = uniques[fresh]
        old_counts = np.zeros(len(merged_keys), dtype=np.int64)
        old_counts[old_map] = self.counts
        merged_counts = old_counts.copy()
        merged_counts[new_map] += counts
        merged_values = []
        for spec, old, partial in zip(self.specs, self.values, partials):
            if spec.kind == "count":
                merged_values.append(None)
            elif spec.kind in ("sum", "mean"):
                merged = np.zeros(len(merged_keys))
                merged[old_map] = old
                merged[new_map] += partial
                merged_values.append(merged)
            elif spec.kind == "min":
                merged = np.full(len(merged_keys), np.inf)
                merged[old_map] = old
                merged[new_map] = np.minimum(merged[new_map], partial)
                merged_values.append(merged)
            elif spec.kind == "max":
                merged = np.full(len(merged_keys), -np.inf)
                merged[old_map] = old
                merged[new_map] = np.maximum(merged[new_map], partial)
                merged_values.append(merged)
            elif spec.kind in ("var", "std"):
                merged_values.append(
                    self._merge_moments(
                        merged_keys, old_map, new_map, old_counts,
                        counts, old, partial,
                    )
                )
            else:
                merged = np.empty(len(merged_keys), dtype=object)
                merged[old_map] = old
                for slot, fresh in zip(new_map, partial):
                    existing = merged[slot]
                    merged[slot] = (
                        fresh if existing is None else existing | fresh
                    )
                merged_values.append(merged)
        self.keys = merged_keys
        self.counts = merged_counts
        self.values = merged_values
        return new_map

    @staticmethod
    def _merge_moments(
        merged_keys, old_map, new_map, old_counts, counts, old, partial
    ):
        """Vectorized Chan merge of (mean, M2) pairs at ``new_map``;
        groups unseen before take the incoming partial bit for bit."""
        means = np.zeros(len(merged_keys))
        m2s = np.zeros(len(merged_keys))
        if old is not None:
            means[old_map] = old[0]
            m2s[old_map] = old[1]
        na = old_counts[new_map].astype(np.float64)
        nb = counts.astype(np.float64)
        pm, pm2 = partial
        ma = means[new_map]
        m2a = m2s[new_map]
        with np.errstate(invalid="ignore", divide="ignore"):
            n = na + nb
            delta = pm - ma
            ratio = nb / n
            merged_mean = ma + delta * ratio
            merged_m2 = m2a + pm2 + delta * delta * (na * ratio)
        fresh = na == 0
        if fresh.any():
            merged_mean = np.where(fresh, pm, merged_mean)
            merged_m2 = np.where(fresh, pm2, merged_m2)
        means[new_map] = merged_mean
        m2s[new_map] = merged_m2
        return means, m2s

    def select(self, mask: np.ndarray) -> "ArrayGroupState":
        """A new state holding only the groups where ``mask`` is True
        (accumulator arrays sliced, sets shared — the caller finalizes
        or discards the selection, never updates it concurrently)."""
        out = ArrayGroupState(self.specs)
        if self.keys is None or not mask.any():
            return out
        out.keys = self.keys[mask]
        out.counts = self.counts[mask]
        out.values = [
            None
            if value is None
            else (value[0][mask], value[1][mask])
            if spec.kind in ("var", "std")
            else value[mask]
            for spec, value in zip(self.specs, self.values)
        ]
        return out

    def compact(self, mask: np.ndarray) -> int:
        """Drop the groups where ``mask`` is False (watermark
        eviction); returns how many groups were evicted."""
        if self.keys is None:
            return 0
        evicted = int(len(self.keys) - np.count_nonzero(mask))
        if evicted == 0:
            return 0
        kept = self.select(mask)
        self.keys = kept.keys
        self.counts = kept.counts
        self.values = (
            kept.values if kept.keys is not None else [None] * len(self.specs)
        )
        return evicted

    def to_partition(self, keys, key_dtypes, decode=None):
        """Finalize as one partition.  A state keyed by dictionary
        codes passes ``decode``, the key tuple of each code in code
        order, to get the original key columns back."""
        from repro.engine.partition import Partition

        if self.keys is None:
            return empty_group_partition(keys, self.specs, key_dtypes)
        if decode is None:
            key_values = [self.keys[:, i] for i in range(len(keys))]
        else:
            rows = [decode[code] for code in self.keys[:, 0].tolist()]
            key_values = [[row[i] for row in rows] for i in range(len(keys))]
        columns = {
            name: _key_column(values, dtype)
            for name, values, dtype in zip(keys, key_values, key_dtypes)
        }
        for spec_index, spec in enumerate(self.specs):
            value = self.values[spec_index]
            if spec.kind == "count":
                columns[spec.out_name] = self.counts.copy()
            elif spec.kind == "mean":
                columns[spec.out_name] = value / self.counts
            elif spec.kind in ("var", "std"):
                with np.errstate(invalid="ignore", divide="ignore"):
                    out = value[1] / (self.counts - 1)
                out = np.where(self.counts < 2, np.nan, out)
                if spec.kind == "std":
                    out = np.sqrt(out)
                columns[spec.out_name] = out
            elif spec.kind == "count_distinct":
                columns[spec.out_name] = np.fromiter(
                    (len(s) for s in value),
                    dtype=np.int64,
                    count=len(value),
                )
            else:
                columns[spec.out_name] = value
        return Partition(columns)
