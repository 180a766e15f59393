"""Engine edge cases: empty inputs, degenerate plans, odd shapes."""

import numpy as np
import pytest

from repro.engine import Session, agg, col


@pytest.fixture
def session():
    return Session(default_parallelism=3)


@pytest.fixture
def empty(session):
    return session.create_dataframe(
        {"k": np.empty(0, dtype=np.int64), "v": np.empty(0, dtype=np.float64)}
    )


class TestEmptyInputs:
    def test_empty_count(self, empty):
        assert empty.count() == 0

    def test_empty_filter(self, empty):
        assert empty.filter(col("v") > 0).collect() == []

    def test_empty_select(self, empty):
        assert empty.select("k").count() == 0

    def test_empty_order_by(self, empty):
        assert empty.order_by("v").collect() == []

    def test_empty_group_by(self, empty):
        assert empty.group_by("k").agg(agg.sum_("v", "s")).collect() == []

    def test_empty_join_left_side(self, empty, session):
        right = session.create_dataframe({"k": [1], "x": [2.0]})
        assert empty.join(right, on="k").collect() == []

    def test_empty_join_right_side(self, session, empty):
        left = session.create_dataframe({"k": [1, 2], "v": [1.0, 2.0]})
        assert left.join(empty.drop("v"), on="k").collect() == []

    def test_left_join_empty_right(self, session, empty):
        left = session.create_dataframe({"k": [1], "v": [1.0]})
        rows = left.join(empty.select("k"), on="k", how="left").collect()
        assert len(rows) == 1

    def test_empty_union(self, empty):
        assert empty.union(empty).count() == 0

    def test_empty_repartition(self, empty):
        assert empty.repartition(4).count() == 0

    def test_empty_to_columns(self, empty):
        cols = empty.to_columns()
        assert set(cols) == {"k", "v"}

    def test_empty_show(self, empty):
        text = empty.show()
        assert "k" in text


class TestDegenerateArguments:
    def test_limit_zero(self, session):
        df = session.create_dataframe({"x": [1, 2, 3]})
        assert df.limit(0).count() == 0

    def test_limit_zero_keeps_dtypes(self, session):
        df = session.create_dataframe(
            {"k": np.array([1, 2, 3], dtype=np.int64), "s": ["a", "b", "c"]}
        )
        out = df.limit(0).to_columns()
        assert {name: arr.size for name, arr in out.items()} == {"k": 0, "s": 0}
        assert out["k"].dtype == np.int64
        assert out["s"].dtype == df.to_columns()["s"].dtype

    def test_negative_limit_rejected(self, session):
        df = session.create_dataframe({"x": [1, 2, 3]})
        with pytest.raises(ValueError, match="limit"):
            df.limit(-1)

    @pytest.mark.parametrize("n", [0, -3])
    def test_non_positive_repartition_rejected(self, session, n):
        df = session.create_dataframe({"x": [1, 2, 3]})
        with pytest.raises(ValueError, match="num_partitions"):
            df.repartition(n)

    def test_order_by_without_keys_rejected(self, session):
        df = session.create_dataframe({"x": [1, 2, 3]})
        with pytest.raises(ValueError, match="order_by"):
            df.order_by()

    def test_limit_beyond_size(self, session):
        df = session.create_dataframe({"x": [1, 2, 3]})
        assert df.limit(100).count() == 3

    def test_filter_all_out_then_group(self, session):
        df = session.create_dataframe({"k": [1, 2], "v": [1.0, 2.0]})
        out = df.filter(col("v") > 100).group_by("k").count()
        assert out.collect() == []

    def test_single_row_everything(self, session):
        df = session.create_dataframe({"k": [5], "v": [2.5]})
        assert df.order_by("v").collect() == [{"k": 5, "v": 2.5}]
        grouped = df.group_by("k").agg(agg.mean("v", "m")).collect()
        assert grouped[0]["m"] == 2.5

    def test_repartition_more_than_rows(self, session):
        df = session.create_dataframe({"x": [1, 2]})
        out = df.repartition(10)
        assert out.count() == 2
        assert out.num_partitions() <= 2

    def test_many_partitions_few_rows(self):
        session = Session(default_parallelism=10)
        df = session.create_dataframe({"x": [1, 2, 3]})
        assert df.count() == 3

    def test_chained_with_columns_replace(self, session):
        df = session.create_dataframe({"x": [1.0]})
        out = (
            df.with_column("x", col("x") + 1)
            .with_column("x", col("x") * 10)
        )
        assert out.collect() == [{"x": 20.0}]
        assert out.columns == ["x"]


class TestMixedDtypes:
    def test_group_key_float(self, session):
        df = session.create_dataframe(
            {"k": [1.5, 1.5, 2.5], "v": [1.0, 2.0, 3.0]}
        )
        rows = df.group_by("k").agg(agg.sum_("v", "s")).order_by("k").collect()
        assert rows[0]["s"] == 3.0 and rows[1]["s"] == 3.0

    def test_mixed_int_float_keys(self, session):
        # Group key columns of different dtypes are stacked to float.
        df = session.create_dataframe(
            {"a": np.array([1, 1, 2], dtype=np.int64),
             "b": np.array([0.5, 0.5, 0.5]),
             "v": [1.0, 2.0, 3.0]}
        )
        rows = df.group_by("a", "b").agg(agg.count(name="n")).collect()
        counts = {r["a"]: r["n"] for r in rows}
        assert counts == {1: 2, 2: 1}

    def test_bool_filter_column(self, session):
        df = session.create_dataframe(
            {"flag": np.array([True, False, True]), "v": [1.0, 2.0, 3.0]}
        )
        assert df.filter(col("flag")).count() == 2


class TestNaNKeys:
    """Float NaN keys form one group whatever the number of key
    columns (1-D ``np.unique``'s rule)."""

    def test_nan_keys_one_group_for_any_key_count(self, session):
        df = session.create_dataframe(
            {"a": [np.nan, np.nan, 1.0, np.nan],
             "b": [2.0, 2.0, 2.0, 2.0],
             "v": [1.0, 2.0, 3.0, 4.0]}
        )
        one = df.group_by("a").agg(agg.count(name="n"), agg.sum_("v", "s"))
        two = df.group_by("a", "b").agg(agg.count(name="n"), agg.sum_("v", "s"))
        for out in (one.to_columns(), two.to_columns()):
            assert out["n"].tolist() == [1, 3]
            assert out["s"].tolist() == [3.0, 7.0]
            assert out["a"][0] == 1.0 and np.isnan(out["a"][1])

    def test_streaming_nan_keys_merge_across_batches(self):
        session = Session()
        stream = session.stream([("a", np.float64), ("b", np.float64),
                                 ("v", np.float64)])
        live = stream.aggregate(["a", "b"], [agg.count(name="n")])
        stream.append({"a": [np.nan, 1.0], "b": [0.5, 0.5], "v": [1.0, 2.0]})
        stream.append({"a": [np.nan, np.nan], "b": [0.5, 0.5],
                       "v": [3.0, 4.0]})
        out = live.to_partition().columns
        assert out["n"].tolist() == [1, 3]
        assert np.isnan(out["a"][1])
