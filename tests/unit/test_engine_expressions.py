"""Expression evaluation over partitions."""

import numpy as np
import pytest

from repro.engine.expressions import col, lit, udf
from repro.engine.partition import Partition


@pytest.fixture
def part():
    return Partition(
        {
            "a": np.array([1.0, 2.0, 3.0]),
            "b": np.array([10, 20, 30]),
            "s": np.array(["x", "y", "x"], dtype=object),
        }
    )


class TestColumnAndLiteral:
    def test_column(self, part):
        np.testing.assert_allclose(col("a").evaluate(part), [1, 2, 3])

    def test_missing_column(self, part):
        with pytest.raises(KeyError, match="available"):
            col("nope").evaluate(part)

    def test_missing_column_raises_keyerror(self, part):
        with pytest.raises(KeyError, match="nope"):
            (col("nope") + lit(1)).evaluate(part)

    def test_literal_broadcast(self, part):
        np.testing.assert_allclose(lit(7).evaluate(part), [7, 7, 7])

    def test_string_literal(self, part):
        out = lit("hi").evaluate(part)
        assert out.dtype == object
        assert list(out) == ["hi"] * 3


class TestOperators:
    def test_arithmetic(self, part):
        expr = (col("a") + 1) * 2 - col("b") / 10
        np.testing.assert_allclose(expr.evaluate(part), [3, 4, 5])

    def test_reflected(self, part):
        np.testing.assert_allclose((10 - col("a")).evaluate(part), [9, 8, 7])
        np.testing.assert_allclose((2 * col("a")).evaluate(part), [2, 4, 6])
        np.testing.assert_allclose((1 + col("a")).evaluate(part), [2, 3, 4])

    def test_mod_floordiv(self, part):
        np.testing.assert_allclose((col("b") % 7).evaluate(part), [3, 6, 2])
        np.testing.assert_allclose((col("b") // 7).evaluate(part), [1, 2, 4])

    def test_comparisons(self, part):
        np.testing.assert_array_equal(
            (col("a") > 1.5).evaluate(part), [False, True, True]
        )
        np.testing.assert_array_equal(
            (col("a") == 2.0).evaluate(part), [False, True, False]
        )
        np.testing.assert_array_equal(
            (col("a") != 2.0).evaluate(part), [True, False, True]
        )
        np.testing.assert_array_equal(
            (col("a") <= 2).evaluate(part), [True, True, False]
        )

    def test_boolean_combinators(self, part):
        expr = (col("a") > 1) & (col("b") < 30)
        np.testing.assert_array_equal(expr.evaluate(part), [False, True, False])
        expr = (col("a") > 2) | (col("b") < 15)
        np.testing.assert_array_equal(expr.evaluate(part), [True, False, True])
        np.testing.assert_array_equal(
            (~(col("a") > 1)).evaluate(part), [True, False, False]
        )

    def test_negate(self, part):
        np.testing.assert_allclose((-col("a")).evaluate(part), [-1, -2, -3])

    def test_alias_keeps_value(self, part):
        expr = (col("a") + col("b")).alias("total")
        assert expr.name == "total"
        np.testing.assert_allclose(expr.evaluate(part), [11, 22, 33])

    def test_string_equality(self, part):
        np.testing.assert_array_equal(
            (col("s") == "x").evaluate(part), [True, False, True]
        )

    def test_string_literal_comparison(self, part):
        out = (col("s") == lit("x")).evaluate(part)
        assert out.dtype == np.bool_
        np.testing.assert_array_equal(out, [True, False, True])


class TestUdf:
    def test_vectorized(self, part):
        expr = udf(lambda a, b: a * b, ["a", "b"])
        np.testing.assert_allclose(expr.evaluate(part), [10, 40, 90])

    def test_expr_inputs(self, part):
        expr = udf(np.sqrt, [col("a") * 4])
        np.testing.assert_allclose(expr.evaluate(part), [2, np.sqrt(8), np.sqrt(12)])

    def test_row_count_enforced(self, part):
        expr = udf(lambda a: a[:2], ["a"])
        with pytest.raises(ValueError, match="rows"):
            expr.evaluate(part)

    def test_udf_wrong_length_raises(self, part):
        # The error names the offending UDF, also when it is nested.
        expr = udf(lambda a: a[:2], [col("a")], "trunc") + lit(1)
        with pytest.raises(ValueError, match="trunc"):
            expr.evaluate(part)
