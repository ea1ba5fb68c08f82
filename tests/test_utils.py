"""Tests for repro.utils: validation and table formatting."""

import pytest

from repro.utils.tables import format_key_values, format_table
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_shape,
    check_unique,
)


class TestValidation:
    def test_check_positive_accepts_positive(self):
        check_positive("x", 1)
        check_positive("x", 0.5)

    def test_check_positive_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            check_positive("x", 0)
        with pytest.raises(ValueError):
            check_positive("x", -1)

    def test_check_non_negative(self):
        check_non_negative("x", 0)
        with pytest.raises(ValueError):
            check_non_negative("x", -0.1)

    def test_check_in_range(self):
        check_in_range("x", 5, 0, 10)
        with pytest.raises(ValueError):
            check_in_range("x", 11, 0, 10)

    def test_check_shape_valid(self):
        check_shape("shape", (3, 4))

    def test_check_shape_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            check_shape("shape", ())
        with pytest.raises(ValueError):
            check_shape("shape", (1, 2, 3, 4, 5))

    def test_check_shape_rejects_non_integers(self):
        with pytest.raises(ValueError):
            check_shape("shape", (3.5, 4))

    def test_check_unique(self):
        check_unique("items", [1, 2, 3])
        with pytest.raises(ValueError):
            check_unique("items", [1, 2, 1])


class TestTables:
    def test_format_table_alignment_and_title(self):
        text = format_table(["a", "b"], [[1, 2], [30, 4000.0]], title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[2] and "b" in lines[2]
        assert "4,000" in text  # large floats get a thousands separator

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_table_floats(self):
        text = format_table(["x"], [[3.14159]])
        assert "3.142" in text

    def test_format_key_values(self):
        text = format_key_values({"cycles": 123, "traffic": 4.5})
        assert "cycles" in text and "123" in text

    def test_format_key_values_empty(self):
        assert format_key_values({}) == ""
