"""Tests for the ASCII table renderer."""

from __future__ import annotations

from repro.util import tables
from repro.util.tables import format_float, render_table


class TestFormatFloat:
    def test_integers_pass_through(self):
        assert format_float(7) == "7"
        assert format_float(-3) == "-3"

    def test_floats_fixed_digits(self, monkeypatch):
        assert format_float(2.5) == "2.500"
        monkeypatch.setattr(tables, "FLOAT_DIGITS", 2)
        assert format_float(0.25) == "0.25"

    def test_whole_floats_compact(self):
        assert format_float(3.0) == "3"

    def test_nan(self):
        assert format_float(float("nan")) == "nan"

    def test_non_numeric_passthrough(self):
        assert format_float("abc") == "abc"
        assert format_float(True) == "True"


class TestRenderTable:
    def test_alignment_and_separator(self):
        text = render_table(["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = text.splitlines()
        assert lines[0] == "| a  | bb    |"
        assert lines[1] == "|----|-------|"
        assert lines[2] == "| 1  | 2.500 |"
        assert lines[3] == "| 10 | 0.250 |"
        assert len({len(line) for line in lines}) == 1  # rectangular

    def test_title(self):
        text = render_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_empty_rows(self):
        text = render_table(["col1", "col2"], [])
        assert "col1" in text
        assert len(text.splitlines()) == 2

    def test_wide_cells_stretch_columns(self):
        text = render_table(["x"], [["a-very-long-value"]])
        header, sep, row = text.splitlines()
        assert len(header) == len(sep) == len(row)
        assert "a-very-long-value" in row
