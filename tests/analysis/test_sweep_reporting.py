"""Unit tests for custom-runner experiment rows and table formatting."""

import pytest

from repro.analysis.reporting import Table, format_percentage, format_ratio, format_scientific
from repro.analysis.scenario import Experiment
from repro.analysis.sweep import SweepExecutor, SweepSpec


def _square(point):
    return {"square": point["value"] ** 2}


def _plus_ten(point):
    return point["value"] + 10


class TestExperimentRows:
    """Custom point-runners through the fixed-depth ``Experiment`` path."""

    def run(self, axes, runner):
        return Experiment(sweep=SweepSpec(axes), runner=runner).run(
            SweepExecutor("serial"))

    def test_rows_are_params_plus_results(self):
        assert self.run({"value": [1, 2, 3]}, _square) == [
            {"value": 1, "square": 1},
            {"value": 2, "square": 4},
            {"value": 3, "square": 9},
        ]

    def test_non_dict_results_are_wrapped(self):
        rows = self.run({"value": [1, 2]}, _plus_ten)
        assert rows[0] == {"value": 1, "result": 11}

    def test_runner_result_wins_a_column_collision(self):
        # The runner's result is merged over the parameter columns, so a
        # result keyed like an axis overwrites it.
        rows = self.run({"value": [1]}, lambda point: {"value": "overwritten"})
        assert rows == [{"value": "overwritten"}]

    def test_generator_axis_values_are_consumed_once(self):
        rows = self.run({"value": (v for v in [1, 2])}, _plus_ten)
        assert rows == [{"value": 1, "result": 11}, {"value": 2, "result": 12}]

    def test_two_axes_cover_all_pairs_first_axis_outermost(self):
        rows = self.run({"x": [1, 2], "y": ["a", "b"]},
                        lambda point: {"pair": (point["x"], point["y"])})
        assert [(row["x"], row["y"]) for row in rows] == [
            (1, "a"), (1, "b"), (2, "a"), (2, "b"),
        ]
        assert rows[-1] == {"x": 2, "y": "b", "pair": (2, "b")}

    def test_empty_axis_yields_no_rows(self):
        assert self.run({"x": [], "y": [1, 2]}, _square) == []
        assert self.run({"x": [1, 2], "y": []}, _square) == []


class TestFormatting:
    def test_ratio(self):
        assert format_ratio(2.176) == "2.18x"

    def test_percentage(self):
        assert format_percentage(0.413) == "41.3%"

    def test_scientific(self):
        assert format_scientific(1.5e-7) == "1.50e-07"


class TestTable:
    def test_render_contains_headers_and_rows(self):
        table = Table(["Rate", "Speed"], title="Figure 2")
        table.add_row("BPSK 1/2", 2.033)
        table.add_row("QAM64 3/4", 22.244)
        rendered = table.render()
        assert "Figure 2" in rendered
        assert "Rate" in rendered and "Speed" in rendered
        assert "BPSK 1/2" in rendered and "22.24" in rendered

    def test_named_rows(self):
        table = Table(["a", "b"])
        table.add_row(b=2, a=1)
        assert table.rows == [["1", "2"]]

    def test_row_length_is_checked(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_mixing_positional_and_named_rejected(self):
        table = Table(["a"])
        with pytest.raises(ValueError):
            table.add_row(1, a=2)

    def test_columns_are_aligned(self):
        table = Table(["name", "value"])
        table.add_row("x", 1)
        table.add_row("longer-name", 100)
        lines = table.render().splitlines()
        assert len({line.index("  ") for line in lines[1:]}) >= 1
        assert all(len(line) >= len("longer-name") for line in lines[1:])
