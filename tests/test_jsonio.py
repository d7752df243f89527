import json
import re
from fractions import Fraction

import numpy as np
import pytest

from sltlab import jsonio


class TestFloatFormatting:
    def test_17_digits_round_trip_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            x = float(rng.uniform(-1e6, 1e6)) * 10.0 ** int(rng.integers(-12, 12))
            assert float(jsonio.format_float(x)) == x

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            jsonio.format_float(float("nan"))
        with pytest.raises(ValueError):
            jsonio.format_float(float("inf"))


class TestDumps:
    def test_output_is_valid_json(self):
        obj = {
            "a": [1, 2.5, None, True, "text with \"quotes\""],
            "nested": {"x": 0.1, "empty_list": [], "empty_map": {}},
            "fraction": Fraction(9, 32),
        }
        text = jsonio.dumps(obj)
        back = json.loads(text)
        assert back["a"][0] == 1
        assert back["nested"]["x"] == 0.1
        assert back["fraction"] == "9/32"

    def test_numpy_scalars_and_arrays(self):
        text = jsonio.dumps({"v": np.float64(0.25), "n": np.int32(3),
                             "arr": np.array([1.0, 2.0])})
        back = json.loads(text)
        assert back == {"v": 0.25, "n": 3, "arr": [1.0, 2.0]}

    def test_deterministic_for_equal_input(self):
        obj = {"b": [0.1, 0.2], "a": 3}
        assert jsonio.dumps(obj) == jsonio.dumps(obj)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            jsonio.dumps({"bad": object()})


    def test_dump_leaves_no_file_on_failure(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.dump({"ratio": float("inf")}, path)
        assert not path.exists()


class TestCsv:
    def test_floats_written_with_17_digits(self, tmp_path):
        path = tmp_path / "t.csv"
        jsonio.write_csv(path, [{"a": 1 / 3, "b": 7, "c": None, "d": "x"}])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b,c,d"
        assert lines[1] == "0.33333333333333331,7,,x"
        assert float(lines[1].split(",")[0]) == 1 / 3

    @pytest.mark.parametrize("second, message", [
        ({"a": 2}, "row 1 has keys ['a'], expected ['a', 'b']"),
        ({"a": 2, "b": 3, "c": 4}, "row 1 has keys ['a', 'b', 'c']"),
        ({"b": 3, "a": 2}, "row 1 has keys ['b', 'a']"),
    ], ids=["missing", "extra", "reordered"])
    def test_rows_must_share_the_first_rows_keys(self, tmp_path, second, message):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=re.escape(message)):
            jsonio.write_csv(path, [{"a": 0, "b": 1}, second])
        assert not path.exists()

    def test_empty_rows_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="no rows"):
            jsonio.write_csv(path, [])
        assert not path.exists()
