import csv
import enum
import hashlib
import io
import json
import locale
import math
import os
import re
import stat
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sltlab import jsonio
from sltlab.core import LabeledSample


def reference_render(obj, level: int) -> str:
    """The isinstance-chain renderer jsonio.dumps replaced, frozen as it was."""
    pad = "  " * level
    inner = pad + "  "
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return jsonio.format_float(obj)
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + reference_render(v, level + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            inner + json.dumps(str(k)) + ": " + reference_render(v, level + 1)
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize value of type {type(obj).__name__}")


def reference_cell(v) -> str:
    """The CSV cell write_csv wrote before its cells were rendered by dumps's
    renderer, frozen as it was."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return jsonio.format_float(v)
    return str(v)


def outcome(render, obj):
    """render(obj), or the type of the exception it raises."""
    try:
        return render(obj)
    except Exception as exc:  # the exception type is what is compared
        return type(exc)


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 7


class Tag(str):
    """A str subclass whose str() is not its text."""

    def __str__(self):
        return "tag"


TEXT = st.text(st.characters(exclude_categories=()), max_size=8) | st.sampled_from(
    ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "caf\u00e9 \u2603 \U0001f600"])
FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf, math.nan])
ARRAYS = hnp.arrays(st.sampled_from([np.float64, np.int32, np.bool_, np.float32]),
                    hnp.array_shapes(min_dims=0, max_dims=2, max_side=3))
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), FLOATS, TEXT, st.fractions(),
    FLOATS.map(np.float64), st.integers(-2**31, 2**31 - 1).map(np.int32),
    st.booleans().map(np.bool_), st.sampled_from(Level), TEXT.map(Tag), ARRAYS,
    st.builds(object),
)
KEYS = st.one_of(TEXT, st.integers(), FLOATS, st.none(), st.booleans(), st.fractions(),
                 st.sampled_from(Level), TEXT.map(Tag))
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(KEYS, inner, max_size=4)), max_leaves=12)


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

    @pytest.mark.parametrize("obj, error", [
        ({"deep": [[1.0, {"x": object()}]]}, TypeError),
        ({"flags": [np.bool_(True)]}, TypeError),
        ({"ratios": [0.5, math.nan]}, ValueError),
    ], ids=["object", "numpy-bool", "nan"])
    def test_failed_render_leaves_no_file(self, tmp_path, obj, error):
        path = tmp_path / "report.json"
        with pytest.raises(error):
            jsonio.dump(obj, path)
        assert not path.exists()


class TestRendererDifferential:
    """dumps against the isinstance-chain renderer it replaced: the same text,
    or an exception of the same type."""

    @settings(max_examples=400, deadline=None)
    @given(VALUES)
    @example([1.5, 2.5, -0.0])
    @example((1, 2, Level.HIGH))
    @example({"a": [True, False], 3: None, None: [], 0.5: {}, Fraction(1, 3): ()})
    @example([np.float64(0.25), 0.25, np.array([[1.0, 2.0]]), np.array(1.0), np.array([])])
    @example([np.array([True, False]), np.array(3, dtype=np.int32), Tag("x"), {Tag("k"): 1}])
    @example(["\"", "\u2028", "\ud800", [5e-324, 1e308, -1e-300]])
    def test_same_text_or_same_exception(self, obj):
        assert outcome(jsonio.dumps, obj) == outcome(lambda o: reference_render(o, 0) + "\n", obj)


class TestCsvCellDifferential:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(SCALARS | st.lists(st.integers(), max_size=2), min_size=2, max_size=2),
                    min_size=1, max_size=4))
    @example([[np.bool_(True), Level.HIGH], [Fraction(1, 3), Tag("a,b")], [None, np.float32(0.1)]])
    @example([["caf\u00e9", 1], ["\ud800", 2.5]])
    def test_same_bytes_or_same_exception(self, tmp_path_factory, cells):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        rows = [{"a": a, "b": b} for a, b in cells]

        def reference(rows):
            text = io.StringIO(newline="")
            csv.writer(text).writerows([["a", "b"]] + [[reference_cell(v) for v in r.values()]
                                                       for r in rows])
            return text.getvalue().encode(locale.getpreferredencoding(False))

        def written(rows):
            digest = jsonio.write_csv(path, rows)
            assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
            return path.read_bytes()

        expected = outcome(reference, rows)
        assert outcome(written, rows) == expected
        if expected is ValueError:  # a cell that does not render
            assert not path.exists()


class TestDigests:
    """Each writer returns the sha256 of the bytes the file holds."""

    def test_dump_digest(self, tmp_path):
        path = tmp_path / "report.json"
        digest = jsonio.dump({"name": "caf\u00e9", "values": [0.1, 2, None, Fraction(1, 3)]}, path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == jsonio.sha256_file(path)

    def test_write_csv_digest(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [{"a": 1 / 3, "b": 'quote " and, comma', "c": None},
                {"a": 2.0, "b": "caf\u00e9\nline", "c": True}]
        digest = jsonio.write_csv(path, rows)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("m, dim", [(0, 1), (3, 2), (2500, 2), (4000, 1)])
    def test_to_csv_digest(self, tmp_path, m, dim):
        rng = np.random.default_rng(m + dim)
        sample = LabeledSample(rng.normal(size=(m, dim)) * 1e3, rng.integers(0, 2, size=m))
        path = tmp_path / "sample.csv"
        digest = sample.to_csv(path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


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

    def test_non_finite_cell_leaves_no_file(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.write_csv(path, [{"a": 1.0}, {"a": math.inf}])
        assert not path.exists()


def _dump(path):
    return jsonio.dump({"name": "café", "values": [0.1, 2, None, Fraction(1, 3)]}, path)


def _write_csv(path):
    return jsonio.write_csv(path, [{"a": 1 / 3, "b": 'quote " and, comma', "c": None},
                                   {"a": 2.0, "b": "café\nline", "c": True}])


def _to_csv(path):
    # 2500 two-feature rows take several blocks
    rng = np.random.default_rng(7)
    return LabeledSample(rng.normal(size=(2500, 2)) * 1e3, rng.integers(0, 2, size=2500)).to_csv(path)


WRITERS = pytest.mark.parametrize("write", [_dump, _write_csv, _to_csv],
                                  ids=["dump", "write_csv", "to_csv"])


class TestInPlaceWriter:
    """Every writer rewrites an existing file in place and cuts it to length:
    whatever the path held, it ends with the bytes a write to a fresh path
    leaves, through links as open(path, "w") would write."""

    @staticmethod
    def fresh(write, tmp_path):
        path = tmp_path / "fresh"
        assert write(path) == hashlib.sha256(path.read_bytes()).hexdigest()
        return path.read_bytes()

    @WRITERS
    @pytest.mark.parametrize("old", [
        lambda ref: ref + b"stale tail\n" * 100,
        lambda ref: ref[:len(ref) // 2],
        lambda ref: bytes(len(ref)),
        lambda ref: b"",
    ], ids=["longer", "shorter", "equal", "empty"])
    def test_overwrite_leaves_the_fresh_bytes(self, tmp_path, write, old):
        ref = self.fresh(write, tmp_path)
        path = tmp_path / "out"
        path.write_bytes(old(ref))
        digest = write(path)
        assert path.read_bytes() == ref
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    @WRITERS
    def test_symlink_is_written_through(self, tmp_path, write):
        ref = self.fresh(write, tmp_path)
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_bytes(b"x" * (len(ref) + 4096))
        link.symlink_to(target)
        write(link)
        assert link.is_symlink()
        assert target.read_bytes() == ref

    @WRITERS
    def test_hard_link_sees_the_new_bytes(self, tmp_path, write):
        ref = self.fresh(write, tmp_path)
        path, other = tmp_path / "out", tmp_path / "other"
        path.write_bytes(b"x" * (len(ref) + 4096))
        os.link(path, other)
        write(path)
        assert other.read_bytes() == ref
        assert os.stat(path).st_ino == os.stat(other).st_ino

    @WRITERS
    def test_new_file_mode_follows_umask_and_old_mode_is_kept(self, tmp_path, write):
        old_umask = os.umask(0o027)
        try:
            write(tmp_path / "new")
        finally:
            os.umask(old_umask)
        assert stat.S_IMODE(os.stat(tmp_path / "new").st_mode) == 0o666 & ~0o027
        path = tmp_path / "old"
        path.write_bytes(b"x" * 10)
        path.chmod(0o604)
        write(path)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o604

    @WRITERS
    def test_devnull(self, tmp_path, write):
        ref = self.fresh(write, tmp_path)
        assert write(os.devnull) == hashlib.sha256(ref).hexdigest()

    @WRITERS
    def test_opened_without_truncation(self, tmp_path, monkeypatch, write):
        calls, os_open = [], os.open

        def spy(path, flags, *args, **kwargs):
            calls.append((os.fspath(path), flags))
            return os_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(jsonio.os, "open", spy)
        path = tmp_path / "out"
        path.write_bytes(b"x" * 100)
        write(path)
        assert calls == [(str(path), os.O_WRONLY | os.O_CREAT)]
        assert not calls[0][1] & os.O_TRUNC
