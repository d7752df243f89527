"""LabeledSample.from_csv and to_csv against the row-by-row reader and writer
they replaced, kept here as references: same arrays bit for bit, same error
messages, same file bytes."""

import csv
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sltlab import core
from sltlab.core import CSV_BLOCK_CHARS, LabeledSample


def reference_from_csv(path):
    """One instance array per row through LabeledSample.from_pairs; a record
    that csv cannot read fails naming the line where it starts."""
    rows = []
    start = 1  # a quoted field may span lines
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file, expected a header row")
            width = len(header)
            if width < 2:
                raise ValueError(f"{path}: need at least one feature column and one label column")
            start = reader.line_num + 1
            for row in reader:
                lineno, start = start, reader.line_num + 1
                if not row:
                    continue
                if len(row) != width:
                    raise ValueError(
                        f"{path} line {lineno}: expected {width} columns, got {len(row)}")
                try:
                    feats = [float(v) for v in row[:-1]]
                except ValueError:
                    raise ValueError(f"{path} line {lineno}: non-numeric feature value") from None
                if not all(map(math.isfinite, feats)):
                    raise ValueError(f"{path} line {lineno}: feature values must be finite")
                raw = row[-1].strip()
                if raw not in ("0", "1"):
                    raise ValueError(f"{path} line {lineno}: label must be 0 or 1, got {raw!r}")
                rows.append((feats, int(raw)))
        except csv.Error as exc:
            raise ValueError(f"{path} line {start}: {exc}") from None
    return LabeledSample.from_pairs(rows, dim=width - 1)


def reference_to_csv(S, path):
    """One writerow call per pair."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(S.dim)] + ["label"])
        for x, y in S.pairs():
            writer.writerow([format(v, ".17g") for v in x] + [y])


# Cells as they appear in the file: padded, quoted (one holding a comma, one
# a line break), signed zero, subnormal, 17-digit, underscore and out-of-range
# numbers.
GOOD_FEATURES = ["0.5", "-0", " 0.25 ", "1e-320", "5e-324", "0.30000000000000004", "1_0",
                 "+2", "1.5e3", "-1.7976931348623157e308", '"0.75"', '" 3 "', '"0.5\n"']
BAD_FEATURES = ["1e400", "-1e400", "nan", "inf", "-inf", "NaN", "0x1", "abc", "", '"1,5"']
GOOD_LABELS = ["0", "1", " 1 ", "\t0", '"1"', '" 0 "']
BAD_LABELS = ["1.0", "2", "", "01", "-0", "true", "0 1"]


@st.composite
def csv_texts(draw):
    """A header of 1 to 4 columns and up to 8 lines: rows (well formed when
    `clean`), blank lines, and short or long rows; LF or CRLF line ends."""
    if draw(st.integers(0, 19)) == 0:
        return ""
    width = draw(st.integers(1, 4))
    clean = draw(st.booleans())
    features = st.sampled_from(GOOD_FEATURES if clean else GOOD_FEATURES + BAD_FEATURES)
    labels = st.sampled_from(GOOD_LABELS if clean else GOOD_LABELS + BAD_LABELS)
    lines = [",".join(draw(st.sampled_from(["x1", '"x 2"', "label", " "]))
                      for _ in range(width))]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 4 + ["blank"] + ([] if clean else ["short", "long"])))
        cells = [draw(features) for _ in range(width - 1)] + [draw(labels)]
        if kind == "blank":
            cells = []
        elif kind == "short":
            cells = cells[:-1]
        elif kind == "long":
            cells.append(draw(labels))
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def outcome(read, path):
    try:
        S = read(path)
    except ValueError as exc:
        return "error", str(exc)
    return str(S.X.dtype), S.X.shape, S.X.tobytes(), str(S.y.dtype), S.y.tobytes()


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_texts())
@example("x1,label\r\n\r\n-0,1\r\n")
@example("x1,x2,label\n")
@example("x1,label\n0.5\n")
@example("x1,label\n0.5,0,1\n")
@example('x1,label\n"0.5\n",1\n0.2,2\n')  # the bad record starts on line 4
@example("x1,label\r0.5,1\r\n0.25,0\r")  # lone CR line ends
@example("x1,label\n0.25,0\n0.5\r,1\n")  # a lone CR inside a record
@example("x1,label\n0.5,1\n \n0.25,0\n")  # a whitespace-only line is a row
@example("x1,label\n#0.5,1\n0.25,0\n")  # no comment lines
@example("x1,x2,label\n0.5,0.5\n1,0.25,0.75,0\n")  # a short row balanced by a long one
@example('x1,"x,2",label\n0.5,0.25,0.75,1\n')  # a comma in a quoted header cell
def test_from_csv_matches_reference(tmp_path, text):
    path = tmp_path / "sample.csv"
    path.write_bytes(text.encode())
    got = outcome(LabeledSample.from_csv, path)
    assert got == outcome(reference_from_csv, path)
    if got[0] != "error":
        assert (got[0], got[3]) == ("float64", "uint8")


# Plain cells that LabeledSample.from_csv reads a block at a time, and
# insertions after which it must read as the row loop does.
PLAIN_FEATURES = ["0.5", "-0", " 0.25 ", "5e-324", "0.30000000000000004", "1_0", "+2", "1.5e3"]
DOUBTS = ['"', '"0.5"', "\r", "\n", "\r\n", "\x00", ",", ",0", "nan", "-inf", "1e400", "2", " ",
          "#", "x", "_", "\t"]
# Tokens where numpy's text reader and float() might part ways: control
# characters float() does or does not strip, a non-ASCII digit float() reads,
# spellings of inf and nan, an underflow, a hex float and a trailing comma.
DOUBTS += ["\x0b", "\x0c", "\x1c", "\u0661", "infinity", "+nan", "1e-400", "0x1p0", "0.5,"]


@st.composite
def near_plain_texts(draw):
    """A header of 2 to 4 columns and up to 12 rows of plain cells, exact 0/1
    labels and blank lines, LF or CRLF line ends; then maybe one cell
    replaced by one of DOUBTS, and up to two DOUBTS inserted anywhere."""
    width = draw(st.integers(2, 4))
    rows = [[draw(st.sampled_from(PLAIN_FEATURES)) for _ in range(width - 1)]
            + [draw(st.sampled_from(["0", "1"]))] for _ in range(draw(st.integers(0, 12)))]
    if rows and draw(st.booleans()):
        cells = rows[draw(st.integers(0, len(rows) - 1))]
        cells[draw(st.integers(0, width - 1))] = draw(st.sampled_from(DOUBTS))
    lines = [",".join([f"x{j + 1}" for j in range(width - 1)] + ["label"])]
    lines += ["" if draw(st.integers(0, 5)) == 0 else ",".join(cells) for cells in rows]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(DOUBTS)) + text[at:]
    return text


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(near_plain_texts())
@example("x1,label\n0.5,1\nnan,0\n")
@example("x1,x2,label\r\n0.5,1e400,1\r\n")
@example("x1,label\n\x1c0.5,1\n")  # numpy strips \x1c-\x1f around a number, float() does not
@example("x1,x2,label\r\n0.5,0.25\x1f,0\r\n")
@example("x1,label\n0.5,1.0\n")  # labels numpy reads as 0 or 1, which are not "0" or "1"
@example("x1,label\r\n0.5,01\r\n0.25,-0\r\n")
def test_from_csv_near_plain_text_matches_reference(tmp_path, text):
    path = tmp_path / "sample.csv"
    path.write_bytes(text.encode())
    assert outcome(LabeledSample.from_csv, path) == outcome(reference_from_csv, path)


@pytest.mark.parametrize("text", [
    "x1,label\n0.5,1\n0\x00.25,0\n", "x1,label\n0.5,1\x00\n", "x\x001,label\n0.5,1\n",
    f"x1,label\n0.{'0' * csv.field_size_limit()}1,0\n", f"x{'1' * csv.field_size_limit()},label\n",
], ids=["nul-feature", "nul-label", "nul-header", "long-feature", "long-header"])
def test_reader_errors_match_reference(tmp_path, text):
    path = tmp_path / "sample.csv"
    path.write_bytes(text.encode())
    assert outcome(LabeledSample.from_csv, path) == outcome(reference_from_csv, path)


@pytest.mark.parametrize("quoted, bad", [(None, None), (3000, None), (None, 5000), (3000, 5000),
                                         (5000, 3000)])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_from_csv_past_the_first_block_matches_reference(tmp_path, quoted, bad, newline):
    # rows 3000 and 5000 lie past the first read block of CSV_BLOCK_CHARS
    rng = np.random.default_rng(4)
    rows = [f"{format(v, '.17g')},{b}" for v, b in zip(rng.random(6000).tolist(),
                                                       rng.integers(0, 2, 6000).tolist())]
    assert len(newline.join(rows[:2999])) > CSV_BLOCK_CHARS
    if quoted is not None:
        value, label = rows[quoted].split(",")
        rows[quoted] = f'"{value}",{label}'
    if bad is not None:
        rows[bad] = rows[bad][:-1] + "2"
    path = tmp_path / "sample.csv"
    path.write_bytes(newline.join(["x1,label", *rows, ""]).encode())
    got = outcome(LabeledSample.from_csv, path)
    assert got == outcome(reference_from_csv, path)
    if bad is not None:
        assert got == ("error", f"{path} line {bad + 2}: label must be 0 or 1, got '2'")
    else:
        assert got[1] == (6000, 1)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_plain_files_never_reach_the_reference_loop(tmp_path, monkeypatch, newline):
    # 6000 rows over several read blocks, every 7th line blank, and one block
    # of blank lines
    rng = np.random.default_rng(7)
    rows = [f"{format(v, '.17g')},{format(w, '.17g')},{b}" for v, w, b in zip(
        *rng.standard_normal((2, 6000)).tolist(), rng.integers(0, 2, 6000).tolist())]
    for at in range(0, len(rows), 7):
        rows.insert(at, "")
    rows[3000:3000] = [""] * CSV_BLOCK_CHARS  # a read block of blank lines only
    path = tmp_path / "sample.csv"
    path.write_bytes(newline.join(["x1,x2,label", *rows, ""]).encode())
    expected = outcome(reference_from_csv, path)

    def fail(*args):
        raise AssertionError("plain file read by the csv.reader loop")

    monkeypatch.setattr(core, "_csv_records", fail)
    assert outcome(LabeledSample.from_csv, path) == expected
    assert expected[1] == (6000, 2)


@st.composite
def samples(draw):
    d = draw(st.integers(1, 3))
    m = draw(st.integers(0, 10))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=m * d, max_size=m * d))
    labels = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    return LabeledSample(np.array(values, dtype=float).reshape(m, d),
                         np.array(labels, dtype=np.uint8))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(samples())
@example(LabeledSample(np.empty((0, 2)), np.empty(0, dtype=np.uint8)))
@example(LabeledSample(np.array([[-0.0, 5e-324, 2.2250738585072014e-308],
                                 [0.1 + 0.2, 1 / 3, -1.7976931348623157e308]]),
                       np.array([1, 0], dtype=np.uint8)))
@example(LabeledSample(  # more than one write block of CSV_BLOCK_CHARS
    np.random.default_rng(5).standard_normal((3000, 3)) * 10.0 ** np.arange(-300, 300, 200),
    np.random.default_rng(6).integers(0, 2, 3000).astype(np.uint8)))
def test_to_csv_bytes_match_reference_and_read_back(tmp_path, S):
    path, reference = tmp_path / "sample.csv", tmp_path / "reference.csv"
    S.to_csv(path)
    reference_to_csv(S, reference)
    assert path.read_bytes() == reference.read_bytes()
    back = LabeledSample.from_csv(path)
    assert back.X.shape == S.X.shape
    assert back.X.tobytes() == S.X.tobytes() and back.y.tobytes() == S.y.tobytes()


@st.composite
def kernel_values(draw):
    """A float aimed at the kernel of jsonio.csv_rows, 1e-4 <= |v| < 1e16 or
    0, and at its edges, of either sign: any float with |v| in [1e-5, 1e17];
    an exact tie n / 2^k of 18 significant digits, which %.17g rounds to
    even; 10^k or a neighbour, where log10 may be off by one; a short
    decimal, whose double often lies just below it, so that its 17 digits
    round up through a run of nines; or 0."""
    kind = draw(st.sampled_from(["range", "tie", "power", "short", "zero"]))
    if kind == "range":
        v = draw(st.floats(1e-5, 1e17))
    elif kind == "tie":
        k = draw(st.integers(5, 25))
        lo, hi = -(-10 ** 17 // 5 ** k), min(10 ** 18 // 5 ** k, 2 ** 53)
        v = (2 * draw(st.integers(lo // 2, (hi - 2) // 2)) + 1) / 2 ** k
    elif kind == "power":
        v = 10.0 ** draw(st.integers(-5, 17))
        for _ in range(draw(st.integers(0, 2))):
            v = np.nextafter(v, draw(st.sampled_from([0.0, math.inf])))
    elif kind == "short":
        v = float(f"{draw(st.integers(1, 9999))}e{draw(st.integers(-9, 16))}")
    else:
        v = 0.0
    return -float(v) if draw(st.booleans()) else float(v)


@st.composite
def kernel_samples(draw):
    """Up to 40 rows of 1 to 3 features drawn from kernel_values, some rows
    with a cell of any finite float, which the % template writes."""
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    values = [draw(st.floats(allow_nan=False, allow_infinity=False)
                   if draw(st.integers(0, 9)) == 0 else kernel_values()) for _ in range(m * d)]
    labels = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    return LabeledSample(np.array(values).reshape(m, d), np.array(labels, dtype=np.uint8))


def sample_of(rows):
    return LabeledSample(np.array(rows, dtype=float), np.arange(len(rows)) % 2)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kernel_samples())
@example(sample_of([[0.0], [-0.0], [1e-4], [-9.9999999999999991e-05], [9999999999999998.0]]))
@example(sample_of([[1049 / 2 ** 20], [1051 / 2 ** 20], [-0.5], [0.124], [2.0 ** 53 + 2]]))
@example(sample_of([[10.0 ** k, np.nextafter(10.0 ** k, 0), np.nextafter(10.0 ** k, 2e16)]
                    for k in range(-4, 16)]))
@example(sample_of([[0.5, 1e-7], [1e16, -0.25], [-0.0, 5e-324]]))  # kernel and template cells
@example(sample_of([[0.1, -1e300, 2.5], [3.0, 4.0, 0.0], [1e-5, 1e17, 123.456]]))
def test_kernel_bytes_match_reference(tmp_path, S):
    # A block with a kernel row goes through the kernel, however few its cells.
    path, reference = tmp_path / "sample.csv", tmp_path / "reference.csv"
    S.to_csv(path)
    reference_to_csv(S, reference)
    assert path.read_bytes() == reference.read_bytes()
    back = LabeledSample.from_csv(path)
    assert back.X.tobytes() == S.X.tobytes() and back.y.tobytes() == S.y.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_template_rows_on_write_block_boundaries_match_reference(tmp_path, d):
    # Three full write blocks of uniform cells; the rows on each side of every
    # block boundary, and the first and last row, hold a cell the kernel
    # leaves to the % template.
    step = CSV_BLOCK_CHARS // ((core._CSV_CELL_CHARS + 1) * d + 3)
    rng = np.random.default_rng(d)
    X = rng.uniform(-1, 1, (3 * step, d))
    for i, row in enumerate([0, step - 1, step, 2 * step - 1, 2 * step, 3 * step - 1]):
        X[row, i % d] = [1e-7, -1e20, 5e-324, 1.7976931348623157e308, -2e-5, 1e16][i]
    S = LabeledSample(X, rng.integers(0, 2, 3 * step).astype(np.uint8))
    path, reference = tmp_path / "sample.csv", tmp_path / "reference.csv"
    S.to_csv(path)
    reference_to_csv(S, reference)
    assert path.read_bytes() == reference.read_bytes()
