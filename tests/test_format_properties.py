"""Property tests for the file formats: checkpoints, frame files and
series CSVs round-trip bit for bit, and a truncated or corrupted file
either loads or raises DataFormatError, never anything else."""

import contextlib
import math
import warnings
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tpgf import data as dt
from tpgf import model as md
from tpgf.errors import DataFormatError
from tpgf.rng import RngState

SETTINGS = settings(max_examples=60, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("formats")


def _load_or_format_error(load, path, blob):
    """Load a damaged file; returns None when it raised DataFormatError."""
    path.write_bytes(blob)
    try:
        return load(path)
    except DataFormatError:
        return None


def _written(write, obj, path):
    write(obj, path)
    return path.read_bytes()


def _flip(blob, data):
    pos = data.draw(st.integers(0, len(blob) - 1), label="position")
    mask = data.draw(st.integers(1, 255), label="xor mask")
    return blob[:pos] + bytes([blob[pos] ^ mask]) + blob[pos + 1:]


# ---------------------------------------------------------------------------
# checkpoints

@st.composite
def checkpoints(draw):
    hidden = draw(st.integers(1, 3))
    f_in = draw(st.integers(1, 4))
    slots = draw(st.lists(st.integers(0, f_in - 1), min_size=1, max_size=f_in))
    return md.init_seq2seq(hidden, f_in, len(slots),
                           RngState(draw(st.integers(0, 2 ** 32))),
                           target_slots=slots)


@SETTINGS
@given(p=checkpoints())
def test_checkpoint_roundtrip(scratch, p):
    path = scratch / "rt.ckpt"
    md.save_checkpoint(p, path)
    back = md.load_checkpoint(path)
    npt.assert_array_equal(back.target_slots, p.target_slots)
    for a, b in zip(back.tensors(), p.tensors()):
        npt.assert_array_equal(a.view(np.int64), b.view(np.int64))


@SETTINGS
@given(p=checkpoints(), data=st.data())
def test_checkpoint_truncation_raises(scratch, p, data):
    path = scratch / "cut.ckpt"
    blob = _written(md.save_checkpoint, p, path)
    cut = data.draw(st.integers(0, len(blob) - 1), label="length")
    path.write_bytes(blob[:cut])
    with pytest.raises(DataFormatError):
        md.load_checkpoint(path)


@SETTINGS
@given(p=checkpoints(), data=st.data())
def test_checkpoint_flipped_byte(scratch, p, data):
    path = scratch / "flip.ckpt"
    blob = _written(md.save_checkpoint, p, path)
    q = _load_or_format_error(md.load_checkpoint, path, _flip(blob, data))
    assert q is None or all(np.isfinite(t).all() for t in q.tensors())


# ---------------------------------------------------------------------------
# frame files

frame_stacks = st.tuples(st.integers(1, 3), st.integers(1, 3),
                         st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=finite))


@SETTINGS
@given(seqs=frame_stacks)
def test_frames_roundtrip(scratch, seqs):
    path = scratch / "rt.frames"
    dt.write_frame_sequences(seqs, path)
    back = dt.load_frame_sequences(path)
    npt.assert_array_equal(back.view(np.int64), seqs.view(np.int64))


@SETTINGS
@given(seqs=frame_stacks, data=st.data())
def test_frames_truncation_raises(scratch, seqs, data):
    path = scratch / "cut.frames"
    blob = _written(dt.write_frame_sequences, seqs, path)
    cut = data.draw(st.integers(0, len(blob) - 1), label="length")
    path.write_bytes(blob[:cut])
    with pytest.raises(DataFormatError):
        dt.load_frame_sequences(path)


@SETTINGS
@given(seqs=frame_stacks, data=st.data())
def test_frames_flipped_byte(scratch, seqs, data):
    path = scratch / "flip.frames"
    blob = _written(dt.write_frame_sequences, seqs, path)
    back = _load_or_format_error(dt.load_frame_sequences, path,
                                 _flip(blob, data))
    assert back is None or np.isfinite(back).all()


# ---------------------------------------------------------------------------
# series CSVs
#
# The writer and reader of tpgf.data are vectorised; the cell-by-cell
# writer and line-by-line reader they replaced stay here as references.
# Like the line loop, the reference reader names the first missing entry
# before it allocates, so an index near 2**63 is a DataFormatError too.
# The new code must match them byte for byte on write and, on read, give
# the same bits or the same DataFormatError message for any file.

def _reference_write(series, path):
    series = np.asarray(series, dtype=np.float64)
    total, nodes, channels = series.shape
    with open(path, "w") as fh:
        fh.write("time,node,channel,value\n")
        for t in range(total):
            for n in range(nodes):
                for f in range(channels):
                    fh.write(f"{t},{n},{f},{series[t, n, f]:.17g}\n")


def _reference_load(path):
    try:
        return _reference_parse(path)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from None
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _reference_parse(path):
    header_want = "time,node,channel,value"
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != header_want:
            raise DataFormatError(
                f"expected header {header_want!r}, got {header!r}")
        entries = {}
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise DataFormatError(
                    f"line {lineno}: expected 4 fields, got {len(parts)}")
            try:
                t, n, f = int(parts[0]), int(parts[1]), int(parts[2])
                v = float(parts[3])
            except ValueError as exc:
                raise DataFormatError(f"line {lineno}: {exc}") from None
            if not math.isfinite(v):
                raise DataFormatError(
                    f"line {lineno}: non-finite value {parts[3]!r}")
            if t < 0 or n < 0 or f < 0:
                raise DataFormatError(
                    f"line {lineno}: negative index in time={t}, node={n}, "
                    f"channel={f}")
            if (t, n, f) in entries:
                raise DataFormatError(
                    f"line {lineno}: duplicate entry for time={t}, node={n}, channel={f}")
            entries[(t, n, f)] = v
    if not entries:
        raise DataFormatError("CSV contains no data rows")
    total = max(k[0] for k in entries) + 1
    nodes = max(k[1] for k in entries) + 1
    channels = max(k[2] for k in entries) + 1
    if len(entries) != total * nodes * channels:
        for t in range(total):
            for n in range(nodes):
                for f in range(channels):
                    if (t, n, f) not in entries:
                        raise DataFormatError(
                            f"missing entry for time={t}, node={n}, channel={f}")
    series = np.empty((total, nodes, channels))
    for t in range(total):
        for n in range(nodes):
            for f in range(channels):
                key = (t, n, f)
                if key not in entries:
                    raise DataFormatError(
                        f"missing entry for time={t}, node={n}, channel={f}")
                series[t, n, f] = entries[key]
    return series


def _outcome(load, path):
    """('ok', shape, bits) or ('error', message) of one load; any
    exception other than DataFormatError fails the test."""
    try:
        back = load(path)
    except DataFormatError as exc:
        return "error", str(exc)
    return "ok", back.shape, back.view(np.int64).tobytes()


def _same_as_reference(path, blob):
    """Load a (possibly damaged) file both ways; returns the new result."""
    path.write_bytes(blob)
    want = _outcome(_reference_load, path)
    assert _outcome(dt.load_series_csv, path) == want
    return None if want[0] == "error" else dt.load_series_csv(path)


@contextlib.contextmanager
def _line_loop_forbidden():
    with mock.patch.object(dt, "_parse_series_csv",
                           side_effect=AssertionError("fell back to the line loop")):
        yield


extremes = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                            2.225073858507201e-308, 1e308, -1e308,
                            1.7976931348623157e308, 0.1, 1 / 3])
series = st.tuples(st.integers(1, 4), st.integers(1, 3),
                   st.integers(1, 3)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=finite | extremes))


@SETTINGS
@given(raw=series)
def test_series_csv_roundtrip(scratch, raw):
    path = scratch / "rt.csv"
    _reference_write(raw, path)
    want = path.read_bytes()
    dt.write_series_csv(raw, path)
    assert path.read_bytes() == want
    # a written file never needs the line loop, so the speed-up cannot
    # hide behind a silent fallback
    with _line_loop_forbidden():
        back = dt.load_series_csv(path)
    npt.assert_array_equal(back.view(np.int64), raw.view(np.int64))


@SETTINGS
@given(raw=series, data=st.data())
def test_series_csv_truncation(scratch, raw, data):
    path = scratch / "cut.csv"
    blob = _written(dt.write_series_csv, raw, path)
    cut = data.draw(st.integers(0, len(blob) - 1), label="length")
    back = _same_as_reference(path, blob[:cut])
    assert back is None or np.isfinite(back).all()


@SETTINGS
@given(raw=series, data=st.data())
def test_series_csv_flipped_byte(scratch, raw, data):
    path = scratch / "flip.csv"
    blob = _written(dt.write_series_csv, raw, path)
    back = _same_as_reference(path, _flip(blob, data))
    assert back is None or np.isfinite(back).all()


# characters where int()/float(), str.strip() and numpy's parser differ
_TRICKY = "0123456789,.-+e_ \t#\x00\x0b\x0c\x1c\x1f\x85\xa0 ١１nafi\r"


@SETTINGS
@given(raw=series, data=st.data())
def test_series_csv_rewritten_line(scratch, raw, data):
    path = scratch / "line.csv"
    lines = _written(dt.write_series_csv, raw, path).decode().split("\n")
    pos = data.draw(st.integers(1, len(lines) - 1), label="line")
    lines[pos] = data.draw(st.text(alphabet=_TRICKY, max_size=16), label="text")
    _same_as_reference(path, "\n".join(lines).encode())


def _csv_corpus():
    """name -> bytes: one well-formed file and its mutations."""
    raw = dt.gen_multinode_series(3, 2, 200, 0.4, 0.3, seed=11)
    header = "time,node,channel,value"
    rows = [f"{t},{n},{f},{raw[t, n, f]:.17g}" for t in range(200)
            for n in range(3) for f in range(2)]

    def text(body, head=header, end="\n"):
        return (end.join([head] + body) + end).encode()

    def edit(pos, new):
        return text(rows[:pos] + [new] + rows[pos + 1:])

    shuffled = [rows[i] for i in np.random.default_rng(3).permutation(len(rows))]
    big = text(rows)
    cut = big.index(b"\n", 9000) + 3  # inside a row beyond the first 8 KB
    yield "well_formed", big
    yield "shuffled_rows", text(shuffled)
    yield "blank_lines", text(rows[:5] + ["", "   ", ""] + rows[5:])
    yield "padded_lines", text([f" \t{r}  " for r in rows])
    yield "padded_fields", text([r.replace(",", " , ") for r in rows])
    yield "crlf", text(rows, end="\r\n")
    yield "lone_cr", text(rows, end="\r")
    yield "crlf_header_only", (header + "\r\n" + "\n".join(rows) + "\n").encode()
    yield "utf8_bom", b"\xef\xbb\xbf" + big
    yield "hash_suffix", edit(7, rows[7] + "#note")
    yield "hash_line", text(rows[:3] + ["# comment"] + rows[3:])
    yield "underscore_index", edit(6 * 10, rows[6 * 10].replace("10,", "1_0,", 1))
    yield "arabic_digit_index", edit(6, rows[6].replace("1,", "١,", 1))
    yield "fullwidth_digit_index", edit(6, rows[6].replace("1,", "１,", 1))
    yield "numpy_only_space", edit(6, rows[6].replace(",", "\x1c,", 1))
    yield "numpy_only_space_at_end", edit(6, rows[6] + "\x1f")
    yield "float_index", edit(6, rows[6].replace("1,", "1.0,", 1))
    yield "plus_and_zero_padded_index", edit(6, "+" + rows[6].replace("1,", "01,", 1))
    yield "extra_field", edit(4, rows[4] + ",9")
    yield "trailing_comma", edit(4, rows[4] + ",")
    yield "missing_field", edit(4, rows[4].rsplit(",", 1)[0])
    yield "empty_field", edit(4, ",".join(["1", "", "0", "1.5"]))
    yield "quoted_field", edit(4, '"' + rows[4].replace(",", '",', 1))
    yield "nan", edit(9, rows[9].rsplit(",", 1)[0] + ",nan")
    yield "inf", edit(9, rows[9].rsplit(",", 1)[0] + ",-inf")
    yield "overflow", edit(9, rows[9].rsplit(",", 1)[0] + ",1e999")
    yield "hex_value", edit(9, rows[9].rsplit(",", 1)[0] + ",0x1p3")
    yield "nul_byte", edit(9, rows[9] + "\x00")
    yield "negative_index", edit(11, "-" + rows[11])
    yield "huge_index", edit(11, "9223372036854775807" + rows[11][rows[11].index(","):])
    yield "int64_overflow_index", edit(11, "99999999999999999999" + rows[11][rows[11].index(","):])
    yield "duplicate_row", text(rows + [rows[20]])
    yield "missing_row", text(rows[:20] + rows[21:])
    yield "duplicate_in_place_of_missing", text(rows[:21] + [rows[20]] + rows[22:])
    yield "missing_last_row", text(rows[:-1])
    yield "no_final_newline", text(rows)[:-1]
    yield "header_only", (header + "\n").encode()
    yield "header_and_blank_lines", (header + "\n\n \n").encode()
    yield "empty_file", b""
    yield "bad_header", text(rows, head="t,n,c,v")
    yield "non_utf8_early", big[:100] + b"\xff" + big[101:]
    yield "non_utf8_beyond_8k", big[:cut] + b"\xff" + big[cut + 1:]


@pytest.mark.parametrize("name, blob", list(_csv_corpus()),
                         ids=[name for name, _ in _csv_corpus()])
def test_series_csv_mutations_match_reference(tmp_path, name, blob):
    _same_as_reference(tmp_path / f"{name}.csv", blob)


def test_series_csv_loadtxt_warning_falls_back(tmp_path):
    # numpy releases that parse '1.0' into an integer field only warn;
    # a warning from the fast pass must hand the file to the line loop
    real = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("parsed a float as an integer", DeprecationWarning)
        return real(*args, **kwargs)

    path = tmp_path / "warn.csv"
    dt.write_series_csv(np.arange(6.0).reshape(3, 2, 1), path)
    with mock.patch.object(np, "loadtxt", warning_loadtxt), \
            mock.patch.object(dt, "_parse_series_csv",
                              wraps=dt._parse_series_csv) as loop:
        back = dt.load_series_csv(path)
    assert loop.call_count == 1
    npt.assert_array_equal(back, np.arange(6.0).reshape(3, 2, 1))
