"""Property tests for the file formats: checkpoints, frame files and
series CSVs round-trip bit for bit, and a truncated or corrupted file
either loads or raises DataFormatError, never anything else. A corpus
of damaged binary files checks that each fault names its file."""

import io
import math
import struct
import warnings
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
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
    slots = draw(st.lists(st.integers(0, f_in - 1), min_size=1, max_size=f_in,
                          unique=True))
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


@SETTINGS
@given(p=checkpoints(), data=st.data())
def test_checkpoint_repeated_slot_refused(scratch, p, data):
    # a repeated slot would feed two predictions into one input slot
    assume(p.f_out >= 2)
    path = scratch / "twice.ckpt"
    blob = bytearray(_written(md.save_checkpoint, p, path))
    i, j = data.draw(st.lists(st.integers(0, p.f_out - 1), min_size=2,
                              max_size=2, unique=True), label="slots")
    blob[24 + 4 * j:28 + 4 * j] = blob[24 + 4 * i:28 + 4 * i]
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="distinct entries") as ei:
        md.load_checkpoint(path)
    assert str(ei.value).startswith(f"{path}: ")


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
# every binary fault names its file

def _binary(magic, dims, *payload):
    return (magic + struct.pack("<5I", 1, *dims)
            + b"".join(a.tobytes() for a in payload))


def _checkpoint(slots=(0, 2), hidden=3, f_in=4, f_out=2, value=0.0):
    """A checkpoint whose every parameter is `value`."""
    count = 2 * 4 * hidden * (f_in + hidden + 1) + f_out * (hidden + 1)
    return _binary(b"TPGF", (hidden, f_in, f_out, len(slots)),
                   np.asarray(slots, dtype="<u4"),
                   np.full(count, value, dtype="<f8"))


def _frames(dims=(2, 3, 3, 1), value=0.0):
    """A frame file, dims (T, H, W, count), whose every pixel is `value`."""
    return _binary(b"TPGFRAME", dims,
                   np.full(math.prod(dims), value, dtype="<f8"))


def _faults(load, good, magic, own):
    """A case per damage: the damage both formats share, then the
    format's own `own` (id, damaged file, message after the path)."""
    n = len(magic)
    return [pytest.param(load, good, damaged, fault,
                         id=f"{load.__name__}-{case}")
            for case, damaged, fault in [
        ("short_header", good[:n + 19], "truncated before header end"),
        ("magic", b"X" * n + good[n:], f"bad magic {b'X' * n!r}"),
        ("version", good[:n] + struct.pack("<I", 2) + good[n + 4:],
         "unsupported version 2"),
        ("truncated", good[:-8], f"truncated: {len(good) - 8} bytes where "
                                 f"the header implies {len(good)}"),
        ("trailing", good + bytes(8), f"trailing bytes: {len(good) + 8} "
                                      f"bytes where the header implies "
                                      f"{len(good)}"),
        *own]]


FAULTS = [
    *_faults(md.load_checkpoint, _checkpoint(), b"TPGF", [
        ("zero_dim", _checkpoint(hidden=0),
         "header hidden must be >= 1, got 0"),
        ("slot_count", _checkpoint(slots=(0, 2, 3)), "slot table [0, 2, 3] "
         "must hold f_out = 2 distinct entries, at least one"),
        ("slot_range", _checkpoint(slots=(0, 4)),
         "slot table entry 4 is outside [0, f_in=4)"),
        ("slot_repeated", _checkpoint(slots=(1, 1)), "slot table [1, 1] "
         "must hold f_out = 2 distinct entries, at least one"),
        ("non_finite", _checkpoint(value=math.nan),
         "non-finite value in encoder.w_x")]),
    *_faults(dt.load_frame_sequences, _frames(), b"TPGFRAME", [
        ("zero_dim", _frames((2, 3, 0, 1)), "header width must be >= 1, got 0"),
        ("non_finite", _frames(value=math.inf),
         "non-finite pixel in sequence 0, frame 0")]),
]


@pytest.mark.parametrize("load, good, damaged, fault", FAULTS)
def test_binary_fault_names_file(tmp_path, load, good, damaged, fault):
    path = tmp_path / "file.bin"
    path.write_bytes(good)
    load(path)
    path.write_bytes(damaged)
    with pytest.raises(DataFormatError) as ei:
        load(path)
    assert str(ei.value) == f"{path}: {fault}"


# ---------------------------------------------------------------------------
# series CSVs
#
# The writer of tpgf.data is vectorised; the cell-by-cell writer it
# replaced stays here as the reference it must match byte for byte.

def _reference_write(series, path):
    series = np.asarray(series, dtype=np.float64)
    total, nodes, channels = series.shape
    with open(path, "w") as fh:
        fh.write("time,node,channel,value\n")
        for t in range(total):
            for n in range(nodes):
                for f in range(channels):
                    fh.write(f"{t},{n},{f},{series[t, n, f]:.17g}\n")


def _load_csv(path, blob):
    """Load a (possibly damaged) file: the array, which must be all
    finite, or the DataFormatError message, which must name the path."""
    path.write_bytes(blob)
    try:
        back = dt.load_series_csv(path)
    except DataFormatError as exc:
        assert str(exc).startswith(f"{path}: ")
        return str(exc)[len(f"{path}: "):]
    assert np.isfinite(back).all()
    return back


def _numpy_refuses(line):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.loadtxt([line], dtype=dt._CSV_ROW, delimiter=",", comments=None)
    except (ValueError, Warning):
        return True
    return False


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
    # a written file never needs the line scan, so the single numpy
    # pass cannot hide behind it
    with mock.patch.object(dt, "_first_bad_line",
                           side_effect=AssertionError("ran the line scan")):
        back = dt.load_series_csv(path)
    npt.assert_array_equal(back.view(np.int64), raw.view(np.int64))
    # C order, and no view that keeps the parsed 32-byte rows alive
    owner = back
    while owner.base is not None:
        owner = owner.base
    assert back.flags.c_contiguous and owner.nbytes == back.nbytes


@SETTINGS
@given(raw=series, data=st.data())
def test_series_csv_truncation(scratch, raw, data):
    path = scratch / "cut.csv"
    blob = _written(dt.write_series_csv, raw, path)
    cut = data.draw(st.integers(0, len(blob) - 1), label="length")
    _load_csv(path, blob[:cut])


@SETTINGS
@given(raw=series, data=st.data())
def test_series_csv_flipped_byte(scratch, raw, data):
    path = scratch / "flip.csv"
    blob = _written(dt.write_series_csv, raw, path)
    _load_csv(path, _flip(blob, data))


# characters where int()/float(), str.strip() and numpy's parser differ
_TRICKY = "0123456789,.-+e_ \t#\x00\x0b\x0c\x1c\x1f\x85\xa0 ١１nafi\r"


@SETTINGS
@given(raw=series, data=st.data())
def test_series_csv_rewritten_line(scratch, raw, data):
    path = scratch / "line.csv"
    lines = _written(dt.write_series_csv, raw, path).decode().split("\n")
    pos = data.draw(st.integers(1, len(lines) - 1), label="line")
    text = data.draw(st.text(alphabet=_TRICKY, max_size=16), label="text")
    lines[pos] = text
    got = _load_csv(path, "\n".join(lines).encode())
    # a '\r' in the text breaks it into more lines; numpy refusing any
    # of them (or skipping a blank one) must name it
    tail = "" if pos == len(lines) - 1 else "\n"
    pieces = io.StringIO(text + tail, newline=None).readlines()
    if any(_numpy_refuses(piece) for piece in pieces):
        named = [f"line {pos + 1 + k}: " for k in range(len(pieces))]
        assert isinstance(got, str) and got.startswith(tuple(named)), got


def _csv_corpus():
    """(name, bytes, expected): one well-formed file and its mutations.
    A file that loads is expected to give the generated series; any
    other is expected to give its error message without the path."""
    raw = dt.gen_multinode_series(3, 2, 200, 0.4, 0.3, seed=11)
    header = "time,node,channel,value"
    rows = [f"{t},{n},{f},{raw[t, n, f]:.17g}" for t in range(200)
            for n in range(3) for f in range(2)]

    def text(body, head=header, end="\n"):
        return (end.join([head] + body) + end).encode()

    def edit(pos, new):
        return text(rows[:pos] + [new] + rows[pos + 1:])

    def cell(k):
        return f"time={k // 6}, node={k // 2 % 3}, channel={k % 2}"

    def out_of_order(line, k, row):
        t, n, f, _ = row.split(",")
        return (f"line {line}: expected {cell(k)}, "
                f"got time={int(t)}, node={n}, channel={f}")

    def value(k):
        return rows[k].rsplit(",", 1)[1]

    shuffled = [rows[i] for i in np.random.default_rng(3).permutation(len(rows))]
    big = text(rows)
    cut = big.index(b"\n", 9000) + 3  # inside a row beyond the first 8 KB
    huge = "9223372036854775807" + rows[11][rows[11].index(","):]
    yield "well_formed", big, raw
    yield "shuffled_rows", text(shuffled), out_of_order(2, 0, shuffled[0])
    yield ("blank_lines", text(rows[:5] + ["", "   ", ""] + rows[5:]),
           "line 7: expected 4 fields, got 1")
    yield "padded_lines", text([f" \t{r}  " for r in rows]), raw
    yield "padded_fields", text([r.replace(",", " , ") for r in rows]), raw
    yield "crlf", text(rows, end="\r\n"), raw
    yield "lone_cr", text(rows, end="\r"), raw
    yield ("crlf_header_only",
           (header + "\r\n" + "\n".join(rows) + "\n").encode(), raw)
    yield ("utf8_bom", b"\xef\xbb\xbf" + big,
           f"expected header {header!r}, got {chr(0xfeff) + header!r}")
    yield ("hash_suffix", edit(7, rows[7] + "#note"),
           f"line 9: could not convert string to float: {value(7) + '#note'!r}")
    yield ("hash_line", text(rows[:3] + ["# comment"] + rows[3:]),
           "line 5: expected 4 fields, got 1")
    yield ("underscore_index", edit(6 * 10, rows[6 * 10].replace("10,", "1_0,", 1)),
           "line 62: could not convert '1_0' to int64")
    yield ("arabic_digit_index", edit(6, rows[6].replace("1,", "١,", 1)),
           "line 8: could not convert '١' to int64")
    yield ("fullwidth_digit_index", edit(6, rows[6].replace("1,", "１,", 1)),
           "line 8: could not convert '１' to int64")
    yield "numpy_only_space", edit(6, rows[6].replace(",", "\x1c,", 1)), raw
    yield "numpy_only_space_at_end", edit(6, rows[6] + "\x1f"), raw
    yield ("float_index", edit(6, rows[6].replace("1,", "1.0,", 1)),
           "line 8: invalid literal for int() with base 10: '1.0'")
    yield ("plus_and_zero_padded_index",
           edit(6, "+" + rows[6].replace("1,", "01,", 1)), raw)
    yield "extra_field", edit(4, rows[4] + ",9"), "line 6: expected 4 fields, got 5"
    yield "trailing_comma", edit(4, rows[4] + ","), "line 6: expected 4 fields, got 5"
    yield ("missing_field", edit(4, rows[4].rsplit(",", 1)[0]),
           "line 6: expected 4 fields, got 3")
    yield ("empty_field", edit(4, ",".join(["1", "", "0", "1.5"])),
           "line 6: invalid literal for int() with base 10: ''")
    yield ("quoted_field", edit(4, '"' + rows[4].replace(",", '",', 1)),
           "line 6: invalid literal for int() with base 10: '\"0\"'")
    yield ("nan", edit(9, rows[9].rsplit(",", 1)[0] + ",nan"),
           "line 11: non-finite value 'nan'")
    yield ("inf", edit(9, rows[9].rsplit(",", 1)[0] + ",-inf"),
           "line 11: non-finite value '-inf'")
    yield ("overflow", edit(9, rows[9].rsplit(",", 1)[0] + ",1e999"),
           "line 11: non-finite value '1e999'")
    yield ("hex_value", edit(9, rows[9].rsplit(",", 1)[0] + ",0x1p3"),
           "line 11: could not convert string to float: '0x1p3'")
    yield ("nul_byte", edit(9, rows[9] + "\x00"),
           f"line 11: could not convert string to float: {value(9) + chr(0)!r}")
    yield ("negative_index", edit(11, "-" + rows[11]),
           out_of_order(13, 11, "-" + rows[11]))
    yield "huge_index", edit(11, huge), out_of_order(13, 11, huge)
    yield ("int64_overflow_index",
           edit(11, "99999999999999999999" + rows[11][rows[11].index(","):]),
           "line 13: could not convert '99999999999999999999' to int64")
    yield ("duplicate_row", text(rows + [rows[20]]),
           out_of_order(1202, 1200, rows[20]))
    yield ("missing_row", text(rows[:20] + rows[21:]),
           out_of_order(22, 20, rows[21]))
    yield ("duplicate_in_place_of_missing",
           text(rows[:21] + [rows[20]] + rows[22:]),
           out_of_order(23, 21, rows[20]))
    yield ("missing_last_row", text(rows[:-1]),
           f"missing entry for {cell(1199)}")
    yield "no_final_newline", text(rows)[:-1], raw
    yield "header_only", (header + "\n").encode(), "CSV contains no data rows"
    yield ("header_and_blank_lines", (header + "\n\n \n").encode(),
           "line 2: expected 4 fields, got 1")
    yield "empty_file", b"", f"expected header {header!r}, got ''"
    yield ("bad_header", text(rows, head="t,n,c,v"),
           f"expected header {header!r}, got 't,n,c,v'")
    # the decoder counts bytes from where its read starts: the file's
    # start for the header's first 8 KB read, the next byte after that
    undecodable = ("not UTF-8 text ('utf-8' codec can't decode byte 0xff in "
                   "position {}: invalid start byte)")
    yield ("non_utf8_early", big[:100] + b"\xff" + big[101:],
           undecodable.format(100))
    yield ("non_utf8_beyond_8k", big[:cut] + b"\xff" + big[cut + 1:],
           undecodable.format(cut - 8192))


@pytest.mark.parametrize("name, blob, want", list(_csv_corpus()),
                         ids=[name for name, _, _ in _csv_corpus()])
def test_series_csv_mutations_match_reference(tmp_path, name, blob, want):
    got = _load_csv(tmp_path / f"{name}.csv", blob)
    if isinstance(want, str):
        assert got == want
    else:
        npt.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_series_csv_loadtxt_warning_is_a_refusal(tmp_path):
    # numpy releases that parse '1.0' into an integer field only warn;
    # a warning refuses the file like an error, and where the line scan
    # finds no bad line, the warning is the message
    real = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("parsed a float as an integer", DeprecationWarning)
        return real(*args, **kwargs)

    path = tmp_path / "warn.csv"
    dt.write_series_csv(np.arange(6.0).reshape(3, 2, 1), path)
    with mock.patch.object(np, "loadtxt", warning_loadtxt):
        with pytest.raises(DataFormatError) as ei:
            dt.load_series_csv(path)
    assert str(ei.value) == f"{path}: parsed a float as an integer"
