"""Property tests for the file formats: checkpoints and frame files
(every data file, a multinode split being a one-sequence frame file)
round-trip bit for bit, and a truncated or corrupted file either loads
or raises DataFormatError, never anything else. A corpus of damaged
binary files checks that each fault names its file."""

import math
import struct

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
# series files
#
# A multinode split is stored as `generate` writes it: its series
# [T, N, F] as a count-1 frame file whose frames are the time steps.
# The tests keep the names they had when a series was stored as CSV.

def _write_series(series, path):
    dt.write_frame_sequences(np.asarray(series)[None], path)


def _reference_series(series):
    """The bytes of a series file: magic, version 1, dims (T, N, F, 1),
    then the values in time, node, channel order as little-endian f8."""
    total, nodes, channels = series.shape
    return _binary(b"TPGFRAME", (total, nodes, channels, 1),
                   np.asarray(series, dtype="<f8"))


def _load_series(path, blob):
    """Load a (possibly damaged) file: the series, which must be all
    finite, or the DataFormatError message, which must name the path."""
    path.write_bytes(blob)
    try:
        back = dt.load_frame_sequences(path)
    except DataFormatError as exc:
        assert str(exc).startswith(f"{path}: ")
        return str(exc)[len(f"{path}: "):]
    assert back.shape[0] == 1 and np.isfinite(back).all()
    return back[0]


extremes = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                            2.225073858507201e-308, 1e308, -1e308,
                            1.7976931348623157e308, 0.1, 1 / 3])
series = st.tuples(st.integers(1, 4), st.integers(1, 3),
                   st.integers(1, 3)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=finite | extremes))


@SETTINGS
@given(raw=series)
def test_series_csv_roundtrip(scratch, raw):
    path = scratch / "rt.series"
    assert _written(_write_series, raw, path) == _reference_series(raw)
    back = _load_series(path, path.read_bytes())
    npt.assert_array_equal(back.view(np.int64), raw.view(np.int64))
    # C order, and no view that keeps the file's bytes alive
    owner = back
    while owner.base is not None:
        owner = owner.base
    assert back.flags.c_contiguous and owner.nbytes == back.nbytes


@SETTINGS
@given(raw=series, data=st.data())
def test_series_csv_truncation(scratch, raw, data):
    path = scratch / "cut.series"
    blob = _written(_write_series, raw, path)
    cut = data.draw(st.integers(0, len(blob) - 1), label="length")
    assert isinstance(_load_series(path, blob[:cut]), str)


@SETTINGS
@given(raw=series, data=st.data())
def test_series_csv_flipped_byte(scratch, raw, data):
    # a flipped header byte changes the size the header implies, so a
    # file that loads differs from the series in exactly one value
    path = scratch / "flip.series"
    blob = _written(_write_series, raw, path)
    got = _load_series(path, _flip(blob, data))
    if not isinstance(got, str):
        assert np.count_nonzero(got.view(np.int64) != raw.view(np.int64)) == 1


@SETTINGS
@given(raw=series, data=st.data())
def test_series_csv_rewritten_line(scratch, raw, data):
    # one time step's values replaced by any float64s: the file loads
    # them bit for bit, or, where one is not finite, names that step
    path = scratch / "step.series"
    total, nodes, channels = raw.shape
    t = data.draw(st.integers(0, total - 1), label="time step")
    step = data.draw(arrays(np.float64, (nodes, channels),
                            elements=st.floats() | extremes), label="values")
    want = raw.copy()
    want[t] = step
    got = _load_series(path, _reference_series(want))
    if np.isfinite(step).all():
        npt.assert_array_equal(got.view(np.int64), want.view(np.int64))
    else:
        assert got == f"non-finite pixel in sequence 0, frame {t}"


def _series_corpus():
    """(name, bytes, expected): one well-formed file and its damages.
    A file that loads is expected to give the generated series; any
    other is expected to give its error message without the path."""
    raw = dt.gen_multinode_series(3, 2, 200, 0.4, 0.3, seed=11)
    big = _reference_series(raw)
    start = len(big) - raw.size * 8  # the header's length

    def value(k):
        return big[start + 8 * k:start + 8 * k + 8]

    def edit(k, new):
        return big[:start + 8 * k] + new + big[start + 8 * k + 8:]

    def size(blob):
        fault = "truncated" if len(blob) < len(big) else "trailing bytes"
        return (f"{fault}: {len(blob)} bytes where the header implies "
                f"{len(big)}")

    # the series as the CSV that stored it before: text, not a frame file
    rows = "".join(f"{t},{n},{f},{raw[t, n, f]:.17g}\n"
                   for t, n, f in np.ndindex(raw.shape))
    csv = ("time,node,channel,value\n" + rows).encode()
    crlf = big.replace(b"\n", b"\r\n")
    assert crlf != big
    bom = b"\xef\xbb\xbf" + big
    yield "well_formed", big, raw
    yield "crlf", crlf, size(crlf)
    yield "utf8_bom", bom, f"bad magic {bom[:8]!r}"
    # the value of time 1, node 1, channel 1
    yield ("nan", edit(9, struct.pack("<d", math.nan)),
           "non-finite pixel in sequence 0, frame 1")
    yield ("inf", edit(9, struct.pack("<d", -math.inf)),
           "non-finite pixel in sequence 0, frame 1")
    yield "missing_row", edit(20, b""), size(big[:-8])
    yield "missing_last_row", big[:-8], size(big[:-8])
    yield "duplicate_row", big + value(20), size(big + value(20))
    yield "empty_file", b"", "truncated before header end"
    yield "header_only", big[:start], size(big[:start])
    yield "bad_header", csv, f"bad magic {csv[:8]!r}"


@pytest.mark.parametrize("name, blob, want", list(_series_corpus()),
                         ids=[name for name, _, _ in _series_corpus()])
def test_series_csv_mutations_match_reference(tmp_path, name, blob, want):
    got = _load_series(tmp_path / f"{name}.series", blob)
    if isinstance(want, str):
        assert got == want
    else:
        npt.assert_array_equal(got.view(np.int64), want.view(np.int64))
