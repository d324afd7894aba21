"""Property tests for the file formats: checkpoints, frame files and
series CSVs round-trip bit for bit, and a truncated or corrupted file
either loads or raises DataFormatError, never anything else."""

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
    _load_or_format_error(md.load_checkpoint, path, _flip(blob, data))


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

series = st.tuples(st.integers(1, 4), st.integers(1, 3),
                   st.integers(1, 3)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=finite))


@SETTINGS
@given(raw=series)
def test_series_csv_roundtrip(scratch, raw):
    path = scratch / "rt.csv"
    dt.write_series_csv(raw, path)
    back = dt.load_series_csv(path)
    npt.assert_array_equal(back.view(np.int64), raw.view(np.int64))


@SETTINGS
@given(raw=series, data=st.data())
def test_series_csv_truncation(scratch, raw, data):
    path = scratch / "cut.csv"
    blob = _written(dt.write_series_csv, raw, path)
    cut = data.draw(st.integers(0, len(blob) - 1), label="length")
    back = _load_or_format_error(dt.load_series_csv, path, blob[:cut])
    assert back is None or np.isfinite(back).all()


@SETTINGS
@given(raw=series, data=st.data())
def test_series_csv_flipped_byte(scratch, raw, data):
    path = scratch / "flip.csv"
    blob = _written(dt.write_series_csv, raw, path)
    back = _load_or_format_error(dt.load_series_csv, path, _flip(blob, data))
    assert back is None or np.isfinite(back).all()
