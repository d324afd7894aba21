import numpy as np
import numpy.testing as npt
import pytest

from tpgf.errors import ConfigError, DataFormatError
from tpgf import model as md
from tpgf import nn
from tpgf import training as tr
from tpgf.rng import RngState
from tpgf.tensor import randn


def small_params(hidden=3, f_in=4, f_out=4, seed=9, slots=None):
    return md.init_seq2seq(hidden, f_in, f_out, RngState(seed),
                           target_slots=slots)


def test_encode_single_step_equals_lstm_step():
    p = small_params()
    x = randn((1, 1, 4), 1.0, RngState(2))
    got = md.encode_full(x, p)
    want = nn.lstm_step(nn.input_projection(x[:, 0], p.encoder),
                        nn.zero_state(3, 1), p.encoder)
    npt.assert_array_equal(got.h, want.h)
    npt.assert_array_equal(got.c, want.c)


def test_encode_zero_params_zero_state():
    p = small_params()
    p.encoder.w_x[:] = 0.0
    p.encoder.w_h[:] = 0.0
    p.encoder.b[:] = 0.0
    state = md.encode_full(randn((1, 5, 4), 2.0, RngState(3)), p)
    # zero-parameter cell from zero initial state stays at zero
    npt.assert_array_equal(state.h, np.zeros((1, 3)))
    npt.assert_array_equal(state.c, np.zeros((1, 3)))


def test_encode_matches_manual_unroll():
    # reference: the documented recipe, the input projection of all
    # steps as one time-major GEMM, then one cell step per frame
    p = small_params(seed=21)
    ctx = randn((1, 3, 4), 1.0, RngState(5))
    caches = nn.lstm_caches(3, nn.zero_state(3, 1))
    got = md.encode_full(ctx, p, caches)
    xw = (ctx.swapaxes(0, 1).reshape(-1, 4) @ p.encoder.w_x.T).reshape(3, 1, 12)
    state = nn.zero_state(3, 1)
    for t in range(3):
        state = nn.lstm_step(xw[t], state, p.encoder)
        npt.assert_array_equal(caches.h[t + 1], state.h)
        npt.assert_array_equal(caches.c[t + 1], state.c)
    assert caches.act.shape == (3, 1, 12)
    npt.assert_allclose(got.h, state.h, atol=1e-12)
    npt.assert_allclose(got.c, state.c, atol=1e-12)


def test_encode_batch_rows_match_single_rows():
    p = small_params()
    batch = randn((6, 5, 4), 1.0, RngState(8))  # [B, T, F_in]
    bs = md.encode_full(batch, p)
    assert bs.h.shape == (6, 3)
    one = md.encode_full(batch[2:3], p)
    npt.assert_allclose(bs.h[2:3], one.h, atol=1e-14)


def test_decode_step_zero_params_gives_bias():
    p = small_params()
    for arr in p.tensors():
        arr[:] = 0.0
    p.projection.b[:] = np.array([1.0, -2.0, 0.5, 3.0])
    dec_in = md.decoder_input(np.zeros((1, 4)), p)
    pred, _ = md.decode_step(np.zeros((1, 4)), nn.zero_state(3, 1), p, dec_in)
    npt.assert_array_equal(pred[0], p.projection.b)


def test_decode_step_is_lstm_then_linear():
    slots = md.make_target_slots(2, 2, [1])
    p = small_params(f_out=2, seed=33, slots=slots)
    carrier = randn((1, 4), 1.0, RngState(1))
    fed = randn((1, 2), 1.0, RngState(4))
    state = nn.LstmState(h=randn((1, 3), 1.0, RngState(2)),
                         c=randn((1, 3), 1.0, RngState(3)))
    dec_in = md.decoder_input(carrier, p)
    pred, new_state = md.decode_step(fed, state, p, dec_in)
    # the documented split: fed @ w_x[:, slots].T + zero-slotted carrier
    # @ w_x.T
    zeroed = carrier.copy()
    zeroed[:, slots] = 0.0
    xw = fed @ p.decoder.w_x[:, slots].T + zeroed @ p.decoder.w_x.T
    want_state = nn.lstm_step(xw, state, p.decoder)
    want_pred = nn.linear_forward(want_state.h, p.projection)
    npt.assert_array_equal(pred, want_pred)
    npt.assert_array_equal(new_state.h, want_state.h)
    # which is the projection of the carrier with `fed` at the slots
    x = carrier.copy()
    x[:, slots] = fed
    npt.assert_allclose(xw, nn.input_projection(x, p.decoder), rtol=0,
                        atol=1e-15)
    # deterministic under repetition
    pred2, _ = md.decode_step(fed, state, p, dec_in)
    npt.assert_array_equal(pred, pred2)


def test_rollout_closed_loop_matches_manual_iteration():
    p = small_params(seed=41)
    ctx = randn((1, 5, 4), 1.0, RngState(10))
    got = tr.rollout_batch(p, ctx, 4)

    state = md.encode_full(ctx, p)
    carrier = ctx[:, -1]
    dec_in = md.decoder_input(carrier, p)
    fed = carrier[:, p.target_slots]
    want = []
    for s in range(4):
        pred, state = md.decode_step(fed, state, p, dec_in)
        want.append(pred)
        fed = pred
    npt.assert_allclose(got, np.stack(want, axis=1), atol=1e-14)


def test_rollout_teacher_forced_matches_stepwise():
    slots = md.make_target_slots(2, 2, [1])  # predict channel 1 of 2 nodes
    p = small_params(hidden=3, f_in=4, f_out=2, seed=52, slots=slots)
    ctx = randn((1, 5, 4), 1.0, RngState(11))
    truth = randn((1, 3, 2), 1.0, RngState(12))  # observed inputs to steps 2..4
    taus = np.ones((1, 3), dtype=np.int64)
    got, _ = tr.forward_train(p, ctx, truth, taus)

    state = md.encode_full(ctx, p)
    carrier = ctx[:, -1]
    dec_in = md.decoder_input(carrier, p)
    fed = carrier[:, slots]
    want = []
    for s in range(4):
        pred, state = md.decode_step(fed, state, p, dec_in)
        want.append(pred)
        if s < 3:
            fed = truth[:, s]
    npt.assert_allclose(got, np.stack(want, axis=1), atol=1e-14)


def test_rollout_rejects_repeated_slots():
    # the split input projection feeds each prediction into its own slot
    p = small_params(f_out=2, slots=np.array([1, 1]))
    with pytest.raises(ConfigError, match="distinct"):
        tr.rollout_batch(p, randn((1, 3, 4), 1.0, RngState(6)), 2)


def test_make_target_slots_layout():
    slots = md.make_target_slots(3, 4, [0, 2])
    npt.assert_array_equal(slots, [0, 2, 4, 6, 8, 10])


def test_init_validation():
    with pytest.raises(ConfigError):
        md.init_seq2seq(3, 4, 2, RngState(1))  # needs slots when f_out != f_in
    with pytest.raises(ConfigError):
        md.init_seq2seq(3, 4, 2, RngState(1), target_slots=np.array([0, 9]))


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    slots = md.make_target_slots(2, 3, [0, 2])
    p = md.init_seq2seq(4, 6, 4, RngState(99), target_slots=slots)
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(p, path)
    q = md.load_checkpoint(path)

    assert (q.hidden, q.f_in, q.f_out) == (4, 6, 4)
    npt.assert_array_equal(q.target_slots, slots)
    for a, b in zip(p.tensors(), q.tensors()):
        npt.assert_array_equal(a, b)

    # writing the loaded params reproduces the identical file
    path2 = tmp_path / "again.ckpt"
    md.save_checkpoint(q, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    p = small_params()
    path = tmp_path / "m.ckpt"
    md.save_checkpoint(p, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"JUNK"
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError):
        md.load_checkpoint(bad)


def test_checkpoint_truncation_and_trailing(tmp_path):
    p = small_params()
    path = tmp_path / "m.ckpt"
    md.save_checkpoint(p, path)
    blob = path.read_bytes()

    short = tmp_path / "short.ckpt"
    short.write_bytes(blob[:-16])
    with pytest.raises(DataFormatError):
        md.load_checkpoint(short)

    long = tmp_path / "long.ckpt"
    long.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(DataFormatError):
        md.load_checkpoint(long)


def test_checkpoint_bad_version(tmp_path):
    p = small_params()
    path = tmp_path / "m.ckpt"
    md.save_checkpoint(p, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (77).to_bytes(4, "little")
    bad = tmp_path / "v.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError):
        md.load_checkpoint(bad)

    # a slot table entry past f_in would index outside the input frame
    blob = bytearray(path.read_bytes())
    blob[24:28] = (10 ** 6).to_bytes(4, "little")
    bad.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError) as ei:
        md.load_checkpoint(bad)
    assert "1000000" in str(ei.value)
