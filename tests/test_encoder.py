"""Encoder architecture: init, forward, pooling, MLM head, checkpoints."""

import functools
import math
import struct
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ulrlab.encoder import (
    CheckpointError,
    ConfigError,
    EncoderConfig,
    Model,
    backward,
    erf,
    expected_shapes,
    forward,
    init_params,
    load_checkpoint,
    mlm_head_rows,
    pad_batch,
    pool,
    pool_backward,
    save_checkpoint,
    zero_grads,
    _pool_with_cache,
)

TINY = EncoderConfig(
    vocab_size=50, d_model=16, n_heads=2, n_layers=2, d_ff=32, max_len=32,
    dropout=0.0, seed=1,
)


@functools.cache
def checkpoint_bytes() -> tuple[bytes, int]:
    """A TINY checkpoint's bytes and the length of its header (all but
    the tensor payload)."""
    params = init_params(TINY)
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(params, TINY, Path(tmp) / "model.ckpt")
        blob = (Path(tmp) / "model.ckpt").read_bytes()
    return blob, len(blob) - 4 * sum(p.size for p in params.values())


def tiny_batch(rng, b=2, length=8, vocab=50):
    ids = rng.integers(5, vocab, size=(b, length))
    ids[:, 0] = 3  # CLS
    lengths = rng.integers(3, length + 1, size=b)
    mask = np.zeros((b, length), dtype=bool)
    for i, n in enumerate(lengths):
        mask[i, :n] = True
        ids[i, n - 1] = 4  # SEP
        ids[i, n:] = 0
    return ids, mask


class TestConfig:
    def test_rejects_indivisible_heads(self):
        with pytest.raises(ConfigError, match="divisible"):
            EncoderConfig(vocab_size=50, d_model=10, n_heads=3)

    def test_rejects_zero_heads(self):
        with pytest.raises(ConfigError, match="n_heads"):
            EncoderConfig(vocab_size=50, n_heads=0)

    def test_rejects_bad_dropout(self):
        with pytest.raises(ConfigError, match="dropout"):
            EncoderConfig(vocab_size=50, dropout=1.0)

    def test_rejects_tiny_max_len(self):
        with pytest.raises(ConfigError, match="max_len"):
            EncoderConfig(vocab_size=50, max_len=2)

    def test_defaults(self):
        cfg = EncoderConfig(vocab_size=100)
        assert cfg.max_len == 128
        assert cfg.dropout == 0.1
        assert cfg.d_head * cfg.n_heads == cfg.d_model


class TestInitParams:
    def test_same_seed_bit_identical(self):
        a = init_params(TINY)
        b = init_params(TINY)
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_layer_norm_gains_one_biases_zero(self):
        params = init_params(TINY)
        for name, arr in params.items():
            if name.endswith("ln_g"):
                assert np.all(arr == 1.0), name
            if name.endswith(("_b", "_b1", "_b2")) and "emb" not in name:
                assert np.all(arr == 0.0), name

    def test_truncated_normal_bound(self):
        params = init_params(TINY)
        for name in ("tok_emb", "layer0.attn_q_w", "mlm_w"):
            assert np.abs(params[name]).max() <= 2.0 * 0.02 + 1e-12

    def test_parameter_count_closed_form(self):
        """Hand-derived shape arithmetic for the small reference config."""
        v, d, ff, max_len, layers = 50, 16, 32, 32, 2
        per_layer = (
            4 * (d * d + d)      # attention projections
            + 2 * d              # attention layer norm
            + (d * ff + ff)      # feed-forward in
            + (ff * d + d)       # feed-forward out
            + 2 * d              # feed-forward layer norm
        )
        expected = (
            v * d + max_len * d + 2 * d
            + layers * per_layer
            + (d * d + d)        # pooler
            + (d * d + d + 2 * d)  # MLM transform + its layer norm
            + v                  # MLM output bias
        )
        params = init_params(TINY)
        assert sum(a.size for a in params.values()) == expected

    def test_shapes_match_declaration(self):
        params = init_params(TINY)
        for name, shape in expected_shapes(TINY).items():
            assert params[name].shape == shape, name


class TestForward:
    def test_output_shapes(self):
        rng = np.random.default_rng(0)
        params = init_params(TINY)
        ids, mask = tiny_batch(rng)
        hidden = forward(params, TINY, ids, mask)
        assert hidden.shape == (2, 8, 16)
        assert pool(hidden, mask, "cls", params).shape == (2, 16)
        assert hidden.dtype == np.float32

    def test_pad_content_cannot_leak(self):
        """Changing token ids under pad positions leaves real outputs alone."""
        rng = np.random.default_rng(1)
        params = init_params(TINY)
        ids, mask = tiny_batch(rng, b=3)
        hidden = forward(params, TINY, ids, mask)
        tampered = ids.copy()
        tampered[~mask] = 37
        hidden2 = forward(params, TINY, tampered, mask)
        for strategy in ("cls", "mean", "max"):
            assert np.array_equal(
                pool(hidden, mask, strategy, params), pool(hidden2, mask, strategy, params)
            )
        assert np.array_equal(hidden[mask], hidden2[mask])

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        params = init_params(TINY)
        ids, mask = tiny_batch(rng)
        _, cache = forward(params, TINY, ids, mask, want_cache=True)
        for layer in cache["layers"]:
            probs = layer["attn_probs"]  # (B, h, L, L)
            sums = probs.sum(-1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_rejects_overlong_sequence(self):
        params = init_params(TINY)
        ids = np.zeros((1, TINY.max_len + 1), dtype=np.int64)
        with pytest.raises(ValueError, match="max_len"):
            forward(params, TINY, ids)

    @pytest.mark.parametrize("n_rows", [1, 2, 9])
    def test_rows_match_full_pass_bit_for_bit(self, n_rows):
        # At d_model 64 a one-row product (gemv) rounds unlike the gemm of
        # the full pass, so a single requested row is the sharpest case.
        cfg = EncoderConfig(vocab_size=50, d_model=64, n_heads=2, n_layers=2, d_ff=128,
                            max_len=32, seed=4)
        rng = np.random.default_rng(n_rows)
        params = init_params(cfg)
        for name in params:
            params[name] += rng.normal(0.0, 0.05, params[name].shape).astype(np.float32)
        ids, mask = tiny_batch(rng, b=4, length=10)
        batch_index = rng.integers(0, 4, size=n_rows)
        position = rng.integers(0, mask.sum(1)[batch_index])
        full = forward(params, cfg, ids, mask)
        rows = forward(params, cfg, ids, mask, rows=(batch_index, position))
        assert np.array_equal(rows, full[batch_index, position])

    def test_rows_exclude_dropout_and_cache(self):
        params = init_params(TINY)
        ids, mask = tiny_batch(np.random.default_rng(0))
        with pytest.raises(ValueError, match="rows="):
            forward(params, TINY, ids, mask, want_cache=True, rows=([0], [1]))
        cfg = EncoderConfig(vocab_size=50, d_model=16, n_heads=2, n_layers=2, d_ff=32,
                            max_len=32, dropout=0.1)
        with pytest.raises(ValueError, match="rows="):
            forward(params, cfg, ids, mask, rng_tag=(0, 0, "s"), rows=([0], [1]))

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(3)
        params = init_params(TINY)
        ids, mask = tiny_batch(rng)
        h1 = forward(params, TINY, ids, mask)
        h2 = forward(params, TINY, ids, mask)
        assert np.array_equal(h1, h2)
        assert np.array_equal(pool(h1, mask, "cls", params), pool(h2, mask, "cls", params))


class TestErf:
    SPECIAL = [0.0, -0.0, 1.0, -1.0, 4.5, -4.5, 8.0, -8.0, 1e-45, -1e-45, 1e-40,
               1.17549435e-38, np.inf, -np.inf, np.nan]

    def test_float32_matches_scipy_bit_for_bit(self):
        special = pytest.importorskip("scipy.special")
        one = np.float32(1.0)
        x = np.concatenate([
            np.linspace(-6.0, 6.0, 1_200_001, dtype=np.float32),
            np.array(self.SPECIAL, dtype=np.float32),
            [np.nextafter(one, 2 * one), np.nextafter(one, 0 * one),
             -np.nextafter(one, 2 * one), -np.nextafter(one, 0 * one)],
        ])
        got = erf(x)
        assert got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), special.erf(x).view(np.uint32))

    def test_float64_within_three_ulp_of_math_erf(self):
        # Cephes documents a peak relative error of 3.7e-16 on [0, 1]; this
        # grid meets it (3 ulp) at four points between |x| = 0.86 and 0.96.
        x = np.concatenate([np.linspace(-7.0, 7.0, 200_001), np.geomspace(1e-300, 7.0, 2_001)])
        want = np.array([math.erf(v) for v in x])
        got = erf(x)
        assert got.dtype == np.float64
        assert np.all(np.abs(got - want) <= 3 * np.spacing(np.abs(want)))

    def test_edge_values_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for dtype in (np.float32, np.float64):
                got = erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=dtype))
                assert np.array_equal(got[:4], [0.0, -0.0, 1.0, -1.0])
                assert list(np.signbit(got[:2])) == [False, True]
                assert np.isnan(got[4])

    def test_keeps_shape(self):
        assert erf(np.zeros((2, 0, 3), dtype=np.float32)).shape == (2, 0, 3)
        assert erf(np.full((3, 4), 0.5)).shape == (3, 4)


class TestDropout:
    CFG = EncoderConfig(
        vocab_size=50, d_model=16, n_heads=2, n_layers=2, d_ff=32, max_len=32,
        dropout=0.3, seed=1,
    )

    def test_replay_is_bit_identical(self):
        rng = np.random.default_rng(4)
        params = init_params(self.CFG)
        ids, mask = tiny_batch(rng)
        h1 = forward(params, self.CFG, ids, mask, rng_tag=(9, 2, "s"))
        h2 = forward(params, self.CFG, ids, mask, rng_tag=(9, 2, "s"))
        assert np.array_equal(h1, h2)

    def test_streams_differ_across_steps_and_names(self):
        rng = np.random.default_rng(5)
        params = init_params(self.CFG)
        ids, mask = tiny_batch(rng)
        base = forward(params, self.CFG, ids, mask, rng_tag=(9, 0, "s"))
        other_step = forward(params, self.CFG, ids, mask, rng_tag=(9, 1, "s"))
        other_name = forward(params, self.CFG, ids, mask, rng_tag=(9, 0, "w"))
        assert not np.array_equal(base, other_step)
        assert not np.array_equal(base, other_name)

    def test_eval_mode_ignores_dropout(self):
        # Without a tag no dropout runs: the output is that of rate 0.
        rng = np.random.default_rng(6)
        params = init_params(self.CFG)
        ids, mask = tiny_batch(rng)
        h1 = forward(params, self.CFG, ids, mask)
        h2 = forward(params, replace(self.CFG, dropout=0.0), ids, mask)
        assert np.array_equal(h1, h2)


class TestPool:
    def test_mean_fixture(self):
        hidden = np.array([[[1.0, 3.0], [3.0, 1.0]]])
        mask = np.ones((1, 2), dtype=bool)
        np.testing.assert_allclose(pool(hidden, mask, "mean"), [[2.0, 2.0]])

    def test_max_fixture(self):
        hidden = np.array([[[1.0, 3.0], [3.0, 1.0]]])
        mask = np.ones((1, 2), dtype=bool)
        np.testing.assert_allclose(pool(hidden, mask, "max"), [[3.0, 3.0]])

    def test_mean_ignores_trailing_padding(self):
        rng = np.random.default_rng(7)
        hidden = rng.normal(size=(1, 6, 4))
        mask = np.array([[1, 1, 1, 0, 0, 0]], dtype=bool)
        short = pool(hidden[:, :3], mask[:, :3], "mean")
        padded = pool(hidden, mask, "mean")
        np.testing.assert_allclose(short, padded)

    def test_all_zero_mask_rejected(self):
        hidden = np.zeros((1, 3, 4))
        mask = np.zeros((1, 3), dtype=bool)
        with pytest.raises(ValueError, match="mask"):
            pool(hidden, mask, "mean")

    def test_cls_matches_manual_pooler(self):
        rng = np.random.default_rng(8)
        params = init_params(TINY)
        hidden = rng.normal(size=(2, 5, 16)).astype(np.float32)
        mask = np.ones((2, 5), dtype=bool)
        got = pool(hidden, mask, "cls", params)
        want = np.tanh(hidden[:, 0] @ params["pooler_w"] + params["pooler_b"])
        np.testing.assert_allclose(got, want, rtol=1e-6)

    @pytest.mark.parametrize("strategy", ["cls", "mean", "max"])
    def test_row_alone_matches_its_batch_row(self, strategy):
        # At d_model 64 a one-row pooler product used to go to gemv and
        # round differently from the batch's gemm.
        cfg = EncoderConfig(vocab_size=50, d_model=64, n_heads=2, n_layers=1, d_ff=128)
        params = init_params(cfg)
        rng = np.random.default_rng(13)
        hidden = rng.normal(size=(17, 6, 64)).astype(np.float32)
        mask = np.ones((17, 6), dtype=bool)
        mask[::2, 4:] = False
        batch = pool(hidden, mask, strategy, params)
        for i in range(17):
            alone = pool(hidden[i : i + 1], mask[i : i + 1], strategy, params)
            assert np.array_equal(alone[0], batch[i]), i

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            pool(np.zeros((1, 2, 2)), np.ones((1, 2), dtype=bool), "attention")


class TestMlmLogProbs:
    def test_rows_are_distributions(self):
        rng = np.random.default_rng(9)
        params = init_params(TINY)
        ids, mask = tiny_batch(rng)
        hidden = forward(params, TINY, ids, mask)
        log_probs = mlm_head_rows(params, hidden.reshape(-1, 16))[0].reshape(2, 8, -1)
        assert log_probs.shape == (2, 8, 50)
        np.testing.assert_allclose(np.exp(log_probs).sum(-1), 1.0, atol=1e-6)

    def test_zeroed_transform_gives_uniform(self):
        """With the transform zeroed the head reduces to log-softmax(0)."""
        rng = np.random.default_rng(10)
        params = init_params(TINY)
        params["mlm_w"] = np.zeros_like(params["mlm_w"])
        ids, mask = tiny_batch(rng)
        hidden = forward(params, TINY, ids, mask)
        log_probs = mlm_head_rows(params, hidden.reshape(-1, 16))[0].reshape(2, 8, -1)
        np.testing.assert_allclose(log_probs, math.log(1.0 / 50), atol=1e-6)


class TestPadBatch:
    def test_pads_to_rectangle(self):
        ids, mask = pad_batch([[3, 5, 4], [3, 4]])
        assert ids.tolist() == [[3, 5, 4], [3, 4, 0]]
        assert mask.tolist() == [[True, True, True], [True, True, False]]

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError, match="empty"):
            pad_batch([])


class TestBackwardSpotCheck:
    def test_analytic_matches_finite_difference_on_sampled_entries(self):
        """Cheap spot check; the exhaustive per-tensor sweep lives in the
        acceptance suite."""
        rng = np.random.default_rng(11)
        params = init_params(TINY, dtype=np.float64)
        ids, mask = tiny_batch(rng)
        probe = rng.normal(size=(2, 8, 16))
        probe_p = rng.normal(size=(2, 16))

        def loss(p):
            hidden = forward(p, TINY, ids, mask)
            pooled = pool(hidden, mask, "cls", p)
            return float((hidden * probe).sum() + (pooled * probe_p).sum())

        hidden, cache = forward(params, TINY, ids, mask, want_cache=True)
        _, pool_cache = _pool_with_cache(hidden, mask, "cls", params)
        grads = zero_grads(params)
        d_hidden = probe + pool_backward(probe_p, pool_cache, hidden.shape, "cls", params, grads)
        backward(cache, params, TINY, d_hidden, grads)
        eps = 1e-6
        for name in ("tok_emb", "layer0.attn_k_w", "layer1.ff_ln_g", "pooler_b"):
            flat = params[name].ravel()
            for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = loss(params)
                flat[idx] = orig - eps
                down = loss(params)
                flat[idx] = orig
                fd = (up - down) / (2 * eps)
                np.testing.assert_allclose(
                    grads[name].ravel()[idx], fd, rtol=1e-5, atol=1e-7,
                    err_msg=f"{name}[{idx}]",
                )


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        params = init_params(TINY)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, TINY, path)
        loaded = load_checkpoint(path)
        assert loaded.config == TINY
        assert set(loaded.params) == set(params)
        for name in params:
            assert np.array_equal(loaded.params[name], params[name]), name
            assert loaded.params[name].dtype == np.float32

    def test_foreign_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="not a ULRM checkpoint"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(TINY), TINY, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(TINY), TINY, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 100])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @staticmethod
    def mutations_fail_closed(mutations, path) -> None:
        """Each mutated checkpoint either loads or raises CheckpointError."""
        for blob in mutations:
            path.write_bytes(blob)
            try:
                load_checkpoint(path)
            except CheckpointError:
                pass

    def test_every_header_byte_maxed_fails_closed(self, tmp_path):
        # 0xff in the top byte of a length field asks for more bytes than
        # the file has; in a tensor name it is invalid UTF-8.
        blob, header = checkpoint_bytes()
        mutations = (blob[:pos] + b"\xff" + blob[pos + 1 :] for pos in range(header))
        self.mutations_fail_closed(mutations, tmp_path / "m.ckpt")

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_checkpoint_loads_or_fails_closed(self, tmp_path_factory, data):
        blob, header = checkpoint_bytes()
        pos = data.draw(st.one_of(st.integers(0, header), st.integers(0, len(blob) - 1)))
        if data.draw(st.booleans()):
            mutated = blob[:pos]
        else:
            value = data.draw(st.binary(min_size=1, max_size=8))
            mutated = blob[:pos] + value + blob[pos + len(value) :]
        path = tmp_path_factory.getbasetemp() / "mutated.ckpt"
        self.mutations_fail_closed([mutated], path)

    def test_shape_mismatch_rejected(self, tmp_path):
        params = init_params(TINY)
        params["pooler_w"] = params["pooler_w"][:, :8].copy()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, TINY, path)
        with pytest.raises(CheckpointError, match="shape mismatch"):
            load_checkpoint(path)

    def test_model_bundle_helpers(self, tmp_path):
        model = Model.init(TINY)
        rng = np.random.default_rng(12)
        ids, mask = tiny_batch(rng)
        hidden = forward(model.params, model.config, ids, mask)
        assert pool(hidden, mask, "mean", model.params).shape == (2, 16)
