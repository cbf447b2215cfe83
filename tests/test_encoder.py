"""Encoder architecture: init, forward, pooling, MLM head, checkpoints."""

import functools
import itertools
import json
import math
import re
import struct
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from helpers import forward_batch
from oracles import oracle_gelu
from ulrlab.encoder import (
    CheckpointError,
    ConfigError,
    EncoderConfig,
    Model,
    backward,
    expected_shapes,
    forward,
    gelu,
    gelu_grad,
    init_params,
    layer_norm,
    load_checkpoint,
    mlm_head_rows,
    pack,
    pool,
    pool_backward,
    save_checkpoint,
    zero_grads,
    _dense,
    _ln_backward,
    _pool_with_cache,
)
from ulrlab.training import TrainingConfig

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
    """An unpadded batch of ``b`` framed sequences of one length."""
    ids = rng.integers(5, vocab, size=(b, length))
    ids[:, 0] = 3  # CLS
    ids[:, -1] = 4  # SEP
    return ids


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

    @pytest.mark.parametrize("field, value", [
        ("d_model", 64.0), ("vocab_size", 50.0), ("max_len", 32.0), ("n_layers", True),
        ("seed", 0.5), ("seed", "x"), ("seed", -1),
    ])
    def test_rejects_an_integer_field_that_is_not_a_non_negative_int(self, field, value):
        with pytest.raises(ConfigError, match=rf"^{field} \({re.escape(repr(value))}\)"):
            EncoderConfig(**{"vocab_size": 50, field: value})

    def test_defaults(self):
        cfg = EncoderConfig(vocab_size=100)
        assert cfg.max_len == 128
        assert cfg.dropout == 0.1
        assert cfg.d_head * cfg.n_heads == cfg.d_model


# Each config with the required field a test must give it.
CONFIGS = {EncoderConfig: {"vocab_size": 50}, TrainingConfig: {"total_steps": 10}}
BOUND_KEYS = ("ge", "gt", "le", "lt")
# Checked together by one rule instead: d_model divisible by n_heads, both >= 1.
UNBOUNDED = {"EncoderConfig.d_model", "EncoderConfig.n_heads"}


def fields_of_type(*kinds):
    """(config, field) for each field of either config whose type is in ``kinds``."""
    return [(config, f) for config in CONFIGS for f in fields(config)
            if get_type_hints(config)[f.name] in kinds]


def build(config, name, value):
    return config(**{**CONFIGS[config], name: value})


def rejected(config, name, value, rule=""):
    """Assert that building ``config`` with ``name = value`` raises ConfigError
    starting with the field and the value's repr, then ``rule``."""
    prefix = rf"^{name} \({re.escape(repr(value))}\) must be {re.escape(rule)}"
    with pytest.raises(ConfigError, match=prefix):
        build(config, name, value)


class TestCheckFields:
    @settings(max_examples=200, deadline=None)
    @given(
        case=st.sampled_from([(c, f.name) for c, f in fields_of_type(int)]),
        value=st.one_of(st.booleans(), st.floats(), st.text(max_size=4)),
    )
    @example(case=(TrainingConfig, "total_steps"), value=True)
    @example(case=(TrainingConfig, "batch_size"), value=2.5)
    @example(case=(TrainingConfig, "seed"), value=1.5)
    def test_an_int_field_takes_only_an_int(self, case, value):
        rejected(*case, value, "an int")

    @settings(max_examples=100, deadline=None)
    @given(
        case=st.sampled_from([(c, f.name) for c, f in fields_of_type(float)]),
        value=st.one_of(st.booleans(), st.text(max_size=4), st.none(),
                        st.sampled_from([math.nan, math.inf, -math.inf])),
    )
    def test_a_float_field_takes_only_a_finite_number(self, case, value):
        rejected(*case, value, "a finite number")

    @pytest.mark.parametrize("config, field, key", [
        (config, f, key) for config, f in fields_of_type(int, float)
        for key in BOUND_KEYS if key in f.metadata
    ], ids=lambda x: getattr(x, "__name__", getattr(x, "name", x)))
    def test_each_bound_holds_to_its_edge(self, config, field, key):
        bound, is_int = field.metadata[key], get_type_hints(config)[field.name] is int
        outward = -math.inf if key in ("ge", "gt") else math.inf

        def step(value, toward):
            return value + (1 if toward > 0 else -1) if is_int else math.nextafter(value, toward)

        if key in ("ge", "le"):  # the edge is in, the next value out
            inside, outside = bound, step(bound, outward)
        else:  # the edge is out, the next value in
            inside, outside = step(bound, -outward), bound
        build(config, field.name, inside)
        rejected(config, field.name, outside)

    def test_every_numeric_field_declares_a_bound(self):
        unbounded = {f"{config.__name__}.{f.name}" for config, f in fields_of_type(int, float)
                     if not set(BOUND_KEYS) & set(f.metadata)}
        assert unbounded == UNBOUNDED


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
        ids = tiny_batch(rng)
        hidden = forward_batch(params, TINY, ids)
        assert hidden.shape == (2, 8, 16)
        assert pool(hidden, "cls", params).shape == (2, 16)
        assert hidden.dtype == np.float32

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        params = init_params(TINY)
        ids = tiny_batch(rng)
        _, cache = forward_batch(params, TINY, ids, want_cache=True)
        for layer in cache["layers"]:
            [probs] = layer["attn_probs"]  # one group: (L keys, B, h, L queries)
            assert probs.shape == (8, 2, TINY.n_heads, 8)
            sums = probs.sum(0)
            np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_rejects_overlong_sequence(self):
        params = init_params(TINY)
        ids = np.zeros((1, TINY.max_len + 1), dtype=np.int64)
        with pytest.raises(ValueError, match="max_len"):
            forward_batch(params, TINY, ids)

    @pytest.mark.parametrize(
        "d_ff, n_rows", [(128, 1), (128, 2), (128, 9), (50, 1), (50, 2), (50, 9)],
        ids=["1", "2", "9", "d_ff50-1", "d_ff50-2", "d_ff50-9"],
    )
    def test_rows_match_full_pass_bit_for_bit(self, d_ff, n_rows):
        # The requested rows run through products of another height than the
        # full pass's 40 rows; a lone row is the sharpest case.  At d_ff 50 a
        # plain product gives a row other bits at other heights.
        cfg = EncoderConfig(vocab_size=50, d_model=64, n_heads=2, n_layers=2, d_ff=d_ff,
                            max_len=32, seed=4)
        rng = np.random.default_rng(n_rows)
        params = init_params(cfg)
        for name in params:
            params[name] += rng.normal(0.0, 0.05, params[name].shape).astype(np.float32)
        ids = tiny_batch(rng, b=4, length=10).reshape(-1)
        at = rng.integers(0, ids.size, size=n_rows)
        full = forward(params, cfg, ids, shapes=[(4, 10)])
        rows = forward(params, cfg, ids, shapes=[(4, 10)], rows=at)
        assert np.array_equal(rows, full[at])

    def test_rows_exclude_dropout_and_cache(self):
        params = init_params(TINY)
        ids = tiny_batch(np.random.default_rng(0)).reshape(-1)
        with pytest.raises(ValueError, match="rows="):
            forward(params, TINY, ids, shapes=[(2, 8)], want_cache=True, rows=[1])
        cfg = EncoderConfig(vocab_size=50, d_model=16, n_heads=2, n_layers=2, d_ff=32,
                            max_len=32, dropout=0.1)
        with pytest.raises(ValueError, match="rows="):
            forward(params, cfg, ids, shapes=[(2, 8)], rng_tag=(0, 0, "s"), rows=[1])

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(3)
        params = init_params(TINY)
        ids = tiny_batch(rng)
        h1 = forward_batch(params, TINY, ids)
        h2 = forward_batch(params, TINY, ids)
        assert np.array_equal(h1, h2)
        assert np.array_equal(pool(h1, "cls", params), pool(h2, "cls", params))


# Largest |tanh GELU - exact GELU| in float64, reached near |x| = 2.70
# (4.7324e-4 on a 1e-5 grid over [-12, 12]).
GELU_TANH_MAX_ERR = 4.733e-4


def finite_arrays():
    """1-d float32 or float64 arrays of finite values."""
    return st.sampled_from([np.float32, np.float64]).flatmap(
        lambda dtype: hnp.arrays(
            dtype, st.integers(1, 40),
            elements=st.floats(allow_nan=False, allow_infinity=False,
                               width=np.finfo(dtype).bits),
        )
    )


class TestGelu:
    @given(finite_arrays())
    @example(np.array([1e30, -1e30, 0.0, -0.0], dtype=np.float32))
    @example(np.array([1e30, -1e30, 1e300, -1e300], dtype=np.float64))
    def test_finite_without_warnings(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, tanh_term = gelu(x)
            dy = gelu_grad(x, tanh_term)
        assert y.dtype == dy.dtype == x.dtype
        assert np.all(np.isfinite(y)) and np.all(np.isfinite(dy))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_propagates(self, dtype):
        x = np.array([np.nan, 1.0, -np.nan], dtype=dtype)
        y, tanh_term = gelu(x)
        dy = gelu_grad(x, tanh_term)
        assert np.isnan(y[[0, 2]]).all() and np.isnan(dy[[0, 2]]).all()
        assert np.isfinite(y[1]) and np.isfinite(dy[1])

    @given(hnp.arrays(np.float64, st.integers(1, 40),
                      elements=st.floats(-12.0, 12.0, allow_nan=False)))
    def test_float64_grad_matches_central_differences(self, x):
        h = 1e-6
        fd = (gelu(x + h)[0] - gelu(x - h)[0]) / (2 * h)
        np.testing.assert_allclose(gelu_grad(x, gelu(x)[1]), fd, rtol=0, atol=1e-8)

    @given(finite_arrays())
    @example(np.linspace(2.6, 2.8, 20_001))
    def test_within_known_error_of_exact_gelu(self, x):
        got = gelu(x)[0].astype(np.float64)
        # plus the rounding of the result in the input's dtype
        slack = 4 * np.finfo(x.dtype).eps * np.maximum(1.0, np.abs(x.astype(np.float64)))
        assert np.all(np.abs(got - oracle_gelu(x)) <= GELU_TANH_MAX_ERR + slack)


class TestLayerNormRowInvariance:
    """A row's layer norm, forward and backward, has the same bits alone as
    inside any batch: the row sums must not depend on the batch height."""

    @settings(max_examples=60, deadline=None)
    @given(height=st.integers(1, 256), d=st.sampled_from([32, 64]),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_one_row_matches_its_batch_row(self, height, d, seed, data):
        i = data.draw(st.integers(0, height - 1), label="row")
        rng = np.random.default_rng(seed)
        x, dy = rng.normal(size=(2, height, d)).astype(np.float32)
        params = {"ln_g": rng.normal(1.0, 0.1, size=d).astype(np.float32),
                  "ln_b": rng.normal(0.0, 0.1, size=d).astype(np.float32)}

        def run(x, dy):
            y, cache = layer_norm(x, params["ln_g"], params["ln_b"])
            return y, _ln_backward(dy, cache, params, zero_grads(params), "ln")

        y_all, dx_all = run(x, dy)
        y_one, dx_one = run(x[i : i + 1], dy[i : i + 1])
        assert np.array_equal(y_one[0].view(np.uint32), y_all[i].view(np.uint32))
        assert np.array_equal(dx_one[0].view(np.uint32), dx_all[i].view(np.uint32))


class TestDropout:
    CFG = EncoderConfig(
        vocab_size=50, d_model=16, n_heads=2, n_layers=2, d_ff=32, max_len=32,
        dropout=0.3, seed=1,
    )

    def test_replay_is_bit_identical(self):
        rng = np.random.default_rng(4)
        params = init_params(self.CFG)
        ids = tiny_batch(rng)
        h1 = forward_batch(params, self.CFG, ids, rng_tag=(9, 2, "s"))
        h2 = forward_batch(params, self.CFG, ids, rng_tag=(9, 2, "s"))
        assert np.array_equal(h1, h2)

    def test_streams_differ_across_steps_and_names(self):
        rng = np.random.default_rng(5)
        params = init_params(self.CFG)
        ids = tiny_batch(rng)
        base = forward_batch(params, self.CFG, ids, rng_tag=(9, 0, "s"))
        other_step = forward_batch(params, self.CFG, ids, rng_tag=(9, 1, "s"))
        other_name = forward_batch(params, self.CFG, ids, rng_tag=(9, 0, "w"))
        assert not np.array_equal(base, other_step)
        assert not np.array_equal(base, other_name)

    def test_every_layer_draws_its_own_masks(self):
        config = replace(self.CFG, vocab_size=20, d_model=8, d_ff=16, max_len=8,
                         n_layers=3, dropout=0.5)
        params = init_params(config)
        ids = tiny_batch(np.random.default_rng(7), vocab=20)
        _, cache = forward_batch(params, config, ids, rng_tag=(0, 1, "s"), want_cache=True)
        sites = ("attn_probs", "attn_out", "ff_out")
        masks = cache["dropout"]
        assert set(masks) == {"emb"} | {f"layer{i}.{s}" for i in range(3) for s in sites}
        for site in sites:
            for i, j in itertools.combinations(range(3), 2):
                assert not np.array_equal(masks[f"layer{i}.{site}"], masks[f"layer{j}.{site}"])

    def test_eval_mode_ignores_dropout(self):
        # Without a tag no dropout runs: the output is that of rate 0.
        rng = np.random.default_rng(6)
        params = init_params(self.CFG)
        ids = tiny_batch(rng)
        h1 = forward_batch(params, self.CFG, ids)
        h2 = forward_batch(params, replace(self.CFG, dropout=0.0), ids)
        assert np.array_equal(h1, h2)


class TestPool:
    def test_mean_fixture(self):
        hidden = np.array([[[1.0, 3.0], [3.0, 1.0]]])
        np.testing.assert_allclose(pool(hidden, "mean"), [[2.0, 2.0]])

    def test_max_fixture(self):
        hidden = np.array([[[1.0, 3.0], [3.0, 1.0]]])
        np.testing.assert_allclose(pool(hidden, "max"), [[3.0, 3.0]])

    def test_cls_matches_manual_pooler(self):
        rng = np.random.default_rng(8)
        params = init_params(TINY)
        hidden = rng.normal(size=(2, 5, 16)).astype(np.float32)
        got = pool(hidden, "cls", params)
        want = np.tanh(hidden[:, 0] @ params["pooler_w"] + params["pooler_b"])
        np.testing.assert_allclose(got, want, rtol=1e-6)

    @pytest.mark.parametrize(
        "strategy, d_model",
        [(s, d) for d in (64, 50) for s in ("cls", "mean", "max")],
        ids=["cls", "mean", "max", "cls-d_model50", "mean-d_model50", "max-d_model50"],
    )
    def test_row_alone_matches_its_batch_row(self, strategy, d_model):
        # The cls pooler multiplies one row alone and 17 in the batch; at
        # d_model 50 a plain product gives a row other bits at other heights.
        cfg = EncoderConfig(vocab_size=50, d_model=d_model, n_heads=2, n_layers=1, d_ff=128)
        params = init_params(cfg)
        rng = np.random.default_rng(13)
        hidden = rng.normal(size=(17, 6, d_model)).astype(np.float32)
        batch = pool(hidden, strategy, params)
        for i in range(17):
            alone = pool(hidden[i : i + 1], strategy, params)
            assert np.array_equal(alone[0], batch[i]), i

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            pool(np.zeros((1, 2, 2)), "attention")


class TestDense:
    @settings(max_examples=60, deadline=None)
    @given(
        height=st.integers(1, 100),
        d_in=st.sampled_from([32, 50, 54, 64, 128, 1000]),
        d_out=st.sampled_from([32, 50, 54, 64, 128, 1000]),
        seed=st.integers(0, 2**16),
    )
    def test_row_alone_matches_its_stack_row(self, height, d_in, d_out, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(height, d_in)).astype(np.float32)
        w = rng.normal(0.0, 0.1, size=(d_in, d_out)).astype(np.float32)
        b = rng.normal(size=d_out).astype(np.float32)
        got = _dense(x, w, b)
        for i in range(height):
            assert np.array_equal(_dense(x[i : i + 1], w, b)[0], got[i]), i
        # Two float32 sums of d_in products and a bias, rounded in any order,
        # differ by at most 2 (d_in + 1) eps times the sum of magnitudes.
        bound = 2 * (d_in + 1) * np.finfo(np.float32).eps * (np.abs(x) @ np.abs(w) + np.abs(b))
        assert np.all(np.abs(got - (x @ w + b)) <= bound)


class TestMlmLogProbs:
    def test_rows_are_distributions(self):
        rng = np.random.default_rng(9)
        params = init_params(TINY)
        ids = tiny_batch(rng)
        hidden = forward_batch(params, TINY, ids)
        log_probs = mlm_head_rows(params, hidden.reshape(-1, 16))[0].reshape(2, 8, -1)
        assert log_probs.shape == (2, 8, 50)
        np.testing.assert_allclose(np.exp(log_probs).sum(-1), 1.0, atol=1e-6)

    def test_zeroed_transform_gives_uniform(self):
        """With the transform zeroed the head reduces to log-softmax(0)."""
        rng = np.random.default_rng(10)
        params = init_params(TINY)
        params["mlm_w"] = np.zeros_like(params["mlm_w"])
        ids = tiny_batch(rng)
        hidden = forward_batch(params, TINY, ids)
        log_probs = mlm_head_rows(params, hidden.reshape(-1, 16))[0].reshape(2, 8, -1)
        np.testing.assert_allclose(log_probs, math.log(1.0 / 50), atol=1e-6)


@functools.cache
def packing_params(dtype=np.float32) -> dict[str, np.ndarray]:
    """TINY's parameters moved off their init, so that attention is far
    from uniform."""
    params = init_params(TINY, dtype=dtype)
    rng = np.random.default_rng(8)
    for p in params.values():
        p += rng.normal(0.0, 0.1, p.shape).astype(dtype)
    return params


# 1-5 groups of mixed (B, L); lengths may repeat.
group_shapes = st.lists(st.tuples(st.integers(1, 4), st.integers(1, 12)), min_size=1, max_size=5)


def packed_groups(shapes, seed):
    rng = np.random.default_rng(seed)
    groups = [rng.integers(0, TINY.vocab_size, size=shape) for shape in shapes]
    return groups, np.concatenate([g.reshape(-1) for g in groups])


class TestPackedPass:
    @settings(max_examples=60, deadline=None)
    @given(group_shapes, st.integers(0, 2**32 - 1))
    def test_each_group_gets_its_own_rows_bit_for_bit(self, shapes, seed):
        params = packing_params()
        groups, ids = packed_groups(shapes, seed)
        hidden = forward(params, TINY, ids, shapes=shapes)
        assert hidden.shape == (ids.size, TINY.d_model)
        at = 0
        for g in groups:
            alone = forward_batch(params, TINY, g).reshape(-1, TINY.d_model)
            assert np.array_equal(hidden[at : at + g.size], alone)
            at += g.size

    @settings(max_examples=40, deadline=None)
    @given(group_shapes, st.integers(0, 2**32 - 1), st.data())
    def test_rows_match_the_full_pass_bit_for_bit(self, shapes, seed, data):
        params = packing_params()
        _, ids = packed_groups(shapes, seed)
        rows = data.draw(st.lists(st.integers(0, ids.size - 1), min_size=1, max_size=20))
        full = forward(params, TINY, ids, shapes=shapes)
        assert np.array_equal(forward(params, TINY, ids, shapes=shapes, rows=rows), full[rows])

    @settings(max_examples=30, deadline=None)
    @given(group_shapes, st.integers(0, 2**32 - 1))
    def test_backward_is_the_sum_of_the_groups(self, shapes, seed):
        params = packing_params(np.float64)
        groups, ids = packed_groups(shapes, seed)
        d_hidden = np.random.default_rng(seed).normal(size=(ids.size, TINY.d_model))
        _, cache = forward(params, TINY, ids, shapes=shapes, want_cache=True)
        packed = zero_grads(params)
        backward(cache, params, TINY, d_hidden, packed)
        summed, at = zero_grads(params), 0
        for g in groups:
            _, cache = forward_batch(params, TINY, g, want_cache=True)
            d_group = d_hidden[at : at + g.size].reshape(*g.shape, -1)
            backward(cache, params, TINY, d_group, summed)
            at += g.size
        for name in params:
            np.testing.assert_allclose(packed[name], summed[name], rtol=1e-9, atol=1e-12,
                                       err_msg=name)

    def test_backward_drops_each_layer_record(self):
        params = init_params(TINY)
        hidden, cache = forward_batch(params, TINY, tiny_batch(np.random.default_rng(0)),
                                want_cache=True)
        backward(cache, params, TINY, np.ones_like(hidden), zero_grads(params))
        assert cache["layers"] == []

    def test_rejects_shapes_that_do_not_cover_the_ids(self):
        with pytest.raises(ValueError, match="cover"):
            forward(init_params(TINY), TINY, np.arange(10), shapes=[(2, 4)])

    def test_rejects_ids_that_are_not_packed(self):
        ids = tiny_batch(np.random.default_rng(0))
        with pytest.raises(ValueError, match="1-d packed ids"):
            forward(init_params(TINY), TINY, ids, shapes=[ids.shape])

    def test_pack_groups_shortest_first_in_input_order(self):
        ids, shapes, starts = pack([[3, 5, 6, 4], [3, 4], [3, 7, 8, 4], (3, 9, 4)])
        assert ids.tolist() == [3, 4, 3, 9, 4, 3, 5, 6, 4, 3, 7, 8, 4]
        assert shapes == [(1, 2), (1, 3), (2, 4)]
        assert starts.tolist() == [5, 0, 9, 2]
        assert ids.dtype == starts.dtype == np.int64

    def test_pack_of_no_sequences_is_empty(self):
        ids, shapes, starts = pack([])
        assert (ids.size, shapes, starts.size) == (0, [], 0)

    @given(st.lists(st.lists(st.integers(0, 49), min_size=1, max_size=6), max_size=12))
    def test_pack_starts_each_sequence_at_its_row(self, seqs):
        ids, shapes, starts = pack(seqs)
        for seq, start in zip(seqs, starts):
            assert ids[start : start + len(seq)].tolist() == list(seq)

    @given(st.lists(st.lists(st.integers(0, 49), min_size=1, max_size=6), max_size=12))
    def test_pack_holds_every_sequence_once_in_one_group_of_its_length(self, seqs):
        ids, shapes, starts = pack(seqs)
        # The pass holds the sequences shortest first, in input order within a
        # length, each once and back to back, and the shapes cover it exactly.
        order = sorted(range(len(seqs)), key=lambda i: (len(seqs[i]), i))
        assert np.argsort(starts).tolist() == order
        lengths = [len(seqs[i]) for i in order]
        assert starts[order].tolist() == np.cumsum([0, *lengths])[:-1].tolist()
        assert shapes == [(len(list(g)), n) for n, g in itertools.groupby(lengths)]
        assert sum(b * n for b, n in shapes) == ids.size == sum(lengths)


class TestBackwardSpotCheck:
    def test_analytic_matches_finite_difference_on_sampled_entries(self):
        """Cheap spot check; the exhaustive per-tensor sweep lives in the
        acceptance suite."""
        rng = np.random.default_rng(11)
        params = init_params(TINY, dtype=np.float64)
        ids = tiny_batch(rng)
        probe = rng.normal(size=(2, 8, 16))
        probe_p = rng.normal(size=(2, 16))

        def loss(p):
            hidden = forward_batch(p, TINY, ids)
            pooled = pool(hidden, "cls", p)
            return float((hidden * probe).sum() + (pooled * probe_p).sum())

        hidden, cache = forward_batch(params, TINY, ids, want_cache=True)
        _, pool_cache = _pool_with_cache(hidden, "cls", params)
        grads = zero_grads(params)
        d_hidden = probe + pool_backward(probe_p, pool_cache, params, grads)
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_names_the_first_tensor_holding_one(self, tmp_path, value):
        # The payload's last float is tok_emb's and its first emb_ln_b's.
        blob, header = checkpoint_bytes()
        bad = struct.pack("<f", value)
        path = tmp_path / "model.ckpt"
        path.write_bytes(blob[:-4] + bad)
        with pytest.raises(CheckpointError, match="non-finite weight in tensor tok_emb"):
            load_checkpoint(path)
        path.write_bytes(blob[:header] + bad + blob[header + 4 : -4] + bad)
        with pytest.raises(CheckpointError, match="non-finite weight in tensor emb_ln_b"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [
        ("d_model", 4.0), ("vocab_size", 50.0), ("max_len", 32.0), ("n_layers", True),
        ("seed", 0.5), ("seed", "x"), ("seed", -1),
    ])
    def test_config_block_with_a_bad_integer_field_rejected(self, tmp_path, field, value):
        # The header is the magic, the version, the config length and the config.
        blob, _ = checkpoint_bytes()
        (length,) = struct.unpack_from("<I", blob, 8)
        config = json.loads(blob[12 : 12 + length])
        config[field] = value
        block = json.dumps(config, sort_keys=True).encode("utf-8")
        path = tmp_path / "model.ckpt"
        path.write_bytes(blob[:8] + struct.pack("<I", len(block)) + block + blob[12 + length :])
        with pytest.raises(CheckpointError, match=f"bad checkpoint config block: {field} "):
            load_checkpoint(path)

    def test_appended_byte_rejected(self, tmp_path):
        blob, _ = checkpoint_bytes()
        path = tmp_path / "model.ckpt"
        path.write_bytes(blob + b"\x00")
        with pytest.raises(CheckpointError, match="1 stray bytes after the checkpoint payload"):
            load_checkpoint(path)

    def test_payload_length_beyond_config_rejected(self, tmp_path):
        # The length field asks for 4 more bytes, and the file supplies them.
        blob, header = checkpoint_bytes()
        (length,) = struct.unpack_from("<Q", blob, header - 8)
        path = tmp_path / "model.ckpt"
        longer = struct.pack("<Q", length + 4)
        path.write_bytes(blob[: header - 8] + longer + blob[header:] + bytes(4))
        with pytest.raises(CheckpointError, match="payload length is not the config's"):
            load_checkpoint(path)

    def test_swapped_directory_entries_rejected(self, tmp_path):
        # Each entry keeps its own name, dims and offset: only the order changes.
        blob, _ = checkpoint_bytes()
        pos = 12 + struct.unpack_from("<I", blob, 8)[0] + 4  # past the config and count
        bounds = [pos]
        for _ in range(2):
            (name_len,) = struct.unpack_from("<I", blob, pos)
            (rank,) = struct.unpack_from("<I", blob, pos + 4 + name_len)
            pos += 4 + name_len + 4 + 4 * rank + 8
            bounds.append(pos)
        first, second, end = bounds
        path = tmp_path / "model.ckpt"
        path.write_bytes(blob[:first] + blob[second:end] + blob[first:second] + blob[end:])
        with pytest.raises(CheckpointError, match="tensor directory does not match config"):
            load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        # pooler_w's entry says 16x8 where the config has 16x16; the payload is unchanged.
        blob, _ = checkpoint_bytes()
        name = struct.pack("<I", len(b"pooler_w")) + b"pooler_w"
        dims = blob.index(name) + len(name) + 4  # past the name and the rank
        assert struct.unpack_from("<2I", blob, dims) == (16, 16)
        path = tmp_path / "model.ckpt"
        path.write_bytes(blob[:dims] + struct.pack("<2I", 16, 8) + blob[dims + 8 :])
        with pytest.raises(CheckpointError, match="tensor directory does not match config"):
            load_checkpoint(path)

    @pytest.mark.parametrize("change", ["shape", "missing", "extra"])
    def test_save_rejects_params_not_of_the_config(self, tmp_path, change):
        params = init_params(TINY)
        if change == "shape":
            params["pooler_w"] = params["pooler_w"][:, :8].copy()
        elif change == "missing":
            del params["mlm_out_b"]
        else:
            params["extra_b"] = np.zeros(16, dtype=np.float32)
        with pytest.raises(CheckpointError, match="do not match the config"):
            save_checkpoint(params, TINY, tmp_path / "model.ckpt")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e39])
    def test_save_rejects_a_non_finite_weight_naming_the_first_tensor(self, tmp_path, value):
        # 1e39 is finite as a float64 but not as the f32 the file holds; the
        # file orders tensors by name, so emb_ln_b comes before tok_emb.
        params = {name: p.astype(np.float64) for name, p in init_params(TINY).items()}
        params["tok_emb"][-1, -1] = value
        for first in ("tok_emb", "emb_ln_b"):
            params[first].flat[0] = value
            with np.errstate(over="ignore"), pytest.raises(
                CheckpointError, match=f"non-finite weight in tensor {first}$"
            ):
                save_checkpoint(params, TINY, tmp_path / "model.ckpt")
        assert list(tmp_path.iterdir()) == []

    def test_model_bundle_helpers(self, tmp_path):
        model = Model.init(TINY)
        rng = np.random.default_rng(12)
        ids = tiny_batch(rng)
        hidden = forward_batch(model.params, model.config, ids)
        assert pool(hidden, "mean", model.params).shape == (2, 16)
