"""A small BERT-shaped transformer encoder with analytic gradients.

Everything is plain numpy: post-layer-norm blocks, GELU feed-forward,
learned positions, no segment embeddings (inputs are single sequences),
an MLM head whose output projection is tied to the token embeddings, and
a tanh pooler over the first position.

Two numeric modes are supported through the parameter dtype: float32 for
training and checkpoints, float64 ("wide") for finite-difference
gradient checks, where float32 rounding would swamp the comparison.

:func:`forward` can return a cache; :func:`backward` consumes it and
produces the exact analytic gradient of any loss expressed as a
cotangent of the hidden states.  Pooling, including the tanh pooler,
lives only in :func:`pool` and :func:`pool_backward`.  Dropout follows
the tag: it runs exactly when :func:`forward` is given ``rng_tag`` (and
the configured rate is above 0), with draws from :func:`step_rng` keyed
by (seed, step, site), so a training step replays bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import PAD_ID, atomic_open

LAYER_NORM_EPS = 1e-12
INIT_STD = 0.02

_SQRT1_2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327

# Cephes ndtr.c coefficients, highest power first.  The leading 1 of U and Q
# is implied there; 1 * x is exact, so spelling it out changes no bits.
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
# Cephes rounds erf(x) to exactly 1 from x ~ 5.92 on (erfc(x) < 2**-54), so
# clamping |x| here changes no result and spares Cephes' x >= 8 branch.
_ERF_SATURATES = 6.0
# Elements per pass of erf.  Every pass reuses three float64 work buffers of
# this size (64 KB each), which stay in cache between the encoder's larger
# activations; whole-array passes made span scoring slower.
_ERF_CHUNK = 8192


class ConfigError(ValueError):
    """Raised when an encoder configuration violates a constraint."""


class CheckpointError(RuntimeError):
    """Raised for unreadable or inconsistent checkpoint files."""


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture hyperparameters."""

    vocab_size: int
    d_model: int = 64
    n_heads: int = 2
    n_layers: int = 2
    d_ff: int = 128
    max_len: int = 128
    dropout: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.vocab_size < 6:
            raise ConfigError(f"vocab_size ({self.vocab_size}) must be >= 6")
        if self.n_heads < 1 or self.d_model < 1 or self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads}), "
                "both >= 1"
            )
        if self.n_layers < 1:
            raise ConfigError(f"n_layers ({self.n_layers}) must be >= 1")
        if self.d_ff < 1:
            raise ConfigError(f"d_ff ({self.d_ff}) must be >= 1")
        if self.max_len < 3:
            raise ConfigError(f"max_len ({self.max_len}) must be >= 3")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout ({self.dropout}) must be in [0, 1)")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


def expected_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape for every learnable tensor."""
    v, d, ff = config.vocab_size, config.d_model, config.d_ff
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (v, d),
        "pos_emb": (config.max_len, d),
        "emb_ln_g": (d,),
        "emb_ln_b": (d,),
    }
    for i in range(config.n_layers):
        p = f"layer{i}."
        shapes[p + "attn_q_w"] = (d, d)
        shapes[p + "attn_q_b"] = (d,)
        shapes[p + "attn_k_w"] = (d, d)
        shapes[p + "attn_k_b"] = (d,)
        shapes[p + "attn_v_w"] = (d, d)
        shapes[p + "attn_v_b"] = (d,)
        shapes[p + "attn_o_w"] = (d, d)
        shapes[p + "attn_o_b"] = (d,)
        shapes[p + "attn_ln_g"] = (d,)
        shapes[p + "attn_ln_b"] = (d,)
        shapes[p + "ff_w1"] = (d, ff)
        shapes[p + "ff_b1"] = (ff,)
        shapes[p + "ff_w2"] = (ff, d)
        shapes[p + "ff_b2"] = (d,)
        shapes[p + "ff_ln_g"] = (d,)
        shapes[p + "ff_ln_b"] = (d,)
    shapes["pooler_w"] = (d, d)
    shapes["pooler_b"] = (d,)
    shapes["mlm_w"] = (d, d)
    shapes["mlm_b"] = (d,)
    shapes["mlm_ln_g"] = (d,)
    shapes["mlm_ln_b"] = (d,)
    shapes["mlm_out_b"] = (v,)
    return shapes


def _truncated_normal(rng: np.random.Generator, shape: tuple[int, ...], std: float) -> np.ndarray:
    """Normal(0, std) with samples beyond two deviations redrawn."""
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2.0 * std
    while bad.any():
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2.0 * std
    return x


def init_params(config: EncoderConfig, dtype=np.float32) -> dict[str, np.ndarray]:
    """Deterministic initialization: truncated normal weights, zero biases,
    unit layer-norm gains."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    params: dict[str, np.ndarray] = {}
    for name, shape in expected_shapes(config).items():
        base = name.rsplit(".", 1)[-1]
        if base.endswith("_g") or base == "ln_g":
            params[name] = np.ones(shape, dtype=dtype)
        elif base.endswith("_b") or base.endswith("_b1") or base.endswith("_b2"):
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            params[name] = _truncated_normal(rng, shape, INIT_STD).astype(dtype)
    return params


# ---------------------------------------------------------------------------
# primitive ops


def layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = x.mean(-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv)


def _ln_backward(dy: np.ndarray, ln_cache, params, grads, prefix: str) -> np.ndarray:
    """Accumulate the gain and bias gradients of the layer norm whose
    parameters are ``prefix_g`` and ``prefix_b``; return the input cotangent."""
    xhat, inv = ln_cache
    axes = tuple(range(dy.ndim - 1))
    grads[prefix + "_g"] += (dy * xhat).sum(axis=axes)
    grads[prefix + "_b"] += dy.sum(axis=axes)
    dxh = dy * params[prefix + "_g"]
    return inv * (
        dxh
        - dxh.mean(-1, keepdims=True)
        - xhat * (dxh * xhat).mean(-1, keepdims=True)
    )


def _linear_backward(x: np.ndarray, dy: np.ndarray, params, grads, w: str, b: str) -> np.ndarray:
    """Accumulate dW and db of y = x @ W + b (any leading axes) into
    ``grads``; return the input cotangent dy @ W^T."""
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    grads[w] += x2.T @ dy2
    grads[b] += dy2.sum(0)
    return dy @ params[w].T


def erf(x: np.ndarray) -> np.ndarray:
    """The error function, elementwise: a numpy port of the Cephes
    rational approximations that ``scipy.special.erf`` evaluates.

    Computed in float64 and cast back to the input dtype, so float32
    results match scipy bit for bit; in float64 they can differ from it
    by one ulp where |x| > 1, from numpy's ``exp``.  ±0 keeps its sign,
    ±inf gives ±1 and NaN propagates, without floating-point warnings.
    """
    x = np.asarray(x)
    flat = x.reshape(-1)
    out = np.empty(flat.shape, dtype=np.float64)
    work = np.empty((3, min(flat.size, _ERF_CHUNK)))
    for lo in range(0, flat.size, _ERF_CHUNK):
        part = flat[lo : lo + _ERF_CHUNK]
        y = out[lo : lo + part.size]
        a, z, den = work[:, : part.size]
        np.minimum(np.abs(part, out=a), _ERF_SATURATES, out=a)
        np.multiply(a, a, out=z)
        # |x| <= 1: erf(x) = x T(x^2) / U(x^2)
        _polevl(z, _ERF_T, y)
        y *= a
        y /= _polevl(z, _ERF_U, den)
        # |x| > 1: erf(x) = 1 - exp(-x^2) P(x) / Q(x), at those elements only
        big = np.flatnonzero(a > 1.0)
        if big.size:
            ab, e = a[big], np.exp(-z[big])
            buf = np.empty_like(ab)
            e *= _polevl(ab, _ERFC_P, buf)
            e /= _polevl(ab, _ERFC_Q, buf)
            y[big] = 1.0 - e
        np.copysign(y, part, out=y)
    return out.astype(x.dtype, copy=False).reshape(x.shape)


def _polevl(x: np.ndarray, coefs: tuple[float, ...], out: np.ndarray) -> np.ndarray:
    """Horner's rule into ``out`` (not ``x``), highest power first,
    rounding as Cephes ``polevl``."""
    np.multiply(x, coefs[0], out=out)
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact-erf GELU, x Φ(x).

    Returns ``(gelu(x), erf_term)`` with ``erf_term = 1 + erf(x/√2)``,
    which :func:`gelu_grad` reuses instead of evaluating erf again.
    """
    erf_term = 1.0 + erf(x * _SQRT1_2)
    return 0.5 * x * erf_term, erf_term


def gelu_grad(x: np.ndarray, erf_term: np.ndarray) -> np.ndarray:
    """d GELU / dx at ``x``, given the ``erf_term`` :func:`gelu` returned."""
    return 0.5 * erf_term + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI


def step_rng(seed: int, step: int, name: str) -> np.random.Generator:
    """Counter-based generator: a fresh stream per (seed, step, name)."""
    digest = hashlib.blake2b(f"{seed}/{step}/{name}".encode(), digest_size=16).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "little")))


def _dropout_mask(shape, rate: float, seed: int, step: int, site: str, dtype) -> np.ndarray:
    keep = step_rng(seed, step, site).random(size=shape) >= rate
    return keep.astype(dtype) * (1.0 / (1.0 - rate))


# ---------------------------------------------------------------------------
# forward / backward


def _as_batch(ids, mask, config: EncoderConfig):
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ValueError(f"ids must be 2-d (batch, length), got shape {ids.shape}")
    if ids.shape[1] > config.max_len:
        raise ValueError(
            f"sequence length {ids.shape[1]} exceeds max_len {config.max_len}"
        )
    if mask is None:
        mask = np.ones(ids.shape, dtype=bool)
    else:
        mask = np.asarray(mask).astype(bool)
        if mask.shape != ids.shape:
            raise ValueError("mask shape must match ids shape")
    return ids, mask


def forward(
    params: dict[str, np.ndarray],
    config: EncoderConfig,
    ids,
    mask=None,
    *,
    rng_tag: tuple[int, int, str] | None = None,
    want_cache: bool = False,
    rows: tuple[Sequence[int], Sequence[int]] | None = None,
):
    """Run the encoder.

    Returns ``hidden`` of shape (B, L, d), or ``(hidden, cache)`` with
    ``want_cache`` for :func:`backward`; :func:`pool` reduces it to
    sequence vectors.  Padded key positions receive -inf attention
    logits, so outputs at real positions do not depend on pad content.
    Dropout follows the tag: it runs exactly when ``rng_tag=(seed, step,
    name)`` is given and ``config.dropout > 0``, and the tag keys its masks.

    ``rows=(batch_index, position)`` returns only those (M, d) rows of
    ``hidden``, bit for bit: the last layer's attention reads every
    position, but its output projection, feed-forward and layer norms
    run at the requested rows alone.  It excludes dropout and the cache.
    """
    ids, mask = _as_batch(ids, mask, config)
    b, length = ids.shape
    dtype = params["tok_emb"].dtype
    use_dropout = rng_tag is not None and config.dropout > 0.0
    if rows is not None and (use_dropout or want_cache):
        raise ValueError("rows= runs without dropout and returns no cache")
    rate = config.dropout

    def drop(x: np.ndarray, site: str, store: dict):
        if not use_dropout:
            return x
        seed, step, name = rng_tag
        m = _dropout_mask(x.shape, rate, seed, step, f"{name}/{site}", dtype)
        store[site] = m
        return x * m

    cache: dict = {"ids": ids, "mask": mask, "dropout": {}, "layers": []}
    x = params["tok_emb"][ids] + params["pos_emb"][:length][None, :, :]
    x, emb_ln = layer_norm(x, params["emb_ln_g"], params["emb_ln_b"])
    cache["emb_ln"] = emb_ln
    x = drop(x, "emb", cache["dropout"])

    n_heads, d_head = config.n_heads, config.d_head
    scale = 1.0 / float(np.sqrt(d_head))
    key_mask = mask[:, None, None, :]  # broadcast over heads and query axis

    for i in range(config.n_layers):
        p = f"layer{i}."
        lc: dict = {"x_in": x, "dropout": {}}
        q = x @ params[p + "attn_q_w"] + params[p + "attn_q_b"]
        k = x @ params[p + "attn_k_w"] + params[p + "attn_k_b"]
        v = x @ params[p + "attn_v_w"] + params[p + "attn_v_b"]
        q = q.reshape(b, length, n_heads, d_head).transpose(0, 2, 1, 3)
        k = k.reshape(b, length, n_heads, d_head).transpose(0, 2, 1, 3)
        v = v.reshape(b, length, n_heads, d_head).transpose(0, 2, 1, 3)
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale
        scores = np.where(key_mask, scores, -np.inf)
        scores -= scores.max(-1, keepdims=True)
        e = np.exp(scores)
        probs = e / e.sum(-1, keepdims=True)
        lc.update(q=q, k=k, v=v, attn_probs=probs)
        probs_d = drop(probs, "attn_probs", lc["dropout"])
        lc["attn_probs_dropped"] = probs_d
        ctx = (probs_d @ v).transpose(0, 2, 1, 3).reshape(b, length, config.d_model)
        if rows is not None and i == config.n_layers - 1:
            n_rows = len(rows[0])
            ctx, x = _gemm_rows(ctx[rows]), _gemm_rows(x[rows])
        lc["ctx"] = ctx
        ao = ctx @ params[p + "attn_o_w"] + params[p + "attn_o_b"]
        ao = drop(ao, "attn_out", lc["dropout"])
        x, attn_ln = layer_norm(
            x + ao, params[p + "attn_ln_g"], params[p + "attn_ln_b"]
        )
        lc["attn_ln"] = attn_ln
        lc["x_mid"] = x
        t = x @ params[p + "ff_w1"] + params[p + "ff_b1"]
        a, erf_term = gelu(t)
        lc.update(ff_pre=t, ff_erf=erf_term, ff_act=a)
        f = a @ params[p + "ff_w2"] + params[p + "ff_b2"]
        f = drop(f, "ff_out", lc["dropout"])
        x, ff_ln = layer_norm(x + f, params[p + "ff_ln_g"], params[p + "ff_ln_b"])
        lc["ff_ln"] = ff_ln
        cache["layers"].append(lc)

    if want_cache:
        return x, cache
    if rows is not None:
        return x[:n_rows]
    return x


def _gemm_rows(x: np.ndarray) -> np.ndarray:
    """``x`` with a lone row repeated, for products whose rows must keep
    the bits they have inside a batch: numpy sends a one-row product to
    gemv, whose sums round unlike gemm.  Callers keep the first row."""
    return np.repeat(x, 2, axis=0) if len(x) == 1 else x


def zero_grads(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.items()}


def backward(
    cache: dict,
    params: dict[str, np.ndarray],
    config: EncoderConfig,
    d_hidden: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    """Backpropagate the hidden-state cotangent (B, L, d) through a
    cached forward pass.

    Gradients are accumulated into ``grads``, so several forward passes
    can contribute to one update.  A pooled cotangent reaches
    ``d_hidden`` through :func:`pool_backward`.
    """
    ids = cache["ids"]
    b, length = ids.shape
    dx = d_hidden

    n_heads, d_head = config.n_heads, config.d_head
    scale = 1.0 / float(np.sqrt(d_head))

    for i in reversed(range(config.n_layers)):
        p = f"layer{i}."
        lc = cache["layers"][i]
        # second sublayer: x_out = LN(x_mid + dropout(FF(x_mid)))
        dx_mid = df = _ln_backward(dx, lc["ff_ln"], params, grads, p + "ff_ln")
        if "ff_out" in lc["dropout"]:
            df = df * lc["dropout"]["ff_out"]
        da = _linear_backward(lc["ff_act"], df, params, grads, p + "ff_w2", p + "ff_b2")
        dt = da * gelu_grad(lc["ff_pre"], lc["ff_erf"])
        dx_mid += _linear_backward(lc["x_mid"], dt, params, grads, p + "ff_w1", p + "ff_b1")
        # first sublayer: x_mid = LN(x_in + dropout(attn(x_in)))
        dx_in = dao = _ln_backward(dx_mid, lc["attn_ln"], params, grads, p + "attn_ln")
        if "attn_out" in lc["dropout"]:
            dao = dao * lc["dropout"]["attn_out"]
        dctx = _linear_backward(lc["ctx"], dao, params, grads, p + "attn_o_w", p + "attn_o_b")
        dctx = dctx.reshape(b, length, n_heads, d_head).transpose(0, 2, 1, 3)
        probs_d = lc["attn_probs_dropped"]
        dv = probs_d.transpose(0, 1, 3, 2) @ dctx
        dprobs = dctx @ lc["v"].transpose(0, 1, 3, 2)
        if "attn_probs" in lc["dropout"]:
            dprobs = dprobs * lc["dropout"]["attn_probs"]
        probs = lc["attn_probs"]
        dscores = probs * (dprobs - (dprobs * probs).sum(-1, keepdims=True))
        dq = (dscores @ lc["k"]) * scale
        dk = (dscores.transpose(0, 1, 3, 2) @ lc["q"]) * scale
        for dproj, proj in ((dq, p + "attn_q"), (dk, p + "attn_k"), (dv, p + "attn_v")):
            dflat = dproj.transpose(0, 2, 1, 3).reshape(b, length, config.d_model)
            dx_in += _linear_backward(lc["x_in"], dflat, params, grads, proj + "_w", proj + "_b")
        dx = dx_in

    if "emb" in cache["dropout"]:
        dx = dx * cache["dropout"]["emb"]
    dy = _ln_backward(dx, cache["emb_ln"], params, grads, "emb_ln")
    np.add.at(grads["tok_emb"], ids.reshape(-1), dy.reshape(-1, config.d_model))
    grads["pos_emb"][:length] += dy.sum(0)


# ---------------------------------------------------------------------------
# pooling


POOLING_STRATEGIES = ("cls", "mean", "max")


def pool(
    hidden: np.ndarray,
    mask,
    strategy: str,
    params: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Reduce (B, L, d) hidden states to (B, d) sequence vectors.

    ``cls`` uses the tanh pooler over position 0; ``mean`` and ``max``
    reduce over mask=1 positions only, so trailing padding never changes
    the result.
    """
    out, _ = _pool_with_cache(hidden, mask, strategy, params)
    return out


def _pool_with_cache(hidden, mask, strategy, params):
    mask = np.asarray(mask).astype(bool)
    if mask.ndim != 2 or mask.shape != hidden.shape[:2]:
        raise ValueError("mask shape must be (batch, length)")
    if not mask.any(axis=1).all():
        raise ValueError("pooling over an all-zero mask")
    if strategy == "cls":
        if params is None:
            raise ValueError("cls pooling requires encoder parameters")
        h0 = hidden[:, 0, :]
        pooled = np.tanh((_gemm_rows(h0) @ params["pooler_w"])[: len(h0)] + params["pooler_b"])
        return pooled, {"h0": h0, "pooled": pooled}
    if strategy == "mean":
        m = mask.astype(hidden.dtype)
        denom = m.sum(1, keepdims=True)
        pooled = (hidden * m[:, :, None]).sum(1) / denom
        return pooled, {"m": m, "denom": denom}
    if strategy == "max":
        neg = np.where(mask[:, :, None], hidden, -np.inf)
        idx = neg.argmax(axis=1)  # (B, d)
        pooled = np.take_along_axis(hidden, idx[:, None, :], axis=1)[:, 0, :]
        return pooled, {"idx": idx}
    raise ValueError(f"unknown pooling strategy {strategy!r}; expected one of {POOLING_STRATEGIES}")


def pool_backward(
    d_pooled: np.ndarray,
    pool_cache: dict,
    hidden_shape: tuple[int, ...],
    strategy: str,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    """Cotangent of the hidden states for a cached :func:`pool` call.

    For ``cls`` the pooler parameter gradients are accumulated into
    ``grads``.
    """
    d_hidden = np.zeros(hidden_shape, dtype=d_pooled.dtype)
    if strategy == "cls":
        pooled = pool_cache["pooled"]
        dz = d_pooled * (1.0 - pooled * pooled)
        d_hidden[:, 0, :] = _linear_backward(
            pool_cache["h0"], dz, params, grads, "pooler_w", "pooler_b"
        )
    elif strategy == "mean":
        m, denom = pool_cache["m"], pool_cache["denom"]
        d_hidden += (d_pooled / denom)[:, None, :] * m[:, :, None]
    elif strategy == "max":
        idx = pool_cache["idx"]
        np.put_along_axis(d_hidden, idx[:, None, :], d_pooled[:, None, :], axis=1)
    else:
        raise ValueError(f"unknown pooling strategy {strategy!r}")
    return d_hidden


# ---------------------------------------------------------------------------
# MLM head


def mlm_head_rows(params: dict[str, np.ndarray], rows: np.ndarray):
    """Log-probabilities over the vocabulary for a stack of hidden rows.

    head(h) = layer_norm(GELU(h @ W + b)), projected onto the tied token
    embeddings plus an output bias, then log-softmax.
    Returns ``(log_probs (M, V), cache)``.
    """
    t = rows @ params["mlm_w"] + params["mlm_b"]
    a, erf_term = gelu(t)
    h, ln = layer_norm(a, params["mlm_ln_g"], params["mlm_ln_b"])
    logits = h @ params["tok_emb"].T + params["mlm_out_b"]
    shifted = logits - logits.max(-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(-1, keepdims=True))
    log_probs = shifted - lse
    cache = {"rows": rows, "t": t, "erf": erf_term, "h": h, "ln": ln, "log_probs": log_probs}
    return log_probs, cache


def mlm_head_rows_backward(
    cache: dict,
    params: dict[str, np.ndarray],
    d_logits: np.ndarray,
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    """Backward through the head given the cotangent of the raw logits.

    The tied projection contributes to the token-embedding gradient here
    and again through the input lookup in :func:`backward`.  Returns the
    cotangent of the input rows.
    """
    h = cache["h"]
    grads["mlm_out_b"] += d_logits.sum(0)
    grads["tok_emb"] += d_logits.T @ h
    da = _ln_backward(d_logits @ params["tok_emb"], cache["ln"], params, grads, "mlm_ln")
    dt = da * gelu_grad(cache["t"], cache["erf"])
    return _linear_backward(cache["rows"], dt, params, grads, "mlm_w", "mlm_b")


# ---------------------------------------------------------------------------
# model bundle and batching helpers


@dataclass
class Model:
    """Parameters plus configuration, the unit that is saved and loaded."""

    params: dict[str, np.ndarray]
    config: EncoderConfig

    @classmethod
    def init(cls, config: EncoderConfig, dtype=np.float32) -> "Model":
        return cls(params=init_params(config, dtype=dtype), config=config)


def pad_batch(sequences: Sequence[Sequence[int]]):
    """Right-pad id lists with PAD_ID to a rectangle; returns (ids, mask) arrays."""
    if not sequences:
        raise ValueError("empty batch")
    length = max(len(s) for s in sequences)
    ids = np.full((len(sequences), length), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(sequences), length), dtype=bool)
    for i, s in enumerate(sequences):
        ids[i, : len(s)] = s
        mask[i, : len(s)] = True
    return ids, mask


# ---------------------------------------------------------------------------
# checkpoint I/O

CHECKPOINT_MAGIC = b"ULRM"
CHECKPOINT_VERSION = 1


def save_checkpoint(
    params: dict[str, np.ndarray], config: EncoderConfig, path: str | Path
) -> None:
    """Write a versioned binary checkpoint (tensors as little-endian f32)."""
    names = sorted(params)
    payload = bytearray()
    directory = bytearray()
    for name in names:
        arr = np.ascontiguousarray(params[name], dtype="<f4")
        offset = len(payload)
        payload.extend(arr.tobytes())
        nb = name.encode("utf-8")
        directory.extend(struct.pack("<I", len(nb)))
        directory.extend(nb)
        directory.extend(struct.pack("<I", arr.ndim))
        directory.extend(struct.pack(f"<{arr.ndim}I", *arr.shape))
        directory.extend(struct.pack("<Q", offset))
    config_blob = json.dumps(asdict(config), sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(config_blob)))
        fh.write(config_blob)
        fh.write(struct.pack("<I", len(names)))
        fh.write(directory)
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)


def load_checkpoint(path: str | Path) -> Model:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Fails closed: every length field is checked against the bytes left
    in the file before it is used, and a foreign, truncated, malformed
    or mismatched file raises :class:`CheckpointError`; no partial state
    is ever returned.
    """
    data = memoryview(Path(path).read_bytes())
    if data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError("not a ULRM checkpoint")
    pos = 4

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if n > len(data) - pos:
            raise CheckpointError(f"truncated checkpoint file while reading {what}")
        pos += n
        return data[pos - n : pos]

    def number(fmt: str, what: str) -> int:
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))[0]

    version = number("<I", "version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}"
        )
    blob = take(number("<I", "config length"), "config")
    try:
        config = EncoderConfig(**json.loads(str(blob, "utf-8")))
    except (ValueError, TypeError) as exc:
        raise CheckpointError(f"bad checkpoint config block: {exc}") from exc
    entries = []
    for _ in range(number("<I", "tensor count")):
        name = bytes(take(number("<I", "tensor name length"), "tensor name"))
        rank = number("<I", "tensor rank")
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "tensor dims"))
        entries.append((name, dims, number("<Q", "tensor offset")))
    payload = take(number("<Q", "payload length"), "tensor payload")
    # names stay bytes until they match: a foreign name is never decoded
    shapes = {name.encode(): (name, shape) for name, shape in expected_shapes(config).items()}
    if {e[0] for e in entries} != set(shapes):
        raise CheckpointError("checkpoint tensor directory does not match config")
    params: dict[str, np.ndarray] = {}
    for raw_name, dims, offset in entries:
        name, shape = shapes[raw_name]
        if shape != tuple(dims):
            raise CheckpointError(
                f"shape mismatch for tensor {name}: file has {tuple(dims)}, "
                f"config implies {shape}"
            )
        count = math.prod(dims)
        if offset + 4 * count > len(payload):
            raise CheckpointError(f"truncated checkpoint file while reading {name}")
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
        params[name] = arr.reshape(dims).copy()
    return Model(params=params, config=config)
