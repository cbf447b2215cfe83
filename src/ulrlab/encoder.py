"""A small BERT-shaped transformer encoder with analytic gradients.

Everything is plain numpy: post-layer-norm blocks, a feed-forward with
the tanh GELU of Google's reference BERT, learned positions, no segment
embeddings (inputs are single sequences), an MLM head whose output
projection is tied to the token embeddings, and a tanh pooler over the
first position.

Two numeric modes are supported through the parameter dtype: float32 for
training and checkpoints, float64 ("wide") for finite-difference
gradient checks, where float32 rounding would swamp the comparison.

:func:`forward` runs one packed pass over groups of unpadded sequences
(:func:`pack`), inference and training alike, and can return a cache;
:func:`backward` consumes it and produces the exact analytic gradient of
any loss expressed as a cotangent of the hidden states.  Pooling,
including the tanh pooler, lives only in :func:`pool` and
:func:`pool_backward`, over a group's (B, L, d) view (:func:`group_views`).
Dropout follows the tag: it runs exactly when :func:`forward` is given
``rng_tag`` (and the configured rate is above 0), with each mask drawn from
:func:`step_rng` keyed by seed, step, pass name, layer and site, so no two
masks share a stream and a training step replays bit-identically.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import struct
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence, get_type_hints

import numpy as np

from .corpus import atomic_open

LAYER_NORM_EPS = 1e-12
INIT_STD = 0.02
_BLOCK_ROWS = 16  # the height of every product in :func:`_dense`

# GELU in the tanh form of Google's reference BERT: 0.5 x (1 + tanh(u)),
# u = √(2/π) (x + 0.044715 x³).  From |x| = 10 on, u > 43 and tanh(u) is
# exactly ±1 in float32 and float64, so clamping x there changes no result
# and keeps x³ from overflowing.
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_GELU_CLAMP = 10.0


class ConfigError(ValueError):
    """Raised when a configuration violates a constraint."""


# What a numeric field holds, by its type; and each bound, by its metadata key.
_NUMBERS = {int: "an int", float: "a finite number"}
_BOUNDS = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}  # keyed by ``operator`` name


def check_fields(config) -> None:
    """Check a config dataclass's fields, in order, against their declarations:
    an ``int`` field holds an int and a ``float`` field a finite int or float
    (neither a bool), a field with ``choices`` metadata one of them, and each
    value its bounds (metadata ``ge``, ``gt``, ``le``, ``lt``).  A violation
    raises :class:`ConfigError` naming the field and its value."""
    types = get_type_hints(type(config))
    for f in fields(config):
        name, value, kind = f.name, getattr(config, f.name), types[f.name]
        if kind in _NUMBERS and (
            isinstance(value, bool) or not isinstance(value, (kind, int))
            or (isinstance(value, float) and not math.isfinite(value))
        ):
            raise ConfigError(f"{name} ({value!r}) must be {_NUMBERS[kind]}")
        choices = f.metadata.get("choices")
        if choices is not None and value not in choices:
            raise ConfigError(f"{name} ({value!r}) must be in {choices}")
        for key, sign in _BOUNDS.items():
            if key in f.metadata and not getattr(operator, key)(value, f.metadata[key]):
                raise ConfigError(f"{name} ({value!r}) must be {sign} {f.metadata[key]}")


class CheckpointError(RuntimeError):
    """Raised for unreadable or inconsistent checkpoint files."""


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture hyperparameters, checked when built (:func:`check_fields`)."""

    vocab_size: int = field(metadata={"ge": 6})
    d_model: int = 64  # d_model and n_heads: one rule, in __post_init__
    n_heads: int = 2
    n_layers: int = field(default=2, metadata={"ge": 1})
    d_ff: int = field(default=128, metadata={"ge": 1})
    max_len: int = field(default=128, metadata={"ge": 3})
    dropout: float = field(default=0.1, metadata={"ge": 0, "lt": 1})
    seed: int = field(default=0, metadata={"ge": 0})

    def __post_init__(self) -> None:
        check_fields(self)
        if self.n_heads < 1 or self.d_model < 1 or self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads}), "
                "both >= 1"
            )

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
        if base.endswith("_g"):
            params[name] = np.ones(shape, dtype=dtype)
        elif base.endswith("_b") or base.endswith("_b1") or base.endswith("_b2"):
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            params[name] = _truncated_normal(rng, shape, INIT_STD).astype(dtype)
    return params


# ---------------------------------------------------------------------------
# primitive ops


def layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    """``g * xhat + b`` for ``x`` normalized over its last axis, with the
    ``(xhat, inv)`` cache that :func:`_ln_backward` takes.

    Sums over the model axis, here and in the backward passes, use
    ``np.einsum``: faster than ``sum``/``mean`` at this width, and it sums
    a row in the same order at any batch height, so a row keeps its bits
    (a BLAS product with a ones vector does not).
    """
    d = x.shape[-1]
    xhat = x - np.einsum("...i->...", x)[..., None] / d
    var = np.einsum("...i,...i->...", xhat, xhat)[..., None] / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    y = xhat * g
    y += b
    return y, (xhat, inv)


def _dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b`` over the last axis, as one product per zero-padded block
    of :data:`_BLOCK_ROWS` rows.  BLAS can round a row differently at another
    product height; here every row meets one shape, whatever shares the call.
    A strided ``w`` (the MLM head's ``tok_emb.T``) is copied once, not
    repacked by every block's product."""
    n, d = math.prod(x.shape[:-1]), x.shape[-1]
    blocks = np.zeros((-(-n // _BLOCK_ROWS), _BLOCK_ROWS, d), dtype=x.dtype)
    blocks.reshape(-1, d)[:n] = x.reshape(n, d)
    y = (blocks @ np.ascontiguousarray(w)).reshape(-1, w.shape[1])[:n]
    y += b
    return y.reshape(*x.shape[:-1], -1)


def _ln_backward(dy: np.ndarray, ln_cache, params, grads, prefix: str) -> np.ndarray:
    """Accumulate the gain and bias gradients of the layer norm whose
    parameters are ``prefix_g`` and ``prefix_b``; return the input cotangent."""
    xhat, inv = ln_cache
    d = dy.shape[-1]
    dy2, xhat2 = dy.reshape(-1, d), xhat.reshape(-1, d)
    grads[prefix + "_g"] += np.einsum("ij,ij->j", dy2, xhat2)
    grads[prefix + "_b"] += np.einsum("ij->j", dy2)
    dxh = dy * params[prefix + "_g"]
    mean = np.einsum("...i->...", dxh)[..., None] / d
    proj = np.einsum("...i,...i->...", dxh, xhat)[..., None] / d
    dxh -= mean
    dxh -= xhat * proj
    dxh *= inv
    return dxh


def _linear_backward(x: np.ndarray, dy: np.ndarray, params, grads, w: str, b: str) -> np.ndarray:
    """Accumulate dW and db of y = x @ W + b (any leading axes) into
    ``grads``; return the input cotangent dy @ W^T."""
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    grads[w] += x2.T @ dy2
    grads[b] += np.einsum("ij->j", dy2)
    return dy @ params[w].T


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU in BERT's tanh form, 0.5 x (1 + tanh(√(2/π) (x + 0.044715 x³))).

    Returns ``(gelu(x), tanh_term)``, the tanh term being what
    :func:`gelu_grad` reuses.  Finite for every finite input, without
    floating-point warnings; NaN propagates.
    """
    # In place: a fresh array per op made this ~30% slower on (1536, 64) float32.
    xc = np.clip(x, -_GELU_CLAMP, _GELU_CLAMP)
    th = xc * xc
    th *= _GELU_A
    th += 1.0
    th *= xc
    th *= _GELU_C
    np.tanh(th, out=th)
    y = np.add(th, 1.0, out=xc)
    y *= 0.5
    y *= x
    return y, th


def gelu_grad(x: np.ndarray, tanh_term: np.ndarray) -> np.ndarray:
    """d GELU / dx at ``x``, given the ``tanh_term`` :func:`gelu` returned:
    0.5 (1 + t) + 0.5 x (1 - t²) √(2/π) (1 + 3 · 0.044715 x²).  Where x is
    clamped, 1 - t² is exactly 0, so the clamp changes no result."""
    xc = np.clip(x, -_GELU_CLAMP, _GELU_CLAMP)
    d = xc * xc
    d *= 3.0 * _GELU_A
    d += 1.0
    d *= xc
    d *= 0.5 * _GELU_C
    d *= 1.0 - tanh_term * tanh_term
    d += 0.5 * tanh_term
    d += 0.5
    return d


def step_rng(seed: int, step: int, name: str) -> np.random.Generator:
    """Counter-based generator: a fresh stream per (seed, step, name)."""
    digest = hashlib.blake2b(f"{seed}/{step}/{name}".encode(), digest_size=16).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "little")))


# ---------------------------------------------------------------------------
# forward / backward


def _heads(x: np.ndarray, b: int, length: int, n_heads: int) -> np.ndarray:
    """A group's (B·L, d) rows as a (B, heads, L, d_head) view."""
    return x.reshape(b, length, n_heads, -1).transpose(0, 2, 1, 3)


def _group_layout(shapes, n_heads: int):
    """Per group: its rows of the packed pass, B, L, and its stretch of the
    flat buffer that holds every group's attention probabilities."""
    layout, row, prob = [], 0, 0
    for b, length in shapes:
        n_probs = length * b * n_heads * length
        layout.append((slice(row, row + b * length), b, length, slice(prob, prob + n_probs)))
        row, prob = row + b * length, prob + n_probs
    return layout, prob


def forward(
    params: dict[str, np.ndarray],
    config: EncoderConfig,
    ids,
    *,
    shapes: Sequence[tuple[int, int]],
    rng_tag: tuple[int, int, str] | None = None,
    want_cache: bool = False,
    rows: Sequence[int] | None = None,
):
    """Run the encoder over one packed pass of unpadded groups.

    ``ids`` holds the ids of the unpadded groups ``shapes=[(B, L), ...]``,
    each flattened, laid back to back (:func:`pack` builds them from id
    lists).  Every position is a real token and attends to the L positions
    of its own sequence, so without dropout a sequence's outputs depend on
    its own ids alone, bit for bit.  The position-wise sublayers run once
    over the rows of every group; attention runs per group.  Returns
    ``hidden``, one (N, d) row per id, or ``(hidden, cache)`` with
    ``want_cache`` for :func:`backward`; :func:`group_views` cuts it into
    each group's (B, L, d) states, which :func:`pool` reduces to sequence
    vectors.

    Dropout follows the tag: it runs exactly when ``rng_tag=(seed, step,
    name)`` is given and ``config.dropout > 0``.  A mask covers the whole
    pass; its stream is keyed by seed, step, name, layer and site
    (``"layer0.ff_out"``, or ``"emb"``), and ``cache["dropout"]`` keeps it
    under that site name.  Each layer's ``cache["layers"][i]["attn_probs"]``
    holds one (L, B, heads, L) array per group, key axis first: ``[k, b, h,
    q]`` is the weight that query q of sequence b gives key k in head h, so
    it sums to 1 over axis 0.  The ``attn_probs`` dropout mask is flat, over
    those arrays in group order.

    ``rows=`` returns only ``hidden[rows]``, (M, d), bit for bit, for row
    indices of the pass.  The last layer's attention reads every position,
    but its output projection, feed-forward and layer norms run at the
    requested rows alone.  It excludes dropout and the cache.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or sum(b * length for b, length in shapes) != ids.size:
        raise ValueError(f"shapes {list(shapes)} must cover 1-d packed ids, not shape {ids.shape}")
    longest = max(length for _, length in shapes)
    if longest > config.max_len:
        raise ValueError(f"sequence length {longest} exceeds max_len {config.max_len}")
    dtype = params["tok_emb"].dtype
    use_dropout = rng_tag is not None and config.dropout > 0.0
    if rows is not None and (use_dropout or want_cache):
        raise ValueError("rows= runs without dropout and returns no cache")
    masks: dict[str, np.ndarray] = {}

    def drop(x: np.ndarray, site: str):
        if not use_dropout:
            return x
        seed, step, name = rng_tag
        keep = step_rng(seed, step, f"{name}/{site}").random(size=x.shape) >= config.dropout
        m = masks[site] = keep.astype(dtype) * (1.0 / (1.0 - config.dropout))
        return x * m

    n_heads, d_model = config.n_heads, config.d_model
    scale = 1.0 / float(np.sqrt(config.d_head))
    groups, n_probs = _group_layout(shapes, n_heads)

    x = params["tok_emb"][ids]
    for r, b, length, _ in groups:
        xg = x[r].reshape(b, length, d_model)
        xg += params["pos_emb"][:length]
    x, emb_ln = layer_norm(x, params["emb_ln_g"], params["emb_ln_b"])
    x = drop(x, "emb")

    layers = []
    for i in range(config.n_layers):
        p = f"layer{i}."
        x_in = x
        # Q, K and V in one product; q comes out scaled by 1/√d_head.
        w_q, b_q = params[p + "attn_q_w"] * scale, params[p + "attn_q_b"] * scale
        q, k, v = np.split(_dense(
            x,
            np.concatenate([w_q, params[p + "attn_k_w"], params[p + "attn_v_w"]], axis=1),
            np.concatenate([b_q, params[p + "attn_k_b"], params[p + "attn_v_b"]]),
        ), 3, axis=1)
        flat = np.empty(n_probs, dtype=dtype)  # every group's scores, then probabilities
        probs = [flat[pr].reshape(length, b, n_heads, length) for _, b, length, pr in groups]
        for (r, b, length, _), s in zip(groups, probs):
            np.matmul(_heads(k[r], b, length, n_heads),
                      _heads(q[r], b, length, n_heads).swapaxes(2, 3),
                      out=s.transpose(1, 2, 0, 3))
            s -= s.max(0)
        np.exp(flat, out=flat)
        for s in probs:
            s /= s.sum(0)
        flat_d = drop(flat, p + "attn_probs")
        ctx = np.empty_like(x)
        for r, b, length, pr in groups:
            np.matmul(flat_d[pr].reshape(length, b, n_heads, length).transpose(1, 2, 3, 0),
                      _heads(v[r], b, length, n_heads), out=_heads(ctx[r], b, length, n_heads))
        if rows is not None and i == config.n_layers - 1:
            ctx, x = ctx[rows], x[rows]
        ao = _dense(ctx, params[p + "attn_o_w"], params[p + "attn_o_b"])
        ao = drop(ao, p + "attn_out")
        x_mid, attn_ln = layer_norm(
            x + ao, params[p + "attn_ln_g"], params[p + "attn_ln_b"]
        )
        t = _dense(x_mid, params[p + "ff_w1"], params[p + "ff_b1"])
        a, tanh_term = gelu(t)
        f = _dense(a, params[p + "ff_w2"], params[p + "ff_b2"])
        f = drop(f, p + "ff_out")
        x, ff_ln = layer_norm(x_mid + f, params[p + "ff_ln_g"], params[p + "ff_ln_b"])
        if want_cache:
            layers.append(dict(
                x_in=x_in, q=q, k=k, v=v, attn_probs=probs, attn_flat=flat, attn_dropped=flat_d,
                ctx=ctx, attn_ln=attn_ln, x_mid=x_mid, ff_pre=t, ff_tanh=tanh_term,
                ff_act=a, ff_ln=ff_ln,
            ))

    if want_cache:
        return x, {"ids": ids, "shapes": list(shapes), "emb_ln": emb_ln, "dropout": masks,
                   "layers": layers}
    return x


def zero_grads(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Zeros shaped like ``params``."""
    return {name: np.zeros_like(a) for name, a in params.items()}


def backward(
    cache: dict,
    params: dict[str, np.ndarray],
    config: EncoderConfig,
    d_hidden: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    """Backpropagate the hidden-state cotangent, shaped as the forward's
    ``hidden``, through a cached forward pass.

    Gradients are accumulated into ``grads``, so several forward passes
    can contribute to one update.  A pooled cotangent reaches
    ``d_hidden`` through :func:`pool_backward`.  The cache is consumed:
    each layer's record is dropped once its backward has run.
    """
    ids, d_model, n_heads = cache["ids"], config.d_model, config.n_heads
    groups, _ = _group_layout(cache["shapes"], n_heads)
    dx = d_hidden.reshape(-1, d_model)
    masks = cache["dropout"]

    def undrop(d: np.ndarray, site: str) -> np.ndarray:
        """The cotangent ``d`` through the dropout at ``site``, if it drew a mask."""
        return d * masks[site] if site in masks else d

    scale = 1.0 / float(np.sqrt(config.d_head))
    layers = cache["layers"]
    for i in reversed(range(config.n_layers)):
        p = f"layer{i}."
        lc = layers.pop()
        # second sublayer: x_out = LN(x_mid + dropout(FF(x_mid)))
        dx_mid = _ln_backward(dx, lc["ff_ln"], params, grads, p + "ff_ln")
        df = undrop(dx_mid, p + "ff_out")
        da = _linear_backward(lc["ff_act"], df, params, grads, p + "ff_w2", p + "ff_b2")
        dt = da * gelu_grad(lc["ff_pre"], lc["ff_tanh"])
        dx_mid += _linear_backward(lc["x_mid"], dt, params, grads, p + "ff_w1", p + "ff_b1")
        # first sublayer: x_mid = LN(x_in + dropout(attn(x_in)))
        dx_in = _ln_backward(dx_mid, lc["attn_ln"], params, grads, p + "attn_ln")
        dao = undrop(dx_in, p + "attn_out")
        dctx = _linear_backward(lc["ctx"], dao, params, grads, p + "attn_o_w", p + "attn_o_b")
        dq, dk, dv = (np.empty_like(dctx) for _ in "qkv")
        d_att = np.empty_like(lc["attn_flat"])  # laid out as the probabilities
        for r, b, length, pr in groups:
            dc = _heads(dctx[r], b, length, n_heads)
            shape = (length, b, n_heads, length)
            np.matmul(lc["attn_dropped"][pr].reshape(shape).transpose(1, 2, 0, 3), dc,
                      out=_heads(dv[r], b, length, n_heads))
            np.matmul(_heads(lc["v"][r], b, length, n_heads), dc.swapaxes(2, 3),
                      out=d_att[pr].reshape(shape).transpose(1, 2, 0, 3))
        d_att = undrop(d_att, p + "attn_probs")
        d_att *= lc["attn_flat"]
        for (r, b, length, pr), probs in zip(groups, lc["attn_probs"]):
            # The softmax backward, P dP - P sum_k(P dP), over the key axis.
            ds = d_att[pr].reshape(probs.shape)
            ds -= probs * ds.sum(0)
            np.matmul(ds.transpose(1, 2, 3, 0), _heads(lc["k"][r], b, length, n_heads),
                      out=_heads(dq[r], b, length, n_heads))
            np.matmul(ds.transpose(1, 2, 0, 3), _heads(lc["q"][r], b, length, n_heads),
                      out=_heads(dk[r], b, length, n_heads))
        dq *= scale
        for dproj, proj in ((dq, p + "attn_q"), (dk, p + "attn_k"), (dv, p + "attn_v")):
            dx_in += _linear_backward(lc["x_in"], dproj, params, grads, proj + "_w", proj + "_b")
        dx = dx_in

    dy = _ln_backward(undrop(dx, "emb"), cache["emb_ln"], params, grads, "emb_ln")
    np.add.at(grads["tok_emb"], ids, dy)
    for r, b, length, _ in groups:
        grads["pos_emb"][:length] += dy[r].reshape(b, length, d_model).sum(0)


# ---------------------------------------------------------------------------
# pooling


POOLING_STRATEGIES = ("cls", "mean", "max")


def pool(
    hidden: np.ndarray,
    strategy: str,
    params: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Reduce unpadded (B, L, d) hidden states to (B, d) sequence vectors.

    ``cls`` uses the tanh pooler over position 0; ``mean`` and ``max``
    reduce over all L positions.
    """
    return _pool_with_cache(hidden, strategy, params)[0]


def _pool_with_cache(hidden, strategy, params):
    meta = {"strategy": strategy, "hidden_shape": hidden.shape}
    if strategy == "cls":
        if params is None:
            raise ValueError("cls pooling requires encoder parameters")
        h0 = hidden[:, 0, :]
        pooled = np.tanh(_dense(h0, params["pooler_w"], params["pooler_b"]))
        return pooled, {**meta, "h0": h0, "pooled": pooled}
    if strategy == "mean":
        return hidden.sum(1) / hidden.shape[1], meta
    if strategy == "max":
        idx = hidden.argmax(axis=1)  # (B, d)
        pooled = np.take_along_axis(hidden, idx[:, None, :], axis=1)[:, 0, :]
        return pooled, {**meta, "idx": idx}
    raise ValueError(f"unknown pooling strategy {strategy!r}; expected one of {POOLING_STRATEGIES}")


def pool_backward(
    d_pooled: np.ndarray,
    pool_cache: dict,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    """Cotangent of the hidden states for a cached :func:`pool` call.

    For ``cls`` the pooler parameter gradients are accumulated into
    ``grads``.
    """
    strategy = pool_cache["strategy"]
    d_hidden = np.zeros(pool_cache["hidden_shape"], dtype=d_pooled.dtype)
    if strategy == "cls":
        pooled = pool_cache["pooled"]
        dz = d_pooled * (1.0 - pooled * pooled)
        d_hidden[:, 0, :] = _linear_backward(
            pool_cache["h0"], dz, params, grads, "pooler_w", "pooler_b"
        )
    elif strategy == "mean":
        d_hidden += (d_pooled / d_hidden.shape[1])[:, None, :]
    else:  # max
        np.put_along_axis(d_hidden, pool_cache["idx"][:, None, :], d_pooled[:, None, :], axis=1)
    return d_hidden


# ---------------------------------------------------------------------------
# MLM head


def mlm_head_rows(params: dict[str, np.ndarray], rows: np.ndarray):
    """Log-probabilities over the vocabulary for a stack of hidden rows.

    head(h) = layer_norm(GELU(h @ W + b)), projected onto the tied token
    embeddings plus an output bias, then log-softmax; a row's bits do not
    depend on the other rows.  Returns ``(log_probs (M, V), cache)``.
    """
    t = _dense(rows, params["mlm_w"], params["mlm_b"])
    a, tanh_term = gelu(t)
    h, ln = layer_norm(a, params["mlm_ln_g"], params["mlm_ln_b"])
    logits = _dense(h, params["tok_emb"].T, params["mlm_out_b"])
    shifted = logits - logits.max(-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(-1, keepdims=True))
    return shifted - lse, {"rows": rows, "t": t, "tanh": tanh_term, "h": h, "ln": ln}


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
    grads["mlm_out_b"] += d_logits.sum(0)
    grads["tok_emb"] += d_logits.T @ cache["h"]
    da = _ln_backward(d_logits @ params["tok_emb"], cache["ln"], params, grads, "mlm_ln")
    dt = da * gelu_grad(cache["t"], cache["tanh"])
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


def pack(seqs: Sequence[Sequence[int]]):
    """One packed pass over id lists: ``(ids, shapes, starts)``.  The
    sequences run in groups of one length, shortest first and in input order
    within a length; ``shapes`` is each group's (B, L), ``ids`` every id in
    that order, back to back, and ``starts[i]`` the row of the pass at which
    sequence i starts.  ``forward(params, config, ids, shapes=shapes)`` runs
    the pass."""
    order = sorted(range(len(seqs)), key=lambda i: len(seqs[i]))
    lengths = [len(seqs[i]) for i in order]
    ids = np.fromiter(itertools.chain.from_iterable(seqs[i] for i in order),
                      dtype=np.int64, count=sum(lengths))
    starts = np.empty(len(seqs), dtype=np.int64)
    starts[order] = np.cumsum([0, *lengths])[:-1]
    return ids, [(len(list(g)), n) for n, g in itertools.groupby(lengths)], starts


def truncate(seqs: Sequence[Sequence[int]], max_len: int) -> list[Sequence[int]]:
    """Each id sequence cut to ``max_len - 2`` ids, which leaves room for its
    frame, with one warning that counts the sequences cut."""
    limit = max_len - 2
    cut = sum(len(s) > limit for s in seqs)
    if cut:
        warnings.warn(f"truncating {cut} sequence(s) longer than max_len-2 = {limit}", stacklevel=3)
    return [s[:limit] for s in seqs]


def group_views(x: np.ndarray, shapes: Sequence[tuple[int, int]]) -> list[np.ndarray]:
    """Each group's rows of a pass's (N, d) ``x``, its hidden states or their
    cotangent, as a (B, L, d) view, for :func:`pack`'s ``shapes``."""
    cuts = np.cumsum([b * length for b, length in shapes])[:-1]
    return [part.reshape(b, length, -1) for part, (b, length) in zip(np.split(x, cuts), shapes)]


# ---------------------------------------------------------------------------
# checkpoint I/O

CHECKPOINT_MAGIC = b"ULRM"
CHECKPOINT_VERSION = 1


def _tensor_directory(shapes: dict[str, tuple[int, ...]]) -> bytes:
    """The tensor count, then each sorted name's length, name, rank, dims and
    payload offset: the directory that :func:`save_checkpoint` writes and
    :func:`load_checkpoint` requires, byte for byte."""
    out = [struct.pack("<I", len(shapes))]
    offset = 0
    for name in sorted(shapes):
        nb, dims = name.encode("utf-8"), shapes[name]
        fmt = f"<I{len(nb)}sI{len(dims)}IQ"
        out.append(struct.pack(fmt, len(nb), nb, len(dims), *dims, offset))
        offset += 4 * math.prod(dims)
    return b"".join(out)


def save_checkpoint(
    params: dict[str, np.ndarray], config: EncoderConfig, path: str | Path
) -> None:
    """Write a versioned binary checkpoint (tensors as little-endian f32);
    params that are not the config's, or that hold a non-finite f32 value
    (which :func:`load_checkpoint` would reject), raise before the file is
    opened."""
    shapes = {name: p.shape for name, p in params.items()}
    if shapes != expected_shapes(config):
        raise CheckpointError("params do not match the config's tensor names and shapes")
    names = sorted(params)
    tensors = [np.ascontiguousarray(params[n], dtype="<f4") for n in names]
    bad = next((n for n, t in zip(names, tensors) if not np.isfinite(t).all()), None)
    if bad is not None:
        raise CheckpointError(f"non-finite weight in tensor {bad}")
    payload = b"".join(t.tobytes() for t in tensors)
    config_blob = json.dumps(asdict(config), sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(config_blob)))
        fh.write(config_blob)
        fh.write(_tensor_directory(shapes))
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)


def load_checkpoint(path: str | Path) -> Model:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Fails closed: every length field is checked against the bytes left
    in the file before it is used, the tensor directory must be the one
    the config implies, byte for byte, nothing may follow the payload,
    and a foreign, truncated, malformed or mismatched file, or one that
    holds a non-finite weight (training never writes one), raises
    :class:`CheckpointError`; no partial state is ever returned.
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
    shapes = expected_shapes(config)
    names = sorted(shapes)
    sizes = [math.prod(shapes[name]) for name in names]
    directory = _tensor_directory(shapes)
    if take(len(directory), "tensor directory") != directory:
        raise CheckpointError("checkpoint tensor directory does not match config")
    size = 4 * sum(sizes)
    if number("<Q", "payload length") != size:
        raise CheckpointError(f"checkpoint payload length is not the config's {size} bytes")
    flat = np.frombuffer(take(size, "tensor payload"), dtype="<f4")
    if pos != len(data):
        raise CheckpointError(f"{len(data) - pos} stray bytes after the checkpoint payload")
    chunks = np.split(flat.astype(np.float32), np.cumsum(sizes)[:-1])
    params = {name: c.reshape(shapes[name]) for name, c in zip(names, chunks)}
    if not np.isfinite(flat).all():
        bad = next(name for name in names if not np.isfinite(params[name]).all())
        raise CheckpointError(f"non-finite weight in tensor {bad}")
    return Model(params=params, config=config)
