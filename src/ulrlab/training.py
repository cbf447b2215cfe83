"""Joint compositional + masked-language-model training.

Each marked sequence S contributes two signals per step.  One annotated
span w is selected by scoring every candidate with the MLM head (mask
the span, average the true-token probabilities) and taking the lowest
score — the span the model currently explains worst.  The sequence is
then split into w and its remainder R, and the compositional loss pulls
the pooled embeddings toward E^w + E^R = E^S (all unit-normalized,
mean squared error).  In parallel, standard masked-token prediction
runs on S with positions inside w protected from masking, so the same
masked forward pass of S serves both losses.

Span scoring and selection happen in :func:`make_examples` and masking
in :func:`prepare_batch`; :func:`loss_and_gradients` is then a smooth,
deterministic function of the parameters, which is what makes
finite-difference verification of the analytic gradients meaningful.
Dropout follows the step tag: it runs exactly when a ``dropout_tag`` is
given.  The learning-rate schedule (Adam, linear warmup, then linear
decay) lives in :class:`TrainingConfig` alone; :class:`OptimizerState`
holds only what a resumed run needs, the Adam moments and the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import (
    CLS_ID, MASK_ID, NUM_SPECIALS, PAD_ID, SEP_ID, EncodedSequence, atomic_open, frame,
)
from .encoder import (
    POOLING_STRATEGIES,
    ConfigError,
    EncoderConfig,
    Model,
    backward,
    forward,
    mlm_head_rows,
    mlm_head_rows_backward,
    pad_batch,
    _pool_with_cache,
    pool_backward,
    step_rng,
    zero_grads,
)
from .ngram import NgramTable, Span, SpanAnnotation, mark_sequence

DEGENERATE_NORM_EPS = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainingExample:
    """One sequence's selected span and its framed model inputs.

    ``span`` is None for MLM-only examples (no annotated spans, or the
    only spans cover the whole sequence so the remainder would be
    empty); then ``w_ids`` and ``r_ids`` are None as well.
    """

    span: Span | None
    w_ids: tuple[int, ...] | None
    r_ids: tuple[int, ...] | None
    s_ids: tuple[int, ...]


@dataclass(frozen=True)
class LossReport:
    l_misad: float
    l_mlm: float
    l_total: float


def select_span(scores: Sequence[float]) -> int | None:
    """Index of the worst-explained span: argmin, first on ties.

    Scores arrive in span order (ascending start), so the first minimum
    is the leftmost.  Empty input signals an MLM-only example.
    """
    if len(scores) == 0:
        return None
    return int(np.argmin(np.asarray(scores)))


def split_sequence(s: EncodedSequence, span: Span):
    """Split S around a span into framed (w, R, S) inputs.

    R is the remainder concatenated in order with no placeholder at the
    removal point.  Returns None when R would be empty, demoting the
    example to MLM-only.
    """
    tokens = s.ids
    if not (1 <= span.start <= span.end <= len(tokens)):
        raise ValueError(f"span {span} outside sequence of length {len(tokens)}")
    w = tokens[span.start - 1 : span.end]
    r = tokens[: span.start - 1] + tokens[span.end :]
    if not r:
        return None
    return frame(w), frame(r), frame(tokens)


def _masked_variant(seq: EncodedSequence, span: Span) -> list[int]:
    ids = list(frame(seq.ids))
    for pos in range(span.start, span.end + 1):
        ids[pos] = MASK_ID
    return ids


def score_spans(
    pairs: Sequence[tuple[EncodedSequence, SpanAnnotation]], model: Model
) -> list[list[float]]:
    """Average true-token probability of every annotated span under the MLM head.

    Each span is masked on its own copy of its framed sequence, and the
    copies of the whole batch share one padded forward pass without
    dropout, whose last layer finishes only at the masked rows.  The
    score is the mean probability the head assigns to the true tokens;
    low scores mark spans the model does not yet treat as units.
    Returns one list per pair, in span order.
    """
    variants: list[list[int]] = []
    owned: list[tuple[EncodedSequence, Span]] = []
    for seq, ann in pairs:
        for span in ann.spans:
            if not (1 <= span.start <= span.end <= seq.m):
                raise ValueError(f"span {span} outside sequence of length {seq.m}")
            variants.append(_masked_variant(seq, span))
            owned.append((seq, span))
    if not variants:
        return [[] for _ in pairs]
    row_owner, cols, targets = [], [], []
    for vi, (seq, span) in enumerate(owned):
        for pos in range(span.start, span.end + 1):
            row_owner.append(vi)
            cols.append(pos)
            targets.append(seq.ids[pos - 1])
    ids, mask = pad_batch(variants)
    hidden = forward(model.params, model.config, ids, mask, rows=(row_owner, cols))
    log_probs, _ = mlm_head_rows(model.params, hidden)
    token_probs = np.exp(log_probs[np.arange(len(targets)), targets])
    sums = np.zeros(len(variants))
    np.add.at(sums, row_owner, token_probs)
    flat = iter(float(sums[vi] / span.length) for vi, (_, span) in enumerate(owned))
    return [[next(flat) for _ in ann.spans] for _, ann in pairs]


def make_examples(
    pairs: Sequence[tuple[EncodedSequence, SpanAnnotation]], model: Model
) -> list[TrainingExample]:
    """Score, select, and split a batch of annotated sequences."""
    examples = []
    for (seq, ann), scores in zip(pairs, score_spans(pairs, model)):
        idx = select_span(scores)
        split = None if idx is None else split_sequence(seq, ann.spans[idx])
        if split is None:
            examples.append(TrainingExample(None, None, None, frame(seq.ids)))
        else:
            examples.append(TrainingExample(ann.spans[idx], *split))
    return examples


# ---------------------------------------------------------------------------
# losses


def _misad_with_grads(e_w, e_r, e_s, weight: float):
    """MiSAD loss of (k, d) stacks and its gradient with respect to each
    raw stack, scaled by ``weight``.

    Rows are unit-normalized first; a near-zero row is rejected.
    Returns ``(loss, (d_e_w, d_e_r, d_e_s))``.
    """
    units, norms = [], []
    for e in (e_w, e_r, e_s):
        norm = np.linalg.norm(e, axis=-1, keepdims=True)
        if np.any(norm < DEGENERATE_NORM_EPS):
            raise ValueError("degenerate embedding")
        units.append(e / norm)
        norms.append(norm)
    uw, ur, us = units
    diff = uw + ur - us
    k, d = diff.shape
    loss = float(np.mean(np.mean(diff * diff, axis=-1)))
    d_diff = diff * (2.0 * weight / (k * d))
    grads = tuple(
        (du - u * (u * du).sum(-1, keepdims=True)) / norm
        for du, u, norm in zip((d_diff, d_diff, -d_diff), units, norms)
    )
    return loss, grads


def mlm_loss(log_probs: np.ndarray, targets) -> float:
    """Mean negative log-likelihood over masked positions; 0 if none."""
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size == 0:
        return 0.0
    picked = log_probs[np.arange(targets.size), targets]
    return float(-picked.mean())


def mask_for_mlm(
    ids: Sequence[int],
    span: Span | None,
    vocab_size: int,
    rng: np.random.Generator,
    mask_rate: float,
):
    """BERT-style masking that never touches the selected span.

    Candidates are real tokens only — delimiters, padding, and every
    position of ``span`` (framed coordinates equal the 1-based token
    positions) are excluded.  Each candidate is masked independently at
    ``mask_rate``; masked positions get [MASK] 80% of the time, a random
    non-special token 10%, and stay unchanged 10%.  Returns
    ``(masked_ids, positions, targets)``; labels exist only at masked
    positions.
    """
    masked = list(ids)
    protected = set()
    if span is not None:
        protected = set(range(span.start, span.end + 1))
    positions: list[int] = []
    targets: list[int] = []
    for pos, tok in enumerate(masked):
        if tok in (PAD_ID, CLS_ID, SEP_ID) or pos in protected:
            continue
        if rng.random() >= mask_rate:
            continue
        positions.append(pos)
        targets.append(tok)
        roll = rng.random()
        if roll < 0.8:
            masked[pos] = MASK_ID
        elif roll < 0.9:
            masked[pos] = int(rng.integers(NUM_SPECIALS, vocab_size))
        # else: keep the original token, but still predict it
    return masked, positions, targets


# ---------------------------------------------------------------------------
# batch preparation


@dataclass
class PreparedBatch:
    """Fixed model inputs for one step: masking and selection already done.

    ``loss_and_gradients`` consumes this; because all stochastic choices
    are frozen here, the loss is a smooth function of the parameters.
    """

    s_ids: np.ndarray
    s_mask: np.ndarray
    mlm_rows: np.ndarray
    mlm_cols: np.ndarray
    mlm_targets: np.ndarray
    misad_s_rows: np.ndarray
    w_ids: np.ndarray | None
    w_mask: np.ndarray | None
    r_ids: np.ndarray | None
    r_mask: np.ndarray | None

    @property
    def n_examples(self) -> int:
        return self.s_ids.shape[0]

    @property
    def n_masked(self) -> int:
        return int(self.mlm_targets.size)

    @property
    def n_misad(self) -> int:
        return int(self.misad_s_rows.size)


def prepare_batch(
    examples: Sequence[TrainingExample],
    vocab_size: int,
    rng: np.random.Generator,
    mask_rate: float,
) -> PreparedBatch:
    """Apply MLM masking and pad every input the step will need."""
    if not examples:
        raise ValueError("empty batch")
    s_seqs, w_seqs, r_seqs = [], [], []
    mlm_rows, mlm_cols, mlm_targets = [], [], []
    misad_s_rows = []
    for row, ex in enumerate(examples):
        masked, positions, targets = mask_for_mlm(
            ex.s_ids, ex.span, vocab_size, rng, mask_rate
        )
        s_seqs.append(masked)
        mlm_rows.extend([row] * len(positions))
        mlm_cols.extend(positions)
        mlm_targets.extend(targets)
        if ex.span is not None:
            misad_s_rows.append(row)
            w_seqs.append(ex.w_ids)
            r_seqs.append(ex.r_ids)
    s_ids, s_mask = pad_batch(s_seqs)
    if w_seqs:
        w_ids, w_mask = pad_batch(w_seqs)
        r_ids, r_mask = pad_batch(r_seqs)
    else:
        w_ids = w_mask = r_ids = r_mask = None
    return PreparedBatch(
        s_ids=s_ids,
        s_mask=s_mask,
        mlm_rows=np.asarray(mlm_rows, dtype=np.int64),
        mlm_cols=np.asarray(mlm_cols, dtype=np.int64),
        mlm_targets=np.asarray(mlm_targets, dtype=np.int64),
        misad_s_rows=np.asarray(misad_s_rows, dtype=np.int64),
        w_ids=w_ids,
        w_mask=w_mask,
        r_ids=r_ids,
        r_mask=r_mask,
    )


# ---------------------------------------------------------------------------
# loss + gradients


def loss_and_gradients(
    params: dict[str, np.ndarray],
    config: EncoderConfig,
    batch: PreparedBatch,
    train_config: TrainingConfig,
    *,
    dropout_tag: tuple[int, int] | None = None,
) -> tuple[LossReport, dict[str, np.ndarray]]:
    """Joint loss and its exact analytic gradient for every tensor.

    The masked forward pass of S feeds both losses: its hidden rows at
    masked positions go to the MLM head, and its pooled vector is E^S
    for the compositional term.  ``train_config`` gives the pooling for
    E^w, E^R and E^S and the two loss weights.  Dropout follows the tag:
    it runs exactly when ``dropout_tag=(seed, step)`` is given and
    ``config.dropout > 0``, and the tag fixes its streams.
    """
    pooling = train_config.pooling_for_misad
    misad_weight, mlm_weight = train_config.misad_weight, train_config.mlm_weight
    grads = zero_grads(params)

    def tag(name: str):
        return None if dropout_tag is None else (*dropout_tag, name)

    hidden_s, cache_s = forward(
        params, config, batch.s_ids, batch.s_mask, rng_tag=tag("s"), want_cache=True
    )
    d_hidden_s = np.zeros_like(hidden_s)

    l_mlm = 0.0
    if mlm_weight != 0.0 and batch.n_masked > 0:
        rows = hidden_s[batch.mlm_rows, batch.mlm_cols]
        log_probs, head_cache = mlm_head_rows(params, rows)
        l_mlm = mlm_loss(log_probs, batch.mlm_targets)
        d_logits = np.exp(log_probs)
        d_logits[np.arange(batch.n_masked), batch.mlm_targets] -= 1.0
        d_logits *= mlm_weight / batch.n_masked
        d_rows = mlm_head_rows_backward(head_cache, params, d_logits, grads)
        np.add.at(d_hidden_s, (batch.mlm_rows, batch.mlm_cols), d_rows)

    l_misad = 0.0
    if misad_weight != 0.0 and batch.n_misad > 0:
        hidden_w, cache_w = forward(
            params, config, batch.w_ids, batch.w_mask, rng_tag=tag("w"), want_cache=True
        )
        hidden_r, cache_r = forward(
            params, config, batch.r_ids, batch.r_mask, rng_tag=tag("r"), want_cache=True
        )
        sub = batch.misad_s_rows
        e_s, cache_ps = _pool_with_cache(hidden_s[sub], batch.s_mask[sub], pooling, params)
        e_w, cache_pw = _pool_with_cache(hidden_w, batch.w_mask, pooling, params)
        e_r, cache_pr = _pool_with_cache(hidden_r, batch.r_mask, pooling, params)
        l_misad, (de_w, de_r, de_s) = _misad_with_grads(e_w, e_r, e_s, misad_weight)
        # Pooler gradients accumulate w, r, then S; the order fixes their float sums.
        d_hw = pool_backward(de_w, cache_pw, hidden_w.shape, pooling, params, grads)
        d_hr = pool_backward(de_r, cache_pr, hidden_r.shape, pooling, params, grads)
        d_hidden_s[sub] += pool_backward(
            de_s, cache_ps, (len(sub), *hidden_s.shape[1:]), pooling, params, grads
        )
        backward(cache_w, params, config, d_hw, grads)
        backward(cache_r, params, config, d_hr, grads)

    backward(cache_s, params, config, d_hidden_s, grads)
    l_total = misad_weight * l_misad + mlm_weight * l_mlm
    return LossReport(l_misad=l_misad, l_mlm=l_mlm, l_total=l_total), grads


# ---------------------------------------------------------------------------
# schedule and optimizer


@dataclass
class TrainingConfig:
    """Loop hyperparameters and the learning-rate schedule, checked when
    built (architecture lives in EncoderConfig)."""

    total_steps: int
    batch_size: int = 64
    peak_lr: float = 5e-5
    warmup_fraction: float = 0.1
    mask_rate: float = 0.15
    pooling_for_misad: str = field(default="cls", metadata={"choices": POOLING_STRATEGIES})
    misad_weight: float = 1.0
    mlm_weight: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.total_steps < 1:
            raise ConfigError(f"total_steps ({self.total_steps}) must be >= 1")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigError(f"warmup_fraction ({self.warmup_fraction}) must be in [0, 1)")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size ({self.batch_size}) must be >= 1")
        if not 0.0 <= self.mask_rate <= 1.0:
            raise ConfigError(f"mask_rate ({self.mask_rate}) must be in [0, 1]")
        if self.pooling_for_misad not in POOLING_STRATEGIES:
            raise ConfigError(
                f"pooling_for_misad ({self.pooling_for_misad!r}) must be in {POOLING_STRATEGIES}"
            )
        if not (math.isfinite(self.peak_lr) and self.peak_lr > 0.0):
            raise ConfigError(f"peak_lr ({self.peak_lr}) must be finite and > 0")
        for name in ("misad_weight", "mlm_weight"):
            weight = getattr(self, name)
            if not (math.isfinite(weight) and weight >= 0.0):
                raise ConfigError(f"{name} ({weight}) must be finite and >= 0")


@dataclass
class OptimizerState:
    """Adam moments and the number of steps taken: all a resumed run needs."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int

    @classmethod
    def zeros(cls, params: dict[str, np.ndarray]) -> OptimizerState:
        return cls(zero_grads(params), zero_grads(params), 0)


def lr_at(step: int, config: TrainingConfig) -> float:
    """Linear warmup to the peak, then linear decay to 0 at total_steps."""
    total, peak = config.total_steps, config.peak_lr
    warm = int(total * config.warmup_fraction)
    if step > total:
        return 0.0
    if warm > 0 and step <= warm:
        return peak * step / warm
    if total == warm:
        return peak
    return peak * (total - step) / (total - warm)


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    config: TrainingConfig,
) -> float:
    """One in-place Adam update with bias correction; returns the lr used.

    Every gradient is checked before anything changes, so a non-finite
    value leaves parameters, moments and the step count untouched.
    """
    t = state.step + 1
    lr = lr_at(t, config)
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for name in params:
        if not np.all(np.isfinite(grads[name])):
            raise FloatingPointError(f"non-finite gradient for tensor {name}")
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    state.step = t
    return lr


# ---------------------------------------------------------------------------
# the loop


METRICS_HEADER = "step\tl_misad\tl_mlm\tl_total\tlr"


def train_step(
    examples: Sequence[TrainingExample],
    model: Model,
    state: OptimizerState,
    config: TrainingConfig,
) -> tuple[LossReport, float]:
    """One optimization step over pre-selected examples; returns the
    loss report and the learning rate the update used.

    Masking randomness and dropout streams are keyed by (seed, current
    step), so a rerun from the same state is bit-identical.
    """
    mask_gen = step_rng(config.seed, state.step, "mlm")
    batch = prepare_batch(examples, model.config.vocab_size, mask_gen, config.mask_rate)
    report, grads = loss_and_gradients(
        model.params, model.config, batch, config, dropout_tag=(config.seed, state.step)
    )
    return report, adam_step(model.params, grads, state, config)


class Trainer:
    """Epoch loop over a marked corpus with metric logging.

    Spans are annotated once (the table is static); span *selection* is
    re-scored each time an example is visited, since the model's
    judgment of which span it explains worst changes as it learns.
    """

    def __init__(
        self,
        model: Model,
        table: NgramTable,
        sequences: Sequence[EncodedSequence],
        config: TrainingConfig,
    ):
        limit = model.config.max_len - 2
        sequences = [
            s if s.m <= limit else EncodedSequence(ids=s.ids[:limit])
            for s in sequences
            if s.m > 0
        ]
        if not sequences:
            raise ValueError("empty corpus")
        self.model = model
        self.config = config
        self.pairs = [(s, mark_sequence(s, table)) for s in sequences]
        self.state = OptimizerState.zeros(model.params)
        self.metrics: list[tuple[int, float, float, float, float]] = []

    def run(self, metrics_path: str | Path | None = None) -> list[tuple]:
        cfg = self.config
        order_rng = np.random.Generator(np.random.PCG64(cfg.seed))
        n = len(self.pairs)
        while self.state.step < cfg.total_steps:
            perm = order_rng.permutation(n)
            for lo in range(0, n, cfg.batch_size):
                if self.state.step >= cfg.total_steps:
                    break
                idx = perm[lo : lo + cfg.batch_size]
                examples = make_examples([self.pairs[i] for i in idx], self.model)
                report, lr = train_step(examples, self.model, self.state, cfg)
                self.metrics.append(
                    (self.state.step, report.l_misad, report.l_mlm, report.l_total, lr)
                )
        if metrics_path is not None:
            write_metrics(self.metrics, metrics_path)
        return self.metrics


def write_metrics(rows: Sequence[tuple], path: str | Path) -> None:
    lines = [METRICS_HEADER]
    for step, l_misad, l_mlm, l_total, lr in rows:
        lines.append(f"{step}\t{l_misad:.9g}\t{l_mlm:.9g}\t{l_total:.9g}\t{lr:.9g}")
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")
