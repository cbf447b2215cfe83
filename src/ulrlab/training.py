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

Span scoring and selection happen in :func:`make_examples`, framing and
masking in :func:`prepare_batch`; :func:`loss_and_gradients` is then a smooth,
deterministic function of the parameters, which is what makes
finite-difference verification of the analytic gradients meaningful.
Dropout follows the step tag: it runs exactly when a ``dropout_tag`` is
given.  The learning-rate schedule (Adam, linear warmup, then linear
decay) lives in :class:`TrainingConfig` alone; :class:`OptimizerState`
holds the Adam moments and the step, and :meth:`Trainer.run` the batch order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import (
    CLS_ID, MASK_ID, NUM_SPECIALS, PAD_ID, SEP_ID, atomic_open, frame,
)
from .encoder import (
    POOLING_STRATEGIES,
    EncoderConfig,
    Model,
    backward,
    check_fields,
    forward,
    group_views,
    mlm_head_rows,
    mlm_head_rows_backward,
    pack,
    _pool_with_cache,
    pool_backward,
    step_rng,
    truncate,
    zero_grads,
)
from .ngram import NgramTable, SpanAnnotation, mark_sequence

DEGENERATE_NORM_EPS = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainingExample:
    """One sequence's unframed ids and its selected ``(start, end)`` span.

    ``span`` is None for an MLM-only example: standard masked-token
    prediction with nothing protected and no compositional term.  A span
    lies in ``1..len(tokens)`` and leaves a remainder.
    """

    tokens: tuple[int, ...]
    span: tuple[int, int] | None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        span, n = self.span, len(self.tokens)
        if span is not None and not 1 <= span[0] <= span[1] <= n:
            raise ValueError(f"span {span} outside sequence of length {n}")
        if span is not None and span[1] - span[0] + 1 == n:
            raise ValueError(f"span {span} covers the whole sequence, leaving no remainder")


@dataclass(frozen=True)
class LossReport:
    l_misad: float
    l_mlm: float
    l_total: float


def score_spans(
    pairs: Sequence[tuple[Sequence[int], SpanAnnotation]], model: Model
) -> list[list[float]]:
    """Average true-token probability of every annotated span under the MLM head.

    Each span is masked on its own copy of its framed sequence.  The
    copies run without dropout, as one packed forward (:func:`pack`) whose
    last layer finishes only at the masked rows, and one head call takes
    those rows, so a span's score depends on its own sequence alone.  The
    score is the mean probability the head assigns to the true tokens; low
    scores mark spans the model does not yet treat as units.  Returns one
    list per pair, in span order.
    """
    copies = []
    for seq, ann in pairs:
        if len(ann) and ann.spans[-1, 1] > len(seq):  # the spans are sorted
            raise ValueError(f"span {ann.spans[-1].tolist()} outside sequence of length {len(seq)}")
        copies.extend([frame(seq)] * len(ann))
    if not copies:
        return [[] for _ in pairs]
    ids, shapes, starts = pack(copies)
    spans = np.concatenate([ann.spans for _, ann in pairs])
    first = spans[:, 0]
    n = spans[:, 1] - first + 1
    # Copy v's masked rows of the pass: starts[v] + first[v], and the n[v] - 1 after it.
    at = np.repeat(starts + first - (np.cumsum(n) - n), n) + np.arange(n.sum())
    targets = ids[at]
    ids[at] = MASK_ID
    hidden = forward(model.params, model.config, ids, shapes=shapes, rows=at)
    log_probs, _ = mlm_head_rows(model.params, hidden)
    token_probs = np.exp(log_probs[np.arange(targets.size), targets])
    sums = np.bincount(np.repeat(np.arange(len(spans)), n), weights=token_probs)
    means = iter((sums / n).tolist())
    return [list(itertools.islice(means, len(ann))) for _, ann in pairs]


def make_examples(
    pairs: Sequence[tuple[Sequence[int], SpanAnnotation]], model: Model
) -> list[TrainingExample]:
    """Score each annotated sequence's spans and select the lowest score, the
    leftmost on ties.  A sequence with no span, or whose selected span covers
    all of it and so leaves no remainder R, becomes MLM-only."""
    examples = []
    for (seq, ann), scores in zip(pairs, score_spans(pairs, model)):
        span = tuple(ann.spans[scores.index(min(scores))].tolist()) if scores else None
        if span is not None and span[1] - span[0] + 1 == len(seq):
            span = None
        examples.append(TrainingExample(seq, span))
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
    span: tuple[int, int] | None,
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
        protected = set(range(span[0], span[1] + 1))
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

    s_ids: list[list[int]]
    mlm_rows: np.ndarray
    mlm_cols: np.ndarray
    mlm_targets: np.ndarray
    misad_s_rows: np.ndarray
    w_ids: list[tuple[int, ...]]
    r_ids: list[tuple[int, ...]]

    @property
    def n_examples(self) -> int:
        return len(self.s_ids)

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
    """Frame S, w and R, mask S for MLM, and collect, unpadded, every input the
    step needs: each example's masked S, which ``mlm_rows`` and ``mlm_cols``
    index, and the w and R of the ``misad_s_rows`` examples.  R is the
    remainder in order, with no placeholder where w was."""
    if not examples:
        raise ValueError("empty batch")
    s_seqs, w_seqs, r_seqs = [], [], []
    mlm_rows, mlm_cols, mlm_targets = [], [], []
    misad_s_rows = []
    for row, ex in enumerate(examples):
        masked, positions, targets = mask_for_mlm(
            frame(ex.tokens), ex.span, vocab_size, rng, mask_rate
        )
        s_seqs.append(masked)
        mlm_rows.extend([row] * len(positions))
        mlm_cols.extend(positions)
        mlm_targets.extend(targets)
        if ex.span is not None:
            misad_s_rows.append(row)
            first, last = ex.span[0] - 1, ex.span[1]
            w_seqs.append(frame(ex.tokens[first:last]))
            r_seqs.append(frame(ex.tokens[:first] + ex.tokens[last:]))
    return PreparedBatch(
        s_ids=s_seqs,
        mlm_rows=np.asarray(mlm_rows, dtype=np.int64),
        mlm_cols=np.asarray(mlm_cols, dtype=np.int64),
        mlm_targets=np.asarray(mlm_targets, dtype=np.int64),
        misad_s_rows=np.asarray(misad_s_rows, dtype=np.int64),
        w_ids=w_seqs,
        r_ids=r_seqs,
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

    S, and the w and R of the compositional term, run as one packed forward
    (:func:`pack`) and one backward.  The masked pass of S feeds both
    losses: its hidden rows at masked positions go to the MLM head, and its
    pooled vector is E^S for the compositional term.  ``train_config``
    gives the pooling for E^w, E^R and E^S and the two loss weights.
    Dropout follows the tag: it runs exactly when ``dropout_tag=(seed,
    step)`` is given and ``config.dropout > 0``, with the pass named
    ``swr``.
    """
    pooling = train_config.pooling_for_misad
    misad_weight, mlm_weight = train_config.misad_weight, train_config.mlm_weight
    use_misad = misad_weight != 0.0 and batch.n_misad > 0
    n, k = batch.n_examples, batch.n_misad
    # S, then w, then R: sequence i of the pass starts at row starts[i].
    seqs = batch.s_ids + batch.w_ids + batch.r_ids if use_misad else batch.s_ids
    ids, shapes, starts = pack(seqs)
    tag = None if dropout_tag is None else (*dropout_tag, "swr")
    hidden, cache = forward(params, config, ids, shapes=shapes, rng_tag=tag, want_cache=True)
    grads = zero_grads(params)
    d_hidden = np.zeros_like(hidden)

    l_mlm = 0.0
    if mlm_weight != 0.0 and batch.n_masked > 0:
        at = starts[batch.mlm_rows] + batch.mlm_cols
        log_probs, head_cache = mlm_head_rows(params, hidden[at])
        l_mlm = mlm_loss(log_probs, batch.mlm_targets)
        d_logits = np.exp(log_probs)
        d_logits[np.arange(batch.n_masked), batch.mlm_targets] -= 1.0
        d_logits *= mlm_weight / batch.n_masked
        d_hidden[at] += mlm_head_rows_backward(head_cache, params, d_logits, grads)  # no repeats

    l_misad = 0.0
    if use_misad:
        pooled = [_pool_with_cache(h, pooling, params) for h in group_views(hidden, shapes)]
        order = sorted(range(len(seqs)), key=starts.__getitem__)  # the sequences in pass order
        e = np.empty((len(seqs), config.d_model), dtype=hidden.dtype)
        e[order] = np.concatenate([p for p, _ in pooled])
        sub = batch.misad_s_rows
        l_misad, (de_w, de_r, de_s) = _misad_with_grads(
            e[n : n + k], e[n + k :], e[sub], misad_weight
        )
        d_e = np.zeros_like(e)
        d_e[sub], d_e[n : n + k], d_e[n + k :] = de_s, de_w, de_r
        d_groups = np.split(d_e[order], np.cumsum([b for b, _ in shapes])[:-1])
        for d_p, d_h, (_, pool_cache) in zip(d_groups, group_views(d_hidden, shapes), pooled):
            d_h += pool_backward(d_p, pool_cache, params, grads)
        del pooled
    del hidden
    backward(cache, params, config, d_hidden, grads)
    l_total = misad_weight * l_misad + mlm_weight * l_mlm
    return LossReport(l_misad=l_misad, l_mlm=l_mlm, l_total=l_total), grads


# ---------------------------------------------------------------------------
# schedule and optimizer


@dataclass
class TrainingConfig:
    """Loop hyperparameters and the learning-rate schedule, checked when
    built (:func:`check_fields`; architecture lives in EncoderConfig)."""

    total_steps: int = field(metadata={"ge": 1})
    batch_size: int = field(default=64, metadata={"ge": 1})
    peak_lr: float = field(default=5e-5, metadata={"gt": 0})
    warmup_fraction: float = field(default=0.1, metadata={"ge": 0, "lt": 1})
    mask_rate: float = field(default=0.15, metadata={"ge": 0, "le": 1})
    pooling_for_misad: str = field(default="cls", metadata={"choices": POOLING_STRATEGIES})
    misad_weight: float = field(default=1.0, metadata={"ge": 0})
    mlm_weight: float = field(default=1.0, metadata={"ge": 0})
    seed: int = field(default=0, metadata={"ge": 0})

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass
class OptimizerState:
    """Adam moments and the number of steps taken; a resume also needs the
    batch order.  ``m`` and ``v`` are 1-d, flat over the parameters in dict
    order."""

    m: np.ndarray
    v: np.ndarray
    step: int

    @classmethod
    def zeros(cls, params: dict[str, np.ndarray]) -> OptimizerState:
        size = sum(a.size for a in params.values())
        dtype = next(iter(params.values())).dtype if params else np.float64
        return cls(np.zeros(size, dtype=dtype), np.zeros(size, dtype=dtype), 0)


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
    """One Adam update with bias correction; returns the lr used.

    The update runs once over every tensor: the gradients and parameters
    are laid end to end in dict order, as the moments are, and each
    parameter's new values are then written into its own array in place.
    Every gradient is checked before anything changes, so a non-finite
    value leaves parameters, moments and the step count untouched.
    """
    t = state.step + 1
    lr = lr_at(t, config)
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    g = np.concatenate([grads[name].reshape(-1) for name in params])
    if not np.isfinite(g).all():
        bad = next(name for name in params if not np.isfinite(grads[name]).all())
        raise FloatingPointError(f"non-finite gradient for tensor {bad}")
    p = np.concatenate([a.reshape(-1) for a in params.values()])
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    g *= g
    v += (1.0 - ADAM_BETA2) * g
    p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    start = 0
    for a in params.values():
        a[...] = p[start : start + a.size].reshape(a.shape)
        start += a.size
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

    Spans are annotated once (the table is static) and kept, with the
    corpus, in flat read-only int32 arrays: sentence i is
    ``tokens[offsets[i]:offsets[i + 1]]`` and its span marks are the
    ``(start, end)`` rows ``spans[span_offsets[i]:span_offsets[i + 1]]``.
    :meth:`pairs_at` hands out one batch's pairs, marks as slices of ``spans``.
    Span *selection* is re-scored each time an example is visited, since
    the model's judgment of which span it explains worst changes as it
    learns.  Empty sequences are dropped, and those longer than
    ``max_len - 2`` are cut to that length, with one warning that counts them.
    """

    def __init__(
        self,
        model: Model,
        table: NgramTable,
        sequences: Sequence[Sequence[int]],
        config: TrainingConfig,
    ):
        sequences = [s for s in truncate(sequences, model.config.max_len) if s]
        if not sequences:
            raise ValueError("empty corpus")
        self.model = model
        self.config = config
        n_spans = []

        def bounds(seq):
            spans = mark_sequence(seq, table).spans
            n_spans.append(len(spans))
            return spans.ravel().tolist()

        marks = itertools.chain.from_iterable(map(bounds, sequences))
        self.spans = np.fromiter(marks, np.int32).reshape(-1, 2)
        self.span_offsets = np.cumsum([0, *n_spans])
        self.offsets = np.cumsum([0, *map(len, sequences)])
        ids = itertools.chain.from_iterable(sequences)
        self.tokens = np.fromiter(ids, np.int32, self.offsets[-1])
        self.tokens.flags.writeable = self.spans.flags.writeable = False
        self.state = OptimizerState.zeros(model.params)
        self.metrics: list[tuple[int, float, float, float, float]] = []

    def pairs_at(self, idx: Iterable[int]) -> list[tuple[tuple[int, ...], SpanAnnotation]]:
        """The ``(tokens, span marks)`` pair of each sentence in ``idx``, in order."""
        pairs = []
        for i in idx:
            tokens = self.tokens[self.offsets[i] : self.offsets[i + 1]].tolist()
            spans = self.spans[self.span_offsets[i] : self.span_offsets[i + 1]]
            pairs.append((tuple(tokens), SpanAnnotation(spans)))
        return pairs

    def run(self, metrics_path: str | Path | None = None) -> list[tuple]:
        cfg = self.config
        order_rng = np.random.Generator(np.random.PCG64(cfg.seed))
        order = np.empty(0, dtype=np.int64)  # the rest of the current epoch
        while self.state.step < cfg.total_steps:
            if not order.size:
                order = order_rng.permutation(self.offsets.size - 1)
            idx, order = order[: cfg.batch_size], order[cfg.batch_size :]
            examples = make_examples(self.pairs_at(idx), self.model)
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
