"""Joint training: span selection, losses, masking, Adam, and the loop."""

import functools
import itertools
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import misad_loss, table_of
from oracles import oracle_adam_step, oracle_score_spans, oracle_split

from ulrlab.corpus import CLS_ID, MASK_ID, NUM_SPECIALS, SEP_ID, frame
from ulrlab.encoder import (
    ConfigError,
    EncoderConfig,
    Model,
    forward,
    load_checkpoint,
    mlm_head_rows,
    save_checkpoint,
)
from ulrlab import training
from ulrlab.ngram import NgramTable, Span, SpanAnnotation, mark_sequence
from ulrlab.training import (
    METRICS_HEADER,
    LossReport,
    OptimizerState,
    Trainer,
    TrainingConfig,
    TrainingExample,
    adam_step,
    loss_and_gradients,
    lr_at,
    make_examples,
    mask_for_mlm,
    mlm_loss,
    prepare_batch,
    score_spans,
    step_rng,
    train_step,
    write_metrics,
)

CFG = EncoderConfig(
    vocab_size=50, d_model=16, n_heads=2, n_layers=2, d_ff=32, max_len=32,
    dropout=0.0, seed=3,
)


def objective(**loss) -> TrainingConfig:
    """A config carrying the loss settings ``loss_and_gradients`` reads."""
    return TrainingConfig(total_steps=1, **loss)


def uniform_model() -> Model:
    """Model whose MLM head is exactly uniform (transform zeroed)."""
    model = Model.init(CFG)
    model.params["mlm_w"] = np.zeros_like(model.params["mlm_w"])
    return model


class TestFrame:
    def test_adds_delimiters(self):
        assert frame((7, 8, 9)) == (CLS_ID, 7, 8, 9, SEP_ID)

    def test_empty_payload(self):
        assert frame(()) == (CLS_ID, SEP_ID)


class TestStepRng:
    def test_same_key_same_stream(self):
        a = step_rng(5, 2, "mlm").random(4)
        b = step_rng(5, 2, "mlm").random(4)
        assert np.array_equal(a, b)

    def test_streams_independent(self):
        base = step_rng(5, 2, "mlm").random(4)
        assert not np.array_equal(base, step_rng(5, 3, "mlm").random(4))
        assert not np.array_equal(base, step_rng(5, 2, "s").random(4))
        assert not np.array_equal(base, step_rng(6, 2, "mlm").random(4))


def selected(scores):
    """Index of the span :func:`make_examples` selects when the spans of a
    sequence score ``scores`` (one two-token span per score, None if it
    selects none)."""
    spans = tuple(Span(i, i + 1) for i in range(1, 2 * len(scores), 2))
    pair = (tuple(range(10, 11 + 2 * len(scores))), SpanAnnotation(spans=spans))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "score_spans", lambda pairs, model: [list(scores)])
        [ex] = make_examples([pair], None)
    return None if ex.span is None else spans.index(ex.span)


class TestSelectSpan:
    """The selection rule, as :func:`make_examples` applies it."""

    def test_picks_minimum(self):
        assert selected([0.3, 0.1, 0.2]) == 1

    def test_tie_goes_to_leftmost(self):
        assert selected([0.2, 0.1, 0.1]) == 1
        assert selected([0.5, 0.5, 0.5]) == 0

    def test_single_and_empty(self):
        assert selected([0.9]) == 0
        assert selected([]) is None

    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8))
    def test_invariant_under_monotone_transform(self, scores):
        # Scaling by a power of two is exact, so it keeps every order and tie.
        assert selected(scores) == selected([s * 4.0 for s in scores])


def unmasked(*examples):
    """``prepare_batch`` at mask rate 0: S, w and R as framed, unchanged."""
    return prepare_batch(examples, 50, np.random.default_rng(0), 0.0)


@st.composite
def split_examples(draw):
    """A training example of 1-12 tokens whose span, if any, is anywhere
    that leaves a remainder."""
    tokens = tuple(draw(st.lists(st.integers(NUM_SPECIALS, 49), min_size=1, max_size=12)))
    start = draw(st.integers(1, len(tokens)))
    end = draw(st.integers(start, len(tokens)))
    whole = end - start + 1 == len(tokens)
    return TrainingExample(tokens, None if whole or draw(st.booleans()) else Span(start, end))


class TestSplitSequence:
    """The (w, R, S) split: :class:`TrainingExample` checks the span and
    :func:`prepare_batch` frames the three inputs."""

    def test_middle_span(self):
        batch = unmasked(TrainingExample((10, 11, 12, 13, 14), Span(2, 3)))
        assert batch.w_ids == [frame((11, 12))]
        assert batch.r_ids == [frame((10, 13, 14))]
        assert batch.s_ids == [list(frame((10, 11, 12, 13, 14)))]

    def test_prefix_span(self):
        batch = unmasked(TrainingExample((10, 11, 12), Span(1, 2)))
        assert batch.w_ids == [frame((10, 11))]
        assert batch.r_ids == [frame((12,))]

    def test_whole_sequence_span_returns_none(self):
        # make_examples demotes the span; an example cannot hold it.
        [ex] = make_examples([one_pair((10, 11), Span(1, 2))], Model.init(CFG))
        assert ex == TrainingExample((10, 11), None)
        with pytest.raises(ValueError, match=r"span Span\(start=1, end=2\) covers the whole"):
            TrainingExample((10, 11), Span(1, 2))

    def test_out_of_range_rejected(self):
        for span in (Span(2, 3), Span(0, 1), Span(3, 3)):
            with pytest.raises(ValueError, match=rf"span {re.escape(str(span))} outside"):
                TrainingExample((10, 11), span)

    @given(
        st.lists(st.integers(5, 49), min_size=3, max_size=12),
        st.data(),
    )
    @settings(max_examples=50)
    def test_conserves_tokens(self, ids, data):
        start = data.draw(st.integers(1, len(ids) - 1))
        end = data.draw(st.integers(start + 1, len(ids)))
        if end - start + 1 == len(ids):
            with pytest.raises(ValueError, match="whole"):
                TrainingExample(ids, Span(start, end))
            return
        batch = unmasked(TrainingExample(ids, Span(start, end)))
        [w], [r], [full] = batch.w_ids, batch.r_ids, batch.s_ids
        # Strip frames; w tokens followed by r tokens is a permutation
        # (in fact a rotation-free reordering) of the original sequence.
        inner = lambda t: list(t[1:-1])
        assert sorted(inner(w) + inner(r)) == sorted(ids)
        assert inner(full) == ids
        assert inner(w) == ids[start - 1 : end]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(split_examples(), min_size=1, max_size=6))
    def test_unmasked_batch_equals_oracle_split(self, examples):
        batch = unmasked(*examples)
        splits = [oracle_split(ex.tokens, ex.span) for ex in examples if ex.span is not None]
        assert batch.n_masked == 0
        assert [tuple(s) for s in batch.s_ids] == [frame(ex.tokens) for ex in examples]
        assert batch.w_ids == [w for w, _, _ in splits]
        assert batch.r_ids == [r for _, r, _ in splits]
        assert [tuple(batch.s_ids[i]) for i in batch.misad_s_rows] == [s for _, _, s in splits]


class TestMisadLoss:
    def test_exact_composition_is_zero(self):
        # Unit vectors at 120 degrees sum to another unit vector.
        e_w = (1.0, 0.0)
        e_r = (-0.5, math.sqrt(3) / 2)
        e_s = (1.0, math.sqrt(3))  # normalizes to (1/2, sqrt(3)/2)
        assert misad_loss(e_w, e_r, e_s) < 1e-24

    def test_hand_value(self):
        # uw + ur = (1, 1), us = (0, 1): diff = (1, 0), mean square 1/2.
        assert misad_loss((1.0, 0.0), (0.0, 1.0), (0.0, 2.0)) == pytest.approx(0.5)

    def test_scale_invariance(self):
        base = misad_loss((1.0, 2.0), (3.0, -1.0), (2.0, 2.0))
        scaled = misad_loss((10.0, 20.0), (0.3, -0.1), (2e3, 2e3))
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(0)
        w, r, s = rng.normal(size=(3, 4))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        base = misad_loss(w, r, s)
        rotated = misad_loss(w @ q, r @ q, s @ q)
        assert rotated == pytest.approx(base, rel=1e-9)

    def test_batch_is_mean_of_rows(self):
        rng = np.random.default_rng(1)
        w, r, s = rng.normal(size=(3, 5, 8))
        per_row = [misad_loss(w[i], r[i], s[i]) for i in range(5)]
        assert misad_loss(w, r, s) == pytest.approx(np.mean(per_row), rel=1e-12)

    def test_degenerate_embedding_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            misad_loss((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))


class TestMlmLoss:
    def test_uniform_gives_log_vocab(self):
        log_probs = np.full((4, 50), math.log(1 / 50))
        assert mlm_loss(log_probs, [1, 2, 3, 4]) == pytest.approx(math.log(50))

    def test_two_position_hand_value(self):
        log_probs = np.log(np.array([[0.5, 0.25, 0.25], [0.1, 0.8, 0.1]]))
        want = -(math.log(0.5) + math.log(0.8)) / 2
        assert mlm_loss(log_probs, [0, 1]) == pytest.approx(want)

    def test_no_targets_is_zero(self):
        assert mlm_loss(np.zeros((0, 50)), []) == 0.0


def one_pair(ids, *spans):
    return ids, SpanAnnotation(spans=spans)


class TestScoreSpans:
    def test_uniform_head_scores_uniform(self):
        model = uniform_model()
        [scores] = score_spans([one_pair((10, 11, 12, 13), Span(1, 2), Span(3, 4))], model)
        np.testing.assert_allclose(scores, 1.0 / 50, rtol=1e-6)

    def test_matches_single_span_recount(self):
        model = Model.init(CFG)
        s, ann = one_pair((10, 11, 12, 13, 14), Span(2, 4))
        [[score]] = score_spans([(s, ann)], model)
        span = ann.spans[0]
        # Independent recount through the public forward surface.
        ids = list(frame(s))
        for pos in range(span.start, span.end + 1):
            ids[pos] = MASK_ID
        hidden = forward(model.params, model.config, np.array(ids), shapes=[(1, len(ids))])
        log_probs = mlm_head_rows(model.params, hidden)[0][None]
        probs = [
            math.exp(log_probs[0, pos, s[pos - 1]])
            for pos in range(span.start, span.end + 1)
        ]
        assert score == pytest.approx(np.mean(probs), rel=1e-6)

    def test_scores_are_probabilities(self):
        model = Model.init(CFG)
        pair = one_pair(tuple(range(10, 22)), Span(1, 2), Span(4, 6), Span(8, 12))
        [scores] = score_spans([pair], model)
        assert len(scores) == 3
        for v in scores:
            assert 0.0 < v <= 1.0

    def test_batch_matches_singletons(self):
        model = Model.init(CFG)
        pairs = [
            one_pair((10, 11, 12, 13, 14), Span(1, 2), Span(3, 5)),
            one_pair((20, 21)),
            one_pair((30, 31, 32), Span(2, 3)),
        ]
        singles = [score_spans([p], model)[0] for p in pairs]
        assert score_spans(pairs, model) == singles

    def test_empty_span_list(self):
        assert score_spans([one_pair((10,))], Model.init(CFG)) == [[]]
        assert score_spans([], Model.init(CFG)) == []

    def test_out_of_range_span_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            score_spans([one_pair((10, 11), Span(2, 3))], Model.init(CFG))

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("pooling", ["cls", "mean", "max"])
    def test_equals_full_forward_oracle(self, pooling, dropout):
        # Scoring uses neither pooling nor dropout; two training steps with
        # them give each case its own parameters.
        cfg = EncoderConfig(
            vocab_size=50, d_model=64, n_heads=2, n_layers=2, d_ff=128, max_len=32,
            dropout=dropout, seed=5,
        )
        model = Model.init(cfg)
        rng = np.random.default_rng(5)
        pairs = []
        for n in (3, 5, 8, 12, 14):
            ids = tuple(rng.integers(NUM_SPECIALS, 50, size=n).tolist())
            pairs.append(one_pair(ids, Span(1, 2), *([Span(4, min(n, 6))] if n >= 4 else [])))
        state = OptimizerState.zeros(model.params)
        config = TrainingConfig(total_steps=2, peak_lr=1e-2, pooling_for_misad=pooling, seed=5)
        for _ in range(2):
            train_step(make_examples(pairs, model), model, state, config)
        assert score_spans(pairs, model) == oracle_score_spans(pairs, model)


class TestMakeExamples:
    def test_uniform_scores_select_leftmost(self):
        model = uniform_model()
        [ex] = make_examples([one_pair((10, 11, 12, 13, 14), Span(1, 2), Span(4, 5))], model)
        assert ex == TrainingExample((10, 11, 12, 13, 14), Span(1, 2))

    def test_no_spans_gives_mlm_only(self):
        [ex] = make_examples([one_pair((10, 11))], Model.init(CFG))
        assert ex == TrainingExample((10, 11), None)

    def test_whole_sequence_span_demoted_to_mlm_only(self):
        [ex] = make_examples([one_pair((10, 11), Span(1, 2))], Model.init(CFG))
        assert ex == TrainingExample((10, 11), None)

    def test_batch_matches_singletons(self):
        model = Model.init(CFG)
        pairs = [
            ((10, 11, 12, 13), SpanAnnotation(spans=(Span(1, 2),))),
            ((20, 21, 22), SpanAnnotation(spans=(Span(2, 3),))),
            ((30, 31), SpanAnnotation(spans=())),
        ]
        batch = make_examples(pairs, model)
        singles = [make_examples([p], model)[0] for p in pairs]
        assert batch == singles


@functools.cache
def invariance_model(d_ff: int) -> Model:
    """d_model 64, with weights moved off their init so the head is far
    from uniform.  At ``d_ff`` 50 a plain product gives a row other bits
    at other heights."""
    cfg = EncoderConfig(vocab_size=50, d_model=64, n_heads=2, n_layers=2, d_ff=d_ff,
                        max_len=32, seed=6)
    model = Model.init(cfg)
    rng = np.random.default_rng(6)
    for p in model.params.values():
        p += rng.normal(0.0, 0.05, p.shape).astype(np.float32)
    return model


@st.composite
def annotated_pairs(draw):
    """A sequence of 2-14 tokens with disjoint ascending spans of 2-4
    tokens, as ``mark_sequence`` emits them."""
    ids = tuple(draw(st.lists(st.integers(NUM_SPECIALS, 49), min_size=2, max_size=14)))
    spans, start = [], 1
    while True:
        start += draw(st.integers(0, 2))
        end = start + draw(st.integers(1, 3))
        if end > len(ids) or not draw(st.booleans()):
            return ids, SpanAnnotation(spans=tuple(spans))
        spans.append(Span(start, end))
        start = end + 1


class TestBatchInvariance:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_alone_in_a_batch_and_permuted_agree_exactly(self, data):
        model = invariance_model(data.draw(st.sampled_from([128, 50])))
        pairs = data.draw(st.lists(annotated_pairs(), min_size=1, max_size=6))
        perm = data.draw(st.permutations(range(len(pairs))))
        permuted = [pairs[i] for i in perm]
        scores, scores_permuted = score_spans(pairs, model), score_spans(permuted, model)
        examples = make_examples(pairs, model)
        examples_permuted = make_examples(permuted, model)
        for i, pair in enumerate(pairs):
            alone = score_spans([pair], model)[0]
            assert scores[i] == alone == scores_permuted[perm.index(i)]
            [example] = make_examples([pair], model)
            assert examples[i] == example == examples_permuted[perm.index(i)]


class TestMaskForMlm:
    def test_span_and_specials_never_touched(self):
        ids = frame(tuple(range(10, 30)))
        span = Span(3, 6)
        for trial in range(50):
            rng = np.random.default_rng(trial)
            masked, positions, targets = mask_for_mlm(ids, span, 50, rng, 0.9)
            assert masked[0] == CLS_ID and masked[-1] == SEP_ID
            for pos in range(span.start, span.end + 1):
                assert masked[pos] == ids[pos]
                assert pos not in positions
            for pos, tgt in zip(positions, targets):
                assert tgt == ids[pos]

    def test_rate_zero_masks_nothing(self):
        ids = frame(tuple(range(10, 30)))
        masked, positions, targets = mask_for_mlm(
            ids, None, 50, np.random.default_rng(0), 0.0
        )
        assert masked == list(ids) and positions == [] and targets == []

    def test_replacements_are_mask_or_random_or_kept(self):
        ids = frame(tuple(range(10, 40)))
        rng = np.random.default_rng(7)
        n_mask = n_rand = n_keep = 0
        for _ in range(200):
            masked, positions, _ = mask_for_mlm(ids, None, 50, rng, 0.3)
            for pos in positions:
                if masked[pos] == MASK_ID:
                    n_mask += 1
                elif masked[pos] == ids[pos]:
                    n_keep += 1
                else:
                    assert NUM_SPECIALS <= masked[pos] < 50
                    n_rand += 1
        total = n_mask + n_rand + n_keep
        # 80/10/10 split within 4 sigma of the binomial expectation.
        assert abs(n_mask / total - 0.8) < 4 * math.sqrt(0.8 * 0.2 / total)
        assert abs(n_rand / total - 0.1) < 4 * math.sqrt(0.1 * 0.9 / total)

    def test_masking_rate_statistics(self):
        ids = frame(tuple(range(10, 40)))  # 30 candidates
        rng = np.random.default_rng(11)
        draws = 2000
        hits = sum(len(mask_for_mlm(ids, None, 50, rng, 0.15)[1]) for _ in range(draws))
        n = draws * 30
        assert abs(hits / n - 0.15) < 4 * math.sqrt(0.15 * 0.85 / n)


class TestPrepareBatch:
    def make_batch(self, mask_rate=0.5):
        model = uniform_model()
        pairs = [
            ((10, 11, 12, 13), SpanAnnotation(spans=(Span(1, 2),))),
            ((20, 21, 22), SpanAnnotation(spans=())),
        ]
        examples = make_examples(pairs, model)
        rng = np.random.default_rng(0)
        return prepare_batch(examples, 50, rng, mask_rate), examples

    def test_shapes_and_indices(self):
        batch, examples = self.make_batch()
        assert batch.n_examples == 2
        assert [len(s) for s in batch.s_ids] == [len(ex.tokens) + 2 for ex in examples]
        assert len(batch.s_ids) == 2
        assert batch.misad_s_rows.tolist() == [0]
        assert len(batch.w_ids) == 1 and len(batch.r_ids) == 1
        assert batch.mlm_rows.shape == batch.mlm_cols.shape == batch.mlm_targets.shape

    def test_span_positions_never_masked(self):
        batch, examples = self.make_batch(mask_rate=1.0)
        span = examples[0].span
        masked_cols = batch.mlm_cols[batch.mlm_rows == 0]
        for pos in range(span.start, span.end + 1):
            assert pos not in masked_cols

    def test_mlm_only_batch_has_no_composition_inputs(self):
        model = uniform_model()
        examples = make_examples(
            [((10, 11), SpanAnnotation(spans=()))], model
        )
        batch = prepare_batch(examples, 50, np.random.default_rng(0), 0.5)
        assert batch.n_misad == 0 and batch.w_ids == [] and batch.r_ids == []

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            prepare_batch([], 50, np.random.default_rng(0), 0.15)


class TestLossAndGradients:
    def test_weights_scale_total(self):
        model = Model.init(CFG)
        batch, _ = TestPrepareBatch().make_batch()
        r1, _ = loss_and_gradients(
            model.params, CFG, batch, objective(misad_weight=1.0, mlm_weight=1.0)
        )
        r2, _ = loss_and_gradients(
            model.params, CFG, batch, objective(misad_weight=2.0, mlm_weight=0.5)
        )
        assert r1.l_misad == pytest.approx(r2.l_misad)
        assert r1.l_mlm == pytest.approx(r2.l_mlm)
        assert r2.l_total == pytest.approx(2.0 * r2.l_misad + 0.5 * r2.l_mlm)

    def test_mlm_only_batch_has_zero_misad(self):
        model = Model.init(CFG)
        examples = make_examples(
            [((10, 11, 12), SpanAnnotation(spans=()))], model
        )
        batch = prepare_batch(examples, 50, np.random.default_rng(0), 0.5)
        report, grads = loss_and_gradients(model.params, CFG, batch, objective())
        assert report.l_misad == 0.0
        assert report.l_total == pytest.approx(report.l_mlm)
        assert set(grads) == set(model.params)

    def test_uniform_head_mlm_loss_is_log_vocab(self):
        model = uniform_model()
        batch, _ = TestPrepareBatch().make_batch()
        report, _ = loss_and_gradients(model.params, CFG, batch, objective(misad_weight=0.0))
        assert report.l_mlm == pytest.approx(math.log(50), rel=1e-6)

    @pytest.mark.parametrize("pooling", ["cls", "mean", "max"])
    def test_gradients_nonzero_every_tensor(self, pooling):
        model = Model.init(CFG)
        batch, _ = TestPrepareBatch().make_batch()
        _, grads = loss_and_gradients(
            model.params, CFG, batch, objective(pooling_for_misad=pooling)
        )
        for name, g in grads.items():
            assert np.all(np.isfinite(g)), name
            if pooling != "cls" and name.startswith("pooler"):
                # mean/max pooling bypasses the tanh pooler entirely.
                assert np.abs(g).sum() == 0, name
                continue
            assert np.abs(g).sum() > 0, name

    def test_every_forward_draws_its_own_dropout_streams(self, monkeypatch):
        # S spans lengths 6 and 7, w lengths 4 and 5, R lengths 4 and 5: one
        # packed pass, whose every site draws one mask over all its rows.
        pairs = [
            one_pair((10, 11, 12, 13), Span(1, 2)),
            one_pair((20, 21, 22, 23, 24), Span(2, 4)),
            one_pair((30, 31, 32, 33, 34), Span(1, 2)),
        ]
        batch = prepare_batch(make_examples(pairs, Model.init(CFG)), 50,
                              np.random.default_rng(0), 0.3)
        calls = []
        real_forward = training.forward

        def recording_forward(params, config, ids, **kwargs):
            hidden, cache = real_forward(params, config, ids, **kwargs)
            calls.append((kwargs["rng_tag"], kwargs["shapes"], hidden.shape, cache["dropout"]))
            return hidden, cache

        monkeypatch.setattr(training, "forward", recording_forward)
        loss_and_gradients(Model.init(CFG).params, replace(CFG, dropout=0.3), batch,
                           objective(), dropout_tag=(5, 2))
        [(tag, shapes, hidden_shape, masks)] = calls
        assert tag == (5, 2, "swr")
        assert sorted(length for _, length in shapes) == [4, 5, 6, 7]
        sites = ("attn_probs", "attn_out", "ff_out")
        assert set(masks) == {"emb"} | {f"layer{i}.{s}" for i in range(2) for s in sites}
        n_probs = sum(b * length * length for b, length in shapes) * CFG.n_heads
        for site, mask in masks.items():
            assert mask.shape == ((n_probs,) if site.endswith("attn_probs") else hidden_shape)
        for a, b in itertools.combinations(masks.values(), 2):
            assert a.shape != b.shape or not np.array_equal(a, b)

    @pytest.mark.parametrize("pooling, dropout", [
        pytest.param(pooling, dropout, id=pooling + ("" if dropout == 0 else f"-dropout{dropout}"))
        for dropout in (0.0, 0.3) for pooling in ("mean", "max")
    ])
    def test_matches_finite_differences(self, pooling, dropout):
        """The gradient suite in the acceptance tests covers cls pooling;
        this covers the strategies that bypass the tanh pooler, and the
        dropout backward with the masks fixed by one tag."""
        config = replace(CFG, dropout=dropout)
        dropout_tag = (5, 2) if dropout else None
        params = {k: v.astype(np.float64) for k, v in Model.init(CFG).params.items()}
        rng = np.random.default_rng(21)
        pairs = [
            one_pair((10, 11, 12, 13, 14), Span(1, 2)),
            one_pair((20, 21, 22, 23, 24, 25), Span(3, 5)),
            one_pair((30, 31, 32, 33, 34, 35, 36), Span(4, 6)),
            one_pair((40, 41, 42)),
        ]
        examples = make_examples(pairs, Model(params, CFG))
        batch = prepare_batch(examples, CFG.vocab_size, rng, mask_rate=0.3)
        assert batch.n_masked > 0 and batch.n_misad == 3

        train_config = objective(pooling_for_misad=pooling, misad_weight=2.0)

        def loss(p):
            report, _ = loss_and_gradients(p, config, batch, train_config, dropout_tag=dropout_tag)
            return report

        _, grads = loss_and_gradients(params, config, batch, train_config, dropout_tag=dropout_tag)
        eps = 1e-5
        for name in params:
            flat = params[name].ravel()
            for idx in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                old = flat[idx]
                flat[idx] = old + eps
                up = loss(params)
                flat[idx] = old - eps
                down = loss(params)
                flat[idx] = old
                fd = (up.l_total - down.l_total) / (2 * eps)
                np.testing.assert_allclose(
                    grads[name].ravel()[idx], fd, rtol=1e-4, atol=1e-7,
                    err_msg=f"{pooling}, dropout {dropout}: tensor {name}, entry {idx}",
                )


def schedule(total, frac=0.1, peak=5e-5, **loop) -> TrainingConfig:
    return TrainingConfig(total_steps=total, peak_lr=peak, warmup_fraction=frac, **loop)


class TestLrSchedule:
    def test_warmup_then_decay(self):
        config = schedule(100, 0.1, peak=5e-5)
        assert lr_at(0, config) == 0.0
        assert lr_at(5, config) == pytest.approx(2.5e-5)
        assert lr_at(10, config) == pytest.approx(5e-5)  # warmup boundary
        assert lr_at(55, config) == pytest.approx(2.5e-5)  # halfway down
        assert lr_at(100, config) == 0.0
        assert lr_at(101, config) == 0.0

    def test_no_warmup_starts_below_peak_and_decays(self):
        config = schedule(5, 0.0, peak=1.0)
        assert lr_at(1, config) == pytest.approx(0.8)
        assert lr_at(5, config) == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="total_steps"):
            TrainingConfig(total_steps=0)
        with pytest.raises(ValueError, match="warmup_fraction"):
            schedule(10, 1.0)


class TestTrainingConfig:
    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("batch_size", -1), ("mask_rate", -0.1), ("mask_rate", 1.5),
        ("pooling_for_misad", "foo"), ("peak_lr", 0.0), ("peak_lr", -1.0),
        ("peak_lr", math.nan), ("peak_lr", math.inf), ("misad_weight", -0.5),
        ("misad_weight", math.nan), ("mlm_weight", -1.0), ("mlm_weight", math.inf),
    ])
    def test_rejects_bad_loop_values(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainingConfig(total_steps=10, **{field: value})

    def test_accepts_edge_values(self):
        for pooling in ("cls", "mean", "max"):
            TrainingConfig(total_steps=1, batch_size=1, mask_rate=0.0, pooling_for_misad=pooling)
        TrainingConfig(total_steps=1, mask_rate=1.0)


class TestAdamStep:
    def test_zero_gradient_leaves_params(self):
        params = {"w": np.array([1.5, -2.0])}
        state = OptimizerState.zeros(params)
        lr = adam_step(params, {"w": np.zeros(2)}, state, schedule(10, 0.0, peak=0.1))
        assert state.step == 1
        assert lr == pytest.approx(0.09)
        np.testing.assert_array_equal(params["w"], [1.5, -2.0])

    def test_first_step_closed_form(self):
        # With bias correction the first update is lr * g / (|g| + eps').
        params = {"w": np.array([1.0])}
        state = OptimizerState.zeros(params)
        config = schedule(2, 0.5, peak=0.25)
        assert lr_at(1, config) == 0.25  # one warmup step ends at the peak
        adam_step(params, {"w": np.array([3.0])}, state, config)
        expected = 1.0 - 0.25 * 3.0 / (3.0 + 1e-8)
        np.testing.assert_allclose(params["w"], [expected], rtol=1e-12)

    def test_nonfinite_gradient_names_tensor(self):
        params = {"w": np.zeros(2), "b": np.zeros(2)}
        state = OptimizerState.zeros(params)
        grads = {"w": np.zeros(2), "b": np.array([0.0, np.nan])}
        with pytest.raises(FloatingPointError, match="tensor b"):
            adam_step(params, grads, state, schedule(10))

    def test_nonfinite_last_gradient_leaves_state_untouched(self):
        params = {"a": np.array([1.0, 2.0]), "b": np.array([3.0])}
        state = OptimizerState.zeros(params)
        config = schedule(10, 0.0, peak=0.1)
        adam_step(params, {"a": np.array([0.5, -0.5]), "b": np.array([1.0])}, state, config)
        before = {k: v.copy() for k, v in params.items()}
        m_before, v_before = state.m.copy(), state.v.copy()
        grads = {"a": np.array([1.0, 1.0]), "b": np.array([np.nan])}
        with pytest.raises(FloatingPointError, match="tensor b"):
            adam_step(params, grads, state, config)
        assert state.step == 1
        for name in params:
            assert np.array_equal(params[name], before[name]), name
        assert np.array_equal(state.m, m_before)
        assert np.array_equal(state.v, v_before)

    @staticmethod
    def assert_matches_oracle(params, grads_per_step, config):
        """``adam_step`` on ``params`` against :func:`oracle_adam_step` on a
        copy: parameters and the flat moments agree bit for bit every step."""
        oracle = {k: p.copy() for k, p in params.items()}
        m, v = ({k: np.zeros_like(p) for k, p in params.items()} for _ in "mv")
        state = OptimizerState.zeros(params)
        for step, grads in enumerate(grads_per_step, 1):
            lr = adam_step(params, grads, state, config)
            oracle_adam_step(oracle, grads, m, v, step, lr)
            for name in params:
                assert params[name].tobytes() == oracle[name].tobytes(), name
            for flat, per_tensor in ((state.m, m), (state.v, v)):
                assert flat.shape == (sum(p.size for p in params.values()),)
                assert flat.tobytes() == b"".join(per_tensor[k].tobytes() for k in params)

    def test_matches_the_per_tensor_update_bit_for_bit(self):
        # One pass over the tensors laid end to end does the per-tensor
        # update's float operations in the same order, so every bit agrees.
        params = Model.init(CFG).params
        rng = np.random.default_rng(3)
        grads_per_step = [
            {k: rng.normal(0.0, 1.0, p.shape).astype(np.float32) for k, p in params.items()}
            for _ in range(4)
        ]
        self.assert_matches_oracle(params, grads_per_step, schedule(10, 0.2, peak=0.01))

    @settings(max_examples=40, deadline=None)
    @given(
        shapes=st.lists(st.lists(st.integers(0, 4), max_size=3).map(tuple),
                        min_size=1, max_size=5),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shapes=[(3, 2), (0,), (4,)], dtype=np.float32, seed=0)
    @example(shapes=[(0, 2), ()], dtype=np.float64, seed=1)
    def test_matches_the_oracle_on_any_shapes(self, shapes, dtype, seed):
        rng = np.random.default_rng(seed)
        params = {f"t{i}": rng.normal(size=shape).astype(dtype) for i, shape in enumerate(shapes)}
        grads_per_step = [
            {k: rng.normal(size=p.shape).astype(dtype) for k, p in params.items()}
            for _ in range(3)
        ]
        self.assert_matches_oracle(params, grads_per_step, schedule(10, 0.2, peak=0.01))

    def test_params_that_share_no_buffer_are_updated_in_their_dict(self):
        params = {"a": np.array([1.0, 2.0]), "b": np.array([[3.0]])}
        held = dict(params)
        state = OptimizerState.zeros(params)
        adam_step(params, {"a": np.array([1.0, -1.0]), "b": np.array([[1.0]])}, state,
                  schedule(10, 0.0, peak=0.1))
        # The caller's own arrays take the update; none is swapped out.
        assert all(params[name] is held[name] for name in held)
        assert params["b"].shape == (1, 1)
        np.testing.assert_allclose(held["a"], [0.91, 2.09])
        np.testing.assert_allclose(held["b"], [[2.91]])

    def test_descends_on_quadratic(self):
        params = {"w": np.array([5.0])}
        state = OptimizerState.zeros(params)
        config = schedule(200, 0.0, peak=0.1)
        for _ in range(200):
            adam_step(params, {"w": 2.0 * params["w"]}, state, config)
        assert abs(params["w"][0]) < 1.0


def toy_table() -> NgramTable:
    """Table marking (10, 11) as a unit."""
    return table_of({(10, 11): (5, 1.0)}, n_max=2)


class TestTrainStep:
    def test_returns_report_and_advances(self):
        model = Model.init(CFG)
        state = OptimizerState.zeros(model.params)
        examples = make_examples(
            [
                ((10, 11, 12, 13), SpanAnnotation(spans=(Span(1, 2),))),
            ],
            model,
        )
        before = {k: v.copy() for k, v in model.params.items()}
        report, _ = train_step(examples, model, state, schedule(10, 0.0, peak=1e-3))
        assert isinstance(report, LossReport)
        assert state.step == 1
        changed = any(not np.array_equal(before[k], model.params[k]) for k in before)
        assert changed

    @pytest.mark.parametrize("peak", [1e-3, 4e-3])
    def test_follows_the_config_schedule(self, peak):
        # Adam's first step moves a weight by lr * |g| / (|g| + eps): at most
        # the lr, and within 1% of it for any gradient above 100 * eps.
        model = Model.init(CFG)
        examples = make_examples(
            [((10, 11, 12, 13), SpanAnnotation(spans=(Span(1, 2),)))], model
        )
        before = {k: v.copy() for k, v in model.params.items()}
        config = schedule(10, 0.0, peak=peak)
        _, lr = train_step(examples, model, OptimizerState.zeros(model.params), config)
        assert lr == lr_at(1, config) == pytest.approx(0.9 * peak)
        largest = max(float(np.max(np.abs(model.params[k] - before[k]))) for k in before)
        assert 0.99 * lr < largest <= lr * (1 + 1e-6)

    def test_mlm_only_examples_report_zero_misad(self):
        model = Model.init(CFG)
        state = OptimizerState.zeros(model.params)
        examples = make_examples(
            [((10, 11, 12), SpanAnnotation(spans=()))], model
        )
        report, _ = train_step(examples, model, state, schedule(10, 0.0, peak=1e-3))
        assert report.l_misad == 0.0

    def test_rerun_is_bit_identical(self):
        def run():
            model = Model.init(CFG)
            state = OptimizerState.zeros(model.params)
            pairs = [
                ((10, 11, 12, 13), SpanAnnotation(spans=(Span(1, 2),))),
                ((14, 15, 16), SpanAnnotation(spans=(Span(2, 3),))),
            ]
            reports = []
            for _ in range(5):
                examples = make_examples(pairs, model)
                reports.append(
                    train_step(examples, model, state, schedule(5, 0.0, peak=1e-3, seed=123))
                )
            return model.params, reports

        params_a, reports_a = run()
        params_b, reports_b = run()
        assert reports_a == reports_b
        for name in params_a:
            assert np.array_equal(params_a[name], params_b[name]), name


class TestPassesPerStep:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(annotated_pairs(), min_size=1, max_size=8))
    def test_a_step_makes_two_forwards_and_one_backward(self, pairs):
        # Whatever the mix of lengths: one packed pass scores every span,
        # and one pass with one backward serves S, w and R.
        pairs = [((10, 11, 12, 13), SpanAnnotation(spans=(Span(1, 2),)))] + pairs
        model = Model.init(CFG)
        calls = []

        def counted(name, fn):
            return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            for name in ("forward", "backward"):
                mp.setattr(training, name, counted(name, getattr(training, name)))
            examples = make_examples(pairs, model)
            train_step(examples, model, OptimizerState.zeros(model.params), schedule(10))
        assert sorted(calls) == ["backward", "forward", "forward"]


class TestTrainer:
    def make_corpus(self, n=24):
        rng = np.random.default_rng(0)
        seqs = []
        for _ in range(n):
            body = [10, 11] + list(rng.integers(12, 30, size=rng.integers(2, 5)))
            seqs.append(tuple(body))
        return seqs

    def test_loss_decreases_on_tiny_corpus(self):
        model = Model.init(CFG)
        trainer = Trainer(
            model,
            toy_table(),
            self.make_corpus(),
            TrainingConfig(
                total_steps=30, batch_size=8, peak_lr=3e-3,
                warmup_fraction=0.1, seed=0,
            ),
        )
        metrics = trainer.run()
        assert len(metrics) == 30
        assert [row[0] for row in metrics] == list(range(1, 31))
        first = np.mean([row[3] for row in metrics[:5]])
        last = np.mean([row[3] for row in metrics[-5:]])
        assert last < first

    def test_batches_are_slices_of_successive_permutations(self, monkeypatch):
        import ulrlab.training as training

        seqs = [(10 + i, 11, 12 + i) for i in range(10)]
        trainer = Trainer(
            Model.init(CFG), toy_table(), seqs,
            TrainingConfig(total_steps=7, batch_size=4, seed=4),
        )
        position = {seq: i for i, (seq, _) in enumerate(trainer.pairs_at(range(10)))}
        batches = []
        real = training.make_examples

        def recording(pairs, model):
            batches.append([position[seq] for seq, _ in pairs])
            return real(pairs, model)

        monkeypatch.setattr(training, "make_examples", recording)
        trainer.run()
        order_rng = np.random.Generator(np.random.PCG64(4))
        epochs = [order_rng.permutation(10).tolist() for _ in range(3)]
        assert batches == [
            epochs[0][:4], epochs[0][4:8], epochs[0][8:],
            epochs[1][:4], epochs[1][4:8], epochs[1][8:],
            epochs[2][:4],
        ]

    def test_truncates_overlong_sequences(self):
        long_seq = tuple(range(10, 10 + CFG.max_len + 10))
        limit = CFG.max_len - 2
        with pytest.warns(UserWarning, match=rf"truncating 2 sequence\(s\) .* = {limit}$"):
            trainer = Trainer(
                Model.init(CFG), toy_table(), [long_seq, long_seq[:limit], long_seq[1:]],
                TrainingConfig(total_steps=1, batch_size=4),
            )
        assert [len(seq) for seq, _ann in trainer.pairs_at(range(3))] == [limit] * 3

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_pairs_at_gives_each_sentence_and_its_span_marks(self, data):
        limit = CFG.max_len - 2
        grams = data.draw(st.lists(st.lists(st.integers(10, 14), min_size=2, max_size=4).map(tuple),
                                   unique=True, max_size=6))
        table = table_of({gram: (1, 0.0) for gram in grams}, n_max=4)
        seqs = data.draw(st.lists(st.lists(st.integers(NUM_SPECIALS, 20), max_size=limit + 6)
                                  .map(tuple), max_size=10))
        # One sentence that no table can mark, one cut to max_len - 2.
        seqs += [(15, 16, 17), (10, 11, 12) * limit]
        kept = [seq[:limit] for seq in seqs if seq]
        with pytest.warns(UserWarning, match="truncating"):
            trainer = Trainer(Model.init(CFG), table, seqs, TrainingConfig(total_steps=1))
        for i, seq in enumerate(kept):
            assert trainer.pairs_at([i]) == [(seq, mark_sequence(seq, table))]
        order = data.draw(st.permutations(range(len(kept))))
        assert trainer.pairs_at(np.array(order)) == [(kept[i], mark_sequence(kept[i], table))
                                                     for i in order]

    def test_holds_the_corpus_in_a_few_bytes_per_sentence(self):
        # Unit-language sentences: 2-4 distinct two-token units, each unit a
        # table entry.  A tuple and span objects per sentence take about 400 bytes.
        units = [(u, u + 1) for u in range(10, 50, 2)]
        rng = np.random.default_rng(7)
        n = 20_000
        counts = rng.integers(2, 5, size=n)
        picks = np.argsort(rng.random((n, len(units))), axis=1)
        seqs = [sum((units[u] for u in picks[i, : counts[i]].tolist()), ()) for i in range(n)]
        table = table_of({unit: (5, 1.0) for unit in units}, n_max=2)
        model = Model.init(CFG)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trainer = Trainer(model, table, seqs, TrainingConfig(total_steps=1))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        retained -= trainer.state.m.nbytes + trainer.state.v.nbytes
        assert retained / n <= 128

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Trainer(
                Model.init(CFG), toy_table(), [],
                TrainingConfig(total_steps=1),
            )

    def test_metrics_file_format(self, tmp_path):
        path = tmp_path / "metrics.tsv"
        write_metrics([(1, 0.5, 2.0, 2.5, 1e-4)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert lines[1] == "1\t0.5\t2\t2.5\t0.0001"

    def test_full_rerun_identical_checkpoints(self, tmp_path):
        def run(path):
            model = Model.init(CFG)
            trainer = Trainer(
                model, toy_table(), self.make_corpus(8),
                TrainingConfig(total_steps=6, batch_size=4, peak_lr=1e-3, seed=9),
            )
            trainer.run(tmp_path / f"{path}.tsv")
            save_checkpoint(model.params, model.config, tmp_path / path)
            return path

        a = run("a.ckpt")
        b = run("b.ckpt")
        assert (tmp_path / a).read_bytes() == (tmp_path / b).read_bytes()
        assert (tmp_path / "a.ckpt.tsv").read_bytes() == (tmp_path / "b.ckpt.tsv").read_bytes()
        loaded = load_checkpoint(tmp_path / a)
        assert loaded.config == CFG
