"""ulrlab: a desk-scale laboratory for compositional sequence representations.

The pipeline: mine statistically coherent n-grams from a corpus with a
length-normalized PMI score (`ngram`), train a small numpy transformer
whose pooled embeddings are pushed toward E^w + E^R = E^S alongside
masked-token prediction (`encoder`, `training`), and evaluate the
resulting vectors on analogy questions and Top-k paraphrase retrieval
against a BM25 baseline (`evaluation`).  The `ulrlab` command wires the
stages into reproducible runs.
"""

from .corpus import (
    CLS_ID,
    MASK_ID,
    NUM_SPECIALS,
    PAD_ID,
    SEP_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    CorpusError,
    Document,
    EncodedSequence,
    Vocabulary,
    build_vocabulary,
    decode,
    encode,
    read_corpus,
    tokenize,
)
from .encoder import (
    CheckpointError,
    ConfigError,
    EncoderConfig,
    Model,
    backward,
    forward,
    init_params,
    load_checkpoint,
    mlm_log_probs,
    pad_batch,
    parameter_count,
    pool,
    save_checkpoint,
)
from .evaluation import (
    AnalogyQuestion,
    AnalogyReport,
    ModelEmbedder,
    RetrievalSet,
    WordVectorEmbedder,
    answer_analogy,
    bm25_rank,
    bm25_scores,
    build_candidates,
    embed_corpus,
    evaluate_analogy,
    expand_templates,
    read_analogy_file,
    read_retrieval_corpus,
    read_retrieval_queries,
    read_word_vectors,
    retrieve_topk,
    topk_accuracy,
    write_analogy_file,
    write_word_vectors,
)
from .ngram import (
    NgramError,
    NgramTable,
    RawNgramCounts,
    Span,
    SpanAnnotation,
    build_table,
    compute_pmi,
    count_ngrams,
    inject_entities,
    length_histogram,
    load_table,
    mark_sequence,
    prune_table,
    read_entity_file,
    save_table,
)
from .training import (
    LossReport,
    OptimizerState,
    PreparedBatch,
    Trainer,
    TrainingConfig,
    TrainingExample,
    adam_step,
    init_optimizer,
    loss_and_gradients,
    lr_at,
    make_examples,
    mask_for_mlm,
    misad_loss,
    mlm_loss,
    prepare_batch,
    score_spans,
    select_span,
    split_sequence,
    train_step,
)

__version__ = "0.1.0"
