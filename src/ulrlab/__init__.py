"""ulrlab: a desk-scale laboratory for compositional sequence representations.

The pipeline: mine statistically coherent n-grams from a corpus with a
length-normalized PMI score (`ngram`), train a small numpy transformer
whose pooled embeddings are pushed toward E^w + E^R = E^S alongside
masked-token prediction (`encoder`, `training`), and evaluate the
resulting vectors on analogy questions and Top-k paraphrase retrieval
against a BM25 baseline (`evaluation`).  The `ulrlab` command wires the
stages into reproducible runs.
"""

__version__ = "0.1.0"
