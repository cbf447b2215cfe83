"""ulrlab: a desk-scale laboratory for compositional sequence representations.

The pipeline: mine statistically coherent n-grams from a corpus with a
length-normalized PMI score (`ngram`), train a small numpy transformer
whose pooled embeddings are pushed toward E^w + E^R = E^S alongside
masked-token prediction (`encoder`, `training`), and evaluate the
resulting vectors on analogy questions and Top-k paraphrase retrieval
against a BM25 baseline (`evaluation`).  The `ulrlab` command wires the
stages into reproducible runs.

Importing the package pins BLAS to one thread, so a seeded run writes
the same bits on any core count: a threaded OpenBLAS splits products
such as the MLM head's weight gradients by thread.  OpenBLAS reads these
variables once, when numpy loads it; a caller that imports numpy before
``ulrlab`` must set ``OPENBLAS_NUM_THREADS=1`` itself.
"""

import os

os.environ.update(
    dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
)

__version__ = "0.1.0"
