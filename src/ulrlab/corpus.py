"""Corpus ingestion, word-level tokenization, and vocabulary construction.

The corpus file format is UTF-8 plain text with one document per line;
blank lines are skipped.  Tokenization is deliberately simple (lowercase,
strip ASCII punctuation, split on whitespace) so that n-gram statistics
and evaluation items stay interpretable.
"""

from __future__ import annotations

import os
import string
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
MASK_TOKEN = "[MASK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"

#: Reserved tokens, in id order.  They always occupy ids 0..4.
SPECIAL_TOKENS = (PAD_TOKEN, UNK_TOKEN, MASK_TOKEN, CLS_TOKEN, SEP_TOKEN)

PAD_ID, UNK_ID, MASK_ID, CLS_ID, SEP_ID = range(5)
NUM_SPECIALS = len(SPECIAL_TOKENS)

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


class CorpusError(ValueError):
    """Raised for malformed or empty corpus input."""


@dataclass(frozen=True)
class EncodedSequence:
    """A token-id sequence, before [CLS]/[SEP] framing."""

    ids: tuple[int, ...]

    @property
    def m(self) -> int:
        """Number of tokens."""
        return len(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


def frame(ids: Iterable[int]) -> tuple[int, ...]:
    """Wrap raw token ids with the sequence delimiters."""
    return (CLS_ID, *ids, SEP_ID)


@contextmanager
def atomic_open(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Write a temp file beside ``path`` (or its symlink's target) and ``os.replace``
    it over ``path`` when the block ends; a block that raises leaves ``path`` as it
    was and no temp file.  A device or pipe, such as /dev/null, is written in place."""
    encoding = None if "b" in mode else "utf-8"
    target = Path(os.path.realpath(path))
    if os.path.exists(path) and not target.is_file():
        with open(path, mode, encoding=encoding) as fh:
            yield fh
        return
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def tokenize(text: str) -> list[str]:
    """Lowercase, strip ASCII punctuation, and split on whitespace.

    Deterministic; an empty input yields an empty list.
    """
    return text.lower().translate(_PUNCT_TABLE).split()


@dataclass
class Vocabulary:
    """Bijective token<->id mapping with counts.

    Ids are dense ``0..len-1`` and the five reserved tokens occupy the
    first five ids.
    """

    _id_to_token: list[str] = field(default_factory=list)
    _id_to_count: list[int] = field(default_factory=list)
    _token_to_id: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self._id_to_token:
            for tok in SPECIAL_TOKENS:
                self._add(tok, 0)

    def _add(self, token: str, count: int) -> int:
        if token in self._token_to_id:
            raise CorpusError(f"duplicate vocabulary token: {token!r}")
        idx = len(self._id_to_token)
        self._id_to_token.append(token)
        self._id_to_count.append(count)
        self._token_to_id[token] = idx
        return idx

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id_of(self, token: str) -> int:
        """Id of ``token``, falling back to the UNK id."""
        return self._token_to_id.get(token, UNK_ID)

    def tokens(self) -> list[str]:
        """All tokens in id order."""
        return list(self._id_to_token)

    def save(self, path: str | Path) -> None:
        """Write TSV ``token<TAB>id<TAB>count``, specials first."""
        with atomic_open(path) as fh:
            for idx, tok in enumerate(self._id_to_token):
                fh.write(f"{tok}\t{idx}\t{self._id_to_count[idx]}\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        vocab = cls.__new__(cls)
        vocab._id_to_token = []
        vocab._id_to_count = []
        vocab._token_to_id = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise CorpusError(f"{path}:{lineno + 1}: malformed vocabulary row")
                tok, idx_s, count_s = parts
                idx = int(idx_s)
                if idx != len(vocab._id_to_token):
                    raise CorpusError(f"{path}:{lineno + 1}: non-dense id {idx}")
                vocab._add(tok, int(count_s))
        if tuple(vocab._id_to_token[:NUM_SPECIALS]) != SPECIAL_TOKENS:
            raise CorpusError(f"{path}: reserved tokens missing or out of order")
        return vocab


def read_corpus(path: str | Path) -> Iterator[tuple[str, ...]]:
    """Yield the tokens of each non-blank line of a UTF-8 text file."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield tuple(tokenize(line))


def build_vocabulary(
    documents: Iterable[Sequence[str]], min_count: int, max_size: int
) -> Vocabulary:
    """Count tokens and keep those with count >= ``min_count``.

    Kept tokens are ranked by count descending, ties broken
    lexicographically, and the vocabulary is truncated to ``max_size``
    entries including the five reserved tokens.
    """
    if min_count < 1:
        raise CorpusError(f"min_count must be >= 1, got {min_count}")
    if max_size <= NUM_SPECIALS:
        raise CorpusError(f"max_size must be > {NUM_SPECIALS}, got {max_size}")
    counts: Counter[str] = Counter()
    for tokens in documents:
        counts.update(tokens)
    if not counts:
        raise CorpusError("empty corpus")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    vocab = Vocabulary()
    for token, count in ranked:
        if count < min_count:
            continue
        if len(vocab) >= max_size:
            break
        vocab._add(token, count)
    return vocab


def encode(tokens: Sequence[str], vocab: Vocabulary) -> EncodedSequence:
    """Map tokens to ids; unknown tokens map to UNK.  Length-preserving."""
    return EncodedSequence(ids=tuple(vocab.id_of(t) for t in tokens))
