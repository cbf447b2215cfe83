"""Corpus ingestion, word-level tokenization, and vocabulary construction.

The corpus file format is UTF-8 plain text with one document per line;
blank lines are skipped.  Tokenization is deliberately simple (lowercase,
strip ASCII punctuation, split on whitespace) so that n-gram statistics
and evaluation items stay interpretable.
"""

from __future__ import annotations

import itertools
import os
import string
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence

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


@contextmanager
def open_text(path: str | Path) -> Iterator[IO]:
    """Open ``path`` to read UTF-8; an undecodable byte raises UnicodeError naming ``path:line``."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise UnicodeError(f"{path}:{lineno}: {exc}") from None
        raise


def read_lines(path: str | Path, parse: Callable, header: Callable | None = None,
               what: str | None = None) -> list:
    """``parse(line)`` for each line of a UTF-8 file that is not empty or whitespace-only,
    without its newline; ``header``, if given, gets the first line instead, whatever it
    holds.  A ValueError from either comes out as the same class with ``path:line: `` in
    front.  If ``what`` names the rows, a file without any is a ValueError too."""
    def call(fn: Callable, lineno: int, line: str):
        try:
            return fn(line.rstrip("\n"))
        except ValueError as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from None

    with open_text(path) as fh:
        lines = enumerate(fh, 1)
        if header is not None:
            call(header, *next(lines, (1, "")))
        rows = [call(parse, n, line) for n, line in lines if not line.isspace()]
    if what is not None and not rows:
        raise ValueError(f"{path}: no {what}")
    return rows


def tokenize(text: str) -> list[str]:
    """Lowercase, strip ASCII punctuation, and split on whitespace.

    Deterministic; an empty input yields an empty list.
    """
    return text.lower().translate(_PUNCT_TABLE).split()


class Vocabulary:
    """Bijective token<->id mapping with counts.

    Ids are dense ``0..len-1`` in the order given; the five reserved
    tokens must come first, and no token may repeat.
    """

    def __init__(self, tokens: Sequence[str], counts: Sequence[int]):
        self._id_to_token = list(tokens)
        self._id_to_count = list(counts)
        self._token_to_id = {tok: idx for idx, tok in enumerate(self._id_to_token)}
        if tuple(self._id_to_token[:NUM_SPECIALS]) != SPECIAL_TOKENS:
            raise CorpusError("reserved tokens missing or out of order")
        if len(self._token_to_id) != len(self._id_to_token):
            dup = next(t for i, t in enumerate(self._id_to_token) if self._token_to_id[t] != i)
            raise CorpusError(f"duplicate vocabulary token: {dup!r}")

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
        tokens, counts = [], []

        def row(line: str) -> None:
            parts = line.split("\t")
            if len(parts) != 3:
                raise CorpusError("malformed vocabulary row")
            try:
                idx, count = int(parts[1]), int(parts[2])
            except ValueError:
                raise CorpusError("id and count must be integers") from None
            if idx != len(tokens):
                raise CorpusError(f"non-dense id {idx}")
            tokens.append(parts[0])
            counts.append(count)

        read_lines(path, row)
        try:
            return cls(tokens, counts)
        except CorpusError as exc:
            raise CorpusError(f"{path}: {exc}") from None


def read_corpus(path: str | Path) -> list[tuple[str, ...]]:
    """The tokens of each non-blank line of a UTF-8 text file."""
    return read_lines(path, lambda line: tuple(tokenize(line)))


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
    kept = [(t, c) for t, c in ranked if c >= min_count][: max_size - NUM_SPECIALS]
    return Vocabulary(
        [*SPECIAL_TOKENS, *(t for t, _ in kept)], [0] * NUM_SPECIALS + [c for _, c in kept]
    )


def encode(tokens: Sequence[str], vocab: Vocabulary) -> tuple[int, ...]:
    """Map tokens to ids; unknown tokens map to UNK.  Length-preserving."""
    return tuple(map(vocab._token_to_id.get, tokens, itertools.repeat(UNK_ID)))
