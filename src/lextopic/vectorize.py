"""Vocabulary construction, sparse counts, and TF-IDF weighting."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from types import MappingProxyType

import numpy as np

from . import preprocess as preprocess_mod
from ._files import write_csv
from .corpus import Corpus
from .errors import AllZero, EmptyDocument, EmptyVocabulary, MissingYear, NoDocuments
from .preprocess import Document, PreprocessConfig

__all__ = [
    "Vocabulary",
    "DocTermMatrix",
    "TfidfMatrix",
    "build_vocabulary",
    "count_matrix",
    "count_corpus",
    "drop_empty_rows",
    "idf",
    "tfidf",
    "to_pseudo_counts",
    "save_triplets",
    "save_vocabulary",
]


@dataclass
class Vocabulary:
    terms: list[str]
    index: dict[str, int]
    df: list[int]

    def __len__(self) -> int:
        return len(self.terms)


class _EntryMatrix:
    """An n_docs x n_terms sparse matrix stored as entry arrays in (doc, term) order.

    ``docs``, ``terms`` and ``values`` are its one store. ``entries`` is a
    (docs, terms, values) triple in that order, or a {(doc, term): value}
    dict, sorted once here. The dict form is a read-only view built on
    first access.
    """

    dtype = np.int64

    def __init__(self, n_docs: int, n_terms: int, entries, doc_ids: list[str]):
        if isinstance(entries, Mapping):
            keys = np.fromiter(chain.from_iterable(entries), dtype=np.int64, count=2 * len(entries)).reshape(-1, 2)
            order = np.lexsort((keys[:, 1], keys[:, 0]))
            values = np.fromiter(entries.values(), dtype=self.dtype, count=len(entries))
            entries = keys[order, 0], keys[order, 1], values[order]
        self.n_docs, self.n_terms, self.doc_ids = n_docs, n_terms, doc_ids
        self.docs, self.terms, self.values = entries

    def _view(self) -> Mapping[tuple[int, int], int | float]:
        keys = zip(self.docs.tolist(), self.terms.tolist())
        return MappingProxyType(dict(zip(keys, self.values.tolist())))

    def entries(self):
        """(doc, term, value) triples of Python numbers, in (doc, term) order."""
        return zip(self.docs.tolist(), self.terms.tolist(), self.values.tolist())


class DocTermMatrix(_EntryMatrix):
    """Integer (doc, term) counts."""

    def __init__(self, n_docs: int, n_terms: int, counts, doc_ids: list[str]):
        super().__init__(n_docs, n_terms, counts, doc_ids)

    counts = cached_property(_EntryMatrix._view)

    def rows(self) -> list[list[tuple[int, int]]]:
        """Per-document [(term, count), ...] lists, term-sorted."""
        pairs = list(zip(self.terms.tolist(), self.values.tolist()))
        bounds = np.searchsorted(self.docs, np.arange(self.n_docs + 1)).tolist()
        return [pairs[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])]


class TfidfMatrix(_EntryMatrix):
    """Float (doc, term) weights."""

    dtype = np.float64

    def __init__(self, n_docs: int, n_terms: int, weights, doc_ids: list[str], norm: str = "l2"):
        super().__init__(n_docs, n_terms, weights, doc_ids)
        self.norm = norm

    weights = cached_property(_EntryMatrix._view)


def build_vocabulary(
    docs: list[Document], min_df: int = 2, max_df_ratio: float = 0.95
) -> Vocabulary:
    """Retain terms with min_df <= df <= max_df_ratio * D.

    Term order is descending document frequency, ties broken
    lexicographically, so rebuilding from identical docs is stable.
    """
    doc_freq: Counter = Counter()
    for doc in docs:
        doc_freq.update(set(doc.tokens))
    return _select_vocabulary(doc_freq.items(), len(docs), min_df, max_df_ratio)


def _select_vocabulary(
    doc_freq: Iterable[tuple[str, int]], n_docs: int, min_df: int, max_df_ratio: float
) -> Vocabulary:
    """build_vocabulary's checks, filter and order, from (term, df) pairs over n_docs documents."""
    if not n_docs:
        raise NoDocuments()
    if min_df < 1:
        raise ValueError(f"min_df must be >= 1, got {min_df}")
    if not (0.0 < max_df_ratio <= 1.0):
        raise ValueError(f"max_df_ratio must be in (0, 1], got {max_df_ratio}")
    # Small epsilon so max_df_ratio=0.95 over D=20 admits df=19 exactly.
    ceiling = max_df_ratio * n_docs + 1e-9
    kept = [
        (term, df_count)
        for term, df_count in doc_freq
        if min_df <= df_count <= ceiling
    ]
    if not kept:
        raise EmptyVocabulary()
    kept.sort(key=lambda item: (-item[1], item[0]))
    terms = [term for term, _ in kept]
    return Vocabulary(
        terms=terms,
        index={term: position for position, term in enumerate(terms)},
        df=[df_count for _, df_count in kept],
    )


def count_matrix(docs: list[Document], vocab: Vocabulary) -> DocTermMatrix:
    """Sparse (doc, term) -> occurrences; out-of-vocabulary tokens dropped."""
    lengths = [len(doc.tokens) for doc in docs]
    tokens = chain.from_iterable(doc.tokens for doc in docs)
    terms = np.fromiter(map(vocab.index.get, tokens, repeat(-1)), dtype=np.int64, count=sum(lengths))
    token_docs = np.repeat(np.arange(len(docs), dtype=np.int64), lengths)
    known = terms >= 0
    n_terms = len(vocab)
    keys, counts = np.unique(token_docs[known] * n_terms + terms[known], return_counts=True)
    return DocTermMatrix(
        n_docs=len(docs),
        n_terms=n_terms,
        counts=(keys // n_terms, keys % n_terms, counts),
        doc_ids=[doc.record_id for doc in docs],
    )


def count_corpus(
    corpus: Corpus,
    config: PreprocessConfig | None = None,
    min_df: int = 2,
    max_df_ratio: float = 0.95,
    on_empty: str = "error",
) -> tuple[Vocabulary, DocTermMatrix]:
    """preprocess_corpus, then build_vocabulary, then count_matrix, in one call.

    The result equals those three calls, errors included. With the compiled
    kernels it never builds a per-record token list: the records' UTF-8
    bytes are split into whitespace chunks in C, the distinct chunks are
    decoded and preprocessed together, each once, as preprocess_corpus
    does, and C counts every record's terms from the chunks' token ids.
    Without a compiler it makes the three calls.
    """
    if on_empty not in ("error", "drop"):
        raise ValueError(f"on_empty must be 'error' or 'drop', got {on_empty!r}")
    from . import _gibbs  # not at import time: ingest never needs the kernels

    kernels = _gibbs.load_kernels()
    if kernels is None:
        documents = preprocess_mod.preprocess_corpus(corpus, config, on_empty)
        vocab = build_vocabulary(documents, min_df, max_df_ratio)
        return vocab, count_matrix(documents, vocab)

    records = corpus.records
    text = bytearray()
    record_ptr = np.zeros(len(records) + 1, dtype=np.int64)
    for position, record in enumerate(records, start=1):
        text += f"{record.title} {record.content}".encode("utf-8", "surrogatepass")
        record_ptr[position] = len(text)
    occurrences, record_chunks, chunk_bytes = kernels.scan_chunks(text, record_ptr)
    del text
    terms, chunk_ptr, chunk_tokens = preprocess_mod._preprocess_chunks(
        chunk_bytes.decode("utf-8", "surrogatepass"), config
    )
    del chunk_bytes
    chunks = (record_chunks, occurrences, chunk_ptr, chunk_tokens)
    totals, df = kernels.token_counts(*chunks, len(terms))

    kept = totals > 0
    for record, has_tokens in zip(records, kept.tolist()):
        if record.date is None:
            raise MissingYear(record.id)
        if not has_tokens and on_empty == "error":
            raise EmptyDocument(record.id)
    n_docs = int(kept.sum())
    vocab = _select_vocabulary(zip(terms, df.tolist()), n_docs, min_df, max_df_ratio)
    token_term = np.fromiter(map(vocab.index.get, terms, repeat(-1)), dtype=np.int64, count=len(terms))
    record_doc = np.where(kept, np.cumsum(kept) - 1, -1)
    entries = kernels.term_entries(*chunks, token_term, record_doc, len(vocab), sum(vocab.df))
    doc_ids = [record.id for record, has_tokens in zip(records, kept.tolist()) if has_tokens]
    return vocab, DocTermMatrix(n_docs, len(vocab), entries, doc_ids)


def drop_empty_rows(matrix: DocTermMatrix) -> DocTermMatrix:
    """The matrix without its documents that have no entries; rows renumbered in order."""
    has_entries = np.zeros(matrix.n_docs, dtype=bool)
    has_entries[matrix.docs] = True
    if has_entries.all():
        return matrix
    row = np.cumsum(has_entries) - 1
    return DocTermMatrix(
        n_docs=int(has_entries.sum()),
        n_terms=matrix.n_terms,
        counts=(row[matrix.docs], matrix.terms, matrix.values),
        doc_ids=[doc_id for doc_id, kept in zip(matrix.doc_ids, has_entries.tolist()) if kept],
    )


def idf(matrix: DocTermMatrix) -> np.ndarray:
    """Smoothed inverse document frequency: ln((1+D)/(1+df)) + 1.

    Document frequency is recomputed from the matrix sparsity pattern,
    so the result is well defined even when the vocabulary was built
    from a superset of these documents.
    """
    df_vector = np.bincount(matrix.terms, minlength=matrix.n_terms)
    return np.log((1.0 + matrix.n_docs) / (1.0 + df_vector)) + 1.0


def tfidf(matrix: DocTermMatrix, norm: str = "l2") -> TfidfMatrix:
    """weight(d,t) = count(d,t) * idf(t), with optional l2 row norm.

    Row norms are summed over each row's entries in term order.
    """
    if norm not in ("none", "l2"):
        raise ValueError(f"norm must be 'none' or 'l2', got {norm!r}")
    weights = matrix.values * idf(matrix)[matrix.terms]
    if norm == "l2":
        row_norms = np.sqrt(np.bincount(matrix.docs, weights=weights * weights, minlength=matrix.n_docs))
        weights = weights / row_norms[matrix.docs]
    return TfidfMatrix(
        n_docs=matrix.n_docs,
        n_terms=matrix.n_terms,
        weights=(matrix.docs, matrix.terms, weights),
        doc_ids=list(matrix.doc_ids),
        norm=norm,
    )


def to_pseudo_counts(weights: TfidfMatrix, scale: float = 10.0) -> DocTermMatrix:
    """Round scale * weight to integers (halves up); zero results dropped.

    Bridges real-valued weights into the integer-count representation
    the topic sampler consumes.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    pseudo = np.floor(scale * weights.values + 0.5)
    kept = pseudo > 0
    if not kept.any() and weights.values.size:
        raise AllZero(scale)
    return DocTermMatrix(
        n_docs=weights.n_docs,
        n_terms=weights.n_terms,
        counts=(weights.docs[kept], weights.terms[kept], pseudo[kept].astype(np.int64)),
        doc_ids=list(weights.doc_ids),
    )


def save_triplets(matrix, vocab: Vocabulary, path) -> None:
    """Triplet CSV doc_id,term,value ordered by (doc, term)."""
    rows = ((matrix.doc_ids[doc], vocab.terms[term], value) for doc, term, value in matrix.entries())
    write_csv(path, ["doc_id", "term", "value"], rows)


def save_vocabulary(vocab: Vocabulary, path) -> None:
    write_csv(path, ["term", "df"], zip(vocab.terms, vocab.df))
