"""Vocabulary construction, sparse counts and TF-IDF weights in matrices that check their entries once, when built."""

from __future__ import annotations

import math
import sys
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from types import MappingProxyType

import numpy as np

from . import preprocess as preprocess_mod
from .corpus import Corpus
from .errors import (
    AllZero, EmptyDocument, EmptyVocabulary, EntryOutOfRange, MalformedEntries, MissingYear, NoDocuments,
    PseudoCountOverflow, _quoted,
)
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
]


@dataclass
class Vocabulary:
    terms: list[str]
    index: dict[str, int]
    df: list[int]

    def __len__(self) -> int:
        return len(self.terms)


def _outside(array: np.ndarray, low, high, kinds: str = "iu") -> np.ndarray:
    """True where an entry is not in [low, high], and at every entry of an array whose dtype kind is not in kinds."""
    if array.dtype.kind not in kinds:
        return np.ones(array.shape, dtype=bool)
    return ~((array >= low) & (array <= high))  # nan compares false


class _EntryMatrix:
    """An n_docs x n_terms sparse matrix stored as entry arrays in doc order.

    ``entries`` is a (docs, terms, values) triple of arrays, or of lists that
    numpy.asarray converts, checked here once: MalformedEntries for a triple
    that is not three 1-d arrays of one length in doc order or for doc_ids not
    one per doc, and EntryOutOfRange at the first doc or term outside the
    matrix or value outside ``limits``. ``docs``, ``terms`` and ``values`` are
    then its one store; the dict form is a read-only view built on first access.
    """

    dtype = np.int64
    what = "non-negative integer count"
    limits = (0, 2**63 - 1, "iu")  # checked before the int64 cast, which would truncate 1.5 to 1

    def __init__(self, n_docs: int, n_terms: int, entries, doc_ids: list[str]):
        if len(doc_ids) != n_docs:
            raise MalformedEntries(f"{len(doc_ids)} doc ids for a matrix of {n_docs} docs")
        if not (isinstance(entries, (tuple, list)) and len(entries) == 3):
            raise MalformedEntries(f"matrix entries are not a (docs, terms, values) triple: {type(entries).__name__}")
        try:
            docs, terms, values = arrays = [np.asarray(part) for part in entries]
        except ValueError as exc:  # a ragged list
            raise MalformedEntries(f"matrix entries are not three 1-d arrays: {exc}") from None
        shapes = [array.shape for array in arrays]
        if len(shapes[0]) != 1 or not shapes[0] == shapes[1] == shapes[2]:
            first = min(shape[0] if len(shape) == 1 else 0 for shape in shapes)
            raise MalformedEntries(f"matrix entry {first} is not one number in each of docs, terms and values: "
                                   f"{shapes}")
        bad = _outside(docs, 0, n_docs - 1) | _outside(terms, 0, n_terms - 1) | _outside(values, *self.limits)
        if bad.any():
            first = int(np.argmax(bad))
            shown = [array[first : first + 1].tolist()[0] for array in arrays]  # an object array's item has no .item()
            raise EntryOutOfRange(*shown, n_docs, n_terms, self.what)
        docs, terms = docs.astype(np.int64, copy=False), terms.astype(np.int64, copy=False)
        if (docs[1:] < docs[:-1]).any():
            at = int(np.argmax(docs[1:] < docs[:-1])) + 1
            raise MalformedEntries(f"matrix entry {at} (doc {docs[at]}, term {terms[at]}) follows doc {docs[at - 1]}")
        self.n_docs, self.n_terms, self.doc_ids = n_docs, n_terms, doc_ids
        self.docs, self.terms, self.values = docs, terms, values.astype(self.dtype, copy=False)

    def _view(self) -> Mapping[tuple[int, int], int | float]:
        keys = zip(self.docs.tolist(), self.terms.tolist())
        return MappingProxyType(dict(zip(keys, self.values.tolist())))


class DocTermMatrix(_EntryMatrix):
    """Integer (doc, term) counts in [0, 2**63), of an integer dtype."""

    def __init__(self, n_docs: int, n_terms: int, counts, doc_ids: list[str]):
        super().__init__(n_docs, n_terms, counts, doc_ids)

    counts = cached_property(_EntryMatrix._view)


class TfidfMatrix(_EntryMatrix):
    """Float (doc, term) weights, each finite, of an integer or float dtype."""

    dtype = np.float64
    what = "finite real weight"
    # numpy's float64, so that a float16 array is compared in float64, not to a bound cast to inf.
    limits = (-np.float64(sys.float_info.max), np.float64(sys.float_info.max), "iuf")

    def __init__(self, n_docs: int, n_terms: int, weights, doc_ids: list[str]):
        super().__init__(n_docs, n_terms, weights, doc_ids)

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
        raise ValueError(f"min_df must be >= 1, got {_quoted(min_df, str)}")
    if not (0.0 < max_df_ratio <= 1.0):
        raise ValueError(f"max_df_ratio must be in (0, 1], got {_quoted(max_df_ratio, str)}")
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
    kernels it never builds a per-record token list: C splits one array of
    the records' code points into whitespace chunks, the distinct chunks'
    code points are preprocessed together, each once, as preprocess_corpus
    does, and C counts every record's terms from the chunks' token ids.
    Without a compiler it makes the three calls.
    """
    if on_empty not in ("error", "drop"):
        raise ValueError(f"on_empty must be 'error' or 'drop', got {_quoted(on_empty)}")
    from . import _gibbs  # not at import time: ingest never needs the kernels

    kernels = _gibbs.load_kernels()
    if kernels is None:
        documents = preprocess_mod.preprocess_corpus(corpus, config, on_empty)
        vocab = build_vocabulary(documents, min_df, max_df_ratio)
        return vocab, count_matrix(documents, vocab)

    records = corpus.records
    # Record r is its title, a space, its content and a space, which adds no chunk.
    parts = list(chain.from_iterable((record.title, record.content) for record in records))
    part_ends = np.cumsum(np.fromiter(map(len, parts), dtype=np.int64, count=len(parts)) + 1)
    record_ptr = np.concatenate(([0], part_ends[1::2]))
    text = np.empty(record_ptr[-1], dtype=np.uint32)
    for first in range(0, len(records), 256):  # in batches, so that no copy of the whole text is made
        last = min(first + 256, len(records))
        text[record_ptr[first] : record_ptr[last] - 1] = preprocess_mod._utf32(" ".join(parts[2 * first : 2 * last]))
    text[record_ptr[1:] - 1] = ord(" ")
    occurrences, record_chunks, chunk_codes = kernels.scan_chunks(text, record_ptr)
    del text
    terms, chunk_ptr, chunk_tokens = preprocess_mod._preprocess_chunks(chunk_codes, config)
    chunks = (record_chunks, occurrences, chunk_ptr, chunk_tokens)
    # Every token its own term and no record a row: the counts behind the vocabulary.
    *_, df, totals = kernels.term_entries(*chunks, np.arange(len(terms)), np.full(len(records), -1), len(terms), 0)

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
    entries = kernels.term_entries(*chunks, token_term, record_doc, len(vocab), sum(vocab.df))[:3]
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

    Row norms are summed over each row's entries in entry order.
    """
    if norm not in ("none", "l2"):
        raise ValueError(f"norm must be 'none' or 'l2', got {_quoted(norm)}")
    weights = matrix.values * idf(matrix)[matrix.terms]
    if norm == "l2":
        row_norms = np.sqrt(np.bincount(matrix.docs, weights=weights * weights, minlength=matrix.n_docs))
        row_norms[row_norms == 0.0] = 1.0  # a row of zero counts keeps its zero weights
        weights = weights / row_norms[matrix.docs]
    return TfidfMatrix(
        n_docs=matrix.n_docs,
        n_terms=matrix.n_terms,
        weights=(matrix.docs, matrix.terms, weights),
        doc_ids=list(matrix.doc_ids),
    )


def to_pseudo_counts(weights: TfidfMatrix, scale: float = 10.0) -> DocTermMatrix:
    """Round scale * weight to integers (halves up); zero results dropped, and 2**63 or more PseudoCountOverflow.

    Bridges real-valued weights into the int64 counts the topic sampler consumes.
    A scale that is not a finite float above 0 raises ValueError.
    """
    try:
        value = float(scale)
    except OverflowError:  # an int past the float range
        value = math.inf
    except (TypeError, ValueError):  # not a number; float's own message would hold the whole value
        value = math.nan
    if not 0 < value < math.inf:  # nan compares false
        raise ValueError(f"scale must be positive and finite, got {_quoted(scale, str)}")
    scale = value
    pseudo = np.floor(scale * weights.values + 0.5)
    if (pseudo >= 2.0**63).any():
        raise PseudoCountOverflow(scale)
    kept = pseudo > 0
    if not kept.any() and weights.values.size:
        raise AllZero(scale)
    return DocTermMatrix(
        n_docs=weights.n_docs,
        n_terms=weights.n_terms,
        counts=(weights.docs[kept], weights.terms[kept], pseudo[kept].astype(np.int64)),
        doc_ids=list(weights.doc_ids),
    )
