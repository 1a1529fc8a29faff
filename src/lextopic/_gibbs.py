"""Build and load the four compiled kernels in ``_gibbs.c``.

- ``lda``'s sampler and scores: the Gibbs ``sweep`` and the per-entry
  ``token_probs`` of ``perplexity``.
- ``vectorize.count_corpus``: ``scan_chunks`` over the records' code
  points and the count loop ``term_entries``.

Each has a Python equivalent that its callers fall back to, with equal
results. ``_native`` compiles the library on first use into a per-user
cache, under the prefix ``gibbs``.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ._native import cache_dir, find_compiler, load_library

__all__ = ["Kernels", "load_kernels"]

SOURCE = Path(__file__).with_name("_gibbs.c")
# -ffp-contract=off keeps the compiler from fusing multiply-adds, which
# would round differently from the Python references.
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


class Kernels(NamedTuple):
    """The compiled library's functions, each documented in load_kernels or on itself."""

    sweep: Callable
    token_probs: Callable
    scan_chunks: Callable
    term_entries: Callable


def load_kernels() -> Kernels | None:
    """The compiled kernels, or None (with one logged warning) if they cannot be built.

    ``sweep`` takes (doc_ptr, tokens, z, n_dk, n_kw, n_k, uniforms, alpha,
    beta) and updates z and the three count tables in place, exactly as
    ``lda.gibbs_sweep`` would with the same uniforms. ``token_probs``
    takes (docs, terms, doc_topic, topic_word) and returns each entry's
    probability, bit for bit as ``lda._token_probs``. The sweep's term and
    topic indices must already be in range; ``token_probs`` checks its own.
    ``scan_chunks`` and ``term_entries`` are the corpus count, documented
    on each and checked by each. The result is kept per cache directory
    and compiler, so each pair is built, loaded and warned about once per
    process.
    """
    return _load(cache_dir(), find_compiler())


@functools.cache
def _load(cache: Path, compiler: str | None) -> Kernels | None:
    library = load_library(
        ctypes.CDLL, "compiled kernels unavailable (%s); using the Python sweep, perplexity and corpus count",
        "gibbs", SOURCE, CFLAGS, cache, compiler,
    )
    if library is None:
        return None
    sweep_function = library.gibbs_sweep
    sweep_function.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 7 + [ctypes.c_double] * 2 + [ctypes.c_void_p]
    sweep_function.restype = None
    probs_function = library.token_probs
    probs_function.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 5
    probs_function.restype = None
    scan_function = library.scan_chunks
    scan_function.argtypes = [ctypes.c_void_p, ctypes.c_int64] + [ctypes.c_void_p] * 6
    scan_function.restype = ctypes.c_int64
    entries_function = library.term_entries
    entries_function.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * 8 + [ctypes.c_int64] + [ctypes.c_void_p] * 5
    entries_function.restype = ctypes.c_int64

    def sweep(doc_ptr, tokens, z, n_dk, n_kw, n_k, uniforms, alpha, beta) -> None:
        n_docs, n_topics = n_dk.shape
        n_terms = n_kw.shape[1]
        tables_ok = (
            n_kw.shape[0] == n_topics and n_k.shape == (n_topics,)
            and doc_ptr.shape == (n_docs + 1,) and doc_ptr[-1] == tokens.size
            and z.shape == tokens.shape == uniforms.shape
        )
        arrays_ok = all(
            array.dtype == np.int64 and array.flags.c_contiguous
            for array in (doc_ptr, tokens, z, n_dk, n_kw, n_k)
        ) and uniforms.dtype == np.float64 and uniforms.flags.c_contiguous
        if not (tables_ok and arrays_ok):
            raise ValueError("sweep arrays have inconsistent shapes, dtypes or layouts")
        weights = np.empty(n_topics)
        sweep_function(
            n_docs, n_topics, n_terms,
            doc_ptr.ctypes.data, tokens.ctypes.data, z.ctypes.data,
            n_dk.ctypes.data, n_kw.ctypes.data, n_k.ctypes.data, uniforms.ctypes.data,
            alpha, beta, weights.ctypes.data,
        )

    def token_probs(docs, terms, doc_topic, topic_word) -> np.ndarray:
        docs = np.ascontiguousarray(docs, dtype=np.int64)
        terms = np.ascontiguousarray(terms, dtype=np.int64)
        theta = np.ascontiguousarray(doc_topic, dtype=np.float64)
        # Transposed, so that each entry reads one contiguous row of each table.
        phi_t = np.ascontiguousarray(np.transpose(topic_word), dtype=np.float64)
        if not (docs.ndim == 1 and terms.shape == docs.shape and theta.ndim == phi_t.ndim == 2
                and theta.shape[1] == phi_t.shape[1]):
            raise ValueError("token probability arrays have inconsistent shapes")
        if docs.size and not (0 <= docs.min() and docs.max() < theta.shape[0]
                              and 0 <= terms.min() and terms.max() < phi_t.shape[0]):
            raise ValueError("token probability entries index past doc_topic or topic_word")
        out = np.empty(docs.size)
        probs_function(
            docs.size, theta.shape[1], docs.ctypes.data, terms.ctypes.data,
            theta.ctypes.data, phi_t.ctypes.data, out.ctypes.data,
        )
        return out

    def scan_chunks(text, record_ptr):
        """Split records of code points as str.split() would; number distinct chunks by first occurrence.

        text is a buffer of uint32 code points, as preprocess._utf32 gives;
        record r is text[record_ptr[r]:record_ptr[r + 1]]. Returns
        (occurrences, record_chunks, chunk_codes): the chunk id of every
        occurrence in order, each record's chunk count, and the distinct
        chunks' code points in id order, each chunk followed by one space.
        """
        text = np.frombuffer(text, dtype=np.uint32)
        record_ptr = np.ascontiguousarray(record_ptr, dtype=np.int64)
        n_records = record_ptr.size - 1
        if not (record_ptr.ndim == 1 and n_records >= 0 and record_ptr[0] == 0 and record_ptr[-1] == text.size
                and (np.diff(record_ptr) >= 0).all()):
            raise ValueError("record offsets must rise from 0 to the text length")
        # A record of n code points holds at most (n + 1) // 2 chunks. Pages
        # past what the scan writes are never touched, so they cost no memory.
        capacity = (text.size + n_records) // 2 + 1
        occurrences = np.empty(capacity, dtype=np.int64)
        record_chunks = np.empty(n_records, dtype=np.int64)
        chunk_codes = np.empty(text.size + capacity, dtype=np.uint32)
        chunk_start = np.empty(capacity, dtype=np.int64)
        chunk_len = np.empty(capacity, dtype=np.int64)
        n_distinct = scan_function(
            text.ctypes.data, n_records, record_ptr.ctypes.data, occurrences.ctypes.data,
            record_chunks.ctypes.data, chunk_codes.ctypes.data, chunk_start.ctypes.data, chunk_len.ctypes.data,
        )
        if n_distinct < 0:
            raise MemoryError("no memory for the chunk hash table")
        n_codes = int(chunk_start[n_distinct - 1] + chunk_len[n_distinct - 1]) + 1 if n_distinct else 0
        return occurrences[: record_chunks.sum()], record_chunks, chunk_codes[:n_codes]

    def term_entries(record_chunks, occurrences, chunk_ptr, chunk_tokens, token_term, record_doc, n_terms, n_entries):
        """(docs, terms, values, df, totals): the records' term counts and their sums.

        Chunk c's token ids are chunk_tokens[chunk_ptr[c]:chunk_ptr[c + 1]].
        token_term maps a token id to its term, or -1; record_doc maps a
        record to its row, or -1. The n_entries entries (docs, terms,
        values) are the rows' term counts in (doc, term) order; df[term] is
        the number of records that hold the term, and totals[r] the number
        of record r's tokens that have a term.
        """
        arrays = [np.ascontiguousarray(array, dtype=np.int64)
                  for array in (record_chunks, occurrences, chunk_ptr, chunk_tokens, token_term, record_doc)]
        record_chunks, occurrences, chunk_ptr, chunk_tokens, token_term, record_doc = arrays
        if not (all(array.ndim == 1 for array in arrays) and chunk_ptr.size >= 1
                and (record_chunks >= 0).all() and record_chunks.sum() == occurrences.size and chunk_ptr[0] == 0
                and chunk_ptr[-1] == chunk_tokens.size and (np.diff(chunk_ptr) >= 0).all()
                and (occurrences.size == 0 or 0 <= occurrences.min() <= occurrences.max() < chunk_ptr.size - 1)
                and (chunk_tokens.size == 0 or 0 <= chunk_tokens.min() <= chunk_tokens.max() < token_term.size)):
            raise ValueError("chunk arrays have inconsistent shapes or indices")
        if not (record_doc.shape == record_chunks.shape
                and (token_term.size == 0 or -1 <= token_term.min() <= token_term.max() < n_terms)):
            raise ValueError("term arrays have inconsistent shapes or indices")
        counts, df = np.zeros(n_terms, dtype=np.int64), np.zeros(n_terms, dtype=np.int64)
        seen = np.zeros(-(-n_terms // 64), dtype=np.uint64)  # one bit a term
        docs, terms, values = (np.empty(n_entries, dtype=np.int64) for _ in range(3))
        totals = np.empty(record_doc.size, dtype=np.int64)
        written = entries_function(
            record_doc.size, *(array.ctypes.data for array in arrays), counts.ctypes.data, seen.ctypes.data,
            n_entries, docs.ctypes.data, terms.ctypes.data, values.ctypes.data, df.ctypes.data, totals.ctypes.data,
        )
        if written != n_entries:
            raise ValueError(f"expected {n_entries} entries, the records hold {'more' if written < 0 else written}")
        return docs, terms, values, df, totals

    return Kernels(sweep, token_probs, scan_chunks, term_entries)
