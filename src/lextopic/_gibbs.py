"""Build and load the eight compiled kernels in ``_gibbs.c``.

- ``lda``'s sampler and scores: the Gibbs ``sweep`` and the per-entry
  ``token_probs`` of the log-likelihood.
- ``vectorize.count_corpus``: the chunk scan ``scan_chunks`` and the
  count loops ``token_counts`` and ``term_entries``.
- ``model.json``: ``format_floats`` writes its tables as ``json.dumps``
  would, and ``parse_table`` with ``value_end`` reads them back as
  ``json.load`` would.

Each has a Python equivalent that its callers fall back to, with equal
results. The shared library is compiled on first use with the system C
compiler into a per-user cache (``$XDG_CACHE_HOME/lextopic``, else
``~/.cache/lextopic``). Its file name carries the sha256 of the source
and the compiler flags, so an edited source is never served a stale
build. It is written to a temporary file and renamed into place, so
concurrent first uses cannot load a half-written library; the builds of
other sources or flags in the cache are then deleted.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import shutil
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

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
    token_counts: Callable
    term_entries: Callable
    format_floats: Callable
    parse_table: Callable
    value_end: Callable


_POW5_BITS = 125


def pow5_tables() -> tuple[np.ndarray, np.ndarray]:
    """Ryu's power-of-5 tables for ``format_floats``, computed with exact integers.

    pow5_inv[q] is floor(2**(b - 1 + 125) / 5**q) + 1 for q < 342, and
    pow5[i] is floor(5**i * 2**(125 - b)) for i < 326, b being the bit
    length of the power of 5. Each row is a 125-bit number's (low, high)
    64-bit words.
    """
    def words(numbers):
        return np.array([(number & (2**64 - 1), number >> 64) for number in numbers], dtype=np.uint64)

    inverse = (2 ** (_POW5_BITS - 1 + (5**q).bit_length()) // 5**q + 1 for q in range(342))
    direct = ((5**i << _POW5_BITS) >> (5**i).bit_length() for i in range(326))
    return words(inverse), words(direct)


def pow5_128_table() -> np.ndarray:
    """Eisel-Lemire's powers of 5 for ``parse_table``, computed with exact integers.

    Row q + 342, for q in [-342, 308], is 5**q scaled by a power of 2 to a
    128-bit number with its top bit set, as (high, low) 64-bit words: for
    q >= 0 truncated; for q < 0 floor(2**b / 5**-q) + 1 with b = z + 127
    for q >= -27 and b = 2z + 128 below (z the bit length of 5**-q - 1),
    then truncated, as fast_float's table generator computes it.
    """
    def scaled(q):
        if q >= 0:
            power = 5**q
            length = power.bit_length()
            return power << (128 - length) if length < 128 else power >> (length - 128)
        power = 5**-q
        z = (power - 1).bit_length()
        value = 2 ** (z + 127 if q >= -27 else 2 * z + 128) // power + 1
        return value >> max(0, value.bit_length() - 128)

    values = [scaled(q) for q in range(-342, 309)]
    return np.array([(value >> 64, value & (2**64 - 1)) for value in values], dtype=np.uint64)


def find_compiler() -> str | None:
    return shutil.which("gcc") or shutil.which("cc")


def _cache_dir() -> Path:
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "lextopic"


def _build(cache_dir: Path, compiler: str | None) -> Path:
    """Path of the compiled library, compiling it if the cache lacks it.

    A compile that fails raises RuntimeError with the compiler's exit status
    and messages. subprocess is imported only to compile, so a run that
    finds its library in the cache does not load it. After a compile, every
    other gibbs-*.so in the cache is deleted where it can be; the .gibbs-*
    temporary files of compiles still running are left alone.
    """
    source = SOURCE.read_bytes()
    digest = hashlib.sha256(source + "\0".join(CFLAGS).encode()).hexdigest()
    target = cache_dir / f"gibbs-{digest[:16]}.so"
    if target.is_file():
        return target
    if compiler is None:
        raise FileNotFoundError("no C compiler (gcc or cc) on PATH")
    import subprocess

    target.parent.mkdir(parents=True, exist_ok=True)
    handle, temporary = tempfile.mkstemp(dir=target.parent, prefix=".gibbs-", suffix=".so")
    os.close(handle)
    try:
        result = subprocess.run([compiler, *CFLAGS, "-o", temporary, str(SOURCE)], capture_output=True, text=True)
        if result.returncode:
            raise RuntimeError(f"the compiler exited with status {result.returncode}: {result.stderr.strip()}")
        os.replace(temporary, target)
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)
    for stale in cache_dir.glob("gibbs-*.so"):
        if stale != target:
            with contextlib.suppress(OSError):
                stale.unlink()
    return target


def load_kernels() -> Kernels | None:
    """The compiled kernels, or None (with one logged warning) if they cannot be built.

    ``sweep`` takes (doc_ptr, tokens, z, n_dk, n_kw, n_k, uniforms, alpha,
    beta) and updates z and the three count tables in place, exactly as
    ``lda.gibbs_sweep`` would with the same uniforms. ``token_probs``
    takes (docs, terms, doc_topic, topic_word) and returns each entry's
    probability, bit for bit as ``lda._token_probs``. The sweep's term and
    topic indices must already be in range; ``token_probs`` checks its own.
    ``scan_chunks``, ``token_counts`` and ``term_entries`` are the corpus
    count, documented on each and checked by each. ``format_floats``
    takes a C-contiguous 1-D or 2-D float64 array and returns
    ``json.dumps(array.tolist())``, each finite value as Python's shortest
    repr and the others as ``NaN``, ``Infinity`` and ``-Infinity``.
    ``parse_table`` and ``value_end`` take a bytes object and a byte offset
    in it: the first reads a JSON table of number rows into a float64
    array, the second finds where any JSON value ends; each is documented
    on itself. The result is kept per cache directory and compiler, so each
    pair is built, loaded and warned about once per process.
    """
    return _load(_cache_dir(), find_compiler())


@functools.cache
def _load(cache_dir: Path, compiler: str | None) -> Kernels | None:
    try:
        library = ctypes.CDLL(str(_build(cache_dir, compiler)))
    except (OSError, RuntimeError) as exc:
        import logging  # only a fallback logs, so a run that loads the library does not import it

        logging.getLogger(__name__).warning(
            "compiled kernels unavailable (%s); "
            "using the Python sweep, log-likelihood, corpus count, float formatting and model parse", exc,
        )
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
    counts_function = library.token_counts
    counts_function.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * 7
    counts_function.restype = None
    entries_function = library.term_entries
    entries_function.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * 8 + [ctypes.c_int64] + [ctypes.c_void_p] * 3
    entries_function.restype = ctypes.c_int64
    format_function = library.format_floats
    format_function.argtypes = [ctypes.c_void_p] + [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 3
    format_function.restype = ctypes.c_int64
    table_function = library.parse_table
    table_function.argtypes = [ctypes.c_char_p] + [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 3
    table_function.restype = ctypes.c_int64
    end_function = library.value_end
    end_function.argtypes = [ctypes.c_char_p] + [ctypes.c_int64] * 2
    end_function.restype = ctypes.c_int64
    pow5_inv, pow5 = pow5_tables()
    pow5_128 = pow5_128_table()

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
        """Split records of UTF-8 text as str.split() would; number distinct chunks by first occurrence.

        text is bytes-like; record r is text[record_ptr[r]:record_ptr[r + 1]].
        Returns (occurrences, record_chunks, chunk_bytes): the chunk id of
        every occurrence in order, each record's chunk count, and the
        distinct chunks in id order, each followed by one space.
        """
        text = np.frombuffer(text, dtype=np.uint8)
        record_ptr = np.ascontiguousarray(record_ptr, dtype=np.int64)
        n_records = record_ptr.size - 1
        if not (record_ptr.ndim == 1 and n_records >= 0 and record_ptr[0] == 0 and record_ptr[-1] == text.size
                and (np.diff(record_ptr) >= 0).all()):
            raise ValueError("record offsets must rise from 0 to the text length")
        # A record of n bytes holds at most (n + 1) // 2 chunks. Pages past
        # what the scan writes are never touched, so they cost no memory.
        capacity = (text.size + n_records) // 2 + 1
        occurrences = np.empty(capacity, dtype=np.int64)
        record_chunks = np.empty(n_records, dtype=np.int64)
        chunk_bytes = np.empty(text.size + capacity, dtype=np.uint8)
        chunk_start = np.empty(capacity, dtype=np.int64)
        chunk_len = np.empty(capacity, dtype=np.int64)
        n_distinct = scan_function(
            text.ctypes.data, n_records, record_ptr.ctypes.data, occurrences.ctypes.data,
            record_chunks.ctypes.data, chunk_bytes.ctypes.data, chunk_start.ctypes.data, chunk_len.ctypes.data,
        )
        if n_distinct < 0:
            raise MemoryError("no memory for the chunk hash table")
        n_bytes = int(chunk_start[n_distinct - 1] + chunk_len[n_distinct - 1]) + 1 if n_distinct else 0
        return occurrences[: record_chunks.sum()], record_chunks, chunk_bytes[:n_bytes].tobytes()

    def _chunk_arrays(record_chunks, occurrences, chunk_ptr, chunk_tokens, n_tokens):
        arrays = [np.ascontiguousarray(array, dtype=np.int64)
                  for array in (record_chunks, occurrences, chunk_ptr, chunk_tokens)]
        record_chunks, occurrences, chunk_ptr, chunk_tokens = arrays
        if not (all(array.ndim == 1 for array in arrays) and chunk_ptr.size >= 1
                and (record_chunks >= 0).all() and record_chunks.sum() == occurrences.size and chunk_ptr[0] == 0
                and chunk_ptr[-1] == chunk_tokens.size and (np.diff(chunk_ptr) >= 0).all()
                and (occurrences.size == 0 or 0 <= occurrences.min() <= occurrences.max() < chunk_ptr.size - 1)
                and (chunk_tokens.size == 0 or 0 <= chunk_tokens.min() <= chunk_tokens.max() < n_tokens)):
            raise ValueError("chunk arrays have inconsistent shapes or indices")
        return arrays

    def token_counts(record_chunks, occurrences, chunk_ptr, chunk_tokens, n_tokens):
        """(totals, df): each record's token count and each token's document frequency.

        Chunk c's token ids are chunk_tokens[chunk_ptr[c]:chunk_ptr[c + 1]].
        """
        arrays = _chunk_arrays(record_chunks, occurrences, chunk_ptr, chunk_tokens, n_tokens)
        totals = np.empty(arrays[0].size, dtype=np.int64)
        df = np.zeros(n_tokens, dtype=np.int64)
        last_record = np.full(n_tokens, -1, dtype=np.int64)
        counts_function(totals.size, *(array.ctypes.data for array in arrays),
                        totals.ctypes.data, df.ctypes.data, last_record.ctypes.data)
        return totals, df

    def term_entries(record_chunks, occurrences, chunk_ptr, chunk_tokens, token_term, record_doc, n_terms, n_entries):
        """(docs, terms, values) of each record's term counts, in (doc, term) order.

        token_term maps a token id to its term, or -1; record_doc maps a
        record to its row, or -1. n_entries is the number of entries.
        """
        token_term = np.ascontiguousarray(token_term, dtype=np.int64)
        record_doc = np.ascontiguousarray(record_doc, dtype=np.int64)
        arrays = _chunk_arrays(record_chunks, occurrences, chunk_ptr, chunk_tokens, token_term.size)
        if not (record_doc.shape == arrays[0].shape and token_term.ndim == 1
                and (token_term.size == 0 or -1 <= token_term.min() <= token_term.max() < n_terms)):
            raise ValueError("term arrays have inconsistent shapes or indices")
        counts = np.zeros(n_terms, dtype=np.int64)
        seen = np.zeros(-(-n_terms // 64), dtype=np.uint64)  # one bit a term
        docs, terms, values = (np.empty(n_entries, dtype=np.int64) for _ in range(3))
        written = entries_function(
            record_doc.size, *(array.ctypes.data for array in arrays), token_term.ctypes.data,
            record_doc.ctypes.data, counts.ctypes.data, seen.ctypes.data, n_entries,
            docs.ctypes.data, terms.ctypes.data, values.ctypes.data,
        )
        if written != n_entries:
            raise ValueError(f"expected {n_entries} entries, the records hold {'more' if written < 0 else written}")
        return docs, terms, values

    def format_floats(values) -> str:
        """json.dumps(values.tolist()) of a C-contiguous 1-D or 2-D float64 array."""
        if not (values.dtype == np.float64 and values.flags.c_contiguous and values.ndim in (1, 2)):
            raise ValueError("format_floats takes a C-contiguous 1-D or 2-D float64 array")
        n_rows, n_cols = values.shape if values.ndim == 2 else (1, values.size)
        # At most 24 characters a value (-1.2345678901234567e-308) and ", "
        # after it; "[", "]" and ", " a row; "[" and "]" around the rows.
        out = np.empty(26 * values.size + 4 * n_rows + 2, dtype=np.uint8)
        written = format_function(values.ctypes.data, n_rows, n_cols, values.ndim == 2,
                                  pow5_inv.ctypes.data, pow5.ctypes.data, out.ctypes.data)
        return str(out[:written], "ascii")  # decoded from the buffer, with no bytes copy between

    def _check_text(data, start) -> None:
        if not (type(data) is bytes and 0 <= start <= len(data)):
            raise ValueError("the text must be bytes and the offset inside it")

    def parse_table(data, start):
        """(values, end) of the JSON table of number rows at byte start of data, or None.

        values is a C-contiguous rows x columns float64 array, equal bit for
        bit to np.array(json.loads(table), dtype=np.float64); end is the
        offset just past the table. None where the kernel does not accept
        the text: an empty or ragged table, other nesting, a token outside
        the JSON number grammar, NaN, Infinity, or a number past the float64
        range.
        """
        _check_text(data, start)
        shape = np.empty(2, dtype=np.int64)
        # The first call only checks the text and sizes the table.
        if table_function(data, len(data), start, 0, pow5_128.ctypes.data, None, shape.ctypes.data) < 0:
            return None
        values = np.empty(tuple(shape.tolist()))
        end = table_function(data, len(data), start, values.size, pow5_128.ctypes.data,
                             values.ctypes.data, shape.ctypes.data)
        return None if end < 0 else (values, end)

    def value_end(data, start) -> int:
        """The offset just past the JSON value at byte start of data, by brackets and strings alone; -1 if none."""
        _check_text(data, start)
        return end_function(data, len(data), start)

    return Kernels(sweep, token_probs, scan_chunks, token_counts, term_entries, format_floats, parse_table, value_end)
