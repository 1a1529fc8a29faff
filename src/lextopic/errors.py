"""Exception hierarchy, and the one rule by which a message shows an input value.

Every error names the pipeline stage it originated from via the class
attribute ``module``, so the CLI can report module-qualified failures.
A value from a file, a flag or a library argument enters a message only
through ``_quoted``, shown by repr (ids, flag text), ``_as_json`` (config
values, dict dates) or str (numbers): see README's "Error messages".
"""

from __future__ import annotations

import json
from typing import Callable

_QUOTE_LIMIT = 80


def _quoted(value: object, show: Callable[[object], str] = repr) -> str:
    """show(value), cut past _QUOTE_LIMIT characters.

    A cut quote keeps the first characters and gives the total length. A
    string is cut by its own characters before show, any other value by its shown text's.
    A stand-in replaces the text where show raises ValueError, as str does past Python's int digit limit.
    """
    if isinstance(value, str):
        text = show(value[:_QUOTE_LIMIT])
        return text if len(value) <= _QUOTE_LIMIT else f"{text}... ({len(value)} characters)"
    try:
        text = show(value)
    except ValueError:
        if isinstance(value, int):
            return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length():,} bits"
        return f"a {type(value).__name__} too long to show"
    return text if len(text) <= _QUOTE_LIMIT else f"{text[:_QUOTE_LIMIT]}... ({len(text)} characters)"


def _as_json(value: object) -> str:
    """value as JSON text; repr(value) where JSON cannot hold it.

    A lone surrogate is shown as its escape, as repr shows it, so that the
    message stays printable on a strict UTF-8 stream.
    """
    try:
        text = json.dumps(value, ensure_ascii=False)
    except (TypeError, ValueError, RecursionError):  # not a JSON value, or one that holds itself
        return repr(value)
    return text.encode("utf-8", "backslashreplace").decode("utf-8")


class LextopicError(Exception):
    """Base class for all package errors."""

    module = "lextopic"


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

class CorpusError(LextopicError):
    module = "corpus"


class MissingField(CorpusError):
    def __init__(self, row: int, field: str):
        self.row = row
        self.field = field
        super().__init__(f"row {row}: missing or empty required field {_quoted(field)}")


class DuplicateId(CorpusError):
    def __init__(self, record_id: str, row: int | None = None):
        self.record_id = record_id
        self.row = row
        where = f"row {row}: " if row is not None else ""
        super().__init__(f"{where}duplicate record id {_quoted(record_id)}")


class UnknownLawType(CorpusError):
    def __init__(self, value: str, row: int | None = None):
        self.value = value
        self.row = row
        where = f"row {row}: " if row is not None else ""
        super().__init__(f"{where}unknown law type {_quoted(value)}")


class MalformedDate(CorpusError):
    def __init__(self, raw: object, row: int | None = None):
        self.raw = raw
        self.row = row
        where = f"row {row}: " if row is not None else ""
        super().__init__(f"{where}malformed date {_quoted(raw, repr if isinstance(raw, str) else _as_json)}")


class MalformedRow(CorpusError):
    """A line or row its reader rejects; row None is the CSV header."""

    def __init__(self, row: int | None, detail: str, what: str = "JSON line"):
        self.row = row
        where = "header" if row is None else f"row {row}"
        super().__init__(f"{where}: malformed {what}: {detail}")


class UndecodableCorpus(CorpusError):
    def __init__(self, path, row: int | None, detail: str):
        self.row = row
        where = f"row {row}: " if row is not None else ""
        super().__init__(f"corpus file {path}: {where}not UTF-8: {detail}")


class EmptyContent(CorpusError):
    def __init__(self, record_id: str):
        self.record_id = record_id
        super().__init__(f"record {_quoted(record_id)} has empty content")


class InvalidConfig(LextopicError):
    module = "config"


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------

class PreprocessError(LextopicError):
    module = "preprocess"


class EmptyDocument(PreprocessError):
    def __init__(self, record_id: str):
        self.record_id = record_id
        super().__init__(f"record {_quoted(record_id)} yields no tokens after preprocessing")


class UndecodableWordList(PreprocessError):
    def __init__(self, path, detail: str):
        super().__init__(f"word list {path}: not UTF-8: {detail}")


# ---------------------------------------------------------------------------
# vectorize
# ---------------------------------------------------------------------------

class VectorizeError(LextopicError):
    module = "vectorize"


class EmptyVocabulary(VectorizeError):
    def __init__(self):
        super().__init__("no term survives the document-frequency filters")


class NoDocuments(VectorizeError, ValueError):
    """Nothing to count. Also a ValueError, which build_vocabulary raised before this class existed."""

    def __init__(self):
        super().__init__("cannot build a vocabulary from zero documents")


class AllZero(VectorizeError):
    def __init__(self, scale: float):
        self.scale = scale
        super().__init__(f"every pseudo-count rounds to zero at scale {scale}")


class PseudoCountOverflow(VectorizeError):
    def __init__(self, scale: float):
        super().__init__(f"a pseudo-count at scale {scale} reaches 2**63, past what an int64 count holds")


# ---------------------------------------------------------------------------
# lda
# ---------------------------------------------------------------------------

class LdaError(LextopicError):
    module = "lda"


class EmptyMatrix(LdaError):
    def __init__(self):
        super().__init__("document-term matrix contains no tokens")


class TooLarge(LdaError):
    def __init__(self, n_states: int, bound: int):
        super().__init__(f"enumeration of {n_states} assignment vectors exceeds bound {bound}")


class VocabularyMismatch(LdaError):
    def __init__(self, detail: str):
        super().__init__(f"model vocabulary does not match: {detail}")


class CorruptModel(LdaError):
    def __init__(self, path, detail: str):
        super().__init__(f"model file {path}: {detail}")


class OtherModelVersion(CorruptModel):
    """A model file whose format or version is not the one this code reads; a version-1 file asks for a refit."""

    def __init__(self, path, found_format: object, found_version: object, format: str, version: int):
        detail = f"not a {format} v{version} file: {_quoted(found_format)} v{_quoted(found_version)}"
        if found_format == format and type(found_version) is int and found_version == 1:
            detail += "; this version of lextopic does not read v1 files, so refit the model"
        super().__init__(path, detail)


class EntryOutOfRange(LdaError):
    def __init__(self, doc: object, term: object, value: object, n_docs: int, n_terms: int, what: str):
        doc, term, value = (_quoted(item, repr if isinstance(item, str) else str) for item in (doc, term, value))
        super().__init__(f"matrix entry (doc {doc}, term {term}) = {value} is not a {what} "
                         f"inside a {n_docs} x {n_terms} matrix")


class MalformedEntries(LdaError):
    """Matrix entries that are not three 1-d arrays of one length, whose docs fall, or with not one id per doc."""


class TooManyTokens(LdaError):
    def __init__(self, total: int):
        super().__init__(f"the matrix holds {total} tokens, more than the sampler can hold in memory")


class AbsentTopWord(LdaError, ValueError):
    """A topic's top word occurs in no document of the scoring matrix.

    Also a ValueError, which coherence_umass raised before this class existed.
    """

    def __init__(self, topic: int, term: int):
        self.topic = topic
        self.term = term
        super().__init__(f"topic {topic} top word (term {term}) occurs in no document")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

class AnalyzeError(LextopicError):
    module = "analyze"


class AlignmentMismatch(AnalyzeError):
    def __init__(self, detail: str):
        super().__init__(f"model documents do not align with corpus records: {detail}")


class MissingYear(AnalyzeError):
    def __init__(self, record_id: str):
        self.record_id = record_id
        super().__init__(f"record {_quoted(record_id)} has no derivable year")


class UnknownTopicId(AnalyzeError):
    def __init__(self, topic_id: int):
        self.topic_id = topic_id
        super().__init__(f"label references topic id {_quoted(topic_id, str)} outside the model")


class MalformedLabels(AnalyzeError):
    def __init__(self, path, detail: str):
        super().__init__(f"label map {path}: {detail}")
