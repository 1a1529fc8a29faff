"""Law-record corpora: loading, validation, filtering, dates, synthesis.

Records carry Solar Hijri publication dates as the source of truth; the
Gregorian year is derived once at construction so every downstream trend
table can key on it without re-converting.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import re
import string
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from ._files import atomic_writer, decode_json
from .errors import (
    DuplicateId, EmptyContent, InvalidConfig, LextopicError, MalformedDate, MalformedRow, MissingField,
    UndecodableCorpus, UnknownLawType, _quoted,
)
from .jalali import jalali_to_gregorian_year
from .trends import PER_YEAR, TrendTable, year_table

__all__ = [
    "LawType",
    "RecordDate",
    "LawRecord",
    "Corpus",
    "SynthConfig",
    "GroundTruth",
    "load_corpus",
    "save_corpus",
    "filter_by_type",
    "jalali_to_gregorian_year",
    "type_counts_by_year",
    "length_ratio",
    "generate_synthetic_corpus",
]


class LawType(Enum):
    NEWS = "News"
    DRAFT = "Draft"
    VOTE = "Vote"
    PLAN = "Plan"
    LAW = "Law"
    BILL = "Bill"
    PARLIAMENT_DELIBERATION = "ParliamentDeliberation"
    REGULATION = "Regulation"
    OPINION = "Opinion"


# Lookup by squashed lowercase form; accepts the plural spellings that
# appear in source pages ("Parliament deliberations", "Regulations news"
# style type cells) without opening the enum itself.
_LAW_TYPE_LOOKUP = {}
for _t in LawType:
    _key = _t.value.lower()
    _LAW_TYPE_LOOKUP[_key] = _t
    if not _key.endswith("s"):
        _LAW_TYPE_LOOKUP[_key + "s"] = _t


def parse_law_type(value: str, row: int | None = None) -> LawType:
    squashed = re.sub(r"[\s_-]+", "", str(value).strip()).lower()
    try:
        return _LAW_TYPE_LOOKUP[squashed]
    except KeyError:
        raise UnknownLawType(value, row) from None


@dataclass(frozen=True)
class RecordDate:
    """A publication date: Jalali components plus the derived Gregorian year."""

    raw: str
    jalali_year: int
    jalali_month: int
    jalali_day: int
    gregorian_year: int

    @classmethod
    def from_jalali(cls, raw: str, year: int, month: int, day: int) -> "RecordDate":
        return cls(raw, year, month, day, jalali_to_gregorian_year(year, month, day))


# Dotic pages translate Jalali month names positionally into English
# month names (Farvardin -> April, ... Esfand -> March), so the English
# name in a date string denotes the Jalali month at that position.
_MONTH_NAME_TO_JALALI = {
    "april": 1,
    "may": 2,
    "june": 3,
    "july": 4,
    "august": 5,
    "september": 6,
    "october": 7,
    "november": 8,
    "december": 9,
    "january": 10,
    "february": 11,
    "march": 12,
}

_YMD = re.compile(r"(\d{4})[/-](\d{1,2})[/-](\d{1,2})$")
_MDY = re.compile(r"(\d{1,2})[/-](\d{1,2})[/-](\d{4})$")
_NAMED = re.compile(r"(?:[A-Za-z]+,\s*)?([A-Za-z]+)\s+(\d{1,2}),\s*(\d{4})$")
_ASCII_LETTERS = frozenset(string.ascii_letters)


def _date_number(number) -> int | None:
    """A dict date's year, month or day: an integer, a float with no fraction, or an integer string; else None."""
    if type(number) is int:  # not a bool
        return number
    if isinstance(number, str):
        try:
            return int(number)
        except ValueError:
            return None
    if type(number) is float and number.is_integer():  # False for inf and nan
        return int(number)
    return None  # a bool, a fraction, null, a list, an object


def _parse_date(value) -> RecordDate | None:
    """parse_record_date's RecordDate, or None for a value in none of its forms.

    validate_jalali raises MalformedDate for numbers that are no Jalali date.
    """
    if isinstance(value, dict):
        try:
            y, m, d = value["year"], value["month"], value["day"]
        except KeyError:
            return None
        if type(y) is not int or type(m) is not int or type(d) is not int:
            y, m, d = _date_number(y), _date_number(m), _date_number(d)
            if y is None or m is None or d is None:
                return None
        if not 1 <= y <= 9999:
            return None
        raw = value.get("raw")
        raw = f"{y:04d}/{m:02d}/{d:02d}" if raw is None else str(raw)
        return RecordDate.from_jalali(raw, y, m, d)
    if not isinstance(value, str):
        return None
    parts = _string_date(value)
    return None if parts is None else RecordDate.from_jalali(*parts)


def _string_date(value: str) -> tuple[str, int, int, int] | None:
    """The raw text, year, month and day of a date string in one of parse_record_date's forms; None for any other.

    Only the named form starts with an ASCII letter, and the two numeric
    forms start with a digit, so the first character picks which to try.
    """
    text = value.strip()
    if text[:1] in _ASCII_LETTERS:
        match = _NAMED.match(text)
        if match:
            name = match.group(1).lower()
            if name in _MONTH_NAME_TO_JALALI:
                return text, int(match.group(3)), _MONTH_NAME_TO_JALALI[name], int(match.group(2))
        return None
    match = _YMD.match(text)
    if match:
        y, m, d = map(int, match.groups())
        return text, y, m, d
    match = _MDY.match(text)
    if match:
        m, d, y = map(int, match.groups())
        return text, y, m, d
    return None


def parse_record_date(value, row: int | None = None) -> RecordDate:
    """Build a RecordDate from serialized dict or published string forms.

    Accepted strings: "1402/04/06" (year first), "04/06/1402" (year
    last), and "Saturday, July 10, 1402" where the weekday is ignored
    and the month name indexes the Jalali month. A dict's year, like a
    string's four digits, is in 1-9999. Any other value, or numbers that
    are no Jalali date, raise MalformedDate quoting the value as given.
    """
    if isinstance(value, RecordDate):
        return value
    try:
        date = _parse_date(value)
    except MalformedDate:  # validate_jalali's own error quotes the parsed numbers, not the value the row holds
        date = None
    if date is None:
        raise MalformedDate(value, row)
    return date


@dataclass
class LawRecord:
    id: str
    title: str
    content: str
    law_type: LawType
    date: RecordDate | None = None
    lead: str = ""
    tags: list[str] = field(default_factory=list)
    classes: list[str] = field(default_factory=list)
    category: str = ""


@dataclass
class Corpus:
    records: list[LawRecord]

    def __len__(self) -> int:
        return len(self.records)


# On-disk field names; "type"/"categories" are the header spellings used
# by the upstream sample tables and are accepted as aliases on load.
_FIELD_ORDER = ("id", "title", "content", "lead", "tags", "classes", "law_type", "category", "date")
_REQUIRED = ("id", "title", "content", "law_type", "date")
# The CSV cells that may hold JSON; save_corpus writes them so.
_JSON_CELLS = ("tags", "classes", "date")


def _as_string_list(value, row: int, name: str) -> list[str]:
    """A tags or classes value: a list of strings, a JSON list in a string, or comma-separated text."""
    if isinstance(value, str):
        text = value.strip()
        if not text.startswith("["):
            return [part.strip() for part in text.split(",") if part.strip()]
        value = decode_json(text, lambda reason: MissingField(row, name))
    elif value is None:
        return []
    if isinstance(value, list):
        for item in value:  # a loop, not all() over a generator: 5x faster on the short lists JSON gives
            if not isinstance(item, str):
                break
        else:
            return list(value)  # exact-size: a list json.loads grew keeps spare slots
    raise MissingField(row, name)


def _record_from_mapping(mapping: dict, row: int, seen_ids: set, law_types: dict) -> LawRecord:
    """Validate one row; law_types memoizes parse_law_type for one load."""
    get = mapping.get
    law_type = get("law_type")
    if law_type is None:
        law_type = get("type")
    required = (get("id"), get("title"), get("content"), law_type, get("date"))
    if None in required:
        raise MissingField(row, _REQUIRED[required.index(None)])
    record_id, title, content, _, date_value = required
    # Trim only to test emptiness; stored values stay byte-exact so that
    # save -> load round-trips.
    record_id = str(record_id)
    title = str(title)
    if not record_id.strip():
        raise MissingField(row, "id")
    if not title.strip():
        raise MissingField(row, "title")
    if record_id in seen_ids:
        raise DuplicateId(record_id, row)
    seen_ids.add(record_id)

    if isinstance(date_value, str) and date_value.strip().startswith("{"):
        date_value = decode_json(date_value, lambda reason: MalformedDate(date_value, row))
    law_type = str(law_type)
    parsed_type = law_types.get(law_type)
    if parsed_type is None:
        parsed_type = law_types[law_type] = parse_law_type(law_type, row)
    category = get("category")
    if category is None:
        category = get("categories")
    # Positional, in field order: keywords double the cost of the call.
    return LawRecord(
        record_id,
        title,
        str(content),
        parsed_type,
        parse_record_date(date_value, row),
        str(get("lead") or ""),
        _as_string_list(get("tags"), row, "tags"),
        _as_string_list(get("classes"), row, "classes"),
        str(category or ""),
    )


_SURROGATE = re.compile("[\ud800-\udfff]")


def _reject_surrogates(record: LawRecord, row: int, what: str) -> None:
    """Raise MalformedRow naming the first field of record that holds a lone surrogate.

    No UTF-8 artifact can hold one. Only a JSON \\u escape, which needs a
    backslash, puts one in text read from UTF-8, so callers check only
    rows whose JSON holds a backslash.
    """
    fields = {
        "id": record.id, "title": record.title, "content": record.content, "lead": record.lead,
        "tags": "".join(record.tags), "classes": "".join(record.classes), "category": record.category,
        "date": record.date.raw,
    }
    for name, text in fields.items():
        if _SURROGATE.search(text):
            raise MalformedRow(row, f"field {name} holds a lone surrogate", what)


def _undecodable_row(path: Path, format: str) -> tuple[int | None, str]:
    """Locate the first byte of path that is not UTF-8.

    Returns the data row holding it (None for the CSV header) and the
    decoder's reason. The valid prefix is read with the loader's own line
    and record rules; the appended "x" makes the bad row the last one.
    """
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        prefix = data[: exc.start].decode("utf-8") + "x"
        reason = f"{exc.reason} at byte {exc.start}"
    else:
        return None, "not UTF-8"
    if format == "jsonl":
        rows = sum(1 for line in io.StringIO(prefix, newline=None) if line.strip())
    else:
        rows = sum(1 for _ in csv.DictReader(io.StringIO(prefix, newline=""))) or None
    return rows, reason


# json.loads's own C scanner, called without the decode() layer around it.
_scan_object = json.JSONDecoder().scan_once
# Bytes read at a time on the compiled reader's path; one block's parsed rows are the transient memory it adds.
_BLOCK_SIZE = 1 << 16


def _record_from_line(line: str, row: int, seen_ids: set, law_types: dict) -> LawRecord:
    """The record of one JSONL line that is not blank, as json.loads reads the line.

    A line whose value spans the whole line, up to its final newline, is
    taken from json's C scanner as json.loads would return it; any other
    line, or any line the scanner rejects, goes through decode_json,
    json.loads with its errors mapped to MalformedRow.
    """
    try:
        mapping, end = _scan_object(line, 0)
    except (StopIteration, ValueError, RecursionError):
        end = -1
    # json.loads allows only whitespace after the value: kept where only the line's "\n" follows.
    if not (end == len(line) or (end == len(line) - 1 and line[end] == "\n")):
        mapping = decode_json(line, lambda reason: MalformedRow(row, reason))
    if not isinstance(mapping, dict):
        raise MalformedRow(row, f"expected an object, got {type(mapping).__name__}")
    record = _record_from_mapping(mapping, row, seen_ids, law_types)
    if "\\" in line:
        _reject_surrogates(record, row, "JSON line")
    return record


def _read_jsonl_text(path: Path) -> list[LawRecord]:
    records, seen_ids, law_types = [], set(), {}
    with path.open(encoding="utf-8") as handle:
        row = 0
        for line in handle:
            if line.isspace():  # a blank line; a line read from a file is never ""
                continue
            row += 1
            records.append(_record_from_line(line, row, seen_ids, law_types))
    return records


# Each law type's own spelling, which parse_law_type reads as that type: the law-type memo a compiled load starts
# with, so that the reader finds the types save_corpus writes from the first line on.
_LAW_TYPE_VALUES = {law_type.value: law_type for law_type in LawType}


def _record_shape(seen_ids: set, law_types: dict) -> tuple:
    """read_block's third argument: what it builds records with, and one load's id set and law-type memo."""
    return LawRecord, RecordDate, jalali_to_gregorian_year, _string_date, MalformedDate, law_types, seen_ids


def _read_jsonl_blocks(path: Path, read_block) -> list[LawRecord] | None:
    """The records, read with the compiled reader; None, at once, on a block that holds a carriage return.

    The file is read in binary, _BLOCK_SIZE bytes at a time, and the line
    that a block leaves unended is carried over to the next. A line with no
    newline in a whole block is gathered before it is read, so a long line
    costs no repeated scans. read_block's records are rows it built with
    _record_from_mapping's rules; its dicts are rows that _record_from_mapping
    finishes; neither holds a lone surrogate, which the reader never builds.
    A line it gives back as bytes is decoded and read as the text loop reads
    it. The reader adds its records' ids to seen_ids before this loop reads
    the rows it gave back from the same block, so a given-back row may meet
    the id of a later row. That DuplicateId sends the load to the text loop,
    which raises its own error: the id is in the file twice.
    """
    records, seen_ids, law_types = [], set(), dict(_LAW_TYPE_VALUES)
    shape = _record_shape(seen_ids, law_types)
    row = 0
    with path.open("rb") as handle:
        parts = []
        while True:
            chunk = handle.read(_BLOCK_SIZE)
            if b"\r" in chunk:  # a line end of the text loop's universal newlines
                return None
            parts.append(chunk)
            if chunk and b"\n" not in chunk:
                continue
            block = b"".join(parts)
            items, consumed = read_block(block, not chunk, shape)
            parts = [block[consumed:]]
            for item in items:
                if type(item) is LawRecord:
                    row += 1
                    records.append(item)
                    continue
                if type(item) is dict:
                    row += 1
                    records.append(_record_from_mapping(item, row, seen_ids, law_types))
                    continue
                line = item.decode("utf-8")
                if not line.isspace():
                    row += 1
                    records.append(_record_from_line(line, row, seen_ids, law_types))
            if not chunk:
                return records


def _read_csv(path: Path) -> list[LawRecord]:
    records, seen_ids, law_types = [], set(), {}
    with path.open(encoding="utf-8-sig", newline="") as handle:
        reader = csv.DictReader(handle)
        row = None
        try:
            reader.fieldnames  # reads the header
            row = 0
            for row, mapping in enumerate(reader, start=1):
                record = _record_from_mapping(mapping, row, seen_ids, law_types)
                if any("\\" in (mapping.get(name) or "") for name in _JSON_CELLS):
                    _reject_surrogates(record, row, "CSV")
                records.append(record)
        except csv.Error as exc:  # a cell over csv.field_size_limit()
            raise MalformedRow(None if row is None else row + 1, str(exc), "CSV") from None
    return records


def load_corpus(path, format: str = "jsonl") -> Corpus:
    """Read law records from a JSONL or CSV file, validating every row.

    Row numbers in errors are 1-based over data rows (the CSV header is
    not counted). A file that is not UTF-8 raises UndecodableCorpus. A
    CSV file may open with a UTF-8 byte order mark.

    The cyclic garbage collector is paused for the call: records hold no
    reference cycles, so a collection during the load would traverse new
    records and free nothing. cli.main pauses it for a whole command; this
    pause is for library callers.

    JSONL goes through the compiled reader of _jsonl where it can be built:
    each row of the common shape the reader builds (str text fields, a
    known law type, lists of str, an int or string date) comes back as its
    record, each other line in the reader's subset as the dict json.loads
    gives, and any other line is read as the text loop reads it. A block
    holding a carriage return, and any LextopicError or UnicodeDecodeError,
    loads the file again through the text loop, which reads the file in
    text mode, so that the records, every error, its row and its message
    are the text loop's.
    """
    path = Path(path)
    if format not in ("jsonl", "csv"):
        raise ValueError(f"unknown corpus format {_quoted(format)}")
    collecting = gc.isenabled()
    gc.disable()
    try:
        if format == "csv":
            return Corpus(_read_csv(path))
        from . import _jsonl  # not at import time: a library import builds nothing

        read_block = _jsonl.load_reader()
        records = None
        if read_block is not None:
            try:
                records = _read_jsonl_blocks(path, read_block)
            except (LextopicError, UnicodeDecodeError):
                pass  # the text loop raises it again, or an error that comes before it there
        return Corpus(_read_jsonl_text(path) if records is None else records)
    except UnicodeDecodeError:
        raise UndecodableCorpus(path, *_undecodable_row(path, format)) from None
    finally:
        if collecting:
            gc.enable()


def _date_payload(date: RecordDate | None):
    if date is None:
        return None
    return {
        "raw": date.raw,
        "year": date.jalali_year,
        "month": date.jalali_month,
        "day": date.jalali_day,
    }


def save_corpus(corpus: Corpus, path, format: str = "jsonl") -> None:
    """Serialize with the stable field order id..date; lists stay JSON."""
    path = Path(path)
    rows = []
    for record in corpus.records:
        rows.append(
            {
                "id": record.id,
                "title": record.title,
                "content": record.content,
                "lead": record.lead,
                "tags": record.tags,
                "classes": record.classes,
                "law_type": record.law_type.value,
                "category": record.category,
                "date": _date_payload(record.date),
            }
        )
    if format == "jsonl":
        with atomic_writer(path) as handle:
            for payload in rows:
                handle.write(json.dumps(payload, ensure_ascii=False) + "\n")
    elif format == "csv":
        with atomic_writer(path, newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(_FIELD_ORDER))
            writer.writeheader()
            for payload in rows:
                for name in ("tags", "classes", "date"):
                    payload[name] = json.dumps(payload[name], ensure_ascii=False)
                writer.writerow(payload)
    else:
        raise ValueError(f"unknown corpus format {_quoted(format)}")


# --- filtering and per-record measures --------------------------------------

def filter_by_type(corpus: Corpus, law_type: LawType) -> Corpus:
    kept = [record for record in corpus.records if record.law_type is law_type]
    return Corpus(kept)


def type_counts_by_year(corpus: Corpus) -> TrendTable:
    """Count records per (law type, Gregorian year); shares are per year."""
    present = {record.law_type for record in corpus.records}
    row_types = [law_type for law_type in LawType if law_type in present]
    type_index = {law_type: i for i, law_type in enumerate(row_types)}
    rows = [type_index[record.law_type] for record in corpus.records]
    return year_table([law_type.value for law_type in row_types], rows, corpus.records, PER_YEAR)


def length_ratio(record: LawRecord) -> float:
    """Title length over content length, in characters after trimming."""
    content_length = len(record.content.strip())
    if content_length == 0:
        raise EmptyContent(record.id)
    return len(record.title.strip()) / content_length


# --- synthetic corpora -------------------------------------------------------

@dataclass
class SynthConfig:
    n_docs: int
    n_topics: int
    vocab_size: int
    doc_length: int
    alpha: float = 1.0
    beta: float = 0.1
    years: tuple[int, ...] = (2020,)
    seed: int = 0

    def __post_init__(self):
        for name in ("n_docs", "n_topics", "vocab_size", "doc_length"):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be >= 1, got {_quoted(getattr(self, name), str)}")
        if self.alpha <= 0 or self.beta <= 0:
            raise InvalidConfig("alpha and beta must be positive")
        if not self.years:
            raise InvalidConfig("years must be non-empty")


@dataclass
class GroundTruth:
    doc_topic: np.ndarray
    topic_word: np.ndarray


def _synthetic_date(gregorian_year: int) -> RecordDate:
    # Jalali month 7 starts in late September, safely inside the target
    # Gregorian year for the whole study era.
    jalali_year = gregorian_year - 621
    return RecordDate.from_jalali(f"{jalali_year:04d}/07/01", jalali_year, 7, 1)


def generate_synthetic_corpus(config: SynthConfig) -> tuple[Corpus, GroundTruth]:
    """Sample documents from the mixture generative process.

    Each document draws a topic-share vector from Dirichlet(alpha); each
    topic draws a word distribution from Dirichlet(beta); every token
    picks a topic then a word. Deterministic under config.seed.

    A document's words are drawn topic by topic, in ascending topic order,
    as rng.choice(vocab_size, size, p=topic_word[topic]) draws them: one
    rng.random(size) searched in the topic's normalized CDF. The CDFs are
    built once, not on every draw.
    """
    rng = np.random.default_rng(config.seed)
    topic_word = rng.dirichlet([config.beta] * config.vocab_size, size=config.n_topics)
    doc_topic = rng.dirichlet([config.alpha] * config.n_topics, size=config.n_docs)
    width = max(3, len(str(config.vocab_size - 1)))
    words = [f"w{term:0{width}d}" for term in range(config.vocab_size)]
    word_cdfs = topic_word.cumsum(axis=1)
    word_cdfs /= word_cdfs[:, -1:]

    records = []
    for doc in range(config.n_docs):
        assignments = rng.choice(config.n_topics, size=config.doc_length, p=doc_topic[doc])
        token_ids = np.empty(config.doc_length, dtype=np.int64)
        for topic in np.flatnonzero(np.bincount(assignments, minlength=config.n_topics)):
            positions = assignments == topic
            token_ids[positions] = word_cdfs[topic].searchsorted(rng.random(int(positions.sum())), side="right")
        records.append(
            LawRecord(
                id=f"synth-{doc:05d}",
                title=f"synthetic law {doc:05d}",
                content=" ".join(words[token] for token in token_ids),
                law_type=LawType.REGULATION,
                date=_synthetic_date(config.years[doc % len(config.years)]),
            )
        )
    return Corpus(records), GroundTruth(doc_topic=doc_topic, topic_word=topic_word)
