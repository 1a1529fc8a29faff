"""Law-record corpora: loading, validation, filtering, dates, synthesis.

Records carry Solar Hijri publication dates as the source of truth; the
Gregorian year is derived once at construction so every downstream trend
table can key on it without re-converting.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from html.parser import HTMLParser
from pathlib import Path

import numpy as np

from ._files import atomic_writer
from .errors import (
    DuplicateId,
    EmptyContent,
    InvalidConfig,
    MalformedDate,
    MalformedRow,
    MissingField,
    StructureMismatch,
    UndecodableCorpus,
    UnknownLawType,
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
    "parse_html_record",
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


def _date_number(number, value) -> int:
    """A dict date's year, month or day: an integer, a float with no fraction, or an integer string."""
    if type(number) is int:  # not a bool
        return number
    if isinstance(number, str):
        try:
            return int(number)
        except ValueError:
            raise MalformedDate(value) from None
    if type(number) is float and number.is_integer():  # False for inf and nan
        return int(number)
    raise MalformedDate(value)  # a bool, a fraction, null, a list, an object


def parse_record_date(value, row: int | None = None) -> RecordDate:
    """Build a RecordDate from serialized dict or published string forms.

    Accepted strings: "1402/04/06" (year first), "04/06/1402" (year
    last), and "Saturday, July 10, 1402" where the weekday is ignored
    and the month name indexes the Jalali month. A dict's year, like a
    string's four digits, is in 1-9999.
    """
    if isinstance(value, RecordDate):
        return value
    try:
        if isinstance(value, dict):
            try:
                y, m, d = value["year"], value["month"], value["day"]
            except KeyError:
                raise MalformedDate(value) from None
            if type(y) is not int or type(m) is not int or type(d) is not int:
                y, m, d = _date_number(y, value), _date_number(m, value), _date_number(d, value)
            if not 1 <= y <= 9999:
                raise MalformedDate(value)
            raw = value.get("raw")
            raw = f"{y:04d}/{m:02d}/{d:02d}" if raw is None else str(raw)
            return RecordDate.from_jalali(raw, y, m, d)
        if isinstance(value, str):
            text = value.strip()
            match = _YMD.match(text)
            if match:
                y, m, d = map(int, match.groups())
                return RecordDate.from_jalali(text, y, m, d)
            match = _MDY.match(text)
            if match:
                m, d, y = map(int, match.groups())
                return RecordDate.from_jalali(text, y, m, d)
            match = _NAMED.match(text)
            if match:
                name = match.group(1).lower()
                if name in _MONTH_NAME_TO_JALALI:
                    return RecordDate.from_jalali(
                        text,
                        int(match.group(3)),
                        _MONTH_NAME_TO_JALALI[name],
                        int(match.group(2)),
                    )
            raise MalformedDate(value)
        raise MalformedDate(value)
    except MalformedDate as exc:
        if row is not None and exc.row is None:
            raise MalformedDate(exc.raw, row) from None
        raise


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
        try:
            value = json.loads(text)
        except (json.JSONDecodeError, RecursionError):
            raise MissingField(row, name) from None
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
        try:
            date_value = json.loads(date_value)
        except (json.JSONDecodeError, RecursionError):
            raise MalformedDate(date_value, row) from None
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


def load_corpus(path, format: str = "jsonl") -> Corpus:
    """Read law records from a JSONL or CSV file, validating every row.

    Row numbers in errors are 1-based over data rows (the CSV header is
    not counted). A file that is not UTF-8 raises UndecodableCorpus.
    """
    path = Path(path)
    if format not in ("jsonl", "csv"):
        raise ValueError(f"unknown corpus format {format!r}")
    records: list[LawRecord] = []
    seen_ids: set = set()
    law_types: dict = {}
    try:
        if format == "jsonl":
            with path.open(encoding="utf-8") as handle:
                row = 0
                for line in handle:
                    if line.isspace():  # a blank line; a line read from a file is never ""
                        continue
                    row += 1
                    try:
                        mapping = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise MalformedRow(row, str(exc)) from None
                    except RecursionError:
                        raise MalformedRow(row, "nested deeper than the recursion limit") from None
                    if not isinstance(mapping, dict):
                        raise MalformedRow(row, f"expected an object, got {type(mapping).__name__}")
                    record = _record_from_mapping(mapping, row, seen_ids, law_types)
                    if "\\" in line:
                        _reject_surrogates(record, row, "JSON line")
                    records.append(record)
        else:
            with path.open(encoding="utf-8", newline="") as handle:
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
    except UnicodeDecodeError:
        raise UndecodableCorpus(path, *_undecodable_row(path, format)) from None
    return Corpus(records)


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
        raise ValueError(f"unknown corpus format {format!r}")


# --- saved detail pages ----------------------------------------------------

_REGIONS = ("id", "title", "content", "lead", "tags", "classes", "type", "category", "date")


class _RegionExtractor(HTMLParser):
    """Collect text chunks per law-* region; list items become entries."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self._stack: list[tuple[str, str | None]] = []
        self.chunks: dict[str, list[str]] = {}
        self.items: dict[str, list[str]] = {}
        self._open_item: str | None = None

    def _active_region(self) -> str | None:
        for _, region in reversed(self._stack):
            if region is not None:
                return region
        return None

    def handle_starttag(self, tag, attrs):
        region = None
        for name, value in attrs:
            if name == "class" and value:
                for token in value.split():
                    if token.startswith("law-") and token[4:] in _REGIONS:
                        region = token[4:]
        self._stack.append((tag, region))
        if region is not None and region not in self.chunks:
            self.chunks[region] = []
        if tag == "li" and self._active_region() in ("tags", "classes"):
            self._open_item = self._active_region()
            self.items.setdefault(self._open_item, []).append("")

    def handle_endtag(self, tag):
        if tag == "li" and self._open_item is not None:
            self._open_item = None
        for index in range(len(self._stack) - 1, -1, -1):
            if self._stack[index][0] == tag:
                del self._stack[index:]
                break

    def handle_data(self, data):
        region = self._active_region()
        if region is None or not data.strip():
            return
        if self._open_item is not None:
            self.items[self._open_item][-1] += " " + data
        else:
            self.chunks[region].append(data)


def _joined(chunks: list[str]) -> str:
    return " ".join(" ".join(chunks).split())


def parse_html_record(html: str) -> LawRecord:
    """Extract a LawRecord from a saved detail page.

    Regions are located by class names law-id, law-title, law-content,
    law-lead, law-tags, law-classes, law-type, law-category, law-date.
    Markup inside a region is stripped; text fragments join with single
    spaces.
    """
    extractor = _RegionExtractor()
    extractor.feed(html)
    extractor.close()

    def text_of(region: str, required: bool = True) -> str:
        if region not in extractor.chunks and region not in extractor.items:
            if required:
                raise StructureMismatch(region)
            return ""
        return _joined(extractor.chunks.get(region, []))

    def list_of(region: str) -> list[str]:
        if region not in extractor.chunks and region not in extractor.items:
            raise StructureMismatch(region)
        items = [" ".join(item.split()) for item in extractor.items.get(region, [])]
        items = [item for item in items if item]
        if items:
            return items
        joined = _joined(extractor.chunks.get(region, []))
        return [part.strip() for part in joined.split(",") if part.strip()]

    return LawRecord(
        id=text_of("id"),
        title=text_of("title"),
        content=text_of("content"),
        law_type=parse_law_type(text_of("type")),
        date=parse_record_date(text_of("date")),
        lead=text_of("lead", required=False),
        tags=list_of("tags"),
        classes=list_of("classes"),
        category=text_of("category"),
    )


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
                raise InvalidConfig(f"{name} must be >= 1, got {getattr(self, name)}")
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
