"""The read path against the code it replaced: corpus rows and top words.

``reference_load`` is the row-by-row loader that ``load_corpus`` replaced:
nine alias lookups per row, ``json.loads`` per line, and every law type
and date parsed afresh; ``load_corpus`` is checked against it with the
compiled JSONL reader and without it. The reader itself is checked line by
line against ``json.loads``, and each record it builds against the one
``_record_from_mapping`` builds from the same row; every line that
``save_corpus`` and the benchmark's generators write must be built in C.
``reference_top_words`` is the full sort that ``top_words`` replaced.
"""

import csv
import importlib.util
import json
import logging
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import jsonl_row

from lextopic import _jsonl, _native, corpus
from lextopic.analyze import _term_names, top_words
from lextopic.corpus import (
    Corpus,
    LawRecord,
    LawType,
    RecordDate,
    _record_from_mapping,
    load_corpus,
    parse_law_type,
    parse_record_date,
    save_corpus,
)
from lextopic.errors import DuplicateId, MalformedDate, MalformedRow, MissingField
from lextopic.jalali import jalali_to_gregorian
from lextopic.lda import LdaConfig, LdaModel
from lextopic.vectorize import Vocabulary

# --- the loader before the single-pass rewrite --------------------------------

_ALIASES = {"law_type": ("law_type", "type"), "category": ("category", "categories")}
_REQUIRED = ("id", "title", "content", "law_type", "date")


def _pick(mapping: dict, name: str):
    for key in _ALIASES.get(name, (name,)):
        if key in mapping and mapping[key] is not None:
            return mapping[key]
    return None


def _reference_string_list(value, row: int, name: str) -> list[str]:
    if value is None or value == "":
        return []
    if isinstance(value, str):
        text = value.strip()
        if text.startswith("["):
            try:
                value = json.loads(text)
            except json.JSONDecodeError:
                raise MissingField(row, name) from None
        else:
            return [part.strip() for part in text.split(",") if part.strip()]
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise MissingField(row, name)
    return list(value)


def _reference_record(mapping: dict, row: int, seen_ids: set) -> LawRecord:
    values = {}
    for name in _REQUIRED:
        value = _pick(mapping, name)
        if value is None:
            raise MissingField(row, name)
        values[name] = value
    record_id = str(values["id"])
    title = str(values["title"])
    if not record_id.strip():
        raise MissingField(row, "id")
    if not title.strip():
        raise MissingField(row, "title")
    if record_id in seen_ids:
        raise DuplicateId(record_id, row)
    seen_ids.add(record_id)

    date_value = values["date"]
    if isinstance(date_value, str) and date_value.strip().startswith("{"):
        try:
            date_value = json.loads(date_value)
        except json.JSONDecodeError:
            raise MalformedDate(date_value, row) from None
    return LawRecord(
        id=record_id,
        title=title,
        content=str(values["content"]),
        law_type=parse_law_type(str(values["law_type"]), row),
        date=parse_record_date(date_value, row),
        lead=str(_pick(mapping, "lead") or ""),
        tags=_reference_string_list(_pick(mapping, "tags"), row, "tags"),
        classes=_reference_string_list(_pick(mapping, "classes"), row, "classes"),
        category=str(_pick(mapping, "category") or ""),
    )


def reference_load(path, format: str) -> Corpus:
    records, seen_ids = [], set()
    if format == "jsonl":
        with open(path, encoding="utf-8") as handle:
            row = 0
            for line in handle:
                if not line.strip():
                    continue
                row += 1
                try:
                    mapping = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedRow(row, str(exc)) from None
                if not isinstance(mapping, dict):
                    raise MalformedRow(row, f"expected an object, got {type(mapping).__name__}")
                records.append(_reference_record(mapping, row, seen_ids))
    else:
        with open(path, encoding="utf-8", newline="") as handle:
            for row, mapping in enumerate(csv.DictReader(handle), start=1):
                records.append(_reference_record(mapping, row, seen_ids))
    return Corpus(records)


def _outcome(load, path, format):
    """The records, or the exception's class and message."""
    try:
        return load(path, format).records
    except Exception as exc:  # the comparison covers every exception
        return type(exc), str(exc)


# --- generated rows ------------------------------------------------------------

_TEXT = st.one_of(
    st.sampled_from(["", " ", "\xa0", "عنوان قانون", "x, y", 0, 7, None]),
    st.text(alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=6),
)
_DATE_PARTS = st.fixed_dictionaries(
    {
        "year": st.sampled_from([1400, "1400", " 1399", 0, "x"]),
        "month": st.sampled_from([1, 7, "12", 13]),
        "day": st.sampled_from([1, "30", 31]),
    },
    optional={"raw": st.sampled_from(["1400/07/01", 5])},
)
_DATE = st.one_of(
    _DATE_PARTS,
    st.builds(lambda parts, pad: pad + json.dumps(parts), _DATE_PARTS, st.sampled_from(["", " "])),
    st.sampled_from([
        "1400/07/01", " 1399-12-30 ", "07/01/1400", "12/31/1400", "Saturday, July 10, 1402",
        "March 30, 1399", "Monday, Smarch 1, 1400", "1400/7", "{bad", "", 5, [1400, 7, 1], None,
    ]),
)
_LAW_TYPE = st.sampled_from([
    "Regulation", "regulations", " News ", "Parliament deliberations", "parliament_deliberation",
    "Bills", "Newss", " Unknown ", "", 3, None,
])
_STRING_LIST = st.one_of(
    st.lists(st.sampled_from(["t", "t,2", " ", "برچسب"]), max_size=3),
    st.sampled_from([
        "a, b,", " ", "", '["a", "b"]', ' ["a"]', "[bad", '["a", 1]', [1], ["ok", None], 5, {"a": 1}, None,
    ]),
)
_ROW = st.fixed_dictionaries(
    {},
    optional={
        "id": st.sampled_from(["a", "b", "a ", " ", "", 7, None]),
        "title": _TEXT,
        "content": _TEXT,
        "lead": _TEXT,
        "tags": _STRING_LIST,
        "classes": _STRING_LIST,
        "law_type": _LAW_TYPE,
        "type": _LAW_TYPE,
        "category": _TEXT,
        "categories": _TEXT,
        "date": _DATE,
        "extra": _TEXT,
    },
)
_COMPLETE = {"id": "c", "title": "t", "content": "body", "law_type": "Regulation", "date": "1400/07/01"}
_GOOD_DATE = st.one_of(
    st.fixed_dictionaries(
        {"year": st.sampled_from([1400, "1381"]), "month": st.sampled_from([7, "12"]), "day": st.sampled_from([1, "30"])},
        optional={"raw": st.just("1400/07/01")},
    ),
    st.sampled_from(['{"year": 1390, "month": 10, "day": 11}', "1400/07/01", "10/11/1390", "Saturday, July 10, 1402"]),
)
_GOOD_LIST = st.one_of(st.lists(st.sampled_from(["t", "برچسب"]), max_size=2), st.sampled_from(["a, b", '["x"]', ""]))
_GOOD_TYPE = st.sampled_from(["Regulation", "Bills", "parliament deliberations", " News "])
# Mostly rows that load, so that generated files also reach their later rows.
_VALID_ROW = st.fixed_dictionaries(
    {
        "id": st.text(alphabet="abc", min_size=1, max_size=2),
        "title": st.sampled_from(["t", "عنوان قانون", " x "]),
        "content": _TEXT,
        "date": _GOOD_DATE,
    },
    optional={
        "lead": _TEXT,
        "tags": _GOOD_LIST,
        "classes": _GOOD_LIST,
        "category": _TEXT,
        "categories": _TEXT,
    },
)
_VALID_ROW = st.builds(
    lambda row, key, law_type: {**row, key: law_type}, _VALID_ROW, st.sampled_from(["law_type", "type"]), _GOOD_TYPE
)
# A loadable row with one or more fields spoiled, to check which error comes first.
_FLAWED_ROW = st.builds(
    lambda row, flaws: {**row, **flaws},
    _VALID_ROW,
    st.fixed_dictionaries({}, optional={"law_type": _LAW_TYPE, "date": _DATE, "tags": _STRING_LIST,
                                        "classes": _STRING_LIST, "title": _TEXT}),
)
_ROWS = st.lists(
    st.sampled_from([_VALID_ROW] * 4 + [_FLAWED_ROW] * 2 + [_ROW]).flatmap(lambda kind: kind), min_size=1, max_size=4
)

# Mostly decorations that json.loads accepts: a rejected line ends the file's load.
_LINE_PREFIX = st.sampled_from([""] * 10 + [" ", "\t", "\ufeff", "\xa0"])
_LINE_SUFFIX = st.sampled_from([""] * 10 + [" ", "\r", " \t", " x", "{}", "\xa0", "\u2028"])
_BLANK_LINE = st.sampled_from([" ", "\t", "\xa0", "\x1c", "\u3000"])
# Written as JSON text, after the row's own members: values json.dumps does not
# write as such, and repeated keys, of which the last one counts.
_LAST_MEMBER = st.sampled_from([""] * 6 + [
    '"extra": NaN', '"extra": 1e400', '"extra": 123456789012345678901234567890', '"id": "a"', '"title": " "',
])


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (dict, list)):
        return json.dumps(value, ensure_ascii=False)
    return str(value)


@pytest.fixture(scope="class", params=["reader", "text"])
def jsonl_path(request):
    """Each test of the class runs with the compiled reader, then with it missing."""
    with pytest.MonkeyPatch.context() as patch:
        if request.param == "text":
            patch.setattr(_jsonl, "load_reader", lambda: None)
        elif _jsonl.load_reader() is None:
            assert _native.find_compiler() is None, "a C compiler is on PATH but the JSONL reader did not load"
            pytest.skip("no C compiler on PATH")
        yield request.param


@pytest.mark.usefixtures("jsonl_path")
class TestLoaderMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=_ROWS,
        layout=st.lists(
            st.tuples(_LINE_PREFIX, _LINE_SUFFIX, st.booleans(), st.one_of(st.none(), _BLANK_LINE), _LAST_MEMBER),
            min_size=4, max_size=4,
        ),
        stray=st.sampled_from([None] * 12 + ["42", "[1]", "null", '"text"']),
        final_newline=st.booleans(),
    )
    def test_jsonl(self, tmp_path_factory, rows, layout, stray, final_newline):
        lines = []
        for row, (prefix, suffix, ascii_only, blank, member) in zip(rows, layout):
            if blank is not None:
                lines.append(blank)
            text = json.dumps(row, ensure_ascii=ascii_only)
            if member:
                text = text[:-1] + (", " if row else "") + member + "}"
            lines.append(prefix + text + suffix)
        if stray is not None:
            lines.insert(len(lines) // 2, stray)
        path = tmp_path_factory.mktemp("jsonl") / "c.jsonl"
        path.write_text("\n".join(lines) + ("\n" if final_newline else ""), encoding="utf-8")
        assert _outcome(load_corpus, path, "jsonl") == _outcome(reference_load, path, "jsonl")

    @pytest.mark.parametrize("text", [
        json.dumps(_COMPLETE),
        json.dumps(_COMPLETE) + "\xa0",
        json.dumps(_COMPLETE) + "\u2028",
        json.dumps(_COMPLETE) + "{}\n",
        json.dumps(_COMPLETE)[:-1] + ', "id": "d", "id": "e"}\n',
        json.dumps(_COMPLETE)[:-1] + ', "extra": NaN}\n',
        json.dumps(_COMPLETE)[:-1] + ', "extra": 1e400}\n',
        json.dumps(_COMPLETE)[:-1] + ', "extra": 123456789012345678901234567890}\n',
    ], ids=["no-final-newline", "no-final-newline-nbsp", "no-final-newline-u2028", "object-then-object",
            "repeated-key", "nan", "1e400", "30-digit-integer"])
    def test_jsonl_line_ends_and_values(self, tmp_path, text):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({**_COMPLETE, "id": "first"}) + "\n" + text, encoding="utf-8")
        assert _outcome(load_corpus, path, "jsonl") == _outcome(reference_load, path, "jsonl")

    @settings(max_examples=150, deadline=None)
    @given(rows=_ROWS, cut=st.lists(st.sampled_from([0, 0, 0, 0, -2, -1, 1]), min_size=4, max_size=4))
    def test_csv(self, tmp_path_factory, rows, cut):
        header = list(dict.fromkeys(key for row in rows for key in row)) or ["id"]
        path = tmp_path_factory.mktemp("csv") / "c.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for row, change in zip(rows, cut):
                cells = [_csv_cell(row.get(key)) for key in header]
                # Short rows read as None cells, long rows as a None key.
                writer.writerow(cells[: len(cells) + change] if change < 0 else cells + ["spill"] * change)
        assert _outcome(load_corpus, path, "csv") == _outcome(reference_load, path, "csv")

    @pytest.mark.parametrize(
        "flaws",
        [
            {"law_type": "Unknown", "date": "{bad"},
            {"law_type": " Unknown ", "date": "1400/13/01"},
            {"date": "1400/13/01", "tags": [1]},
            {"tags": [1], "classes": 5},
            {"id": "c", "date": "{bad"},
            {"title": " ", "law_type": None},
            {"law_type": None, "type": "Bills", "category": None, "categories": "x"},
        ],
    )
    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    def test_first_flaw_decides_the_error(self, tmp_path, flaws, format):
        rows = [_COMPLETE, {**_COMPLETE, "id": "d", **flaws}]
        path = tmp_path / f"c.{format}"
        if format == "jsonl":
            path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        else:
            header = list(dict.fromkeys(key for row in rows for key in row))
            with open(path, "w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(header)
                writer.writerows([_csv_cell(row.get(key)) for key in header] for row in rows)
        assert _outcome(load_corpus, path, format) == _outcome(reference_load, path, format)

    def test_sample_rows_load_equal(self, tmp_path):
        rows = [
            {**_COMPLETE, "id": f"r{i}", "type": law_type, "law_type": None, "date": date, "tags": tags}
            for i, (law_type, date, tags) in enumerate([
                ("Regulations", {"year": "1400", "month": 7, "day": 1}, "a, b"),
                ("parliament deliberations", '{"year": 1399, "month": 12, "day": 30}', '["x"]'),
                ("Regulation", "Saturday, July 10, 1402", ["y"]),
                ("Regulation", "10/12/1390", []),
            ])
        ]
        path = tmp_path / "c.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        records = load_corpus(path).records
        assert len(records) == 4
        assert records == reference_load(path, "jsonl").records


# --- the compiled JSONL reader against json.loads ----------------------------------

@pytest.fixture(scope="module")
def reader():
    reader = _jsonl.load_reader()
    if reader is None:
        assert _native.find_compiler() is None, "a C compiler is on PATH but the JSONL reader did not load"
        pytest.skip("no C compiler on PATH")
    return reader


def new_load() -> tuple[set, dict]:
    """The id set and law-type memo a load starts with."""
    return set(), dict(corpus._LAW_TYPE_VALUES)


@pytest.fixture(scope="module")
def read_block(reader):
    """The reader, with the shape of a new load on every call."""
    return lambda block, final: reader(block, final, corpus._record_shape(*new_load()))


def same_record(record: LawRecord, expected: LawRecord) -> bool:
    """record == expected, with the same attributes in the same order, its date's too."""
    return all(list(vars(built)) == list(vars(made)) and vars(built) == vars(made)
               for built, made in ((record, expected), (record.date, expected.date)))


def same_json(value, expected) -> bool:
    """value == expected, with the same type and the same key order at every level; floats by repr, for -0.0."""
    if type(value) is not type(expected):
        return False
    if isinstance(value, dict):
        return list(value) == list(expected) and all(same_json(value[key], expected[key]) for key in value)
    if isinstance(value, list):
        return len(value) == len(expected) and all(map(same_json, value, expected))
    return repr(value) == repr(expected) if isinstance(value, float) else value == expected


def read_in_blocks(read_block, data: bytes, cuts) -> list:
    """The items of data read as load_corpus reads it, in blocks cut at cuts, each consumed count checked."""
    items, carry = [], b""
    bounds = [0, *sorted(cuts), len(data)]
    for start, stop in zip(bounds, bounds[1:] + [None]):
        final = stop is None
        block = carry + data[start:stop] if not final else carry
        got, consumed = read_block(block, final)
        assert consumed == (len(block) if final else block.rfind(b"\n") + 1)
        items += got
        carry = block[consumed:]
    return items


def check_items(items, data: bytes, in_subset=frozenset()) -> None:
    """Each item is its line's bytes, or the record or dict the line's row gives; lines in in_subset give no bytes."""
    lines = re.findall(rb"[^\n]*\n|[^\n]+\Z", data)
    assert len(items) == len(lines)
    for item, line in zip(items, lines):
        if isinstance(item, bytes):
            assert item == line and line.rstrip(b"\n") not in in_subset
        elif isinstance(item, LawRecord):
            assert same_record(item, _record_from_mapping(json.loads(line), 1, *new_load()))
        else:
            assert same_json(item, json.loads(line))


# Any JSON value, shallow and with no lone surrogate: NaN, infinities, characters past the BMP, integers of any
# length. json.dumps escapes quotes, backslashes and control characters, and, with ensure_ascii, every character
# past ASCII: those past the BMP as a pair of surrogate escapes.
_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-(10**25), 10**25), st.floats(), st.text(max_size=8)),
    lambda children: st.one_of(st.lists(children, max_size=3), st.dictionaries(st.text(max_size=3), children,
                                                                               max_size=3)),
    max_leaves=8,
)
_OBJECT = st.dictionaries(st.text(max_size=8), _VALUE, max_size=4)
_SEPARATORS = st.sampled_from([(", ", ": "), (",", ":"), (" ,\t", "\t: ")])


@st.composite
def _reader_line(draw) -> tuple[bytes, bool]:
    """A line with no newline, and whether it is in the reader's subset."""
    kind = draw(st.sampled_from(["subset"] * 4 + ["not an object", "damaged", "bytes", "blank"]))
    if kind == "subset":
        text = json.dumps(draw(_OBJECT), ensure_ascii=draw(st.booleans()), separators=draw(_SEPARATORS))
        space = st.sampled_from([""] * 4 + [" ", "\t", " \t "])
        return (draw(space) + text + draw(space)).encode(), True
    if kind == "not an object":
        value = draw(_VALUE.filter(lambda value: not isinstance(value, dict)))
        return json.dumps(value, ensure_ascii=draw(st.booleans())).encode(), False
    if kind == "bytes":
        return draw(st.binary(max_size=12)).replace(b"\n", b""), False
    if kind == "blank":
        return draw(st.sampled_from([b"", b" ", b"\t", b"\r", b"\xc2\xa0"])), False
    line = bytearray(json.dumps(draw(_OBJECT), ensure_ascii=False).encode())
    at = draw(st.integers(0, len(line)))
    if draw(st.booleans()):
        del line[at:]
    else:
        line[at:at] = draw(st.binary(min_size=1, max_size=2)).replace(b"\n", b" ")
    return bytes(line), False


class TestReaderMatchesJsonLoads:
    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(_reader_line(), min_size=1, max_size=6),
        final_newline=st.booleans(),
        cut_fractions=st.lists(st.floats(0, 1), max_size=4),
    )
    def test_blocks_of_mixed_lines(self, read_block, lines, final_newline, cut_fractions):
        data = b"\n".join(line for line, _ in lines) + (b"\n" if final_newline else b"")
        items = read_in_blocks(read_block, data, [int(fraction * len(data)) for fraction in cut_fractions])
        check_items(items, data, {line for line, in_subset in lines if in_subset})

    @pytest.mark.parametrize("line, in_subset", [
        (b'{"n": 123456789012345678}', True),
        (b'{"n": -123456789012345678}', True),
        (b'{"n": 1234567890123456789}', True),
        (b'{"n": -1234567890123456789}', True),
        (b'{"n": ' + b"9" * 4300 + b"}", True),
        (b'{"n": ' + b"9" * 4301 + b"}", False),
        (b'{"n": -0}', True),
        (b'{"n": 0}', True),
        (b'{"n": 01}', False),
        (b'{"n": [1.0, -0.0, 1e3, 1E+2, 0.1e-5, -12.5e-3, 1e400, -1e400]}', True),
        (b'{"n": 12345678901234567890.5}', True),
        (b'{"n": 1.}', False),
        (b'{"n": .5}', False),
        (b'{"n": 1e}', False),
        (b'{"n": 1e-}', False),
        (b'{"n": 01.5}', False),
        (b'{"n": -}', False),
        (b'{"n": [NaN, Infinity, -Infinity]}', True),
        (b'{"n": -Inf}', False),
        (b'{"n": Nan}', False),
        (b'{"n": true, "n": [false, null], "m": {}}', True),
        (b'{"a": ' + b"[" * 31 + b"]" * 31 + b"}", True),
        (b'{"a": ' + b"[" * 32 + b"]" * 32 + b"}", False),
        (b'{"a": "\xd9"}', False),
        (b'{"a": "\xe2\x80"}', False),
        (b'{"a": "\xe2\x80\x8c"}', True),
        (b'{"a": "\xc0\xaf"}', False),
        (b'{"a": "\xc1\xbf"}', False),
        (b'{"a": "\xe0\x80\xaf"}', False),
        (b'{"a": "\xed\xa0\x80"}', False),
        (b'{"a": "\xed\x9f\xbf"}', True),
        (b'{"a": "\xef\xbf\xbf"}', True),
        (b'{"a": "\xf0\x9f\x98\x80", "\xf4\x8f\xbf\xbf": "\xf0\x90\x80\x80 \xd9\x82\\n"}', True),
        (b'{"a": "\xf0\x8f\xbf\xbf"}', False),
        (b'{"a": "\xf4\x90\x80\x80"}', False),
        (b'{"a": "\xf4\xbf\xbf\xbf"}', False),
        (b'{"a": "\xf5\x80\x80\x80"}', False),
        (b'{"a": "\xf0\x9f\x98"}', False),
        (b'{"a": "\xf0\x9f\x98\x80\xc0"}', False),
        (b'{"a": "\xc2\x80\x7f"}', True),
        (b'{"a": "\\u0041\\u00e9\\u06CC\\u0000\\uffff"}', True),
        (b'{"a\\n": "\\"\\\\\\/\\b\\f\\n\\r\\t"}', True),
        (b'{"a": "\\ud83d\\ude00\\uDBFF\\uDFFF"}', True),
        (b'{"a": "\\ud800"}', False),
        (b'{"a": "\\udfff"}', False),
        (b'{"a": "\\ude00\\ud83d"}', False),
        (b'{"a": "\\ude00\\ude00"}', False),
        (b'{"a": "\\ud83d\\u0041"}', False),
        (b'{"a": "\\ud83d\\n"}', False),
        (b'{"a": "\\ud83d\\ude0"}', False),
        (b'{"a": "\\x41"}', False),
        (b'{"a": "\\u12"}', False),
        (b'{"a": "\\u12g4"}', False),
        (b'{"a": "\\"}', False),
        (b'{"a": "x\\', False),
        (b'{"a": "\\u00', False),
        (b'{"a": "tab\there"}', False),
        (b'{"a": 1} ', True),
        (b' \t{"a": 1}\t ', True),
        (b'\xc2\xa0{"a": 1}', False),
        (b'{"a": 1}\r', False),
        (b'{"a" : 1 ,\t"b":\t[ ] }', True),
        (b'[1]', False),
        (b'{"a": tru}', False),
        (b'{"a": 1,}', False),
        (b'{"a"}', False),
        (b'{', False),
    ], ids=lambda value: None if isinstance(value, bool) else repr(value)[:40])
    def test_edges(self, read_block, line, in_subset):
        for data in (line, line + b"\n"):
            items, consumed = read_block(data, True)
            assert consumed == len(data) and len(items) == 1
            check_items(items, data, {line} if in_subset else set())
            assert isinstance(items[0], dict) is in_subset

    def test_a_block_cut_inside_a_character_waits_for_the_rest(self, read_block):
        data = '{"a": "قانون"}\n'.encode()
        for cut in range(len(data)):
            assert read_block(data[:cut], False) == ([], 0)
            assert read_in_blocks(read_block, data, [cut]) == [{"a": "قانون"}]

    def test_source_compiles_without_warnings(self, read_block, tmp_path):
        import sysconfig

        include = sysconfig.get_paths()["include"]
        result = subprocess.run(
            [_native.find_compiler(), *_jsonl.CFLAGS, f"-I{include}", "-Wall", "-Wextra", "-Werror",
             "-o", str(tmp_path / "jsonl.so"), str(_jsonl.SOURCE)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr

    def test_rejects_what_is_not_bytes(self, read_block):
        with pytest.raises(TypeError, match="bytes block"):
            read_block('{"a": 1}', True)

    @pytest.mark.parametrize("shape", [None, (), corpus._record_shape(set(), [])[:-1],
                                       corpus._record_shape([], {}), corpus._record_shape(set(), [])])
    def test_rejects_a_shape_of_other_types(self, reader, shape):
        with pytest.raises(TypeError, match="read_block"):
            reader(b'{"a": 1}', True, shape)


def _row_outside_the_subset(record_id: str) -> str:
    nested = []
    for _ in range(33):  # past the reader's 32 levels
        nested = [nested]
    return json.dumps(jsonl_row(record_id, title="عنوان", notes=nested), ensure_ascii=False)


class TestReaderLoads:
    @pytest.mark.parametrize("block_size", [1, 7, 64])
    def test_small_blocks_load_what_the_text_loop_loads(self, read_block, monkeypatch, tmp_path, block_size):
        # Lines longer than a block, a line the reader gives back, blank lines and no final newline.
        content = " ".join(["قانون", "مالیات‌ها", "بودجه"] * 20)
        lines = [json.dumps(jsonl_row(f"r{i}", content=content), ensure_ascii=False) for i in range(4)]
        lines[1:1] = ["", " \t", _row_outside_the_subset("outside")]
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(lines), encoding="utf-8")
        monkeypatch.setattr(corpus, "_BLOCK_SIZE", block_size)
        records = load_corpus(path).records
        monkeypatch.setattr(_jsonl, "load_reader", lambda: None)
        assert [record.id for record in records] == ["r0", "outside", "r1", "r2", "r3"]
        assert records == load_corpus(path).records

    @pytest.mark.parametrize("bad_byte", [True, False])
    @pytest.mark.parametrize("gap", [0, 10, 100_000])
    @pytest.mark.parametrize("flaw", ["duplicate-id", "not-an-object", "carriage-return", "none"])
    def test_errors_are_the_text_loops(self, read_block, monkeypatch, tmp_path, bad_byte, gap, flaw):
        # A row's error against a byte that is not UTF-8 later in the file, near it or in a later block. A
        # carriage return between two tokens is whitespace to json.loads, and a line end to the text loop.
        rows = [json.dumps(jsonl_row(f"r{i}")) for i in range(3)]
        rows[2] = {"duplicate-id": rows[0], "not-an-object": "[1]", "carriage-return": rows[2].replace(", ", ",\r", 1),
                   "none": rows[2]}[flaw]
        filler = [json.dumps(jsonl_row(f"f{i}", content="x" * 100)) for i in range(gap // 200)]
        path = tmp_path / "c.jsonl"
        path.write_bytes("\n".join(rows + filler).encode() + (b"\n\xff\n" if bad_byte else b"\n"))
        outcome = _outcome(load_corpus, path, "jsonl")
        monkeypatch.setattr(_jsonl, "load_reader", lambda: None)
        assert outcome == _outcome(load_corpus, path, "jsonl")
        assert isinstance(outcome, list) == (flaw == "none" and not bad_byte)

    @pytest.mark.parametrize("missing", ["compiler", "headers"])
    def test_without_the_reader_one_warning_and_the_same_records(self, read_block, monkeypatch, tmp_path, caplog,
                                                                missing):
        path = tmp_path / "c.jsonl"
        lines = [json.dumps(jsonl_row("r0")), _row_outside_the_subset("r1")]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = load_corpus(path).records
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        if missing == "compiler":
            monkeypatch.setattr(_jsonl, "find_compiler", lambda: None)
        else:
            import sysconfig

            paths = {**sysconfig.get_paths(), "include": str(tmp_path / "no-include")}
            monkeypatch.setattr(sysconfig, "get_paths", lambda: paths)
        with caplog.at_level(logging.WARNING, logger="lextopic"):
            assert load_corpus(path).records == expected
            assert load_corpus(path).records == expected
        warnings = [record.getMessage() for record in caplog.records if record.levelno == logging.WARNING]
        assert len(warnings) == 1 and "reading JSONL corpora as text" in warnings[0]
        assert ("no C compiler" if missing == "compiler" else "no Python.h in") in warnings[0]
        assert not (tmp_path / "cache").exists()


# --- the records the reader builds against the Python code they replace --------------

_GOOD_DATE_DICT = st.fixed_dictionaries(
    {"year": st.sampled_from([1, 1381, 1400, 9999]), "month": st.sampled_from([1, 7, 12]),
     "day": st.sampled_from([1, 29, 30])},
    optional={"raw": st.sampled_from(["1400/07/01", "", None])},
)
_DATE_PART_FLAWS = {
    "year": [0, 10000, 2**70, True, 1400.0, "1400", None],
    "month": [13, True, 7.0, 7.5, "7", None],
    "day": [32, True, False, 1.0, "30"],
    "raw": [5, True, ["1400"], " x "],
}


@st.composite
def _date_value(draw):
    """A loadable date dict, one with a part spoiled or dropped, or a date string or other value."""
    kind = draw(st.sampled_from(["dict", "spoiled", "spoiled", "spoiled", "dropped", "other"]))
    date = draw(_GOOD_DATE_DICT)
    if kind == "spoiled":
        part = draw(st.sampled_from(sorted(_DATE_PART_FLAWS)))
        date[part] = draw(st.sampled_from(_DATE_PART_FLAWS[part]))
    elif kind == "dropped":
        del date[draw(st.sampled_from(["year", "month", "day"]))]
    elif kind == "other":
        return draw(st.sampled_from([
            "1400/07/01", "1400-7-1", " 1399-12-30 ", "07/01/1400", "7/1/1400", "12/31/1400",
            "Saturday, July 10, 1402", "March 30, 1399", "march 1, 1400", "Monday, Smarch 1, 1400", "1400/13/01",
            "1400/12/31", "0000/01/01", "1400/7", "۱۴۰۰/۰۷/۰۱", "", " ", "{bad", '{"year": 1400, "month": 7, "day": 1}',
            ' {"year": 1390, "month": 1, "day": 32}', 5, 1.5, True, [1400, 7, 1], None,
        ]))
    return date


# Each member's values, inside the shape the reader builds records for and outside it in each way it checks.
_MEMBERS = {
    "id": st.sampled_from(["a", "b", "dup", "a ", " ", "\u3000", "", 7, True, None]),
    "title": st.sampled_from(["t", "عنوان قانون", " x ", " ", "\u3000", "\xa0\t", "", 0, ["t"], None]),
    "content": st.sampled_from(["body", "", " ", "متن", 5, 1.5, {"a": 1}, None]),
    "lead": st.sampled_from(["", "x", " ", "هیئت", 0, 1, False, ["x"], None]),
    "tags": st.one_of(
        st.lists(st.sampled_from(["t", "", " ", "برچسب"]), max_size=3),
        st.sampled_from(["a, b,", '["x"]', ' ["a"]', "", " ", [1], ["a", None], [["a"]], 5, {"a": "b"}, None]),
    ),
    "law_type": st.sampled_from(["Regulation", "ParliamentDeliberation", "Regulations", " News ", "regulation",
                                 "Unknown", "", 3, None]),
    "date": _date_value(),
}
_MEMBERS.update(type=_MEMBERS["law_type"], classes=_MEMBERS["tags"], category=_MEMBERS["lead"],
                categories=_MEMBERS["lead"])
_RECORD_ROW = st.fixed_dictionaries(
    {
        "id": st.sampled_from(["a", "b", "c"]),
        "title": st.sampled_from(["t", "عنوان قانون"]),
        "content": st.sampled_from(["body", "", "متن \"نقل\"\n\\ 😀"]),
        "law_type": st.sampled_from(["Regulation", "ParliamentDeliberation", "News"]),
        "date": st.one_of(_GOOD_DATE_DICT, st.sampled_from(["1400/07/01", "07/01/1400", "Saturday, July 10, 1402"])),
    },
    optional={"lead": st.sampled_from(["", "x"]), "tags": st.lists(st.sampled_from(["t", "برچسب"]), max_size=2),
              "classes": st.just([]), "type": st.just("Bill"), "category": st.sampled_from(["", "هیئت وزیران"]),
              "categories": st.just("x"), "extra": st.just([1, {"a": None}])},
)


# Member values json.loads rejects, and two it reads that are past the reader's subset: a lone surrogate and
# nesting past 32 containers. Each gives its line back as bytes.
_MALFORMED = ["tru", "01", "1.", "-", '"\\x"', '"\\u12"', '"a\tb"', "[1,]", "{", "{1: 2}", '"\\ud800"',
              "[" * 32 + "]" * 32]
_UNKNOWN_NAMES = ["extra", "raw", "year", "ID", "dates", "типа"]


def _given_back_as_bytes(line: bytes) -> bool:
    """Whether json.loads rejects line, or reads it past the reader's subset."""
    if b"\\ud800" in line or b"[" * 32 in line:
        return True
    try:
        json.loads(line)
    except ValueError:
        return True
    return False


@st.composite
def _record_line(draw) -> bytes:
    """A row of loadable members but for one flaw at most: a member spoiled, dropped or written again after the
    others (null too), an unknown member of a good or a malformed value, or null law_type and category beside
    their aliases. Any name may be written with an escape.

    One flaw a row, so that a flaw the reader misses is not hidden by one it finds; a spoiled date most often,
    as the date has the most checks.
    """
    row = draw(_RECORD_ROW)
    flaw = draw(st.sampled_from(["none", "date", "date", "date", "spoil", "spoil", "drop", "repeat", "repeat",
                                 "unknown", "alias"]))
    name = "date" if flaw == "date" else draw(st.sampled_from(sorted(_MEMBERS)))
    if flaw in ("date", "spoil"):
        row[name] = draw(_MEMBERS[name])
    elif flaw == "drop" and name in row:
        del row[name]
    elif flaw == "alias":  # null is absent to the loader, which reads the alias
        row.update(law_type=None, type=draw(_MEMBERS["type"]), category=None,
                   categories=draw(_MEMBERS["categories"]))
    text = json.dumps(row, ensure_ascii=draw(st.booleans()))
    if flaw == "repeat":  # json.loads keeps the last value, null too, at the first one's place
        text = f'{text[:-1]}, "{name}": {json.dumps(draw(st.one_of(st.none(), _MEMBERS[name])))}}}'
    elif flaw == "unknown":  # parsed, then dropped; a malformed value fails the line
        value = draw(st.one_of(_VALUE.map(json.dumps), st.sampled_from(_MALFORMED)))
        text = f'{text[:-1]}, "{draw(st.sampled_from(_UNKNOWN_NAMES))}": {value}}}'
    if draw(st.booleans()):  # decoded, then compared
        escaped = draw(st.sampled_from([*sorted(_MEMBERS), "raw", "year", "month", "day"]))
        text = text.replace(f'"{escaped}":', f'"\\u{ord(escaped[0]):04x}{escaped[1:]}":')
    return text.encode()


# Rows the reader builds, and rows it gives back: _COMPLETE with the members shown, as JSON text.
_BUILT = [
    {"law_type": None, "type": "Regulation"}, {"law_type": "News", "type": "Unknown"},
    {"category": None, "categories": "x"}, {"category": "", "categories": "x"},
    {"lead": None, "tags": None, "classes": None, "category": None}, {"tags": ["a", ""], "classes": []},
    {"date": {"raw": "x", "year": 1400, "month": 7, "day": 1}}, {"date": {"year": 1400, "month": 7, "day": 1}},
    {"date": {"year": 1400, "month": 7, "day": 1, "raw": None}}, {"date": {"year": 1, "month": 1, "day": 1}},
    {"date": {"year": 9999, "month": 12, "day": 30}}, {"date": " 1399-12-30 "}, {"date": "7/1/1400"},
    {"date": "Saturday, July 10, 1402"}, {"date": "۱۴۰۰/۰۷/۰۱"}, {"title": "\u200c"},
    {"dates": 5, "ids": [1], "titles": None, "types": "x", "dat": {}},
]
_GIVEN_BACK = [
    {"id": "\u3000"}, {"title": " \t"}, {"id": 7}, {"title": 0}, {"content": 5}, {"law_type": "Regulations"},
    {"law_type": None}, {"type": "Bill", "law_type": 3}, {"lead": 0}, {"category": ["x"]}, {"categories": 1},
    {"tags": "a, b"}, {"tags": '["a"]'}, {"classes": [1]}, {"classes": {}},
    {"date": {"year": True, "month": 1, "day": 1}}, {"date": {"year": 1400, "month": True, "day": 1}},
    {"date": {"year": 1400, "month": 1, "day": True}}, {"date": {"year": 1400.0, "month": 1, "day": 1}},
    {"date": {"year": 1400, "month": 1, "day": 1.0}}, {"date": {"year": "1400", "month": 1, "day": 1}},
    {"date": {"year": 1400, "month": 1, "day": 1, "raw": 5}}, {"date": {"year": 1400, "month": 1, "day": 1, "raw": True}},
    {"date": {"year": 0, "month": 1, "day": 1}}, {"date": {"year": 10000, "month": 1, "day": 1}},
    {"date": {"year": 1400, "month": 1, "day": 32}}, {"date": {"year": 1400, "month": 1}},
    {"date": "1400/13/01"}, {"date": "Monday, Smarch 1, 1400"}, {"date": '{"year": 1400, "month": 7, "day": 1}'},
    {"date": 1400}, {"id": "dup"},
]
# Repeated members: json.loads keeps the last value, at the first one's place.
_REPEATED = ['"law_type": null, "type": "Bill"', '"category": null, "categories": "x"', '"id": "dup"', '"id": "r"',
             '"date": {"year": 1400, "month": 7, "day": 1}', '"title": " "', '"tags": ["x"], "tags": null']
# The slot sink's parse rules, as members written after _COMPLETE's: repeats, a repeat set to null, escaped names
# (the date's too), unknown members of good values and of malformed ones, and the aliases beside a null law_type
# and category.
_PARSE_RULES = [
    '"title": "again"', '"title": null', '"lead": "x", "lead": null', '"date": null',
    '"date": {"year": 1400, "month": 7, "day": 1}, "date": "07/01/1400"',
    '"date": "07/01/1400", "date": {"year": 1400, "month": 7, "day": 1}',
    '"date": {"year": 1400, "month": 7, "day": 1, "year": 1399, "raw": "r", "raw": null}',
    '"date": {"year": 1400, "month": 7, "day": 1, "day": null}',
    '"date": {"year": 1400, "month": 7, "day": 1, "raw": "first"}, "date": {"year": 1399, "month": 1, "day": 2}',
    '"date": {"year": 1400, "month": 7, "day": 1}, "date": {"year": 1399, "month": 1}',
    '"\\u0069d": "escaped"', '"t\\u0069tle": " "', '"d\\u0061te": {"y\\u0065ar": 1399, "month": 1, "d\\u0061y": 2}',
    '"extra": [1, {"id": null}], "raw": 5, "year": "x", "\\u0131d": 3', '"типа": {"law_type": 1}',
    '"date": {"year": 1400, "month": 7, "day": 1, "id": [{}], "date": 5}',
    '"law_type": null, "type": "Bill", "category": null, "categories": "x"',
    '"law_type": null, "type": 5', '"category": null, "categories": 5',
    *(f'"extra": {value}' for value in _MALFORMED), '"\\ud800": 1', '"date": {"year": 1400, "month": 7, "day": tru}',
]


def _case_line(index: int, members) -> bytes:
    row = {**_COMPLETE, "id": f"case{index}"}
    if isinstance(members, dict):
        return json.dumps({**row, **members}, ensure_ascii=False).encode()
    return f"{json.dumps(row)[:-1]}, {members}}}".encode()


class TestReaderBuildsRecords:
    @settings(max_examples=500, deadline=None)
    @given(lines=st.lists(_record_line(), min_size=1, max_size=4))
    @example(lines=[_case_line(index, members)
                    for index, members in enumerate(_BUILT + _GIVEN_BACK + _REPEATED + _PARSE_RULES)])
    def test_each_item_is_what_the_python_code_gives(self, reader, lines):
        # A record for a row _record_from_mapping builds, given the ids of the records before it; the row's
        # dict for any other row; the line's bytes for a line json.loads rejects or reads past the subset. The
        # reader adds only its records' ids, and leaves the law-type memo as it is.
        seen_ids, law_types = new_load()
        seen_ids.add("dup")
        data = b"".join(line + b"\n" for line in lines)
        items, consumed = reader(data, True, corpus._record_shape(seen_ids, law_types))
        assert consumed == len(data) and len(items) == len(lines)
        ids = {"dup"}
        for item, line in zip(items, lines):
            if isinstance(item, bytes):
                assert item == line + b"\n" and _given_back_as_bytes(line)
                continue
            row = json.loads(line)
            if isinstance(item, LawRecord):
                assert same_record(item, _record_from_mapping(row, 1, set(ids), new_load()[1]))
                ids.add(item.id)
            else:
                assert same_json(item, row)
        assert seen_ids == ids and law_types == corpus._LAW_TYPE_VALUES

    @pytest.mark.parametrize("members", _BUILT, ids=repr)
    def test_rows_in_the_shape_are_built(self, reader, members):
        line = _case_line(0, members)
        [item], _ = reader(line, True, corpus._record_shape(*new_load()))
        assert isinstance(item, LawRecord)
        assert same_record(item, _record_from_mapping(json.loads(line), 1, *new_load()))

    @pytest.mark.parametrize("members", _GIVEN_BACK, ids=repr)
    def test_rows_outside_the_shape_come_back_as_dicts(self, reader, members):
        seen_ids, law_types = new_load()
        seen_ids.add("dup")
        line = _case_line(0, members)
        [item], _ = reader(line, True, corpus._record_shape(seen_ids, law_types))
        assert same_json(item, json.loads(line)) and seen_ids == {"dup"}


# A block of every row form: built rows, rows given back as dicts or as bytes, repeats, nulls, aliases, escaped
# names, unknown members, and string and object dates; _GIVEN_BACK's "dup" row is built, as the id set is new.
_EVERY_FORM = b"".join(_case_line(index, members) + b"\n"
                       for index, members in enumerate(_BUILT + _GIVEN_BACK + _REPEATED + _PARSE_RULES))


class TestReaderReferenceCounts:
    """What AddressSanitizer cannot see: a reference the reader takes and never gives back, or gives back twice.

    CPython 3.11 keeps a count for every object, None and the small ints too.
    """

    def test_loads_leave_the_shared_objects_as_they_were(self, reader):
        shape = corpus._record_shape(*new_load())
        shared = [None, True, False, *LawType, *corpus._LAW_TYPE_VALUES, *shape[:5],
                  *(sys.intern(name) for name in ("id", "title", "content", "lead", "tags", "classes", "law_type",
                                                  "type", "category", "categories", "date", "raw", "year", "month",
                                                  "day", "jalali_year", "jalali_month", "jalali_day",
                                                  "gregorian_year"))]
        del shape
        # The first load interns the names and fills the year cache. No assert runs between the counts: pytest's
        # rewrite of one leaves None in its temporaries.
        items, _ = reader(_EVERY_FORM, True, corpus._record_shape(*new_load()))
        assert {type(item) for item in items} == {LawRecord, dict, bytes}
        del items
        before = [sys.getrefcount(item) for item in shared]
        for _ in range(50):
            reader(_EVERY_FORM, True, corpus._record_shape(*new_load()))
        after = [sys.getrefcount(item) for item in shared]
        assert after == before

    def test_each_field_holds_the_references_of_the_python_record(self, reader):
        # The id sets stay alive, as each holds its records' ids.
        seen_ids, law_types = new_load()
        items, _ = reader(_EVERY_FORM, True, corpus._record_shape(seen_ids, law_types))
        python_ids, python_types = new_load()
        built = 0
        for item, line in zip(items, _EVERY_FORM.splitlines()):
            if not isinstance(item, LawRecord):
                continue
            expected = _record_from_mapping(json.loads(line), 1, python_ids, python_types)
            for record, made in ((item, expected), (item.date, expected.date)):
                for name in vars(made):
                    # Counted before the assert, which keeps what it compares alive.
                    counts = [sys.getrefcount(getattr(one, name)) for one in (record, made)]
                    assert counts[0] == counts[1], (line, name)
            for name in ("tags", "classes"):
                counts = [list(map(sys.getrefcount, getattr(one, name))) for one in (item, expected)]
                assert counts[0] == counts[1], (line, name)
            built += 1
        assert built > 30


BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def workloads(monkeypatch):
    """bench/workloads.py, with bench/persian.py as the persian it imports."""
    for name in ("persian", "workloads"):
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return module


class TestReaderReach:
    """Every line that save_corpus and the benchmark's generators write is built into a record in C."""

    def test_every_line_save_corpus_writes(self, reader, tmp_path):
        dates = [("1400/07/01", 1400, 7, 1), ("Saturday, July 10, 1402", 1402, 4, 10), ("", 1, 1, 1),
                 ("۱۳۹۹/۱۲/۳۰", 1399, 12, 30)]
        records = [
            LawRecord(f"r{index}", title, content, law_type, RecordDate.from_jalali(*dates[index % len(dates)]),
                      lead, tags, classes, category)
            for index, (law_type, (title, content, lead, tags, classes, category)) in enumerate(zip(
                list(LawType) * 2,
                [("title", "body", "", [], [], ""),
                 ("آیین‌نامه", "متن «ماده» ۱۴۰۰\nدوم\t\"نقل\" \\ 😀", "خلاصه", ["برچسب", ""], ["طبقه"], "هیئت وزیران"),
                 (" x ", " ", "lead", ["a", "b"], ["c"], "category")] * 6,
            ))
        ]
        path = tmp_path / "c.jsonl"
        save_corpus(Corpus(records), path)
        items, _ = reader(path.read_bytes(), True, corpus._record_shape(*new_load()))
        assert all(isinstance(item, LawRecord) for item in items)
        assert items == records

    @pytest.mark.parametrize("name", ["fit-sampling", "sweep-persian", "analyze-persian"])
    def test_every_line_of_a_benchmark_corpus(self, reader, workloads, monkeypatch, tmp_path, name):
        workloads.WORKLOADS[name].setup(tmp_path, 1, True)  # the tiny inputs
        path = tmp_path / "corpus.jsonl"
        items, _ = reader(path.read_bytes(), True, corpus._record_shape(*new_load()))
        assert len(items) == workloads.corpus_records(tmp_path)
        assert all(isinstance(item, LawRecord) for item in items)
        monkeypatch.setattr(_jsonl, "load_reader", lambda: None)
        assert items == load_corpus(path).records


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3000),
    st.integers(1, 12).flatmap(lambda month: st.tuples(st.just(month), st.integers(1, 31 if month <= 6 else 30))),
)
def test_record_date_year_matches_conversion(year, month_day):
    month, day = month_day
    date = RecordDate.from_jalali("raw", year, month, day)
    assert date.gregorian_year == jalali_to_gregorian(year, month, day)[0]


# --- top words -------------------------------------------------------------------

def reference_top_words(model: LdaModel, topic_id: int, n: int) -> list[tuple[str, float]]:
    ranked = sorted(zip(_term_names(model), model.topic_word[topic_id]), key=lambda pair: (-pair[1], pair[0]))
    return [(term, float(probability)) for term, probability in ranked[:n]]


def _model(topic_word, terms=None) -> LdaModel:
    topic_word = np.asarray(topic_word, dtype=np.float64)
    vocab = None
    if terms is not None:
        vocab = Vocabulary(terms=terms, index={t: i for i, t in enumerate(terms)}, df=[1] * len(terms))
    n_topics = topic_word.shape[0]
    return LdaModel(
        config=LdaConfig(n_topics=n_topics, alpha=1.0, beta=1.0, sweeps=2, burn_in=1),
        doc_topic=np.full((1, n_topics), 1.0 / n_topics),
        topic_word=topic_word,
        doc_ids=["d0"],
        log_likelihood=[],
        vocab=vocab,
    )


class TestTopWordsMatchFullSort:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 14).flatmap(lambda n_terms: st.tuples(
            st.lists(
                st.lists(st.sampled_from([0.0, -0.0, 1e-300, 0.1, 0.25, 0.5]), min_size=n_terms, max_size=n_terms),
                min_size=1, max_size=3,
            ),
            st.one_of(
                st.none(),
                st.lists(st.text(alphabet="ab-", min_size=1, max_size=3), min_size=n_terms, max_size=n_terms,
                         unique=True),
            ),
        ))
    )
    def test_every_n(self, rows_and_terms):
        rows, terms = rows_and_terms
        model = _model(rows, terms)
        for topic in range(len(rows)):
            for n in range(1, len(rows[0]) + 1):
                assert top_words(model, topic, n) == reference_top_words(model, topic, n)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_row_is_rejected(self, bad):
        model = _model([[0.5, 0.5, 0.0], [0.2, bad, 0.8]])
        assert top_words(model, 0, 2) == [("term-0", 0.5), ("term-1", 0.5)]
        with pytest.raises(ValueError, match="topic 1 has a non-finite"):
            top_words(model, 1, 2)
