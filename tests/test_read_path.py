"""The read path against the code it replaced: corpus rows and top words.

``reference_load`` is the row-by-row loader that ``load_corpus`` replaced:
nine alias lookups per row, ``json.loads`` per line, and every law type
and date parsed afresh; ``load_corpus`` is checked against it with the
compiled JSONL reader and without it. The reader itself is checked line by
line against ``json.loads``. ``reference_top_words`` is the full sort that
``top_words`` replaced.
"""

import csv
import json
import logging
import re
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jsonl_row

from lextopic import _jsonl, _native, corpus
from lextopic.analyze import _term_names, top_words
from lextopic.corpus import (
    Corpus,
    LawRecord,
    RecordDate,
    load_corpus,
    parse_law_type,
    parse_record_date,
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
def read_block():
    reader = _jsonl.load_reader()
    if reader is None:
        assert _native.find_compiler() is None, "a C compiler is on PATH but the JSONL reader did not load"
        pytest.skip("no C compiler on PATH")
    return reader


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
    """Each item is its line's bytes or the dict json.loads gives for the line; lines in in_subset give dicts."""
    lines = re.findall(rb"[^\n]*\n|[^\n]+\Z", data)
    assert len(items) == len(lines)
    for item, line in zip(items, lines):
        if isinstance(item, bytes):
            assert item == line and line.rstrip(b"\n") not in in_subset
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
