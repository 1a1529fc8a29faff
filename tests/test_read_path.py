"""The read path against the code it replaced: corpus rows, top words and model.json.

``reference_load`` is the row-by-row loader that ``load_corpus`` replaced:
nine alias lookups per row, ``json.loads`` per line, and every law type
and date parsed afresh. ``reference_top_words`` is the full sort that
``top_words`` replaced. ``load_model``'s compiled table parser is checked
against ``json.load``, which it falls back to and which stays the path
with no compiler.
"""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import float_from_bits
from lextopic import _gibbs, lda
from lextopic._files import parse_json_object
from lextopic.analyze import _term_names, top_words
from lextopic.corpus import (
    Corpus,
    LawRecord,
    RecordDate,
    load_corpus,
    parse_law_type,
    parse_record_date,
)
from lextopic.errors import CorruptModel, DuplicateId, MalformedDate, MalformedRow, MissingField
from lextopic.jalali import jalali_to_gregorian
from lextopic.lda import LdaConfig, LdaModel, load_model, save_model
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
    return Corpus(records, source_description=str(path))


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


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (dict, list)):
        return json.dumps(value, ensure_ascii=False)
    return str(value)


class TestLoaderMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=_ROWS,
        layout=st.lists(
            st.tuples(_LINE_PREFIX, _LINE_SUFFIX, st.booleans(), st.one_of(st.none(), _BLANK_LINE)),
            min_size=4, max_size=4,
        ),
        stray=st.sampled_from([None] * 12 + ["42", "[1]", "null", '"text"']),
    )
    def test_jsonl(self, tmp_path_factory, rows, layout, stray):
        lines = []
        for row, (prefix, suffix, ascii_only, blank) in zip(rows, layout):
            if blank is not None:
                lines.append(blank)
            lines.append(prefix + json.dumps(row, ensure_ascii=ascii_only) + suffix)
        if stray is not None:
            lines.insert(len(lines) // 2, stray)
        path = tmp_path_factory.mktemp("jsonl") / "c.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
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


# --- model.json: the compiled table parser against json.load ----------------------

@pytest.fixture(scope="module")
def kernels():
    loaded = _gibbs.load_kernels()
    if loaded is None:
        assert _gibbs.find_compiler() is None, "a C compiler is on PATH but the compiled kernels did not load"
        pytest.skip("no C compiler on PATH")
    return loaded


def _json_table(text: str) -> np.ndarray:
    """The table as the json.load path reads it."""
    return np.array(json.loads(text), dtype=np.float64)


def _parsed(kernels, text: str):
    """The kernel's table for text placed at an offset inside more text, or None where it declines."""
    data = b'{"t": ' + text.encode() + b"}"
    parsed = kernels.parse_table(data, 6)
    if parsed is None:
        return None
    values, end = parsed
    assert end == len(data) - 1
    assert values.dtype == np.float64 and values.flags.c_contiguous
    return values


HAND_PICKED = [
    "-0", "-0.0", "0", "0.0", "5e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",
    "-2.4703282292062327e-324", "1.7976931348623157e+308", "1.7976931348623158e+308", "9007199254740993",
    "123456789012345678901234567890", "-123456789012345678901234567890", "1E5", "1e+05", "1e-400", "-1e-400",
    "0e999999", "2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308", "1e22", "1e23",
    "7.2057594037927933e16", "9999999999999999999", "18446744073709551615", "18446744073709551616",
    "0.1", "0.30000000000000004", "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203126", "0.000000000000000000000000000001234",
    "4.9406564584124654e-324", "8.98846567431158e307", "1" + "0" * 308, "-" + "9" * 40 + ".5e-20",
    "0." + "0" * 1000005 + "1e1000010", "1e-1000000000000", "0e1000000000000",
]
DECLINED = ["01", "1.", ".5", "+1", "1e", "-", "0x1", "NaN", "1e400", "-1e400", "1" + "0" * 309, "Infinity",
            "-Infinity", '"1"', "true", "null", "1 2", "\u0661", "1.e5", "1e+", "--1", "-01", "0.5\u00a0", "[1]", "{}"]
SPACES = st.sampled_from(["", " ", "\n", "\t", "\r\n  "])
FINITE = st.integers(0, 2**64 - 1).map(float_from_bits).filter(math.isfinite) | st.floats(allow_nan=False,
                                                                                            allow_infinity=False)


def _token(data, label):
    style = data.draw(st.sampled_from(["repr", "e", "E", "f", "integer"]), label=f"{label} style")
    if style == "integer":
        return str(data.draw(st.integers(-10**30, 10**30) | st.integers(-2**64, 2**64), label=label))
    value = data.draw(FINITE, label=label)
    digits = data.draw(st.integers(0, 25), label=f"{label} digits")
    if style == "f":
        return f"{value:.{digits}f}" if abs(value) < 1e30 else repr(value)
    return repr(value) if style == "repr" else f"{value:.{digits}{style}}"


class TestParseTable:
    def test_hand_picked_tokens(self, kernels):
        text = "[[" + ", ".join(HAND_PICKED) + "]]"
        assert _parsed(kernels, text).tobytes() == _json_table(text).tobytes()
        assert math.copysign(1.0, _parsed(kernels, "[[-0]]")[0, 0]) == 1.0
        assert math.copysign(1.0, _parsed(kernels, "[[-0.0]]")[0, 0]) == -1.0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_json_loads(self, kernels, data):
        n_rows = data.draw(st.integers(1, 4), label="n_rows")
        n_cols = data.draw(st.integers(1, 6), label="n_cols")
        rows = [[_token(data, f"cell {row},{col}") for col in range(n_cols)] for row in range(n_rows)]

        def joined(items):
            before, after = data.draw(SPACES, label="space"), data.draw(SPACES, label="space")
            return "[" + before + f"{data.draw(SPACES, label='space')},{data.draw(SPACES, label='space')}".join(items) \
                + after + "]"

        text = joined([joined(row) for row in rows])
        expected = _json_table(text)
        if np.isfinite(expected).all():
            assert _parsed(kernels, text).tobytes() == expected.tobytes()
        else:  # a token past the float64 range, such as 2e+308
            assert _parsed(kernels, text) is None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(FINITE, min_size=3, max_size=3), min_size=1, max_size=5))
    def test_reads_back_format_floats_and_repr(self, kernels, rows):
        table = np.array(rows, dtype=np.float64)
        for text in (kernels.format_floats(table), repr(table.tolist())):
            assert _parsed(kernels, text).tobytes() == table.tobytes() == _json_table(text).tobytes()

    def test_every_exponent(self, kernels):
        values = [2.0**exponent for exponent in range(-1074, 1024)] + [float(f"1e{power}") for power in range(-323, 309)]
        table = np.array(values + [np.nextafter(value, np.inf) for value in values[:-1]])
        text = kernels.format_floats(table.reshape(1, -1))
        assert _parsed(kernels, text).tobytes() == table.tobytes()

    @pytest.mark.parametrize("token", DECLINED)
    def test_declines_a_token_outside_the_number_grammar_or_range(self, kernels, token):
        assert _parsed(kernels, f"[[0.5, {token}]]") is None

    @pytest.mark.parametrize("text", [
        "[]", "[[]]", "[[1], []]", "[[1], [1, 2]]", "[1, 2]", "[[[1]]]", "[[1], [[1]]]", "[[1,]]", "[[1],]",
        "[[1]", "[[1] [2]]", "[[1 2]]", "[[1]\u00a0]", "[[1,\x0b2]]", "[[1,\x0c2]]", "[ [1]", "",
    ])
    def test_declines_other_shapes(self, kernels, text):
        assert _parsed(kernels, text) is None

    def test_rejects_text_that_is_not_bytes_or_an_offset_outside_it(self, kernels):
        with pytest.raises(ValueError):
            kernels.parse_table(bytearray(b"[[1]]"), 0)
        with pytest.raises(ValueError):
            kernels.parse_table(b"[[1]]", 6)
        assert kernels.parse_table(b"[[1]]", 5) is None


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


class TestParseJsonObject:
    """The member-by-member walk gives json.loads' object, or None; never another object."""

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.text(max_size=5), JSON_VALUES, max_size=6), st.sampled_from([None, 0, 2]),
           st.booleans(), st.sampled_from([(", ", ": "), (",", ":")]))
    def test_equals_json_loads(self, kernels, payload, indent, ensure_ascii, separators):
        text = json.dumps(payload, indent=indent, ensure_ascii=ensure_ascii, separators=separators)
        parsed = parse_json_object(text.encode("utf-8", "surrogatepass"), kernels.value_end, {})
        if any("\ud800" <= char <= "\udfff" for char in text):
            assert parsed is None  # a lone surrogate is not UTF-8, and json.load reads no such file
        else:
            assert repr(parsed) == repr(json.loads(text))

    @settings(max_examples=500, deadline=None)
    @given(st.dictionaries(st.sampled_from(["a", "b", "ü"]), JSON_VALUES, max_size=3), st.data())
    def test_edited_text_gives_none_or_json_loads(self, kernels, payload, data):
        text = json.dumps(payload, ensure_ascii=False).encode()
        at = data.draw(st.integers(0, len(text)), label="at")
        insert = data.draw(st.sampled_from([b"", b"{", b"}", b"[", b"]", b'"', b",", b":", b"\\", b" ", b"x", b"\xff",
                                            b"\xef\xbb\xbf", b"\x00", b"0"]), label="insert")
        cut = data.draw(st.integers(0, 2), label="cut")
        edited = text[:at] + insert + text[at + cut:]
        parsed = parse_json_object(edited, kernels.value_end, {})
        try:
            expected = json.loads(edited.decode("utf-8"))
        except ValueError:
            assert parsed is None
        else:
            assert parsed is None or repr(parsed) == repr(expected)
            if isinstance(expected, dict) and b"\x00" not in edited:
                assert parsed is not None

    def test_duplicate_keys_keep_the_last_value_in_the_first_place(self, kernels):
        text = b'{"a": 1, "b": [2], "a": {"c": 3}}'
        parsed = parse_json_object(text, kernels.value_end, {})
        assert list(parsed.items()) == list(json.loads(text).items()) == [("a", {"c": 3}), ("b", [2])]


def _persian_model() -> LdaModel:
    rng = np.random.default_rng(3)
    terms = ["قانون", "مالیات", "دادگاه", "بودجه", "tax", "court\"s", "ab\\c"]
    n_topics, n_docs = 3, 5
    return LdaModel(
        config=LdaConfig(n_topics=n_topics, alpha=0.5, beta=0.1, sweeps=4, burn_in=1, seed=7),
        doc_topic=rng.dirichlet(np.full(n_topics, 0.3), n_docs),
        topic_word=rng.dirichlet(np.full(len(terms), 0.3), n_topics),
        doc_ids=[f"سند-{doc}" for doc in range(n_docs)],
        log_likelihood=[-12.5, -11.25, -1e-300],
        vocab=Vocabulary(terms=terms, index={term: i for i, term in enumerate(terms)}, df=[1, 2, 3, 1, 2, 3, 1]),
    )


def _state(model: LdaModel):
    return (model.config, model.doc_topic.shape, model.doc_topic.tobytes(), model.topic_word.shape,
            model.topic_word.tobytes(), model.doc_ids, model.log_likelihood, model.vocab)


def _both_paths(path, monkeypatch):
    """load_model's result on the compiled path and on the json.load path, each a state or an error message."""
    def outcome():
        try:
            return _state(load_model(path))
        except CorruptModel as exc:
            return str(exc)

    compiled = outcome()
    with monkeypatch.context() as patch:
        patch.setattr(_gibbs, "load_kernels", lambda: None)
        return compiled, outcome()


def _saved(tmp_path) -> tuple:
    path = tmp_path / "model.json"
    model = _persian_model()
    save_model(model, path)
    return path, model, json.loads(path.read_text(encoding="utf-8"))


def _reordered(payload):
    tables = {name: payload.pop(name) for name in ("topic_word", "doc_topic")}
    return json.dumps({**tables, **payload}, ensure_ascii=False)


class TestLoadModelLayouts:
    @pytest.mark.parametrize("layout", [
        lambda text, payload: text,
        lambda text, payload: json.dumps(payload),
        lambda text, payload: json.dumps(payload, indent=2, ensure_ascii=False),
        lambda text, payload: _reordered(payload),
        lambda text, payload: '{"doc_topic": [[0.5, 0.5]], ' + text[1:],
        lambda text, payload: text.replace('"doc_topic"', '"doc\\u005ftopic"'),
        lambda text, payload: "\r\n\t " + text.replace(", ", " ,\n").replace("[", "[ ") + "\n\n",
    ], ids=["save_model", "ascii escapes", "indent 2", "tables first", "duplicate doc_topic", "escaped key",
            "spaced"])
    def test_takes_the_compiled_path_to_the_same_model(self, kernels, tmp_path, monkeypatch, layout):
        path, model, payload = _saved(tmp_path)
        path.write_text(layout(path.read_text(encoding="utf-8"), payload), encoding="utf-8")
        assert lda._compiled_payload(path) is not None
        compiled, fallback = _both_paths(path, monkeypatch)
        assert compiled == fallback == _state(model)

    @pytest.mark.parametrize("edit", [
        lambda text: '{"doc_topic": "not a table", ' + text[1:],  # a duplicate that json.load drops
        lambda text: text.replace("[[", "[[1e400, ", 1),
        lambda text: text.replace("[[", "[[NaN, ", 1),
        lambda text: text.replace("[[", '[["0.5", ', 1),
        lambda text: text.replace("[[", "[[true, ", 1),
        lambda text: text.replace("[[", "[[" + "9" * 400 + ", ", 1),
        lambda text: text.replace("[[", "[[1], [", 1),
        lambda text: text.replace("[[", "[[[0.5]], [", 1),
        lambda text: text.replace('"doc_topic": [[', '"doc_topic": [', 1).replace("], [", ", ", 4),
        lambda text: text + "x",
        lambda text: "\ufeff" + text,
        lambda text: text[:-3],
        lambda text: text.replace(", ", " , , ", 1),
        lambda text: text.replace('"version": 1', '"version": 1,'),
        lambda text: "[" + text + "]",
    ], ids=["invalid first duplicate", "1e400", "NaN", "string cell", "true cell", "400-digit integer", "ragged",
            "3-D row", "1-D", "trailing text", "BOM", "cut short", "double comma", "trailing comma", "not an object"])
    def test_falls_back_to_json_load_with_its_result(self, kernels, tmp_path, monkeypatch, edit):
        path, model, _ = _saved(tmp_path)
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        assert lda._compiled_payload(path) is None
        compiled, fallback = _both_paths(path, monkeypatch)
        assert compiled == fallback
