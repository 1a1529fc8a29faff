"""Record loading, validation, filtering, dates, and synthetic corpora."""

import csv
import gc
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import SYNTH_CONFIG, jsonl_row, make_record, record_date, write_jsonl
from lextopic.corpus import (
    Corpus,
    LawRecord,
    LawType,
    SynthConfig,
    filter_by_type,
    generate_synthetic_corpus,
    length_ratio,
    load_corpus,
    parse_law_type,
    _string_date,
    parse_record_date,
    save_corpus,
    type_counts_by_year,
)
from lextopic.errors import (
    DuplicateId,
    EmptyContent,
    InvalidConfig,
    MalformedDate,
    MalformedRow,
    MissingField,
    MissingYear,
    UnknownLawType,
)


class TestLoadCorpus:
    def test_three_row_fixture_loads_in_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(
            path,
            [
                jsonl_row("r1", "Regulation"),
                jsonl_row("r2", "Bill"),
                jsonl_row("r3", "Opinion"),
            ],
        )
        corpus = load_corpus(path, "jsonl")
        assert [record.id for record in corpus.records] == ["r1", "r2", "r3"]
        assert [record.law_type for record in corpus.records] == [
            LawType.REGULATION,
            LawType.BILL,
            LawType.OPINION,
        ]

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [jsonl_row("r1"), jsonl_row("r1")])
        with pytest.raises(DuplicateId) as excinfo:
            load_corpus(path, "jsonl")
        assert excinfo.value.record_id == "r1"
        assert excinfo.value.row == 2

    def test_unknown_law_type_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [jsonl_row("r1", law_type="Treaty")])
        with pytest.raises(UnknownLawType) as excinfo:
            load_corpus(path, "jsonl")
        assert excinfo.value.value == "Treaty"

    def test_missing_field_names_row_and_field(self, tmp_path):
        path = tmp_path / "c.jsonl"
        row = jsonl_row("r1")
        del row["title"]
        write_jsonl(path, [jsonl_row("r0"), row])
        with pytest.raises(MissingField) as excinfo:
            load_corpus(path, "jsonl")
        assert excinfo.value.row == 2
        assert excinfo.value.field == "title"

    def test_blank_title_counts_as_missing(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [jsonl_row("r1", title="   ")])
        with pytest.raises(MissingField):
            load_corpus(path, "jsonl")

    def test_malformed_date_carries_row(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [jsonl_row("r1", date="not a date")])
        with pytest.raises(MalformedDate) as excinfo:
            load_corpus(path, "jsonl")
        assert excinfo.value.row == 1

    def test_table_header_aliases_accepted(self, tmp_path):
        path = tmp_path / "c.jsonl"
        row = jsonl_row("r1")
        row["type"] = row.pop("law_type")
        row["categories"] = row.pop("category")
        write_jsonl(path, [row])
        corpus = load_corpus(path, "jsonl")
        assert corpus.records[0].law_type is LawType.REGULATION
        assert corpus.records[0].category == "The Council of Ministers"

    @pytest.mark.parametrize("name, value", [
        ("tags", ["tag one", "\ud800"]),
        ("classes", ["\udfff"]),
        ("date", {"raw": "1400\ud800", "year": 1400, "month": 7, "day": 1}),
    ], ids=["tags", "classes", "date"])
    def test_csv_json_cell_escaping_a_lone_surrogate_names_row_and_field(self, tmp_path, name, value):
        path = tmp_path / "c.csv"
        _write_csv(path, [jsonl_row("r1"), jsonl_row("r2", **{name: value})])
        with pytest.raises(MalformedRow, match=f"^row 2: malformed CSV: field {name} holds a lone surrogate$"):
            load_corpus(path, "csv")

    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    # 20,000 levels: past the recursion limit, inside csv.field_size_limit().
    @pytest.mark.parametrize("name, cell, error", [
        ("tags", "[" * 20_000, MissingField),
        ("date", '{"a": ' * 20_000, MalformedDate),
    ], ids=["tags", "date"])
    def test_string_cell_nested_past_the_recursion_limit(self, tmp_path, format, name, cell, error):
        path = tmp_path / f"c.{format}"
        (write_jsonl if format == "jsonl" else _write_csv)(path, [jsonl_row("r1", **{name: cell})])
        with pytest.raises(error) as excinfo:
            load_corpus(path, format)
        assert excinfo.value.row == 1

    def test_streams_the_file_line_by_line(self, tmp_path):
        # About 2 MB of Persian text. Decoded whole, the file alone would take
        # about its own size above what the records keep.
        content = " ".join(["قانون", "مالیات", "بودجه", "هیئت", "وزیران"] * 40)
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [jsonl_row(f"r{i}", content=f"{i} {content}") for i in range(800)])
        size = path.stat().st_size
        assert 1.8e6 < size < 2.4e6
        tracemalloc.start()
        try:
            corpus = load_corpus(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(corpus) == 800
        assert peak - kept < 0.25 * size

    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    def test_no_collection_runs_during_the_load(self, tmp_path, format):
        # Records hold no cycles, so a collection during the load would free nothing.
        path = tmp_path / f"c.{format}"
        rows = [jsonl_row(f"r{i}") for i in range(2000)]
        if format == "jsonl":
            write_jsonl(path, rows)
        else:
            _write_csv(path, rows)
        generations = []

        def record(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        gc.callbacks.append(record)
        try:
            corpus = load_corpus(path, format)
        finally:
            gc.callbacks.remove(record)
        assert len(corpus) == 2000
        assert generations == []

    @pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
    @pytest.mark.parametrize("second_line", [json.dumps(jsonl_row("r2")), "{bad"], ids=["loads", "raises"])
    def test_the_collector_is_left_as_the_caller_had_it(self, tmp_path, enabled, second_line):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(jsonl_row("r1")) + "\n" + second_line + "\n", encoding="utf-8")
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if second_line == "{bad":
                with pytest.raises(MalformedRow):
                    load_corpus(path)
            else:
                assert len(load_corpus(path)) == 2
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()


def _write_csv(path, rows):
    """Rows as CSV, list and date values JSON-encoded with surrogates escaped."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({key: value if isinstance(value, str) else json.dumps(value) for key, value in row.items()})


class TestRoundTrip:
    def _corpus(self):
        return Corpus(
            [
                make_record("r1", LawType.REGULATION, 2021, lead="a lead",
                            tags=["t1", "t,2"], classes=["c1"], category="cat"),
                make_record("r2", LawType.NEWS, 2019, content='quotes " and, commas'),
            ]
        )

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_save_load_reproduces_fields(self, tmp_path, fmt):
        corpus = self._corpus()
        path = tmp_path / f"c.{fmt}"
        save_corpus(corpus, path, fmt)
        loaded = load_corpus(path, fmt)
        assert loaded.records == corpus.records
        if fmt == "csv":  # with the byte order mark of Excel's "CSV UTF-8"
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            assert load_corpus(path, fmt).records == corpus.records

    def test_canonical_field_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus(self._corpus(), path, "jsonl")
        first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert list(first) == [
            "id", "title", "content", "lead", "tags", "classes",
            "law_type", "category", "date",
        ]

    @settings(max_examples=25, deadline=None)
    @given(
        texts=st.lists(
            st.text(
                alphabet=st.characters(
                    codec="utf-8", exclude_categories=("Cs", "Cc")
                ),
                min_size=1,
                max_size=30,
            ),
            min_size=1,
            max_size=4,
        ),
        types=st.lists(st.sampled_from(list(LawType)), min_size=1, max_size=4),
        years=st.lists(st.integers(min_value=2016, max_value=2023), min_size=1, max_size=4),
    )
    def test_round_trip_property(self, tmp_path_factory, texts, types, years):
        records = []
        for position, (text, law_type, year) in enumerate(zip(texts, types, years)):
            records.append(
                LawRecord(
                    id=f"r{position}",
                    title=text if text.strip() else "t",
                    content=text,
                    law_type=law_type,
                    date=record_date(year),
                    tags=[text],
                )
            )
        corpus = Corpus(records)
        base = tmp_path_factory.mktemp("roundtrip")
        for fmt in ("jsonl", "csv"):
            path = base / f"c.{fmt}"
            save_corpus(corpus, path, fmt)
            assert load_corpus(path, fmt).records == corpus.records


class TestLawTypeParsing:
    def test_exact_values(self):
        for law_type in LawType:
            assert parse_law_type(law_type.value) is law_type

    def test_plural_and_spaced_spellings(self):
        assert parse_law_type("Parliament deliberations") is LawType.PARLIAMENT_DELIBERATION
        assert parse_law_type("regulations") is LawType.REGULATION
        assert parse_law_type("News") is LawType.NEWS

    def test_unknown_value_raises(self):
        with pytest.raises(UnknownLawType):
            parse_law_type("Treaty")


# Pieces of date strings: ASCII, Persian and Arabic-Indic digits, each form's separators, ASCII and other
# spaces, month and day names right and wrong, and letters that are not ASCII, some of them like ASCII ones.
_DIGITS = "0123456789" + "۰۱۲۳۴۵۶۷۸۹" + "٠١٢٣٤٥٦٧٨٩"
_DATE_PIECES = ["/", "-", ",", ", ", " ", "\t", "\u3000", "\xa0", "July", "march", "Saturday", "Smarch", "é",
                "ق", "Ж", "\u017f", "\u212a", "1400", "۱۴۰۰", "12", "7", "x"]


@st.composite
def _date_strings(draw) -> str:
    """A date string of one form, its digits of any script, then perhaps cut, grown or spoiled, and padded."""
    number = lambda size: "".join(draw(st.lists(st.sampled_from(_DIGITS), min_size=size, max_size=size)))
    separator = draw(st.sampled_from("/-"))
    month_name = draw(st.sampled_from(["July", "march", "DECEMBER", "Smarch", "Julyy", "é"]))
    day, month, year = number(draw(st.integers(1, 2))), number(draw(st.integers(1, 2))), number(4)
    text = draw(st.sampled_from([
        f"{year}{separator}{month}{separator}{day}", f"{month}{separator}{day}{separator}{year}",
        f"{month_name} {day}, {year}", f"Saturday, {month_name} {day},{year}",
        "".join(draw(st.lists(st.sampled_from(_DATE_PIECES + list(_DIGITS)), max_size=8))),
    ]))
    if text and draw(st.booleans()):  # a near miss: a character dropped, added or replaced
        at = draw(st.integers(0, len(text) - 1))
        piece = draw(st.sampled_from(_DATE_PIECES + list(_DIGITS[::7])))
        text = draw(st.sampled_from([text[:at] + text[at + 1:], text[:at] + piece + text[at:],
                                     text[:at] + piece + text[at + 1:]]))
    space = st.sampled_from(["", "", " ", "\t ", "\u3000", "\n"])
    return draw(space) + text + draw(space)


class TestDateParsing:
    def test_year_first_string(self):
        date = parse_record_date("1402/04/06")
        assert (date.jalali_year, date.jalali_month, date.jalali_day) == (1402, 4, 6)
        assert date.gregorian_year == 2023

    def test_year_last_string(self):
        date = parse_record_date("03/28/1402")
        assert (date.jalali_year, date.jalali_month, date.jalali_day) == (1402, 3, 28)

    def test_weekday_name_form_maps_month_name_positionally(self):
        # Month names in detail pages are positional translations of the
        # Jalali months, so July denotes month 4.
        date = parse_record_date("Saturday, July 10, 1402")
        assert (date.jalali_year, date.jalali_month, date.jalali_day) == (1402, 4, 10)
        assert date.gregorian_year == 2023

    def test_dict_form(self):
        date = parse_record_date({"raw": "x", "year": 1399, "month": 12, "day": 30})
        assert date.gregorian_year == 2021

    @pytest.mark.parametrize("parts", [{}, {"raw": None}])
    def test_dict_form_without_raw_spells_the_date(self, parts):
        date = parse_record_date({"year": "1399", "month": 7, "day": 1, **parts})
        assert date.raw == "1399/07/01"

    @pytest.mark.parametrize("parts", [
        {"year": "1399", "month": "07", "day": " 1 "},
        {"year": 1399.0, "month": 7.0, "day": 1.0},
        {"year": "۱۳۹۹", "month": 7, "day": "١"},
    ])
    def test_dict_fields_that_name_an_integer_give_the_integer_date(self, parts):
        assert parse_record_date(parts) == parse_record_date({"year": 1399, "month": 7, "day": 1})

    # Each error quotes the date as the row holds it: a string's repr, anything else as JSON.
    @pytest.mark.parametrize("bad, shown", [
        ("", "''"), ("6 July 1402", "'6 July 1402'"), ("1402/13/01", "'1402/13/01'"),
        (" 1402/13/01 ", "' 1402/13/01 '"), ("13/01/1402", "'13/01/1402'"),
        ("Saturday, July 40, 1402", "'Saturday, July 40, 1402'"),
        ({"year": 1400}, '{"year": 1400}'), (42, "42"),
        ({"year": True, "month": 7, "day": 1}, '{"year": true, "month": 7, "day": 1}'),
        ({"year": 1400, "month": 4.5, "day": 1}, '{"year": 1400, "month": 4.5, "day": 1}'),
        ({"year": 1400, "month": 7, "day": float("inf")}, '{"year": 1400, "month": 7, "day": Infinity}'),
        ({"year": float("nan"), "month": 7, "day": 1}, '{"year": NaN, "month": 7, "day": 1}'),
        ({"year": 0, "month": 7, "day": 1}, '{"year": 0, "month": 7, "day": 1}'),
        ({"year": 10_000, "month": 7, "day": 1}, '{"year": 10000, "month": 7, "day": 1}'),
        ({"year": "1" * 24, "month": 7, "day": 1}, '{"year": "' + "1" * 24 + '", "month": 7, "day": 1}'),
        ({"year": None, "month": 7, "day": 1}, '{"year": null, "month": 7, "day": 1}'),
        ({"year": 1400, "month": [7], "day": 1}, '{"year": 1400, "month": [7], "day": 1}'),
        ({"year": 1402, "month": 13, "day": 1}, '{"year": 1402, "month": 13, "day": 1}'),
        ({"year": "1402", "month": "13", "day": "1"}, '{"year": "1402", "month": "13", "day": "1"}'),
    ])
    def test_malformed_inputs_raise(self, bad, shown):
        with pytest.raises(MalformedDate, match=f"^malformed date {re.escape(shown)}$"):
            parse_record_date(bad)
        with pytest.raises(MalformedDate, match=f"^row 4: malformed date {re.escape(shown)}$"):
            parse_record_date(bad, 4)

    def test_a_year_past_the_digit_limit_is_quoted_by_its_type(self):
        with pytest.raises(MalformedDate, match="^malformed date a dict too long to show$"):
            parse_record_date({"year": 10**5000, "month": 1, "day": 1})

    @settings(max_examples=500, deadline=None)
    @given(_date_strings())
    def test_the_first_character_picks_the_forms_as_trying_all_three_did(self, text):
        assert _string_date(text) == reference.string_date(text)



class TestFilterByType:
    def test_mixed_corpus_keeps_matching(self, mixed_corpus):
        filtered = filter_by_type(mixed_corpus, LawType.REGULATION)
        assert [record.id for record in filtered.records] == ["r1", "r3"]

    def test_empty_corpus(self):
        assert filter_by_type(Corpus([]), LawType.LAW).records == []

    def test_partition_over_all_types(self, mixed_corpus):
        total = sum(
            len(filter_by_type(mixed_corpus, law_type).records) for law_type in LawType
        )
        assert total == len(mixed_corpus.records)

    def test_large_labeled_corpus_counts(self):
        records = []
        for position in range(11760):
            law_type = LawType.REGULATION if position < 6599 else LawType.NEWS
            records.append(make_record(f"r{position}", law_type))
        filtered = filter_by_type(Corpus(records), LawType.REGULATION)
        assert len(filtered.records) == 6599


def _cells(table):
    """A trend table's counts by (row label, column label)."""
    return {(row, col): count for row, counts in zip(table.axis_rows, table.counts)
            for col, count in zip(table.axis_cols, counts)}


class TestTypeCountsByYear:
    def test_direct_counts(self):
        corpus = Corpus(
            [make_record(f"r{i}", LawType.REGULATION, 2021) for i in range(3)]
            + [make_record("b1", LawType.BILL, 2021)]
        )
        table = type_counts_by_year(corpus)
        assert _cells(table) == {("Regulation", 2021): 3, ("Bill", 2021): 1}

    def test_empty_corpus_gives_empty_table(self):
        table = type_counts_by_year(Corpus([]))
        assert table.axis_rows == [] and table.axis_cols == []

    def test_fixture_tally_matches_independent_recount(self):
        rng = np.random.default_rng(4)
        types = list(LawType)
        records = [
            make_record(f"r{i}", types[rng.integers(len(types))], int(rng.integers(2016, 2024)))
            for i in range(150)
        ]
        corpus = Corpus(records)
        table = type_counts_by_year(corpus)
        # independent tally
        expected = {}
        for record in records:
            key = (record.law_type.value, record.date.gregorian_year)
            expected[key] = expected.get(key, 0) + 1
        assert {cell: count for cell, count in _cells(table).items() if count} == expected
        assert sum(map(sum, table.counts)) == len(records)

    def test_missing_date_rejected(self):
        record = make_record("r1")
        record.date = None
        with pytest.raises(MissingYear):
            type_counts_by_year(Corpus([record]))


class TestLengthRatio:
    def test_half(self):
        assert length_ratio(make_record("r", title="ab", content="abcd")) == 0.5

    def test_identity(self):
        assert length_ratio(make_record("r", title="same", content="same")) == 1.0

    def test_empty_content_raises(self):
        with pytest.raises(EmptyContent):
            length_ratio(make_record("r", title="t" * 120, content="   "))


class TestSyntheticCorpus:
    def test_deterministic_under_seed(self):
        first, truth_a = generate_synthetic_corpus(SYNTH_CONFIG)
        second, truth_b = generate_synthetic_corpus(SYNTH_CONFIG)
        assert [record.content for record in first.records] == [
            record.content for record in second.records
        ]
        assert np.array_equal(truth_a.doc_topic, truth_b.doc_topic)
        assert np.array_equal(truth_a.topic_word, truth_b.topic_word)

    @pytest.mark.parametrize("config", [
        SYNTH_CONFIG,
        SynthConfig(n_docs=5, n_topics=1, vocab_size=8, doc_length=6, seed=3),
        SynthConfig(n_docs=30, n_topics=20, vocab_size=3000, doc_length=200, alpha=0.1, beta=0.01,
                    years=(2019, 2020, 2021), seed=2**63 + 1),
        SynthConfig(n_docs=12, n_topics=7, vocab_size=1, doc_length=1, alpha=5.0, seed=9),
        SynthConfig(n_docs=8, n_topics=4, vocab_size=50, doc_length=500, alpha=0.01, beta=2.0, seed=4),
    ], ids=["fixture", "one-topic", "fit-sampling-shape", "one-word", "sparse-mixtures"])
    def test_equals_the_choice_reference(self, config):
        # Equal records and truth from the CDFs built once: a numpy change to
        # Generator.choice shows up here.
        corpus, truth = generate_synthetic_corpus(config)
        expected_corpus, expected_truth = reference.generate_synthetic_corpus(config)
        assert corpus == expected_corpus
        assert truth.doc_topic.tobytes() == expected_truth.doc_topic.tobytes()
        assert truth.topic_word.tobytes() == expected_truth.topic_word.tobytes()

    def test_single_topic_degenerate_mixture(self):
        config = SynthConfig(n_docs=5, n_topics=1, vocab_size=8, doc_length=6, seed=3)
        _, truth = generate_synthetic_corpus(config)
        assert np.allclose(truth.doc_topic, 1.0)

    def test_ground_truth_rows_are_distributions(self):
        _, truth = generate_synthetic_corpus(SYNTH_CONFIG)
        assert np.allclose(truth.doc_topic.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(truth.topic_word.sum(axis=1), 1.0, atol=1e-9)
        assert (truth.doc_topic >= 0).all() and (truth.topic_word >= 0).all()

    def test_word_frequencies_match_mixture(self):
        corpus, truth = generate_synthetic_corpus(SYNTH_CONFIG)
        total = np.zeros(SYNTH_CONFIG.vocab_size)
        for record in corpus.records:
            for token in record.content.split():
                total[int(token[1:])] += 1
        empirical = total / total.sum()
        mixture = (truth.doc_topic @ truth.topic_word).mean(axis=0)
        assert 0.5 * np.abs(empirical - mixture).sum() <= 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_docs": 0},
            {"n_topics": 0},
            {"vocab_size": 0},
            {"doc_length": 0},
            {"alpha": 0.0},
            {"beta": -1.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        base = dict(n_docs=4, n_topics=2, vocab_size=5, doc_length=3)
        base.update(kwargs)
        with pytest.raises(InvalidConfig):
            SynthConfig(**base)
