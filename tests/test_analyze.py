"""Dominant-topic shares, yearly trend tables, labels, and exports."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_record
from lextopic import analyze
from lextopic.analyze import (
    TopicSummary,
    dominant_topic,
    label_topics,
    load_labels,
    save_shares_csv,
    save_topics_json,
    save_trends_csv,
    save_wordcloud_csv,
    top_words,
    topic_shares,
    wordcloud_weights,
    yearly_topic_percentages,
)
from lextopic.corpus import Corpus
from lextopic.errors import AlignmentMismatch, CorruptModel, MissingYear, UnknownTopicId, VocabularyMismatch
from lextopic.lda import LdaConfig, LdaModel, fit, load_model, save_model
from lextopic.trends import PER_TOPIC, PER_YEAR
from lextopic.vectorize import DocTermMatrix, Vocabulary


def _model(doc_topic, topic_word=None, vocab=None):
    doc_topic = np.asarray(doc_topic, dtype=np.float64)
    n_topics = doc_topic.shape[1]
    if topic_word is None:
        n_terms = 3 if vocab is None else len(vocab.terms)
        topic_word = np.full((n_topics, n_terms), 1.0 / n_terms)
    config = LdaConfig(n_topics=n_topics, alpha=1.0, beta=1.0, sweeps=2, burn_in=1)
    return LdaModel(
        config=config,
        doc_topic=doc_topic,
        topic_word=np.asarray(topic_word, dtype=np.float64),
        doc_ids=[f"d{i}" for i in range(doc_topic.shape[0])],
        log_likelihood=[],
        vocab=vocab,
    )


def _corpus_for(model, years=None):
    years = years or [2021] * len(model.doc_ids)
    records = [
        make_record(doc_id, year=year) for doc_id, year in zip(model.doc_ids, years)
    ]
    return Corpus(records)


class TestDominantTopic:
    def test_plain_argmax(self):
        assert dominant_topic([0.2, 0.5, 0.3]) == 1

    def test_tie_picks_lowest_index(self):
        assert dominant_topic([0.4, 0.4, 0.2]) == 0

    def test_single_topic(self):
        assert dominant_topic([1.0]) == 0

    def test_scale_invariant(self):
        row = [0.1, 0.7, 0.2]
        assert dominant_topic(row) == dominant_topic([3 * x for x in row])

    def test_theta_matrix_gives_each_rows_topic(self):
        theta = np.array([[0.2, 0.5, 0.3], [0.4, 0.4, 0.2], [0.1, 0.1, 0.8]])
        assert dominant_topic(theta).tolist() == [dominant_topic(row) for row in theta] == [1, 0, 2]


class TestTopicShares:
    def test_counts_and_percentages(self):
        model = _model([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.1, 0.9]])
        table = topic_shares(model, _corpus_for(model))
        assert table.axis_rows == ["topic-0", "topic-1"]
        assert table.axis_cols == ["all"]
        assert table.counts == [[2], [2]]
        assert table.percent("topic-0", "all") == pytest.approx(50.0)
        assert table.percentages == [[50.0], [50.0]]

    def test_labels_rename_rows(self):
        model = _model([[0.9, 0.1], [0.2, 0.8]])
        table = topic_shares(model, _corpus_for(model), labels={0: "Economic"})
        assert table.axis_rows == ["Economic", "topic-1"]

    def test_concentrated_corpus_is_all_one_topic(self):
        model = _model([[0.8, 0.2], [0.7, 0.3], [0.9, 0.1]])
        table = topic_shares(model, _corpus_for(model))
        assert table.percent("topic-0", "all") == pytest.approx(100.0)
        assert table.percent("topic-1", "all") == pytest.approx(0.0)

    def test_misaligned_corpus_rejected(self):
        model = _model([[0.9, 0.1], [0.2, 0.8]])
        short = Corpus([make_record("d0")])
        with pytest.raises(AlignmentMismatch):
            topic_shares(model, short)
        swapped = Corpus([make_record("d1"), make_record("d0")])
        with pytest.raises(AlignmentMismatch):
            topic_shares(model, swapped)


class TestYearlyTrends:
    def _fixture(self, normalization):
        model = _model([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3], [0.6, 0.4]])
        corpus = _corpus_for(model, years=[2020, 2020, 2021, 2021])
        return yearly_topic_percentages(model, corpus, normalization=normalization)

    def test_counts(self):
        table = self._fixture(PER_TOPIC)
        assert table.axis_rows == ["topic-0", "topic-1"]
        assert table.axis_cols == [2020, 2021]
        assert table.counts == [[1, 2], [1, 0]]

    def test_per_topic_rows_sum_to_100(self):
        table = self._fixture(PER_TOPIC)
        assert table.percent("topic-0", 2021) == pytest.approx(200 / 3)
        for i, _row_label in enumerate(table.axis_rows):
            assert sum(table.percentages[i]) == pytest.approx(100.0, abs=1e-9)

    def test_per_year_columns_sum_to_100(self):
        table = self._fixture(PER_YEAR)
        assert table.percent("topic-0", 2020) == pytest.approx(50.0)
        assert table.percent("topic-0", 2021) == pytest.approx(100.0)
        for j, _year in enumerate(table.axis_cols):
            total = sum(table.percentages[i][j] for i in range(len(table.axis_rows)))
            assert total == pytest.approx(100.0, abs=1e-9)

    def test_topic_with_no_documents_keeps_zero_row(self):
        model = _model([[0.9, 0.1, 0.0], [0.8, 0.1, 0.1]])
        corpus = _corpus_for(model, years=[2020, 2021])
        table = yearly_topic_percentages(model, corpus, normalization=PER_TOPIC)
        assert table.axis_rows == ["topic-0", "topic-1", "topic-2"]
        assert table.counts[1] == [0, 0]
        assert table.percentages[1] == [0.0, 0.0]

    def test_single_year_is_100_percent(self):
        model = _model([[0.9, 0.1], [0.2, 0.8]])
        corpus = _corpus_for(model, years=[2022, 2022])
        table = yearly_topic_percentages(model, corpus, normalization=PER_TOPIC)
        assert table.percent("topic-0", 2022) == pytest.approx(100.0)

    def test_missing_date_rejected(self):
        model = _model([[0.9, 0.1]])
        record = make_record("d0")
        record.date = None
        with pytest.raises(MissingYear):
            yearly_topic_percentages(model, Corpus([record]))

    def test_unknown_normalization_rejected(self):
        model = _model([[0.9, 0.1]])
        with pytest.raises(ValueError):
            yearly_topic_percentages(model, _corpus_for(model), normalization="per_doc")


VOCAB = Vocabulary(
    terms=["alpha", "beta", "gamma"],
    index={"alpha": 0, "beta": 1, "gamma": 2},
    df=[2, 2, 1],
)


class TestDominantCounts:
    """Share and trend counts equal a per-row dominant_topic count, ties included."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n_topics: st.lists(
        st.tuples(st.lists(st.sampled_from([0.0, 0.25, 0.5]), min_size=n_topics, max_size=n_topics),
                  st.sampled_from([2019, 2020, 2022])),
        max_size=12,
    )))
    def test_equal_per_row_reference(self, rows):
        n_topics = len(rows[0][0]) if rows else 2
        model = _model(np.array([theta for theta, _ in rows]).reshape(len(rows), n_topics))
        corpus = _corpus_for(model, years=[year for _, year in rows])
        years = sorted({year for _, year in rows})
        expected = [[0] * len(years) for _ in range(n_topics)]
        for theta, year in rows:
            expected[dominant_topic(theta)][years.index(year)] += 1
        trends = yearly_topic_percentages(model, corpus)
        shares = topic_shares(model, corpus)
        assert trends.counts == expected
        assert shares.counts == [[sum(row)] for row in expected]
        assert all(type(count) is int for row in trends.counts + shares.counts for count in row)

    def test_both_tables_count_by_dominant_topic(self, monkeypatch):
        # A changed rule, here the least likely topic, changes both tables.
        monkeypatch.setattr(analyze, "dominant_topic", lambda theta: np.argmin(np.asarray(theta), axis=-1))
        model = _model([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        corpus = _corpus_for(model, years=[2020, 2021, 2021])
        assert topic_shares(model, corpus).counts == [[1], [2]]
        assert yearly_topic_percentages(model, corpus).counts == [[0, 1], [1, 1]]


class TestShareTableSums:
    """Every non-empty group of a share or trend table sums to 100; empty groups stay 0.0."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 5).flatmap(lambda n_topics: st.tuples(
            st.lists(st.tuples(st.lists(st.floats(0.0, 1.0), min_size=n_topics, max_size=n_topics),
                               st.integers(2000, 2006)), min_size=1, max_size=30),
            st.dictionaries(st.integers(0, n_topics - 1), st.text(min_size=1, max_size=5)),
        ))
    )
    def test_sums_and_counts(self, draw):
        rows, labels = draw
        theta = np.array([theta for theta, _ in rows])
        model = _model(theta)
        corpus = _corpus_for(model, years=[year for _, year in rows])
        dominant = np.argmax(theta, axis=1)
        expected_rows = [labels.get(topic, f"topic-{topic}") for topic in range(theta.shape[1])]

        shares = topic_shares(model, corpus, labels=labels)
        assert shares.axis_rows == expected_rows
        assert [count for [count] in shares.counts] == np.bincount(dominant, minlength=theta.shape[1]).tolist()
        assert sum(percent for [percent] in shares.percentages) == pytest.approx(100.0, abs=1e-9)

        for normalization, axis in ((PER_TOPIC, 1), (PER_YEAR, 0)):
            table = yearly_topic_percentages(model, corpus, normalization=normalization, labels=labels)
            assert table.axis_rows == expected_rows
            counts, percents = np.array(table.counts), np.array(table.percentages)
            assert counts.sum(axis=1).tolist() == [count for [count] in shares.counts]
            group_counts, group_sums = counts.sum(axis=axis), percents.sum(axis=axis)
            assert np.all(np.abs(group_sums[group_counts > 0] - 100.0) <= 1e-9)
            empty = group_counts == 0
            assert np.all((percents[empty, :] if axis == 1 else percents[:, empty]) == 0.0)


class TestTopWords:
    def test_ranked_by_probability(self):
        model = _model([[1.0]], topic_word=[[0.5, 0.2, 0.3]], vocab=VOCAB)
        assert top_words(model, 0, 2) == [("alpha", 0.5), ("gamma", 0.3)]

    def test_ties_break_lexicographically(self):
        model = _model([[1.0]], topic_word=[[0.4, 0.4, 0.2]], vocab=VOCAB)
        assert top_words(model, 0, 2) == [("alpha", 0.4), ("beta", 0.4)]

    def test_anonymous_terms_get_positional_names(self):
        model = _model([[1.0]], topic_word=[[0.5, 0.2, 0.3]])
        assert top_words(model, 0, 1) == [("term-0", 0.5)]

    def test_bad_inputs(self):
        model = _model([[1.0]], topic_word=[[0.5, 0.2, 0.3]], vocab=VOCAB)
        with pytest.raises(UnknownTopicId):
            top_words(model, 5, 2)
        with pytest.raises(ValueError):
            top_words(model, 0, 0)
        with pytest.raises(ValueError):
            top_words(model, 0, 4)


_LABEL_CONSUMERS = {
    "label_topics": label_topics,
    "topic_shares": lambda model, labels: topic_shares(model, _corpus_for(model), labels=labels),
    "yearly_topic_percentages": lambda model, labels: yearly_topic_percentages(model, _corpus_for(model),
                                                                                labels=labels),
}


class TestLabelTopics:
    def test_partial_label_map(self):
        model = _model([[0.5, 0.5]], topic_word=[[0.5, 0.2, 0.3], [0.1, 0.6, 0.3]], vocab=VOCAB)
        summaries = label_topics(model, {0: "Economic"}, top_m=2)
        assert [s.label for s in summaries] == ["Economic", "topic-1"]
        assert summaries[0].top_words == [("alpha", 0.5), ("gamma", 0.3)]
        assert summaries[1].topic_id == 1

    def test_empty_map_uses_defaults(self):
        model = _model([[0.5, 0.5]], topic_word=[[0.5, 0.2, 0.3], [0.1, 0.6, 0.3]], vocab=VOCAB)
        assert [s.label for s in label_topics(model)] == ["topic-0", "topic-1"]

    def test_out_of_range_key_rejected(self):
        model = _model(
            [[0.4, 0.3, 0.3]],
            topic_word=[[0.5, 0.2, 0.3], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]],
            vocab=VOCAB,
        )
        with pytest.raises(UnknownTopicId):
            label_topics(model, {5: "Legal"})

    @pytest.mark.parametrize("consumer", _LABEL_CONSUMERS.values(), ids=_LABEL_CONSUMERS)
    @pytest.mark.parametrize("topic_id", [2, 99, -1])
    def test_every_label_consumer_rejects_an_unknown_topic(self, consumer, topic_id):
        model = _model([[0.5, 0.5]], topic_word=[[0.5, 0.2, 0.3], [0.1, 0.6, 0.3]], vocab=VOCAB)
        consumer(model, {1: "Legal"})
        with pytest.raises(UnknownTopicId):
            consumer(model, {topic_id: "x"})

    def test_load_labels_sidecar(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text('{"0": "Economic", "2": "Legal"}', encoding="utf-8")
        assert load_labels(path) == {0: "Economic", 2: "Legal"}


class TestWordcloudWeights:
    def test_peak_term_weighs_exactly_one(self):
        model = _model([[1.0]], topic_word=[[0.5, 0.2, 0.3]], vocab=VOCAB)
        weights = wordcloud_weights(model, 0, 2)
        assert weights == [("alpha", 1.0), ("gamma", pytest.approx(0.6))]
        assert weights[0][1] == 1.0

    def test_uniform_topic_gives_all_ones(self):
        model = _model([[1.0]], topic_word=[[1 / 3, 1 / 3, 1 / 3]], vocab=VOCAB)
        assert all(w == pytest.approx(1.0) for _t, w in wordcloud_weights(model, 0, 3))

    def test_order_matches_top_words(self):
        model = _model([[1.0]], topic_word=[[0.5, 0.2, 0.3]], vocab=VOCAB)
        assert [t for t, _w in wordcloud_weights(model, 0, 3)] == [
            t for t, _w in top_words(model, 0, 3)
        ]

    def test_a_topic_of_zeros_weighs_every_word_zero(self):
        model = _model([[1.0, 0.0]], topic_word=[[0.0, 0.0, 0.0], [0.5, 0.2, 0.3]], vocab=VOCAB)
        assert wordcloud_weights(model, 0, 3) == [("alpha", 0.0), ("beta", 0.0), ("gamma", 0.0)]


class TestModelShapes:
    """A code-built model whose θ, φ or vocabulary does not fit its doc_ids and K is refused, not misread."""

    SHAPES = "shapes of doc_topic, topic_word and vocabulary terms/df {} are not {}, as 2 doc_ids and 2 topics require"

    def _extra_theta_row(self):
        model = _model([[0.9, 0.1], [0.2, 0.8], [0.3, 0.7]])
        model.doc_ids = ["d0", "d1"]
        return model

    @pytest.mark.parametrize("table", [topic_shares, yearly_topic_percentages])
    def test_a_theta_row_past_the_doc_ids_is_no_phantom_document(self, table):
        model = self._extra_theta_row()
        message = "model documents do not align with corpus records: " + self.SHAPES.format(
            [(3, 2), (2, 3)], [(2, 2), (2, 3)])
        with pytest.raises(AlignmentMismatch) as raised:
            table(model, _corpus_for(model))
        assert str(raised.value) == message

    def test_save_model_refuses_what_load_model_would(self, tmp_path):
        with pytest.raises(CorruptModel, match=r"^model file .*model\.json: shapes of doc_topic"):
            save_model(self._extra_theta_row(), tmp_path / "model.json")
        assert list(tmp_path.iterdir()) == []

    def test_a_vocabulary_shorter_than_phi_is_refused(self):
        model = _model([[0.9, 0.1], [0.2, 0.8]], topic_word=[[0.25] * 4, [0.25] * 4], vocab=VOCAB)
        with pytest.raises(VocabularyMismatch) as raised:
            label_topics(model)
        assert str(raised.value) == "model vocabulary does not match: " + self.SHAPES.format(
            [(2, 2), (2, 4), (3, 3)], [(2, 2), (2, 4), (4, 4)])


class TestExports:
    def _summaries(self):
        model = _model([[0.5, 0.5]], topic_word=[[0.5, 0.2, 0.3], [0.1, 0.6, 0.3]], vocab=VOCAB)
        return model, label_topics(model, {0: "Economic"}, top_m=2)

    def test_topics_json_shape_and_determinism(self, tmp_path):
        _model_, summaries = self._summaries()
        first, second = tmp_path / "t1.json", tmp_path / "t2.json"
        save_topics_json(summaries, first)
        save_topics_json(summaries, second)
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text(encoding="utf-8"))
        assert payload[0]["label"] == "Economic"
        assert payload[0]["top_words"][0] == ["alpha", 0.5]

    def test_csv_headers(self, tmp_path):
        model = _model([[0.9, 0.1], [0.2, 0.8]])
        corpus = _corpus_for(model, years=[2020, 2021])
        shares_path = tmp_path / "shares.csv"
        save_shares_csv(topic_shares(model, corpus), shares_path)
        shares_lines = shares_path.read_text(encoding="utf-8").splitlines()
        assert shares_lines[0] == "topic,count,percent"
        assert len(shares_lines) == 3

        trends_path = tmp_path / "trends.csv"
        table = yearly_topic_percentages(model, corpus, normalization=PER_TOPIC)
        save_trends_csv(table, trends_path)
        trend_lines = trends_path.read_text(encoding="utf-8").splitlines()
        assert trend_lines[0] == "topic,year,count,percent,normalization"
        assert len(trend_lines) == 1 + 2 * 2
        assert trend_lines[1].endswith(PER_TOPIC)

        cloud_path = tmp_path / "cloud.csv"
        save_wordcloud_csv([("alpha", 1.0), ("gamma", 0.6)], cloud_path)
        cloud_lines = cloud_path.read_text(encoding="utf-8").splitlines()
        assert cloud_lines[0] == "term,weight"
        assert cloud_lines[1] == "alpha,1.0"

    def test_reloaded_model_reproduces_exports(self, tmp_path):
        matrix = DocTermMatrix(
            n_docs=3,
            n_terms=3,
            counts=([0, 0, 1, 2, 2], [0, 1, 2, 0, 2], [2, 1, 2, 1, 1]),
            doc_ids=["d0", "d1", "d2"],
        )
        config = LdaConfig(n_topics=2, alpha=0.5, beta=0.2, sweeps=20, burn_in=5, seed=6)
        model = fit(matrix, config, vocab=VOCAB)
        save_model(model, tmp_path / "model.json")
        reloaded = load_model(tmp_path / "model.json")
        corpus = _corpus_for(model, years=[2020, 2021, 2021])
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        save_trends_csv(yearly_topic_percentages(model, corpus), first)
        save_trends_csv(yearly_topic_percentages(reloaded, corpus), second)
        assert first.read_bytes() == second.read_bytes()


class TestAtomicExports:
    """A failed export leaves the previous file whole and no temporary file."""

    @pytest.mark.parametrize(
        "save, good, bad",
        [
            (save_topics_json, [TopicSummary(0, "topic-0", [("alpha", 0.5)])],
             [TopicSummary(0, "topic-0", [("alpha", 0.5), ("beta", object())])]),
            (save_wordcloud_csv, [("alpha", 1.0)], [None]),
        ],
    )
    def test_failed_write_keeps_the_old_file(self, tmp_path, save, good, bad):
        path = tmp_path / "export"
        save(good, path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save(bad, path)
        assert path.read_bytes() == before
        assert [entry.name for entry in tmp_path.iterdir()] == ["export"]
