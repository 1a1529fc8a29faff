"""Cleaning pipeline stages and their composition."""

import sys
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_record
from lextopic.errors import EmptyDocument
from lextopic.preprocess import (
    DEFAULT_NORMALIZE_CHARS,
    DEFAULT_PUNCTUATION,
    LemmaRules,
    PreprocessConfig,
    _preprocess_chunks,
    default_config,
    lemmatize,
    load_lemma_rules,
    load_stopwords,
    normalize,
    preprocess_corpus,
    preprocess_document,
    remove_punctuation,
    remove_stopwords,
    tokenize,
)
from lextopic.corpus import Corpus


class TestNormalize:
    def test_whitespace_collapse(self):
        assert normalize("a  b\tc") == "a b c"

    def test_arabic_indic_digits_become_latin(self):
        assert "45" in normalize("سال ۴۵")
        assert normalize("٤٥") == "45"

    def test_arabic_letter_variants_folded(self):
        assert normalize("يك") == "یک"

    def test_half_space_joins_morphemes(self):
        assert normalize("کتاب‌ها") == "کتابها"

    def test_lowercases_latin(self):
        assert normalize("Budget LAW") == "budget law"

    @given(st.text(max_size=200))
    def test_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once


class TestRemovePunctuation:
    def test_separators_become_spaces(self):
        assert remove_punctuation("a,b.c") == "a b c"

    def test_identity_when_clean(self):
        assert remove_punctuation("abc") == "abc"

    def test_parentheses(self):
        assert remove_punctuation("(1402)") == " 1402 "

    def test_persian_marks(self):
        assert remove_punctuation("ماده ۱،بند") == "ماده ۱ بند"


class TestTableSubstitution:
    """normalize and remove_punctuation equal the str.translate forms they replaced."""

    @given(st.text(alphabet=st.sampled_from("يك٤۵ـ\u200c.،«» a") | st.characters(), max_size=40))
    def test_defaults_equal_str_translate(self, text):
        table = str.maketrans(DEFAULT_NORMALIZE_CHARS)
        assert normalize(text) == " ".join(text.translate(table).lower().split())
        marks = {ord(mark): " " for mark in DEFAULT_PUNCTUATION}
        assert remove_punctuation(text) == text.translate(marks)


class TestFixedTables:
    """The facts about the tables that _preprocess_chunks relies on."""

    def test_no_image_of_a_chunk_character_holds_whitespace_but_a_space(self):
        assert not any(key.isspace() for key in DEFAULT_NORMALIZE_CHARS)
        assert not any(char.isspace() for value in DEFAULT_NORMALIZE_CHARS.values() for char in value)
        assert not any(mark.isspace() for mark in DEFAULT_PUNCTUATION)
        lowered = (chr(code).lower() for code in range(sys.maxunicode + 1) if not chr(code).isspace())
        assert not any(char.isspace() for text in lowered for char in text)

    def test_no_table_value_holds_capital_sigma(self):
        assert not any("\u03a3" in value for value in DEFAULT_NORMALIZE_CHARS.values())


class TestTokenize:
    def test_split_on_whitespace(self):
        assert tokenize("the quick fox") == ["the", "quick", "fox"]

    def test_empty(self):
        assert tokenize("") == []

    def test_length_floor(self):
        assert tokenize("a bb ccc", min_token_length=2) == ["bb", "ccc"]


class TestRemoveStopwords:
    def test_subsequence(self):
        assert remove_stopwords(["in", "law", "of", "court"], {"in", "of"}) == ["law", "court"]

    def test_empty_stoplist_identity(self):
        tokens = ["law", "court"]
        assert remove_stopwords(tokens, set()) == tokens

    def test_all_stopwords(self):
        assert remove_stopwords(["of", "of"], {"of"}) == []

    @given(st.lists(st.text(min_size=1, max_size=8), max_size=20))
    def test_idempotent(self, tokens):
        stoplist = set(tokens[::2])
        once = remove_stopwords(tokens, stoplist)
        assert remove_stopwords(once, stoplist) == once


class TestLemmatize:
    def test_exception_lexicon_hit(self):
        rules = LemmaRules(exceptions={"went": "go"})
        assert lemmatize(["went", "walk"], rules) == ["go", "walk"]

    def test_suffix_strip(self):
        rules = LemmaRules(suffix_rules=[("ha", "")])
        assert lemmatize(["ketabha"], rules) == ["ketab"]

    def test_longest_suffix_wins(self):
        rules = LemmaRules(suffix_rules=[("s", ""), ("es", "")])
        assert lemmatize(["boxes"], rules) == ["box"]

    def test_short_token_unchanged(self):
        rules = LemmaRules(suffix_rules=[("ha", "")])
        assert lemmatize(["ha", "x"], rules) == ["ha", "x"]

    def test_result_never_emptied(self):
        rules = LemmaRules(suffix_rules=[("ab", "")])
        assert lemmatize(["ab", "abab"], rules) == ["ab", "ab"]

    persian_tokens = st.lists(
        st.text(alphabet="ابپتجحدرسقکلمنهویگ", min_size=1, max_size=10), max_size=15
    )

    @settings(max_examples=60)
    @given(persian_tokens)
    def test_idempotent_with_bundled_rules(self, tokens):
        rules = default_config().lemma_rules
        once = lemmatize(tokens, rules)
        assert lemmatize(once, rules) == once


class TestPreprocessDocument:
    def _config(self):
        return PreprocessConfig(stopword_list={"of"}, min_token_length=2)

    def test_five_stage_trace(self):
        record = make_record("r1", title="Budget law", content="of 1402, amended")
        doc = preprocess_document(record, self._config())
        assert doc.tokens == ["budget", "law", "1402", "amended"]
        assert doc.record_id == "r1"
        assert doc.gregorian_year == 2021

    def test_all_stopword_text_raises(self):
        record = make_record("r1", title="of", content="of of")
        with pytest.raises(EmptyDocument) as excinfo:
            preprocess_document(record, self._config())
        assert excinfo.value.record_id == "r1"

    def test_pipeline_output_is_fixed_point(self):
        record = make_record(
            "r1",
            title="Budget laws",
            content="of 1402, amended; مقررات و قوانین کشور (ماده ۴۵)",
        )
        config = PreprocessConfig(
            stopword_list={"of", "و"},
            lemma_rules=default_config().lemma_rules,
            min_token_length=2,
        )
        tokens = preprocess_document(record, config).tokens
        rerun = make_record("r2", title=" ".join(tokens), content="")
        assert preprocess_document(rerun, config).tokens == tokens

    def test_lemma_landing_on_stopword_is_removed(self):
        config = PreprocessConfig(
            stopword_list={"go"},
            lemma_rules=LemmaRules(exceptions={"went": "go"}),
            min_token_length=2,
        )
        record = make_record("r1", title="went", content="walking")
        assert preprocess_document(record, config).tokens == ["walking"]

    def test_token_invariants_on_real_text(self):
        record = make_record(
            "r1",
            title="آیین‌نامه اجرایی قانون بودجه",
            content="ماده ۴۵ مقررات مربوط به سال ۱۴۰۲ کل کشور و قوانین آن، اصلاح شد.",
        )
        config = default_config()
        tokens = preprocess_document(record, config).tokens
        assert tokens, "pipeline should keep content words"
        for token in tokens:
            assert len(token) >= config.min_token_length
            assert token not in config.stopword_list
            assert not any(mark in token for mark in DEFAULT_PUNCTUATION)
            assert " " not in token
        # broken-plural exceptions map to their lemmas
        assert "مقرره" in tokens and "قانون" in tokens
        assert "1402" in tokens


class TestPreprocessCorpus:
    def test_drop_policy_skips_empty(self):
        corpus = Corpus(
            [
                make_record("keep", title="Budget law", content="amended text"),
                make_record("empty", title="of", content="of"),
            ]
        )
        config = PreprocessConfig(stopword_list={"of"}, min_token_length=2)
        docs = preprocess_corpus(corpus, config, on_empty="drop")
        assert [doc.record_id for doc in docs] == ["keep"]
        with pytest.raises(EmptyDocument):
            preprocess_corpus(corpus, config, on_empty="error")

    def test_matches_document_by_document(self):
        corpus = Corpus(
            [
                make_record("r1", title="آیین‌نامه اجرایی قوانین", content="مقررات و قوانین كشور، ماده ۴۵"),
                make_record("r2", title="Budget laws", content="قوانین مقررات budget; laws!"),
            ]
        )
        config = default_config()
        expected = [preprocess_document(record, config) for record in corpus.records]
        assert preprocess_corpus(corpus, config) == expected

    def test_rule_edits_apply_to_the_next_call(self):
        corpus = Corpus([make_record("r1", title="went home", content="went away")])
        rules = LemmaRules(exceptions={"went": "go"})
        config = PreprocessConfig(lemma_rules=rules, min_token_length=2)
        assert preprocess_corpus(corpus, config)[0].tokens == ["go", "home", "go", "away"]
        rules.exceptions["went"] = "leave"
        assert preprocess_corpus(corpus, config)[0].tokens == ["leave", "home", "leave", "away"]


WHITESPACE = "\t\n \xa0\x1c\x85\u3000"
# Every key of the normalize table and every punctuation mark, beside the
# letters of the small lexicon and the characters that lower oddly.
TABLE_CHARS = "".join(DEFAULT_NORMALIZE_CHARS) + "".join(sorted(DEFAULT_PUNCTUATION))
WORD_CHARS = "Σσİiabقانونها"


def memo_text(max_size, min_size=0, whitespace=WHITESPACE):
    alphabet = st.sampled_from(TABLE_CHARS) | st.sampled_from(WORD_CHARS + whitespace)
    return st.text(alphabet, min_size=min_size, max_size=max_size)


def _small_config(min_token_length=1):
    return PreprocessConfig(
        stopword_list={"ab", "قانون", "σ"},
        lemma_rules=LemmaRules(exceptions={"ها": "ab"}, suffix_rules=[("ها", ""), ("b", "")]),
        min_token_length=min_token_length,
    )


@st.composite
def memo_configs(draw):
    """The default config, or one with a small lexicon and a length floor of 1-3."""
    if draw(st.booleans()):
        return default_config()
    return _small_config(draw(st.integers(1, 3)))


class TestChunkMemo:
    """preprocess_corpus equals preprocess_document run on each record,
    for every config it accepts."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(memo_text(12), memo_text(30)), max_size=6),
        memo_configs(),
    )
    def test_equals_document_by_document(self, texts, config):
        corpus = Corpus(
            [make_record(f"r{i}", title=title, content=content) for i, (title, content) in enumerate(texts)]
        )
        expected, empty = [], []
        for record in corpus.records:
            try:
                expected.append(preprocess_document(record, config))
            except EmptyDocument:
                empty.append(record.id)
        assert preprocess_corpus(corpus, config, on_empty="drop") == expected
        if empty:
            with pytest.raises(EmptyDocument) as excinfo:
                preprocess_corpus(corpus, config, on_empty="error")
            assert excinfo.value.record_id == empty[0]
        else:
            assert preprocess_corpus(corpus, config, on_empty="error") == expected


def _chunk_by_chunk(chunks, config):
    """Each chunk's tokens from the public stages, one chunk at a time."""
    result = []
    for chunk in chunks:
        text = remove_punctuation(normalize(chunk))
        tokens = remove_stopwords(tokenize(text, config.min_token_length), config.stopword_list)
        tokens = lemmatize(tokens, config.lemma_rules)
        result.append([token for token in tokens
                       if len(token) >= config.min_token_length and token not in config.stopword_list])
    return result


class TestPreprocessChunks:
    """_preprocess_chunks equals the public stages run on each chunk alone."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(memo_text(12, min_size=1, whitespace=""), max_size=8), memo_configs())
    # Σ lowers to ς at the end of a word and to σ elsewhere.
    @example(["ΑΣ", "ΑΣΑ", "aΣ.", "Σ", "ΣΑ", "Α.Σ"], default_config())
    # İ lowers to two characters.
    @example(["İ", "Kİ", "İİ"], default_config())
    # Images that are empty or longer than one character.
    @example(["\u0640\u200c", "a\u0640b", "İ\u0640ab", "ab\u200cها"], _small_config())
    @example(["\ud800x", "x\ud800", "\udfff"], default_config())
    # Chunks that lose every token.
    @example(["،.", "ab", "(«»)", "ها"], _small_config())
    def test_equals_the_stages_chunk_by_chunk(self, chunks, config):
        chunks = list(dict.fromkeys(chunks))
        terms, chunk_ptr, chunk_tokens = _preprocess_chunks("".join(chunk + " " for chunk in chunks), config)
        assert chunk_ptr.dtype == chunk_tokens.dtype == np.int64
        bounds = chunk_ptr.tolist()
        got = [[terms[token] for token in chunk_tokens[start:stop].tolist()]
               for start, stop in zip(bounds, bounds[1:])]
        expected = _chunk_by_chunk(chunks, config)
        assert got == expected
        assert terms == list(dict.fromkeys(chain.from_iterable(expected)))

    def test_no_chunks(self):
        terms, chunk_ptr, chunk_tokens = _preprocess_chunks("", default_config())
        assert (terms, chunk_ptr.tolist(), chunk_tokens.tolist()) == ([], [0], [])


class TestDataFiles:
    def test_bundled_config_loads(self):
        config = default_config()
        assert len(config.stopword_list) > 50
        assert config.lemma_rules.suffix_rules
        assert config.lemma_rules.exceptions["قوانین"] == "قانون"

    def test_stopwords_are_normalization_fixed_points(self):
        config = default_config()
        for word in config.stopword_list:
            assert normalize(word) == word

    def test_loaders_skip_comments(self, tmp_path):
        stop = tmp_path / "stop.txt"
        stop.write_text("# comment\nword\n\n", encoding="utf-8")
        assert load_stopwords(stop) == {"word"}
        rules_path = tmp_path / "rules.txt"
        rules_path.write_text("# comment\nha\t\nwent\t=\tgo\n", encoding="utf-8")
        rules = load_lemma_rules(rules_path)
        assert rules.suffix_rules == [("ha", "")]
        assert rules.exceptions == {"went": "go"}
