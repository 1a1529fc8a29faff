"""Seeded generator of Persian-script law records for the benchmark.

Each record mixes a few latent topics. Every topic owns a block of
invented stems; topics, Zipf ranks, spelling variants and word order are
drawn with numpy for the whole corpus at once, so generating a
paper-scale corpus takes about a second.

The surface forms exercise every preprocessing path: Arabic Yeh/Kaf and
tatweel spellings, half-space (ZWNJ) and fused plural/comparative/verb
suffixes from the bundled lemma rules, the nine broken plurals the rules
list, Persian and Arabic-Indic digits, Persian punctuation, and about 30%
stopwords from the bundled list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

ZWNJ = "‌"
TATWEEL = "ـ"
# Letters used for invented stems; the Arabic code points that normalize
# folds (Yeh, Kaf, Teh Marbuta, hamza Alefs) are left out on purpose.
STEM_LETTERS = "ابپتثجچحخدذرزژسشصضطظعغفقکگلمنوهی"
ARABIC_SPELLING = str.maketrans({"ی": "ي", "ک": "ك"})
PERSIAN_DIGITS = str.maketrans("0123456789", "".join(chr(0x06F0 + d) for d in range(10)))
ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "".join(chr(0x0660 + d) for d in range(10)))

OTHER_TYPES = ("Law", "Vote", "Opinion", "Bill", "Plan", "Draft", "News", "ParliamentDeliberation")
TYPE_TITLES = {
    "Regulation": "آیین" + ZWNJ + "نامه",
    "Law": "قانون",
    "Vote": "رای",
    "Opinion": "نظریه",
    "Bill": "لایحه",
    "Plan": "طرح",
    "Draft": "پیش" + ZWNJ + "نویس",
    "News": "خبر",
    "ParliamentDeliberation": "مذاکرات",
}
ENGLISH_MONTHS = (
    "April", "May", "June", "July", "August", "September",
    "October", "November", "December", "January", "February", "March",
)
FIRST_JALALI_YEAR = 1381
N_YEARS = 20

# Spelling variants of a content word, with their probabilities.
PLAIN, HALF_SPACE, FUSED, ARABIC, COMMA, QUOTED, SEMICOLON = range(7)
VARIANT_P = np.array([0.50, 0.15, 0.10, 0.10, 0.07, 0.03, 0.05])

WORDS_PER_RECORD = 150
STOPWORDS_PER_RECORD = 45
DIGITS_PER_RECORD = 3
TITLE_WORDS = 6
DOC_ALPHA = 0.2


@dataclass(frozen=True)
class PersianSize:
    """Corpus shape. Every count is fixed, so all seeds give the same amount of work."""

    n_records: int = 10_000
    n_regulation: int = 6_600
    n_topics: int = 12
    stems_per_topic: int = 220


def _bundled_lines(name: str) -> list[str]:
    text = resources.files("lextopic").joinpath("data", name).read_text(encoding="utf-8")
    return [line for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#")]


def bundled_lexicon() -> tuple[list[str], list[str], dict[str, str]]:
    """(stopwords, strip suffixes, broken plural -> lemma) from the package data."""
    stopwords = sorted({line.strip() for line in _bundled_lines("stopwords_fa.txt")})
    suffixes: list[str] = []
    plurals: dict[str, str] = {}
    for line in _bundled_lines("lemma_rules_fa.txt"):
        parts = [part.strip() for part in line.split("\t")]
        if len(parts) >= 3 and parts[1] == "=":
            plurals[parts[0]] = parts[2]
        elif not parts[1:] or not parts[1]:
            suffixes.append(parts[0])
    return stopwords, suffixes, plurals


def _invent_stems(rng, count: int, reserved: set[str], suffixes: list[str]) -> list[str]:
    """Distinct stems of 3-6 letters that no strip rule shortens."""
    letters = np.array(list(STEM_LETTERS))
    stems: list[str] = []
    seen = set(reserved)
    while len(stems) < count:
        lengths = rng.integers(3, 7, size=count)
        picks = rng.integers(0, len(letters), size=(count, 6))
        for length, row in zip(lengths, picks):
            stem = "".join(letters[row[:length]])
            if stem in seen or any(stem.endswith(suffix) for suffix in suffixes):
                continue
            seen.add(stem)
            stems.append(stem)
            if len(stems) == count:
                break
    return stems


def _surface_forms(stems: list[str], suffixes: list[str], plural_of: dict[str, str]) -> np.ndarray:
    """(n_stems, 7) table of spellings; each lemmatizes back to its stem."""
    forms = np.empty((len(stems), len(VARIANT_P)), dtype=object)
    for index, stem in enumerate(stems):
        suffix = suffixes[index % len(suffixes)]
        arabic = stem.translate(ARABIC_SPELLING)
        forms[index] = (
            stem,
            plural_of.get(stem, stem + ZWNJ + suffix),
            stem + suffix,
            arabic[:1] + TATWEEL + arabic[1:],
            stem + "،",
            "«" + stem + "»",
            stem + ("؛" if index % 2 else "؟"),
        )
    return forms


@dataclass
class PersianCorpus:
    records: list[dict]  # the on-disk JSONL schema
    stems: list[str]  # lemma of every content word, by stem id
    doc_topic: np.ndarray  # (records, topics) planted topic mixtures
    topic_word: np.ndarray  # (topics, stems) planted stem distributions
    document_frequency: np.ndarray  # records containing each stem


def generate(seed: int, size: PersianSize = PersianSize()) -> PersianCorpus:
    """Records plus the planted model behind them, deterministic under seed."""
    rng = np.random.default_rng(seed)
    stopwords, suffixes, plurals = bundled_lexicon()
    lemmas = list(plurals.values())
    reserved = set(stopwords) | set(plurals) | set(lemmas)
    # Group 0 holds the general legal vocabulary, led by the broken-plural
    # lemmas; groups 1..n_topics are the latent topics.
    n_groups = size.n_topics + 1
    stems = lemmas + _invent_stems(rng, n_groups * size.stems_per_topic - len(lemmas), reserved, suffixes)
    forms = _surface_forms(stems, suffixes, {lemma: plural for plural, lemma in plurals.items()})
    stop_forms = np.array(
        [[word, word.translate(ARABIC_SPELLING), word + "،"] for word in stopwords], dtype=object
    )
    rank_weights = 1.0 / np.arange(1, size.stems_per_topic + 1)
    rank_cdf = np.cumsum(rank_weights / rank_weights.sum())

    law_types = np.array(["Regulation"] * size.n_regulation + [
        OTHER_TYPES[i % len(OTHER_TYPES)] for i in range(size.n_records - size.n_regulation)
    ])[rng.permutation(size.n_records)]
    years = rng.integers(FIRST_JALALI_YEAR, FIRST_JALALI_YEAR + N_YEARS, size=size.n_records)
    months = rng.integers(1, 13, size=size.n_records)
    days = rng.integers(1, 30, size=size.n_records)
    date_styles = rng.choice(4, size=size.n_records, p=[0.7, 0.1, 0.1, 0.1])

    n_content = WORDS_PER_RECORD - STOPWORDS_PER_RECORD - DIGITS_PER_RECORD
    n_drawn = n_content + TITLE_WORDS
    doc_topic = rng.dirichlet(np.full(n_groups, DOC_ALPHA), size=size.n_records)
    theta_cdf = np.cumsum(doc_topic, axis=1)
    groups = (rng.random((size.n_records, n_drawn))[:, :, None] >= theta_cdf[:, None, :]).sum(axis=2)
    ranks = np.searchsorted(rank_cdf, rng.random((size.n_records, n_drawn)))
    stem_ids = np.minimum(groups, n_groups - 1) * size.stems_per_topic + np.minimum(ranks, size.stems_per_topic - 1)
    variants = np.searchsorted(np.cumsum(VARIANT_P), rng.random((size.n_records, n_content)))
    variants = np.minimum(variants, len(VARIANT_P) - 1)
    shape = (size.n_records, STOPWORDS_PER_RECORD)
    stop_words = stop_forms[rng.integers(0, len(stopwords), size=shape), rng.integers(0, 3, size=shape)]
    digit_forms = np.array(
        [[str(n).translate(table) for n in range(100)] for table in (PERSIAN_DIGITS, ARABIC_INDIC_DIGITS)],
        dtype=object,
    )
    shape = (size.n_records, DIGITS_PER_RECORD)
    digits = digit_forms[rng.integers(0, 2, size=shape), rng.integers(1, 100, size=shape)]
    words = np.concatenate([forms[stem_ids[:, :n_content], variants], stop_words, digits], axis=1)
    order = rng.permuted(np.tile(np.arange(WORDS_PER_RECORD), (size.n_records, 1)), axis=1)
    words = np.take_along_axis(words, order, axis=1)
    titles = forms[stem_ids[:, n_content:], PLAIN]

    records = []
    for index in range(size.n_records):
        law_type = str(law_types[index])
        records.append(
            {
                "id": f"law-{index:06d}",
                "title": " ".join([TYPE_TITLES[law_type]] + titles[index].tolist()),
                "content": " ".join(words[index].tolist()) + ".",
                "lead": "",
                "tags": [stems[stem_ids[index, 0]]],
                "classes": [],
                "law_type": law_type,
                "category": "هیئت وزیران",
                "date": _date_value(int(years[index]), int(months[index]), int(days[index]), int(date_styles[index])),
            }
        )
    topic_word = np.zeros((n_groups, len(stems)))
    for group in range(n_groups):
        block = slice(group * size.stems_per_topic, (group + 1) * size.stems_per_topic)
        topic_word[group, block] = rank_weights / rank_weights.sum()
    pairs = np.unique(stem_ids + len(stems) * np.arange(size.n_records)[:, None])
    document_frequency = np.bincount(pairs % len(stems), minlength=len(stems))
    return PersianCorpus(records, stems, doc_topic, topic_word, document_frequency)


def _date_value(year: int, month: int, day: int, style: int):
    """One of the four date spellings load_corpus accepts."""
    if style == 0:
        return {"raw": f"{year:04d}/{month:02d}/{day:02d}", "year": year, "month": month, "day": day}
    if style == 1:
        return f"{year:04d}/{month:02d}/{day:02d}"
    if style == 2:
        return f"{month}/{day}/{year}"
    return f"Saturday, {ENGLISH_MONTHS[month - 1]} {day}, {year}"


def write_jsonl(records: list[dict], path: Path) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
