"""Text cleaning pipeline.

Five stages in fixed order: normalize, remove punctuation, tokenize,
remove stopwords, lemmatize. Each stage is idempotent on its own output,
so the composed pipeline is stable under re-runs.

preprocess_document runs the stages over one record and is the reference.
preprocess_corpus, and vectorize.count_corpus, give the same tokens by
preprocessing each distinct whitespace chunk of the corpus once, every
chunk in the same few whole-array steps (_preprocess_chunks).
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from itertools import chain
from pathlib import Path

import numpy as np

from .corpus import Corpus, LawRecord
from .errors import EmptyDocument, MissingYear, UndecodableWordList

__all__ = [
    "PreprocessConfig",
    "LemmaRules",
    "Document",
    "normalize",
    "remove_punctuation",
    "tokenize",
    "remove_stopwords",
    "lemmatize",
    "preprocess_document",
    "preprocess_corpus",
    "load_stopwords",
    "load_lemma_rules",
    "default_config",
]

# The one normalize table and punctuation set. Arabic-codepoint variants
# folded to the Persian letters, Arabic-Indic and extended digits to Latin
# digits, elongation and half-space removed.
DEFAULT_NORMALIZE_CHARS: dict[str, str] = {
    "ي": "ی",  # Arabic Yeh -> Persian Yeh
    "ك": "ک",  # Arabic Kaf -> Persian Kaf
    "ة": "ه",  # Teh Marbuta -> Heh
    "أ": "ا",  # Alef with hamza above -> Alef
    "إ": "ا",  # Alef with hamza below -> Alef
    "ـ": "",        # tatweel (kashida) elongation
    "‌": "",        # zero-width non-joiner: rejoin half-spaced morphemes
}
for _offset in range(10):
    DEFAULT_NORMALIZE_CHARS[chr(0x0660 + _offset)] = str(_offset)
    DEFAULT_NORMALIZE_CHARS[chr(0x06F0 + _offset)] = str(_offset)

DEFAULT_PUNCTUATION: frozenset = frozenset(string.punctuation) | frozenset(
    "،؛؟«»٪٫٬…“”‘’—–×÷·"
)


_DEFAULT_TABLE = str.maketrans(DEFAULT_NORMALIZE_CHARS)
_DEFAULT_PUNCTUATION_TABLE = {ord(mark): " " for mark in DEFAULT_PUNCTUATION}


@dataclass
class LemmaRules:
    """Exception lexicon plus ordered suffix-strip rules.

    apply() runs to a fixed point, so a second pass never changes the
    token again. A suffix rule fires only when the rewritten token is
    non-empty and strictly shorter, which bounds the loop; exception
    hops carry a seen-set so lexicon cycles cannot hang.
    """

    exceptions: dict[str, str] = field(default_factory=dict)
    suffix_rules: list[tuple[str, str]] = field(default_factory=list)

    def apply(self, token: str) -> str:
        seen = {token}
        while True:
            replacement = self.exceptions.get(token, "")
            if replacement and replacement != token and replacement not in seen:
                token = replacement
                seen.add(token)
                continue
            best: tuple[str, str] | None = None
            for suffix, stem_tail in self.suffix_rules:
                if not token.endswith(suffix):
                    continue
                candidate = token[: len(token) - len(suffix)] + stem_tail
                if not candidate or len(candidate) >= len(token):
                    continue
                if best is None or len(suffix) > len(best[0]):
                    best = (suffix, candidate)
            if best is None:
                return token
            token = best[1]
            seen.add(token)


@dataclass
class PreprocessConfig:
    stopword_list: set[str] = field(default_factory=set)
    lemma_rules: LemmaRules = field(default_factory=LemmaRules)
    min_token_length: int = 2


@dataclass
class Document:
    record_id: str
    tokens: list[str]
    gregorian_year: int


def normalize(text: str) -> str:
    """Fold character variants, lowercase, and collapse whitespace runs.

    Lowercasing keeps Latin-alphabet material (loanwords, test fixtures)
    on one casing; Persian script has no case so it is a no-op there.
    """
    return " ".join(text.translate(_DEFAULT_TABLE).lower().split())


def remove_punctuation(text: str) -> str:
    """Replace each mark of DEFAULT_PUNCTUATION with a space."""
    return text.translate(_DEFAULT_PUNCTUATION_TABLE)


def tokenize(text: str, min_token_length: int = 1) -> list[str]:
    return [token for token in text.split() if len(token) >= min_token_length]


def remove_stopwords(tokens: list[str], stopword_list) -> list[str]:
    return [token for token in tokens if token not in stopword_list]


def lemmatize(tokens: list[str], lemma_rules: LemmaRules) -> list[str]:
    return [lemma_rules.apply(token) for token in tokens]


def _parse_stopwords(text: str) -> set[str]:
    lines = (line.strip() for line in text.splitlines())
    return {normalize(line) for line in lines if line and not line.startswith("#")}


def _read_word_list(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UndecodableWordList(path, f"{exc.reason} at byte {exc.start}") from None


def load_stopwords(path) -> set[str]:
    """One token per line; blank lines and '#' comment lines skipped.

    Entries are normalized on load so that normalizing a stopword is
    always a no-op at match time.
    """
    return _parse_stopwords(_read_word_list(path))


def _parse_lemma_rules(text: str) -> LemmaRules:
    rules = LemmaRules()
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) >= 3 and parts[1].strip() == "=":
            word = normalize(parts[0])
            lemma = normalize(parts[2])
            rules.exceptions[word] = lemma
        else:
            suffix = normalize(parts[0])
            replacement = normalize(parts[1]) if len(parts) > 1 else ""
            if suffix:
                rules.suffix_rules.append((suffix, replacement))
    return rules


def load_lemma_rules(path) -> LemmaRules:
    return _parse_lemma_rules(_read_word_list(path))


@lru_cache(maxsize=1)
def default_config() -> PreprocessConfig:
    """Config backed by the bundled Persian stopword and lemma-rule files."""
    data = resources.files("lextopic").joinpath("data")
    return PreprocessConfig(
        stopword_list=_parse_stopwords(data.joinpath("stopwords_fa.txt").read_text(encoding="utf-8")),
        lemma_rules=_parse_lemma_rules(data.joinpath("lemma_rules_fa.txt").read_text(encoding="utf-8")),
    )


def preprocess_document(record: LawRecord, config: PreprocessConfig | None = None) -> Document:
    """Run the full pipeline over title + " " + content.

    A lemma can land on a stopword or shrink below the length floor, so
    the stopword and length filters are re-checked on the lemmatized
    tokens; the output is then a fixed point of every stage.
    """
    if config is None:
        config = default_config()
    if record.date is None:
        raise MissingYear(record.id)
    text = remove_punctuation(normalize(f"{record.title} {record.content}"))
    tokens = tokenize(text, config.min_token_length)
    tokens = remove_stopwords(tokens, config.stopword_list)
    tokens = lemmatize(tokens, config.lemma_rules)
    tokens = [
        token
        for token in tokens
        if len(token) >= config.min_token_length and token not in config.stopword_list
    ]
    if not tokens:
        raise EmptyDocument(record.id)
    return Document(record.id, tokens, record.date.gregorian_year)


# Codes past the last code point, so that no image holds them.
_SEPARATOR, _PAD = 0x110000, 0x110001


def _utf32(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


def _image(text: str) -> str:
    """text translated, lowercased and punctuation-spaced."""
    return text.translate(_DEFAULT_TABLE).lower().translate(_DEFAULT_PUNCTUATION_TABLE)


def _preprocess_chunks(chunk_text: str, config: PreprocessConfig | None) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Every chunk of chunk_text through the pipeline, in a few whole-array steps.

    chunk_text holds distinct chunks free of whitespace, each followed by
    one space. Returns (terms, chunk_ptr, chunk_tokens): the final tokens
    in order of first appearance, and the ids into terms of chunk c's
    tokens, chunk_tokens[chunk_ptr[c]:chunk_ptr[c + 1]].

    A chunk's text after normalize and remove_punctuation, up to the
    split, is the concatenation of its characters' images. A character's
    image is the character translated by the normalize table, lowercased,
    and turned into a space if it is a punctuation mark; it may be empty or
    longer than one character (İ). No table value, and no lowercase form
    of a character that is not whitespace, holds whitespace, so " " is the
    only whitespace an image of a chunk's character can hold. Each distinct
    code point's image is computed once, and numpy gathers the images for
    every position and splits the result once. Lone surrogates pass
    through, as they do in str methods. CPython lowers each character on
    its own except the capital sigma, which becomes a final sigma at the
    end of a word and σ elsewhere; no table value holds it. So a chunk
    that holds Σ takes its image from the whole chunk. The stopword,
    length and lemma rules then run once per distinct raw token.
    """
    config = default_config() if config is None else config
    codes = _utf32(chunk_text)
    row_of = np.zeros(int(codes.max(initial=0)) + 1, dtype=np.intp)
    row_of[codes] = 1
    distinct = np.flatnonzero(row_of)
    row_of[distinct] = np.arange(distinct.size)
    rows = row_of[codes]
    del row_of

    images = [_image(chr(code)) for code in distinct.tolist()]
    # One row of code points per distinct character, padded to the longest image.
    table = np.full((len(images), max([1, *map(len, images)])), _PAD, dtype=np.uint32)
    for row, image in enumerate(images):
        table[row, : len(image)] = _utf32(image)
    table[distinct == ord(" "), 0] = _SEPARATOR  # every space of chunk_text ends a chunk
    out = table[rows].ravel()
    out = out[out != _PAD]
    separator_out = np.flatnonzero(out == _SEPARATOR)
    out[separator_out] = ord(" ")

    separators = np.flatnonzero(codes == ord(" "))
    for chunk in dict.fromkeys(np.searchsorted(separators, np.flatnonzero(codes == ord("\u03a3"))).tolist()):
        start = separators[chunk - 1] + 1 if chunk else 0
        out_start = separator_out[chunk - 1] + 1 if chunk else 0
        out[out_start : separator_out[chunk]] = _utf32(_image(chunk_text[start : separators[chunk]]))
    del codes, rows

    spaces = out == ord(" ")
    token_starts = np.flatnonzero(~spaces & np.concatenate(([True], spaces[:-1])))
    raw_ptr = np.concatenate(([0], np.searchsorted(token_starts, separator_out)))
    raw_tokens = out.tobytes().decode("utf-32-le", "surrogatepass").split()
    del out, spaces, token_starts

    stopwords, floor, rules = config.stopword_list, config.min_token_length, config.lemma_rules
    suffixes = tuple(suffix for suffix, _ in rules.suffix_rules)
    raw_ids = dict.fromkeys(raw_tokens)  # in order of first appearance
    raw_terms = [-1] * len(raw_ids)
    term_ids: dict[str, int] = {}  # in order of first appearance
    for raw_id, token in enumerate(raw_ids):
        raw_ids[token] = raw_id
        if len(token) >= floor and token not in stopwords:
            # apply returns a token that no exception names and no suffix ends as it is.
            lemma = rules.apply(token) if token in rules.exceptions or token.endswith(suffixes) else token
            if len(lemma) >= floor and lemma not in stopwords:
                raw_terms[raw_id] = term_ids.setdefault(lemma, len(term_ids))
    token_terms = np.array(raw_terms, dtype=np.int64)[
        np.fromiter(map(raw_ids.__getitem__, raw_tokens), dtype=np.int64, count=len(raw_tokens))
    ]
    kept = token_terms >= 0
    kept_before = np.concatenate(([0], np.cumsum(kept)))
    return list(term_ids), kept_before[raw_ptr], token_terms[kept]


def preprocess_corpus(
    corpus: Corpus, config: PreprocessConfig | None = None, on_empty: str = "error"
) -> list[Document]:
    """Preprocess every record; on_empty is "error" (raise) or "drop".

    Equal to preprocess_document on each record, errors included. Every
    stage works within a whitespace chunk, so a record's tokens are its
    chunks' tokens in order, and each distinct chunk is preprocessed once.
    """
    if on_empty not in ("error", "drop"):
        raise ValueError(f"on_empty must be 'error' or 'drop', got {on_empty!r}")
    records = corpus.records
    texts = (f"{record.title} {record.content}" for record in records)
    chunks = list(dict.fromkeys(chain.from_iterable(map(str.split, texts))))
    terms, chunk_ptr, chunk_tokens = _preprocess_chunks("".join(chunk + " " for chunk in chunks), config)
    words, bounds = [terms[token] for token in chunk_tokens.tolist()], chunk_ptr.tolist()
    chunk_words = {chunk: words[start:stop] for chunk, start, stop in zip(chunks, bounds, bounds[1:])}
    documents = []
    for record in records:
        if record.date is None:
            raise MissingYear(record.id)
        record_chunks = f"{record.title} {record.content}".split()
        tokens = list(chain.from_iterable(map(chunk_words.__getitem__, record_chunks)))
        if tokens:
            documents.append(Document(record.id, tokens, record.date.gregorian_year))
        elif on_empty == "error":
            raise EmptyDocument(record.id)
    return documents
