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
from .errors import EmptyDocument, InvalidConfig, MissingYear, UndecodableWordList

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

# Arabic-codepoint variants folded to the Persian letters, Arabic-Indic
# and extended digits to Latin digits, elongation and half-space removed.
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
    punctuation_set: frozenset = DEFAULT_PUNCTUATION
    lemma_rules: LemmaRules = field(default_factory=LemmaRules)
    min_token_length: int = 2
    normalize_chars: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_NORMALIZE_CHARS))


@dataclass
class Document:
    record_id: str
    tokens: list[str]
    gregorian_year: int


def normalize(text: str, normalize_chars: dict[str, str] | None = None) -> str:
    """Fold character variants, lowercase, and collapse whitespace runs.

    Lowercasing keeps Latin-alphabet material (loanwords, test fixtures)
    on one casing; Persian script has no case so it is a no-op there.
    normalize_chars is a str.maketrans mapping.
    """
    table = _DEFAULT_TABLE if normalize_chars is None else str.maketrans(dict(normalize_chars))
    return " ".join(text.translate(table).lower().split())


def remove_punctuation(text: str, punctuation_set=None) -> str:
    """Replace each mark with a space."""
    if punctuation_set is None:
        return text.translate(_DEFAULT_PUNCTUATION_TABLE)
    return text.translate({ord(mark): " " for mark in punctuation_set})


def tokenize(text: str, min_token_length: int = 1) -> list[str]:
    return [token for token in text.split() if len(token) >= min_token_length]


def remove_stopwords(tokens: list[str], stopword_list) -> list[str]:
    return [token for token in tokens if token not in stopword_list]


def lemmatize(tokens: list[str], lemma_rules: LemmaRules) -> list[str]:
    return [lemma_rules.apply(token) for token in tokens]


def _parse_stopwords(text: str, normalize_chars: dict[str, str] | None = None) -> set[str]:
    lines = (line.strip() for line in text.splitlines())
    return {normalize(line, normalize_chars) for line in lines if line and not line.startswith("#")}


def _read_word_list(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UndecodableWordList(path, f"{exc.reason} at byte {exc.start}") from None


def load_stopwords(path, normalize_chars: dict[str, str] | None = None) -> set[str]:
    """One token per line; blank lines and '#' comment lines skipped.

    Entries are normalized on load so that normalizing a stopword is
    always a no-op at match time.
    """
    return _parse_stopwords(_read_word_list(path), normalize_chars)


def _parse_lemma_rules(text: str, normalize_chars: dict[str, str] | None = None) -> LemmaRules:
    rules = LemmaRules()
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) >= 3 and parts[1].strip() == "=":
            word = normalize(parts[0], normalize_chars)
            lemma = normalize(parts[2], normalize_chars)
            rules.exceptions[word] = lemma
        else:
            suffix = normalize(parts[0], normalize_chars)
            replacement = normalize(parts[1], normalize_chars) if len(parts) > 1 else ""
            if suffix:
                rules.suffix_rules.append((suffix, replacement))
    return rules


def load_lemma_rules(path, normalize_chars: dict[str, str] | None = None) -> LemmaRules:
    return _parse_lemma_rules(_read_word_list(path), normalize_chars)


@lru_cache(maxsize=1)
def default_config() -> PreprocessConfig:
    """Config backed by the bundled Persian stopword and lemma-rule files."""
    data = resources.files("lextopic").joinpath("data")
    config = PreprocessConfig()
    config.stopword_list = _parse_stopwords(
        data.joinpath("stopwords_fa.txt").read_text(encoding="utf-8"), config.normalize_chars
    )
    config.lemma_rules = _parse_lemma_rules(
        data.joinpath("lemma_rules_fa.txt").read_text(encoding="utf-8"), config.normalize_chars
    )
    return config


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
    text = normalize(f"{record.title} {record.content}", config.normalize_chars)
    text = remove_punctuation(text, config.punctuation_set)
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


def _image(text: str, normalize_table, punctuation_table) -> str:
    """text translated, lowercased and punctuation-spaced, each whitespace character as " "."""
    image = text.translate(normalize_table).lower().translate(punctuation_table)
    return "".join(" " if char.isspace() else char for char in image)


def _preprocess_chunks(chunk_text: str, config: PreprocessConfig | None) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Every chunk of chunk_text through the pipeline, in a few whole-array steps.

    chunk_text holds distinct chunks free of whitespace, each followed by
    one space. Returns (terms, chunk_ptr, chunk_tokens): the final tokens
    in order of first appearance, and the ids into terms of chunk c's
    tokens, chunk_tokens[chunk_ptr[c]:chunk_ptr[c + 1]].

    A chunk's text after normalize and remove_punctuation, up to the
    split, is the concatenation of its characters' images. A character's
    image is the character translated by the normalize table, lowercased,
    and turned into a space if it is a punctuation mark; it may be empty,
    longer than one character (İ) or hold whitespace, which only separates
    tokens and so becomes " ". Each distinct code point's image is computed
    once, and numpy gathers the images for every position and splits the
    result once. Lone surrogates pass through, as they do in str methods.
    CPython lowers each character on its own except the capital sigma,
    which becomes a final sigma at the end of a word and σ elsewhere. So a
    chunk whose translated text holds Σ takes its image from the whole
    chunk. The stopword, length and lemma rules then run once per distinct
    raw token.
    """
    config = default_config() if config is None else config
    normalize_table = str.maketrans(dict(config.normalize_chars))
    punctuation_table = {ord(mark): " " for mark in config.punctuation_set}
    joining = next((chr(code) for code in normalize_table if chr(code).isspace()), None)
    if joining is not None:
        # It could join two chunks into one token, which preprocess_document would then see.
        raise InvalidConfig(f"normalize_chars must have no whitespace key, got {joining!r}")

    codes = _utf32(chunk_text)
    row_of = np.zeros(int(codes.max(initial=0)) + 1, dtype=np.intp)
    row_of[codes] = 1
    distinct = np.flatnonzero(row_of)
    row_of[distinct] = np.arange(distinct.size)
    rows = row_of[codes]
    del row_of

    chars = [chr(code) for code in distinct.tolist()]
    images = [_image(char, normalize_table, punctuation_table) for char in chars]
    # One row of code points per distinct character, padded to the longest image.
    table = np.full((len(images), max([1, *map(len, images)])), _PAD, dtype=np.uint32)
    for row, image in enumerate(images):
        table[row, : len(image)] = _utf32(image)
    table[distinct == ord(" "), 0] = _SEPARATOR  # every space of chunk_text ends a chunk
    out = table[rows].ravel()
    out = out[out != _PAD]
    separator_out = np.flatnonzero(out == _SEPARATOR)
    out[separator_out] = ord(" ")

    sigma = np.array(["\u03a3" in char.translate(normalize_table) for char in chars], dtype=bool)
    separators = np.flatnonzero(codes == ord(" "))
    for chunk in dict.fromkeys(np.searchsorted(separators, np.flatnonzero(sigma[rows])).tolist()):
        start = separators[chunk - 1] + 1 if chunk else 0
        out_start = separator_out[chunk - 1] + 1 if chunk else 0
        image = _image(chunk_text[start : separators[chunk]], normalize_table, punctuation_table)
        out[out_start : separator_out[chunk]] = _utf32(image)
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
