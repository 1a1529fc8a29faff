"""Text cleaning pipeline.

Five stages in fixed order: normalize, remove punctuation, tokenize,
remove stopwords, lemmatize. Each stage is idempotent on its own output,
so the composed pipeline is stable under re-runs.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from itertools import chain
from pathlib import Path
from types import MappingProxyType

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


def _ready_table(mapping) -> bool:
    return isinstance(mapping, MappingProxyType) and isinstance(next(iter(mapping), 0), int)


def normalize(text: str, normalize_chars: dict[str, str] | None = None) -> str:
    """Fold character variants, lowercase, and collapse whitespace runs.

    Lowercasing keeps Latin-alphabet material (loanwords, test fixtures)
    on one casing; Persian script has no case so it is a no-op there.
    normalize_chars is a str.maketrans mapping; a MappingProxyType with
    ordinal keys is taken as a ready str.translate table.
    """
    if normalize_chars is None:
        normalize_chars = _DEFAULT_TABLE
    elif not _ready_table(normalize_chars):
        normalize_chars = str.maketrans(dict(normalize_chars))
    return " ".join(text.translate(normalize_chars).lower().split())


def remove_punctuation(text: str, punctuation_set=None) -> str:
    """Replace each mark with a space; see normalize for ready tables."""
    if punctuation_set is None:
        punctuation_set = _DEFAULT_PUNCTUATION_TABLE
    elif not _ready_table(punctuation_set):
        punctuation_set = {ord(mark): " " for mark in punctuation_set}
    return text.translate(punctuation_set)


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


class _Preprocessor(dict):
    """preprocess_document for one pass over many records.

    Every stage works within a whitespace chunk, so a record's tokens are
    its chunks' tokens in order; each distinct chunk runs through the
    stages once. Equal token tuples are stored once, so later dict lookups
    match equal tokens by identity. A normalize map with a whitespace key
    could join two chunks into one token, so it is rejected.
    """

    def __init__(self, config: PreprocessConfig | None):
        super().__init__()
        self.config = config = default_config() if config is None else config
        self.shared: dict[tuple[str, ...], tuple[str, ...]] = {}
        self.normalize_table = MappingProxyType(str.maketrans(dict(config.normalize_chars)))
        self.punctuation_table = MappingProxyType({ord(mark): " " for mark in config.punctuation_set})
        joining = next((chr(code) for code in self.normalize_table if chr(code).isspace()), None)
        if joining is not None:
            raise InvalidConfig(f"normalize_chars must have no whitespace key, got {joining!r}")

    def __missing__(self, chunk: str) -> tuple[str, ...]:
        config = self.config
        text = normalize(chunk, self.normalize_table)
        text = remove_punctuation(text, self.punctuation_table)
        tokens = tokenize(text, config.min_token_length)
        tokens = remove_stopwords(tokens, config.stopword_list)
        tokens = lemmatize(tokens, config.lemma_rules)
        tokens = tuple(
            token
            for token in tokens
            if len(token) >= config.min_token_length and token not in config.stopword_list
        )
        self[chunk] = tokens = self.shared.setdefault(tokens, tokens)
        return tokens

    def __call__(self, record: LawRecord) -> Document:
        if record.date is None:
            raise MissingYear(record.id)
        chunks = f"{record.title} {record.content}".split()
        tokens = list(chain.from_iterable(map(self.__getitem__, chunks)))
        if not tokens:
            raise EmptyDocument(record.id)
        return Document(record.id, tokens, record.date.gregorian_year)


def preprocess_corpus(
    corpus: Corpus, config: PreprocessConfig | None = None, on_empty: str = "error"
) -> list[Document]:
    """Preprocess every record; on_empty is "error" (raise) or "drop"."""
    if on_empty not in ("error", "drop"):
        raise ValueError(f"on_empty must be 'error' or 'drop', got {on_empty!r}")
    preprocess = _Preprocessor(config)
    documents = []
    for record in corpus.records:
        try:
            documents.append(preprocess(record))
        except EmptyDocument:
            if on_empty == "error":
                raise
    return documents
