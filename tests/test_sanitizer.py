"""The compiled libraries under AddressSanitizer and UndefinedBehaviorSanitizer.

The code that reads what a user passes in is the JSONL reader, over a
corpus file's bytes, scan_chunks, over a corpus's code points, and the
count loops over its output. A child process compiles _gibbs.c and
_jsonl.c with the sanitizers into a temporary cache, preloads the ASan
runtime and makes Python allocate with malloc, so that its bytes objects
are checked too. It then runs every kernel through the commands and the
corpus count on hostile text, and loads hostile JSONL lines and rows on
the reader's record path, in whole blocks and in blocks of a few bytes.
Any report fails the test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lextopic
from conftest import jsonl_row, write_jsonl
from lextopic import _gibbs
from test_read_path import _PARSE_RULES, _case_line
from test_vectorize import LETTERS, NEAR_MISSES, WHITESPACE

SANITIZE = ("-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all")

# The first code point past the whitespace bitmap's last word, the last code point, and a surrogate pair.
BITMAP_EDGES = ["\u3040", "\U0010ffff", "\ud83d\ude00"]

# The JSONL reader's edges: number lengths and forms, nesting depth, bad UTF-8, escapes, characters past the
# BMP, and lines that end inside a value, an escape, a character or a number.
HOSTILE = [
    b'{"n": 123456789012345678, "m": -1234567890123456789, "z": -0}',
    b'{"f": [1.5e-3, -0.0, 1e400, 12345678901234567890.25]}', b'{"f": 1.', b'{"f": 2e', b'{"f": 3e-',
    b'{"e": "\\u00e9\\n\\"\\\\"}', b'{"e": "\\ud83d\\ude00"}', b'{"e": "x\\', b'{"e": "\\u06c', b'{"e": "\\u',
    b'{"e": "\\ud83d\\ude', b'{"e": "\\ud83d\\', b'{"w": "\xf0\x9f\x98\x80 \\n\xd9\x82"} ',
    b'{"w": "ab\xf0\x9f\x98\x80 \\n', b'{"w": "\xf0\x9f', b'{"n": [NaN, Infinity, -Infinity]}', b'{"n": -Inf',
    b'{"n": Na', b'{"n": ' + b"9" * 30,
    b'{"a": ' + b"[" * 31 + b"]" * 31 + b"}",
    b'{"a": ' + b"[" * 33 + b"]" * 33 + b"}",
    b'{"a": "\xd9', b'{"a": "\xe2\x80"}', b'{"a": "\xc0\xaf"}', b'{"a": "\xe0\x80\xaf"}',
    b'{"a": "\xed\xa0\x80"}', b'{"a": "\xf0\x9f\x98\x80"}', '{"a": "قانون‌ها"}'.encode(),
    b'{"a": "x', b'{"a": tr', b'{"a": -', b'{"a": [1, {"b": ', b'{"a"', b"{",
]

# Rows the reader builds into records, and rows it gives back after a call it makes raises or refuses them: an
# invalid Jalali day, an unknown law type, a duplicate id (the good row's), a malformed date string and one in no
# date form. Each record's fields pass through dataclass_instance, and each given-back row's call is undone. Then
# the slot sink's parse rules: repeats, nulls, escaped and unknown names, and malformed values it drops.
RECORD_PATH = [json.dumps(jsonl_row(record_id, **fields), ensure_ascii=False).encode() for record_id, fields in [
    ("d1", {"date": "Saturday, July 10, 1402"}), ("d2", {"date": {"year": 1400, "month": 7, "day": 1}}),
    ("d3", {"lead": None, "tags": None, "classes": [], "category": None, "type": "Bill", "law_type": None}),
    ("e1", {"date": {"year": 1400, "month": 7, "day": 31}}), ("e2", {"law_type": "Unknown"}), ("r0", {}),
    ("e3", {"date": "1400/13/01"}), ("e4", {"date": "Monday, Smarch 1, 1400"}), ("e5", {"date": "{bad"}),
]] + [_case_line(index, members) for index, members in enumerate(_PARSE_RULES)]

PERSIAN_TOPICS = ["مالیات بودجه درآمد دولت", "دادگاه قاضی حکم تجدیدنظر", "آموزش مدرسه دانشگاه فرهنگ"]

CHILD = """
import sys
from pathlib import Path
import numpy as np
from lextopic import _gibbs, _jsonl, cli, corpus, vectorize
from lextopic.corpus import Corpus, LawRecord, LawType, RecordDate
from lextopic.errors import LextopicError

_gibbs.CFLAGS = _gibbs.CFLAGS + SANITIZE
kernels = _gibbs.load_kernels()
assert kernels is not None, "the sanitized library did not load"
_jsonl.CFLAGS = _jsonl.CFLAGS + SANITIZE
assert _jsonl.load_reader() is not None, "the sanitized reader did not load"
corpus_path, out = sys.argv[1], Path(sys.argv[2])

# Every kernel but the corpus count's near misses, through the commands:
# fit counts and sweeps, and sweep adds perplexity's token_probs.
fit = ["fit", "--corpus", corpus_path, "--out", str(out), "--topics", "3", "--sweeps", "5", "--burn-in", "1"]
assert cli.main(fit) == 0
assert cli.main(["analyze", "--corpus", corpus_path, "--out", str(out)]) == 0
sweep = ["sweep", "--corpus", corpus_path, "--out", str(out), "--k-grid", "2,3", "--sweeps", "2", "--burn-in", "0"]
assert cli.main(sweep) == 0

# The chunk scan and count loops over whitespace, near misses and letters.
date = RecordDate.from_jalali("1400/07/01", 1400, 7, 1)
rng = np.random.default_rng(0)
alphabet = np.array(ALPHABET, dtype=object)
records = [
    LawRecord(f"r{index}", "", "".join(rng.choice(alphabet, size=int(rng.integers(0, 30)))), LawType.REGULATION, date)
    for index in range(300)
]
vectorize.count_corpus(Corpus(records), min_df=1, max_df_ratio=1.0, on_empty="drop")

# Each hostile line after a good row, with and without a final newline, in whole and in 3-byte blocks.
good = Path(corpus_path).read_bytes().split(b"\\n")[0]
hostile = out / "hostile.jsonl"
for block_size in (1 << 16, 3):
    corpus._BLOCK_SIZE = block_size
    for line in HOSTILE + RECORD_PATH:
        for end in (b"", b"\\n"):
            hostile.write_bytes(good + b"\\n" + line + end)
            try:
                corpus.load_corpus(hostile)
            except LextopicError:
                pass

print("ok")
"""


def _asan_runtime(compiler: str) -> str | None:
    result = subprocess.run([compiler, "-print-file-name=libasan.so"], capture_output=True, text=True)
    path = result.stdout.strip()
    return path if result.returncode == 0 and os.path.isabs(path) and os.path.exists(path) else None


def test_kernels_run_clean_under_sanitizers(tmp_path):
    compiler = _gibbs.find_compiler()
    if compiler is None:
        pytest.skip("no C compiler on PATH")
    runtime = _asan_runtime(compiler)
    if runtime is None:
        pytest.skip("no AddressSanitizer runtime")
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, [
        jsonl_row(f"r{index}", title="آیین‌نامه اجرایی",
                  content=f"{PERSIAN_TOPICS[index % 3]} {PERSIAN_TOPICS[index % 3]} قانون‌ها كشور ي ۱۴۰۰ «ماده» ، و از")
        for index in range(24)
    ])
    alphabet = WHITESPACE + NEAR_MISSES + LETTERS + BITMAP_EDGES
    script = CHILD.replace("SANITIZE", repr(SANITIZE)).replace("ALPHABET", repr(alphabet)).replace(
        "HOSTILE", repr(HOSTILE)).replace("RECORD_PATH", repr(RECORD_PATH))
    source_root = str(Path(lextopic.__file__).resolve().parents[1])
    env = dict(
        os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"), LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0",
        PYTHONMALLOC="malloc", PYTHONPATH=os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")])),
    )
    result = subprocess.run([sys.executable, "-c", script, str(corpus), str(tmp_path / "out")],
                            capture_output=True, text=True, env=env)
    assert "Sanitizer" not in result.stderr and "runtime error" not in result.stderr, result.stderr[-4000:]
    assert result.returncode == 0, result.stderr[-4000:]
    assert result.stdout.splitlines()[-1:] == ["ok"]
