"""The compiled kernels under AddressSanitizer and UndefinedBehaviorSanitizer.

Four kernels read bytes from files that a user passes in: parse_table,
value_end, scan_chunks, and the count loops over its output. A child
process compiles _gibbs.c with the sanitizers into a temporary cache,
preloads the ASan runtime and makes Python allocate with malloc, so that
its bytes objects are checked too, then runs every kernel on small and
hostile inputs. Any report fails the test.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lextopic
from conftest import jsonl_row, write_jsonl
from lextopic import _gibbs
from test_vectorize import LETTERS, NEAR_MISSES, WHITESPACE

SANITIZE = ("-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all")

PERSIAN_TOPICS = ["مالیات بودجه درآمد دولت", "دادگاه قاضی حکم تجدیدنظر", "آموزش مدرسه دانشگاه فرهنگ"]

CHILD = """
import json, math, sys
from pathlib import Path
import numpy as np
from lextopic import _gibbs, cli, vectorize
from lextopic.corpus import Corpus, LawRecord, LawType, RecordDate

_gibbs.CFLAGS = _gibbs.CFLAGS + SANITIZE
kernels = _gibbs.load_kernels()
assert kernels is not None, "the sanitized library did not load"
corpus_path, out = sys.argv[1], Path(sys.argv[2])

# Every kernel but the corpus count's near misses, through the commands.
fit = ["fit", "--corpus", corpus_path, "--out", str(out), "--topics", "3", "--sweeps", "5", "--burn-in", "1"]
assert cli.main(fit) == 0
assert cli.main(["analyze", "--corpus", corpus_path, "--out", str(out)]) == 0

# The table parser and value scanner at every offset of truncated model files.
data = (out / "model.json").read_bytes()
start = data.index(b'"doc_topic"')
for length in sorted({*range(0, len(data) + 1, max(1, len(data) // 12)), *range(start, start + 80), len(data)}):
    text = data[:length]
    for offset in range(length + 1):
        kernels.parse_table(text, offset)
        kernels.value_end(text, offset)

# The chunk scan and count loops over whitespace, near misses and letters.
date = RecordDate.from_jalali("1400/07/01", 1400, 7, 1)
rng = np.random.default_rng(0)
alphabet = np.array(ALPHABET, dtype=object)
records = [
    LawRecord(f"r{index}", "", "".join(rng.choice(alphabet, size=int(rng.integers(0, 30)))), LawType.REGULATION, date)
    for index in range(300)
]
vectorize.count_corpus(Corpus(records, "alphabet"), min_df=1, max_df_ratio=1.0, on_empty="drop")

# The float formatter on signed zeros, subnormals and non-finite values.
values = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.nan, math.inf, -math.inf])
assert kernels.format_floats(values) == json.dumps(values.tolist())
assert kernels.format_floats(values.reshape(2, 4)) == json.dumps(values.reshape(2, 4).tolist())
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
    script = CHILD.replace("SANITIZE", repr(SANITIZE)).replace("ALPHABET", repr(WHITESPACE + NEAR_MISSES + LETTERS))
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
