"""lextopic benchmark: seeded CLI workloads, checked outputs, end-to-end and per-layer metrics.

    python3 bench/run.py --workload fit-sampling --seed 1 --seconds 25 --trace 0

One invocation measures one workload in a fresh process. It sets the
workload's inputs up SETUP_REPEATS times, each in a child process, and
reports the median as setup_s. Then, in this process and on one thread,
it runs passes of the workload's ``lextopic`` commands through
``lextopic.cli.main`` until --seconds have passed. Every pass is
checked: a pass fails when a command exits non-zero or raises, when an
output check fails, or when its artifacts differ from the first pass's.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced passes and reports the per-layer metrics (see bench/README.md);
the spans are written to .bench_out/. The last line on stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# numpy's BLAS must not start threads: the load is this one thread.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from spans import LAYER_METRICS, Tracer
from workloads import WORKLOADS, CheckFailed, Workload, corpus_records

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150

PROBE_CHUNKS = 20
PROBE_PERIOD_S = 0.25
# About a probe chunk's duration on an idle 2-vCPU VM with Python 3.11.
# Only its constancy matters: it fixes the unit.
NOMINAL_CHUNK_S = 0.5e-3

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "records_per_s": "records/s",
    "peak_rss_mb": "MB",
}


class HostProbe:
    """Times a fixed slice of interpreter work before, during and after each set-up and pass.

    On a shared host, other tenants make identical passes differ by 25%
    within a minute and by 2x between minutes, and the process's CPU time
    drifts with its wall time. The probe's chunk slows by about the same
    factor as the work around it. ``scale`` converts a measured interval
    to seconds on a host where a chunk takes NOMINAL_CHUNK_S, from the
    blocks that ran just before, during (every PROBE_PERIOD_S, on a timer
    signal in this thread) and just after the interval. A 12 s pass
    changes speed while it runs, so blocks at its edges alone do not
    track it. The probe is benchmark code; lextopic never runs in it, so
    a change to the program cannot move the scale.
    """

    _TABLE = [index * 0.5 for index in range(64)]
    _WORDS = {index: index % 7 for index in range(128)}

    def __init__(self):
        self.chunks: list[float] = []

    def sample(self) -> float:
        """Run one block of chunks; return the seconds it took."""
        table, words = self._TABLE, self._WORDS
        block_start = time.perf_counter()
        for _ in range(PROBE_CHUNKS):
            start = time.perf_counter()
            total = 0.0
            for index in range(4000):
                total += table[index & 63] * 1.0001 + words.get(index & 127, 0)
            self.chunks.append(time.perf_counter() - start)
        return time.perf_counter() - block_start

    @contextlib.contextmanager
    def periodic(self):
        """Sample every PROBE_PERIOD_S inside the block; yields the list of block seconds."""
        spent: list[float] = []
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: spent.append(self.sample()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield spent
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, first_chunk: int) -> float:
        """Nominal over measured chunk time, from chunk `first_chunk` to the last."""
        return NOMINAL_CHUNK_S / statistics.fmean(self.chunks[first_chunk:])


@dataclass
class Pass:
    traced: bool
    wall_s: float
    error: str | None
    digests: dict[str, str]
    layers: dict[str, float] = field(default_factory=dict)
    scaled_s: float = 0.0  # wall_s at the probe's nominal host speed
    peak_rss_mb: float = 0.0  # ru_maxrss when the commands end, before the check


def _digests(directory: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
        if path.is_file()
    }


def run_pass(workload: Workload, inputs: Path, out: Path, tracer: Tracer | None = None, pass_id: int = 0,
             probe: HostProbe | None = None) -> Pass:
    """Run the workload's commands once, time them, then check the artifacts.

    With a probe, its blocks run during the commands and their time is
    taken out of wall_s.
    """
    from lextopic import cli

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    commands = workload.commands(inputs, out)
    captured = io.StringIO()
    error = None
    if tracer is not None:
        tracer.install()
        tracer.begin_pass(pass_id)
    start = time.perf_counter()
    with probe.periodic() if probe is not None else contextlib.nullcontext([]) as probe_blocks:
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                for argv in commands:
                    code = cli.main(argv)
                    if code != 0:
                        error = f"`lextopic {argv[0]}` exited with {code}: {captured.getvalue().strip()}"
                        break
        except (Exception, SystemExit):
            error = "a command raised:\n" + traceback.format_exc()
    wall_s = time.perf_counter() - start - sum(probe_blocks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = {}
    if tracer is not None:
        layers = tracer.end_pass(wall_s)
        tracer.remove()
    if error is None:
        try:
            workload.check(inputs, out)
        except CheckFailed as exc:
            error = f"check failed: {exc}"
        except Exception as exc:  # a malformed artifact the check could not parse
            error = f"check failed: {exc!r}"
    return Pass(tracer is not None, wall_s, error, _digests(out), layers, peak_rss_mb=peak_rss_mb)


def measure(workload: Workload, inputs: Path, out: Path, seconds: float, trace: bool,
            probe: HostProbe) -> tuple[list[Pass], Tracer]:
    """Passes until `seconds` have elapsed; with trace, alternate untraced and traced.

    Traced passes run without the probe, so their layer times are raw.
    """
    import lextopic.cli  # noqa: F401  (import cost is not part of a pass)

    tracer = Tracer()
    passes: list[Pass] = []
    start = time.perf_counter()
    probe.sample()
    while True:
        first_chunk = len(probe.chunks) - PROBE_CHUNKS
        traced = trace and len(passes) % 2 == 1
        current = run_pass(workload, inputs, out, tracer if traced else None, len(passes),
                           None if traced else probe)
        if current.error is None and passes and current.digests != passes[0].digests:
            changed = sorted(set(current.digests.items()) ^ set(passes[0].digests.items()))
            current.error = f"artifacts differ from pass 0: {sorted({name for name, _ in changed})}"
        probe.sample()
        current.scaled_s = current.wall_s * probe.scale(first_chunk)
        passes.append(current)
        if time.perf_counter() - start >= seconds and (not trace or len(passes) >= 2):
            return passes, tracer


def set_up(workload: Workload, seed: int, work: Path, tiny: bool) -> tuple[Path, list[float], list[float]]:
    """SETUP_REPEATS fresh set-ups in child processes; they must agree byte for byte.

    Returns the input directory, the measured seconds and the scaled
    seconds, as each child reported them (see ``timed_setup``).
    """
    times = []
    scaled = []
    digests = []
    for repeat in range(SETUP_REPEATS):
        directory = work / f"setup-{repeat}"
        directory.mkdir(parents=True)
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
                   "--seed", str(seed), "--seconds", "0", "--trace", "0",
                   "--setup-into", str(directory)] + (["--tiny"] if tiny else [])
        child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if child.returncode != 0:
            raise RuntimeError(f"set-up of {workload.name} failed:\n{child.stderr}")
        measured = json.loads(child.stdout.strip().splitlines()[-1])
        times.append(measured["seconds"])
        scaled.append(measured["scaled_s"])
        digests.append(_digests(directory))
        if repeat:
            shutil.rmtree(directory)
            if digests[-1] != digests[0]:
                raise RuntimeError(f"set-up of {workload.name} is not deterministic for seed {seed}")
    return work / "setup-0", times, scaled


def timed_setup(workload: Workload, directory: Path, seed: int, tiny: bool) -> dict[str, float]:
    """Run one set-up in this (child) process, timed like a pass.

    Interpreter start-up and imports are not counted. The probe runs in
    this thread before, during and after the set-up call.
    """
    probe = HostProbe()
    probe.sample()
    start = time.perf_counter()
    with probe.periodic() as probe_blocks:
        workload.setup(directory, seed, tiny)
    seconds = time.perf_counter() - start - sum(probe_blocks)
    probe.sample()
    return {"seconds": seconds, "scaled_s": seconds * probe.scale(0)}


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def _threads() -> int | None:
    status = Path("/proc/self/status")
    if not status.is_file():
        return None
    for line in status.read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return None


def summarize(passes: list[Pass], setup_scaled: list[float], records: int, trace: bool) -> dict:
    """The result object: end-to-end metrics, or per-layer ones when traced."""
    failed = sum(1 for current in passes if current.error is not None)
    if trace:
        traced = [current for current in passes if current.traced]
        values = {name: statistics.median([current.layers[name] for current in traced])
                  for name in LAYER_METRICS if name != "trace.overhead_s"}
        # Each traced pass runs right after an untraced one; pairing them
        # keeps slow drifts of the host out of the difference.
        values["trace.overhead_s"] = statistics.median(
            [passes[index].wall_s - passes[index - 1].wall_s for index in range(1, len(passes), 2)]
        )
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    else:
        pass_s = statistics.median([current.scaled_s for current in passes if not current.traced])
        values = {
            "setup_s": statistics.median(setup_scaled),
            "pass_s": pass_s,
            "records_per_s": records / pass_s,
            # A user runs each command once, in a fresh process. Later passes
            # in this process grow the heap by a varying amount (fragmentation).
            "peak_rss_mb": passes[0].peak_rss_mb,
        }
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def report(workload: Workload, env: dict, setup_times: list[float], passes: list[Pass], probe_chunks: list[float],
           records: int, result: dict) -> None:
    """Human-readable lines; the JSON result follows them."""
    untraced = [current.wall_s for current in passes if not current.traced]
    print(f"workload {workload.name}: {workload.why}")
    print(f"  input records per pass: {records}")
    print("  environment: " + ", ".join(f"{key}={value}" for key, value in env.items()) + f", threads={_threads()}")
    print("  set-up seconds: " + ", ".join(f"{value:.4f}" for value in setup_times))
    for index, current in enumerate(passes):
        status = "ok" if current.error is None else "FAILED: " + current.error
        print(f"  pass {index}{' (traced)' if current.traced else ''}: {current.wall_s:.4f} s "
              f"(scaled {current.scaled_s:.4f} s), {status}")
    for name, digest in passes[0].digests.items():
        print(f"  sha256 {digest}  {name}")
    print(f"  error_rate: {result['failed']}/{result['attempted']} = {result['failed'] / result['attempted']:.4f}")
    print(f"  untraced passes: {len(untraced)}, median wall_s {statistics.median(untraced):.4f} s")
    print(f"  probe: {NOMINAL_CHUNK_S * 1e3:g} ms nominal chunk, {statistics.fmean(probe_chunks) * 1e3:.4f} ms mean, "
          f"{min(probe_chunks) * 1e3:.4f} ms fastest, {len(probe_chunks)} chunks")
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if "lda.token_sweeps" in metrics:
        properties = ("vectorize.tokens", "vectorize.nnz", "vectorize.n_terms", "lda.token_sweeps",
                      "preprocess.distinct_ratio")
        print("  workload properties: " + ", ".join(f"{name}={metrics[name]:.6g}" for name in properties)
              + f", token_sweeps_per_s={metrics['lda.token_sweeps'] / statistics.median(untraced):.6g}")


def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path, tiny: bool) -> dict:
    env = environment()
    probe = HostProbe()
    inputs, setup_times, setup_scaled = set_up(workload, seed, work, tiny)
    passes, tracer = measure(workload, inputs, work / "out", seconds, trace, probe)
    records = corpus_records(inputs)
    result = summarize(passes, setup_scaled, records, trace)
    report(workload, env, setup_times, passes, probe.chunks, records, result)
    if trace:
        tracer.dump(ROOT / ".bench_out" / f"spans-{workload.name}-seed{seed}.json")
    return result


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for bench/selftest.py")
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)  # child process: write inputs only
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lextopic" / "cli.py").is_file():
        print(f"bench: no lextopic sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    if args.setup_into:
        print(json.dumps(timed_setup(workload, Path(args.setup_into), args.seed, args.tiny)))
        return 0
    work = ROOT / ".bench_work" / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = run(workload, args.seed, args.seconds, bool(args.trace), work, args.tiny)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
