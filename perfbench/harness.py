"""Shared measurement helpers: order statistics, provenance, result files.

Used by ``run.py`` (one run), ``compare.py`` (two result sets) and
``determinism.py``.  Nothing here imports the program under test, so
the helpers work before ``src`` is on the path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

def _rank(count: int, p: float) -> int:
    """1-based nearest rank of percentile ``p``; the tolerance keeps
    ``p = 100 * k / count`` on rank ``k`` despite rounding."""
    return min(count, max(1, math.ceil(p / 100.0 * count - 1e-9)))


def harrell_davis(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` percentile (``p`` in (0, 100)):
    a weighted mean of the order statistics, each weighted by the mass
    the Beta(p(n+1), (1-p)(n+1)) distribution puts on its slot.

    Where neighbouring ops differ by tens of percent (configure-cold's
    sizes and stack mixes), a single order statistic jumps between them
    on small noise; this estimate moves smoothly.  The Beta mass is
    integrated numerically (midpoint rule, 32 points per slot).
    """
    values = sorted(samples)
    n = len(values)
    if n == 1:
        return values[0]
    q = p / 100.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    points = 32
    step = 1.0 / (n * points)
    weights = []
    for i in range(n):
        mass = 0.0
        for j in range(points):
            x = (i * points + j + 0.5) * step
            mass += math.exp(log_norm + (a - 1.0) * math.log(x)
                             + (b - 1.0) * math.log1p(-x))
        weights.append(mass)
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, values)) / total


def samples_beyond(count: int, p: float) -> int:
    """Samples strictly above the nearest-rank ``p`` percentile."""
    return count - _rank(count, p)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) the way ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 when the
    median is 0 and every value equal)."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


#: The host-speed kernel's working set: a small dict read through a
#: tuple of its keys.  The kernel allocates no garbage-collected object,
#: so it neither triggers nor pays for a collection of the program's
#: heap, and its time does not depend on the program under test.
_PROBE_TABLE = {f"key{i}": i for i in range(512)}
_PROBE_KEYS = tuple(_PROBE_TABLE)
#: Kernel iterations per probe pass (about 0.2 ms on one core of the
#: 2.1 GHz x86_64 host the benchmark was tuned on).
PASS_ITERATIONS = 1_500
#: The pass time of the reference host every reported time is scaled
#: to: a region that took ``t`` wall seconds while passes took ``p`` is
#: reported as ``t * REFERENCE_PASS_S / p``, ``p`` being the harmonic
#: mean of its pass times (their speeds are averaged).
REFERENCE_PASS_S = 0.00025
#: Probe passes just before and just after a timed region.
EDGE_PASSES = 5
#: Seconds between probe passes inside a timed region.
TICK_S = 0.02


class _Accumulator:
    __slots__ = ("total",)

    def add(self, value: int) -> None:
        self.total += value


def _probe_kernel(iterations: int) -> int:
    table, keys, acc = _PROBE_TABLE, _PROBE_KEYS, _Accumulator()
    acc.total = 0
    for i in range(iterations):
        acc.add(table[keys[i & 511]] ^ i)
    return acc.total


def _probe_pass() -> float:
    started = time.perf_counter()
    _probe_kernel(PASS_ITERATIONS)
    return time.perf_counter() - started


class HostClock:
    """Times one region and samples the host's speed while it runs.

    On a shared host the same Python code runs up to twice as slowly from
    one second to the next, and CPU time slows with wall time.  So the
    clock runs a fixed probe kernel (:func:`_probe_kernel`) five times
    before and after the region and, from a ``SIGALRM`` timer, once every
    :data:`TICK_S` inside it.  ``elapsed`` is the region's wall time less
    the time the in-region passes took; ``scale`` is the reference
    host's speed over the mean speed the passes saw, so ``scaled`` is
    the time the region would have taken on the reference host.
    """

    def __init__(self) -> None:
        self.passes: list[float] = []
        self.elapsed = 0.0
        self._spent = 0.0
        self._running = False

    def __enter__(self) -> "HostClock":
        self.passes.extend(_probe_pass() for _ in range(EDGE_PASSES))
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        self._started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc_info) -> None:
        ended = time.perf_counter()
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.elapsed = ended - self._started - self._spent
        self.passes.extend(_probe_pass() for _ in range(EDGE_PASSES))

    def _tick(self, signum, frame) -> None:
        if self._running:
            started = time.perf_counter()
            self.passes.append(_probe_pass())
            self._spent += time.perf_counter() - started

    @property
    def scale(self) -> float:
        speed = statistics.fmean(1.0 / p for p in self.passes)
        return REFERENCE_PASS_S * speed

    @property
    def scaled(self) -> float:
        return self.elapsed * self.scale


def reset_peak_rss() -> None:
    """Restart this process's resident-set high-water mark at its current
    size (Linux ``clear_refs``).  Where that is refused, the mark keeps
    counting from the start of the process."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB since the last
    :func:`reset_peak_rss` (``VmHWM``), or since it started where
    ``/proc`` is missing."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def _git_commit(repo: Path) -> str | None:
    """HEAD of ``repo`` read from ``repo/.git`` without running git, so
    nothing outside the checkout is read; None when there is no .git."""
    git = repo / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text(encoding="utf-8").strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = git / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    return None


def source_digest(repo: Path) -> str:
    """sha256 over every ``src/**/*.py`` path and content: identifies
    the measured code when the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = repo / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def provenance(repo: Path, *, seed: int, ops: int, tail_p: float) -> dict:
    return {
        "commit": _git_commit(repo),
        "src_digest": source_digest(repo),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cores": cores(),
        "machine": platform.machine(),
        "seed": seed,
        "ops": ops,
        "op_tail_percentile": tail_p,
    }


def load_results(path: str | Path) -> list[dict]:
    """Every run record of a result set (one JSON object per line)."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def append_result(path: str | Path, record: dict) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def load_benchmark(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def bench_root() -> Path:
    """The directory holding this benchmark (``perfbench``)."""
    return Path(__file__).resolve().parent


def default_repo() -> Path:
    """The checkout the benchmark lives in."""
    return bench_root().parent


def add_src_to_path(repo: Path) -> bool:
    """Put ``repo/src`` first on ``sys.path``; False if it holds no
    ``repro`` package (the benchmark cannot run without the program)."""
    src = repo / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True
