"""Shared pieces of the benchmark: locating the program, the percentile
estimators, the machine-speed reference, the per-operation work budget
and the run record.

The benchmark measures the `toricmld` sources of the checkout it sits in
(`<root>/src/toricmld`), never an installed copy, so that a checkout
without the sources fails instead of measuring something else.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import signal
import statistics
import sys
from contextlib import contextmanager
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (missing sources or goldens)."""


def import_program():
    """Import `toricmld` from `<root>/src` and return the package.

    Raises SetupError when the sources are missing or when the import
    resolves to a copy outside this checkout.
    """
    if not os.path.isfile(os.path.join(SRC, "toricmld", "__init__.py")):
        raise SetupError("no toricmld sources under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import toricmld

    where = os.path.realpath(toricmld.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SetupError("toricmld was imported from %s, not from %s" % (where, SRC))
    return toricmld


# ---------------------------------------------------------------------------
# percentiles


def percentile(samples, p):
    """Nearest-rank percentile and the number of samples beyond it.

    The p-th percentile of n samples is the ceil(p/100 * n)-th smallest;
    the samples beyond it are the n - rank larger-ranked ones.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a, b, x):
    """Regularized incomplete beta function I_x(a, b) for a, b > 0."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def hd_quantile(samples, p):
    """Harrell-Davis estimate of the p-th quantile (0 < p < 1).

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics.
    With few samples per item, the nearest-rank percentile follows the
    noise of the one item at its rank; this estimate averages the items
    around that rank.
    """
    if not samples:
        raise ValueError("quantile of no samples")
    ordered = sorted(samples)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum(x * (cdf[i + 1] - cdf[i]) for i, x in enumerate(ordered))


# ---------------------------------------------------------------------------
# machine speed


# The reference loop's time, in seconds, at nominal speed: about its median
# on the 2-vCPU machine the benchmark was written on.
REFERENCE_NOMINAL_S = 0.001
REFERENCE_WINDOW = 5


def reference_loop():
    """Fixed pure-Python work (exact fractions, tuples, dicts), about 1 ms.

    The machine is shared: the same operation runs up to 2x slower in
    phases lasting from a second to minutes.  The reference loop, timed
    next to each operation, slows down with it, and the program cannot
    change it.
    """
    acc = Fraction(0)
    seen = {}
    for i in range(1, 220):
        acc += Fraction(i, i + 1)
        key = tuple(range(i % 7))
        seen[key] = seen.get(key, 0) + 1
    return acc, len(seen)


def speed_factors(reference_s, at):
    """Scale factor to nominal speed for samples taken at reference indices `at`.

    Each factor is REFERENCE_NOMINAL_S over the median of the
    REFERENCE_WINDOW reference times nearest to the sample.
    """
    n = len(reference_s)
    half = REFERENCE_WINDOW // 2
    out = []
    for k in at:
        lo = min(max(0, k - half), max(0, n - REFERENCE_WINDOW))
        out.append(REFERENCE_NOMINAL_S / statistics.median(reference_s[lo:lo + REFERENCE_WINDOW]))
    return out


# ---------------------------------------------------------------------------
# work budget


class WorkBudgetExceeded(Exception):
    """An operation used more CPU time than its budget allows."""


@contextmanager
def work_budget(cpu_seconds):
    """Raise WorkBudgetExceeded in the body once it has used cpu_seconds.

    Uses the process CPU-time interval timer (SIGPROF), so it works inside
    the single harness process and is not moved by other load on the
    machine.  Must be used from the main thread.
    """
    def _expire(_signum, _frame):
        raise WorkBudgetExceeded("over the %.3g s CPU budget" % cpu_seconds)

    previous = signal.signal(signal.SIGPROF, _expire)
    signal.setitimer(signal.ITIMER_PROF, cpu_seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


# ---------------------------------------------------------------------------
# run record


def peak_rss_mb():
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def commit_id():
    """HEAD of the checkout's git metadata, read as files; "unknown" without it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def machine_record():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
    }
