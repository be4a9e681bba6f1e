"""Reference seconds: timings that the host's drifting speed cancels out of.

The benchmark shares a few cores of a busy host.  There, even a fixed
pure-Python loop runs 15-25% faster or slower from one few-second stretch to
the next, in CPU time as much as in wall time (SMT siblings and clock
frequency, not waiting for the CPU), so no clock alone makes two runs
minutes apart agree.  Every timed interval is therefore bracketed by slices
of a fixed loop that does not touch latticeramsey, and scaled by how fast
that loop ran around it:

    reference s = measured s * NOMINAL_S_PER_ITER / (loop s / loop iterations)

A change to the package moves the interval and not the loop, so it shows in
full; a slower or faster stretch of the host moves both and cancels.
NOMINAL_S_PER_ITER is the loop's median speed on the 2-core VM the bounds
were set on, so there reference seconds read close to wall seconds.

Starting an interpreter and importing modules is file lookups, unmarshalling
and C-extension loading, which the loop tracks poorly, so fresh-interpreter
timings are scaled instead by a fresh interpreter importing a fixed set of
standard-library modules, run just before (child_seconds).  Over four
minutes of alternating probes on that VM, the package's import time in
half-minute medians moved by up to 6% raw, 5% against the loop and 2%
against this reference.
"""

from __future__ import annotations

import subprocess
import sys
import time

NOMINAL_S_PER_ITER = 1.07e-6
MIN_SLICE_S = 0.005
MAX_SLICE_S = 0.05
SLICE_SHARE = 0.05  # slice length as a share of the interval it brackets
IMPORT_REFERENCE = (
    "asyncio, csv, decimal, email.mime.multipart, http.server, logging.handlers, "
    "pydoc, sqlite3, ssl, tarfile, unittest, xml.etree.ElementTree"
)
NOMINAL_IMPORT_S = 0.2  # wall time of a fresh interpreter importing IMPORT_REFERENCE


def loop(iters: int) -> int:
    """Integer bit work, dict and bytearray updates, like the package's hot loops."""
    acc, table, bits = 0, {}, bytearray(256)
    for i in range(iters):
        x = (i * 40503) & 0xFFFF
        sub = x & (x - 1)
        acc ^= sub << (i & 15)
        bits[x & 255] ^= 1
        table[x & 1023] = table.get(sub & 1023, 0) + 1
        if bin(x).count("1") > 8:
            acc += len(table)
    return acc


def slice_iters(interval_s: float) -> int:
    """Loop iterations of a slice for an interval of about interval_s seconds."""
    target = min(MAX_SLICE_S, max(MIN_SLICE_S, SLICE_SHARE * interval_s))
    return round(target / NOMINAL_S_PER_ITER)


def run_slice(iters: int) -> tuple[int, float]:
    """(iterations, seconds) of one timed slice of the loop."""
    t0 = time.perf_counter()
    loop(iters)
    return iters, time.perf_counter() - t0


def scale(before: tuple[int, float], after: tuple[int, float]) -> float:
    """Factor from measured to reference seconds for an interval between two slices."""
    return NOMINAL_S_PER_ITER * (before[0] + after[0]) / (before[1] + after[1])


def timed(fn, interval_s: float):
    """(result, reference seconds) of fn(), bracketed by slices sized for interval_s."""
    iters = slice_iters(interval_s)
    before = run_slice(iters)
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    return result, elapsed * scale(before, run_slice(iters))


def child_seconds(code: str, cwd) -> float:
    """Reference seconds for a fresh interpreter to run code.

    Scaled by how long a fresh interpreter took to import IMPORT_REFERENCE
    just before.
    """

    def wall(source: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", source], check=True, cwd=cwd)
        return time.perf_counter() - t0

    reference = wall(f"import {IMPORT_REFERENCE}")
    return wall(code) * NOMINAL_IMPORT_S / reference
