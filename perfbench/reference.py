"""Machine-speed reference: fixed work that runs no swsurgery code.

The 2-core box this benchmark was defined on shares its cores, and its speed
for allocation-heavy Python drifts by a third or more within minutes, while
the ratio of op time to a reference kernel's time stays within a few
percent.  So the benchmark times the kernel between ops, outside the timed
intervals, and reports each time scaled to the kernel's ``nominal_s``:

    scaled = raw * nominal_s / (mean time of the kernel samples near it)

"Near" is within ``WINDOW_S`` of op time for an op, and right after it for
a set-up.

A slower program still reads slower; a busier machine does not.  In-process
ops are scaled by a small Gauss-Jordan elimination over ``Fraction``, the
kind of work the package does most; CLI subprocesses by the start of an
interpreter, the kind of work their cold start does.  The kernels must not
change, or scaled figures from before and after are no longer comparable.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Kernel:
    """Fixed work, its median time on the box the benchmark was defined on
    (Python 3.11.7), and the op time between two of its samples."""

    work: Callable[[], object]
    nominal_s: float
    every_s: float

    def seconds(self) -> float:
        t0 = perf_counter()
        self.work()
        return perf_counter() - t0

    def scale(self, samples) -> float:
        """Factor that turns raw seconds measured alongside ``samples`` into nominal seconds."""
        return self.nominal_s * len(samples) / sum(samples)


_N = 10
_MATRIX = tuple(tuple((7 * i + 3 * j) % 11 - 5 + (_N if i == j else 0) for j in range(_N))
                for i in range(_N))


def _eliminate():
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(_N)]
            for i, row in enumerate(_MATRIX)]
    for col in range(_N):
        pivot = rows[col][col]
        rows[col] = [x / pivot for x in rows[col]]
        for i in range(_N):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return rows


def _start_interpreter():
    subprocess.run([sys.executable, "-c", "import argparse, dataclasses, fractions, json, re"],
                   check=True, timeout=60)


# Op time on each side of an op within which kernel samples scale it.
WINDOW_S = 1.0
# For ops in this process: Gauss-Jordan over Fraction on a fixed 10x10 matrix.
IN_PROCESS = Kernel(_eliminate, nominal_s=0.0105, every_s=0.2)
# For ops that are subprocesses: start an interpreter that imports what the CLI's imports need.
SUBPROCESS = Kernel(_start_interpreter, nominal_s=0.088, every_s=0.25)
