"""Speed rulers: fixed work, independent of the package, timed between operations.

The benchmark runs on shared machines whose speed shifts by tens of percent
for minutes at a time, which moves every wall time of a run together. A
ruler is a fixed piece of work that touches nothing of the package. It is
timed between the operations of a run, and the run's metrics are scaled by
``reference / median ruler time``: they read as times at the speed where the
ruler takes exactly its reference time. A change to the package moves the
operations and not the ruler, so it shows in the scaled metrics in full.

Each workload has the ruler that tracks its kind of work best: ``cpu``
(Fraction, dict and integer arithmetic in this interpreter) for the
closed-form sweep, ``lp`` (a fixed small ``scipy.optimize.linprog``
problem) for the LP search, and ``process`` (a child interpreter that
starts and imports a fixed set of standard-library modules) for the ``cli``
commands and the set-up probes.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = {"cpu": 0.004, "lp": 0.01, "process": 0.2}
PROCESS_CODE = (
    "import argparse, asyncio, csv, decimal, email.mime.text, fractions, json, "
    "logging, unittest, xml.dom.minidom"
)


def _cpu() -> None:
    total = Fraction(0)
    table = {}
    for i in range(1, 300):
        total += Fraction(i, i + 1) * (i % 7)
        table[i] = str(i) * 3
    x = 0
    for i in range(15000):
        x += i * i % 13


def _lp() -> None:
    import numpy as np
    from scipy.optimize import linprog

    cost = -np.array([1.0, 2.0, 1.5, 0.5])
    a_ub = np.array([[1.0, 1.0, 1.0, 1.0], [2.0, 1.0, 0.0, 1.0], [0.0, 1.0, 3.0, 1.0]])
    b_ub = np.array([4.0, 5.0, 6.0])
    for _ in range(3):
        linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=[(0.0, 3.0)] * 4, method="highs-ds")


class Ruler:
    """Times one kind of reference work and gives the run's speed scale.

    ``every_s`` is how much operation time may pass between two rulings.
    """

    def __init__(self, kind: str, cwd: str, every_s: float):
        if kind == "process":
            cmd = [sys.executable, "-c", PROCESS_CODE]
            self._work = lambda: subprocess.run(
                cmd, cwd=cwd, check=True, timeout=60, capture_output=True
            )
        else:
            self._work = {"cpu": _cpu, "lp": _lp}[kind]
        self.reference_s = REFERENCE_S[kind]
        self.kind = kind
        self.every_s = every_s
        self.times: list[float] = []
        self._since = 0.0

    def measure(self) -> None:
        start = time.perf_counter()
        self._work()
        self.times.append(time.perf_counter() - start)

    def after(self, op_seconds: float) -> None:
        """Account for one operation's time and rule when enough has passed."""
        self._since += op_seconds
        if self._since >= self.every_s:
            self.measure()
            self._since = 0.0

    @property
    def scale(self) -> float:
        """Multiply a time by this to read it at the reference speed."""
        return self.reference_s / statistics.median(self.times)

    def describe(self) -> str:
        return (f"{self.kind} ruler median {1e3 * statistics.median(self.times):.4g} ms "
                f"(n={len(self.times)}, reference {1e3 * self.reference_s:g} ms), "
                f"scale {self.scale:.4g}")
