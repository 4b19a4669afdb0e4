"""Machine-speed probe that the benchmark's times are rescaled by.

On a machine whose cores and memory are shared with other tenants, the
same work can take 20-40% longer for stretches of seconds to minutes, which
swamps the effect of most code changes. The probe is fixed work that does
not touch the package: an interpreter loop, tridiagonal solves and two
sparse LU factorizations, the mix the workloads spend their time in. It is
timed before and after every measurement, for about 5% of the measured
time so that a long measurement gets a steadier reference. A time t taken
between probe times p0 and p1 is reported as t * REF_S / ((p0 + p1) / 2),
the time the work would take on a machine that runs the probe in REF_S
seconds. The raw times are reported next to the rescaled ones.

The probe runs in a child process, so its matrices stay out of the
benchmark process's peak memory. The child idles between requests and the
parent waits while it works, so one CPU is busy at a time.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

REF_S = 0.1
MIN_REPEATS = 2
SHARE = 0.05  # probe for about this share of the time being rescaled


class _Work:
    def __init__(self):
        import numpy as np

        self.np = np
        self.small = self._shifted_laplacian(60)
        self.large = self._shifted_laplacian(120)
        self.banded = np.vstack([np.full(1000, -1.0), np.full(1000, 4.0),
                                 np.full(1000, -1.0)])
        self.rhs = np.ones(1000)

    def _shifted_laplacian(self, n: int):
        """0.01 * (-Lap) + I on the n x n grid, 5-point stencil."""
        import scipy.sparse as sp

        np = self.np
        lap1 = sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1])
        lap = sp.kron(sp.eye(n), lap1) + sp.kron(lap1, sp.eye(n))
        return (-0.01 * (n - 1) ** 2 * lap + sp.eye(n * n)).tocsc()

    def once(self) -> float:
        import scipy.sparse.linalg as spla
        from scipy.linalg import solve_banded

        t0 = perf_counter()
        acc = 0.0
        for i in range(100_000):
            acc += i * 0.5
        for _ in range(100):
            solve_banded((1, 1), self.banded, self.rhs)
        for _ in range(2):
            spla.splu(self.small).solve(self.np.ones(self.small.shape[0]))
        spla.splu(self.large)
        return perf_counter() - t0


class SpeedProbe:
    """Client of the probe child; use as a context manager."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self.samples: list[float] = []
        try:
            self.last = self.measure()
        except BaseException:
            self.close()
            raise

    def measure(self, repeats: int = MIN_REPEATS) -> float:
        self._proc.stdin.write(f"{repeats}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"speed probe exited with {self._proc.wait()}")
        self.samples.append(float(line))
        return self.samples[-1]

    def rescale(self, t: float) -> float:
        """Probe again and rescale a time measured since the last probe."""
        repeats = max(MIN_REPEATS, round(SHARE * t / self.last))
        before, self.last = self.last, self.measure(repeats)
        return t * REF_S / (0.5 * (before + self.last))

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait(timeout=60)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _serve() -> None:
    work = _Work()
    for line in sys.stdin:
        t = statistics.fmean(work.once() for _ in range(int(line)))
        sys.stdout.write(f"{t!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
