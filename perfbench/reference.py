"""Reference kernels: fixed code of the benchmark's own, timed between rounds.

The speed the benchmark machine gives a process changes within seconds and
drifts over minutes (see README.md). A reference kernel calls nothing of
relay_align, so its time measures only that speed, and run.py rescales the
times of a run by the mean kernel time of the run. Kernels and program slow
down alike only when they do the same kind of work, so each workload names
the kernel closest to its own:

- "scalar": Python integer arithmetic and small LAPACK calls (200 SVDs of a
  32x8 complex matrix), like the verification of small strategies;
- "vector": nearest-point search over a 2 x 4000 complex array, 25 passes,
  cache-resident array work;
- "vector-large": the same over 2 x 100 000, one pass, streaming array work
  like the per-trial kernels of a 1e5-trial simulation.

The vector kernels work in slices of SLICE columns, so their temporaries stay
small: "vector-large" adds about 4 MB to a process's peak memory above the
baseline of numpy and relay_align, its 3.2 MB input included. Each kernel
takes about 10 ms at full speed.
"""

from __future__ import annotations

import time

import numpy as np

QPSK = np.array([1, -1, 1j, -1j])
SHARE = 0.04  # kernel time after each round, as a share of the round's busy time
VECTOR_SHAPES = {"vector": (4_000, 25), "vector-large": (100_000, 1)}  # columns, passes
SLICE = 4_000  # columns per step of a vector kernel


class Reference:
    """Times one reference kernel and keeps every sample."""

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.samples: list[float] = []
        if kind == "scalar":
            self._matrix = rng.standard_normal((32, 8)) * (1 + 1j)
            self._kernel = self._scalar
        else:
            columns, self._passes = VECTOR_SHAPES[kind]
            # complex values made in place: no temporary beside the 3.2 MB input
            self._values = rng.standard_normal((2, columns, 2)).view(complex)[..., 0]
            self._kernel = self._vector

    def _scalar(self) -> None:
        for _ in range(200):
            np.linalg.svd(self._matrix)
        total = 0
        for i in range(10_000):
            total += i * i

    def _vector(self) -> None:
        columns = self._values.shape[1]
        for _ in range(self._passes):
            for start in range(0, columns, SLICE):
                np.abs(self._values[:, start:start + SLICE, None] - QPSK).argmin(axis=-1)

    def sample(self, seconds: float = 0.0) -> None:
        """Run the kernel until `seconds` have been spent in it, at least once."""
        spent = 0.0
        while True:
            start = time.perf_counter()
            self._kernel()
            elapsed = time.perf_counter() - start
            self.samples.append(elapsed)
            spent += elapsed
            if spent >= seconds:
                return
