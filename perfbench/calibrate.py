"""Machine-speed reference for the end-to-end timings.

The benchmark runs on a shared 2-vCPU host whose speed drifts by up to
a factor of two over seconds to minutes (CPU time drifts with wall time,
so it is not time stolen from the guest). Raw timings taken minutes
apart then differ more than two versions of the program do. So every
run also times fixed reference work, next to the program and in the
same way, and scales the program's timings to the reference speed:

- In-process time (throughput, latency, and the ``cli.main`` part of a
  cold CLI run) is scaled by ``Speed``: a fixed kernel that runs between
  requests, outside the timed calls, for a set share of the request
  time. A time ``t`` becomes ``t * reference kernel time / mean kernel
  time``. The kernel is made of the kinds of work the workload's
  requests do (``WORKLOAD_PARTS``), because different kinds of work
  drift by different amounts.
- Interpreter start-up and import (set-up, and the rest of a cold CLI
  run) is scaled by a fresh interpreter that imports numpy,
  scipy.special and scipy.integrate, started just before each round of
  probes. A time ``t`` becomes ``t * IMPORT_REF_S / reference time``.

The reference work is the benchmark's own and never calls
``twinfringes``, so a change to the program moves a scaled timing by the
same share as the raw one. The reference times are what the reference
work typically took on the machine the benchmark was written on (2-vCPU
Intel Xeon VM, Python 3.11.7, numpy 2.4.6, scipy 1.17.1), so scaled
timings read as times on that machine at its typical speed.
"""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy import integrate, special

IMPORT_REF_S = 0.75
KERNEL_SHARE = 0.2  # kernel time per second of timed request time
REF_IMPORT = "import numpy, scipy.special, scipy.integrate"

_GRID = np.linspace(0.0, 1.0, 2048)
_PHASES = np.linspace(0.0, 3.0, 1024)
_COLUMNS = np.random.default_rng(0).random((1024, 64)) + 0.5j


def _integrand(x: float, k: float) -> float:
    return math.exp(-x * x) * math.cos(k * x)


def _interpreted(scratch: Path) -> float:
    s = 0.0
    table = {}
    for i in range(625):
        x = i * 1e-3
        s += math.sin(x) * x
        table[f"k{i & 63}"] = s
    return s


def _quadrature(scratch: Path) -> float:
    return sum(integrate.quad(_integrand, 0.0, 4.0, args=(k,))[0] for k in (20.0, 40.0))


def _columns(scratch: Path) -> float:
    s = 0.0
    for k in range(10):
        weights = np.abs(_COLUMNS[:, k]) ** 2
        s += math.fsum(weights * (1.0 + np.cos(_PHASES - 0.01 * k)))
    return s


def _faddeeva(scratch: Path) -> float:
    s = float(special.wofz(_GRID[:256] + 1j).real.sum())
    return s + sum(float(special.wofz(complex(0.01 * i, 1.0)).real) for i in range(60))


def _csv(scratch: Path) -> float:
    path = scratch / "kernel.csv"
    path.write_text("".join(f"{v:.11e},{v * v:.11e}\n" for v in _GRID[:300]), encoding="ascii")
    size = len(path.read_text(encoding="ascii"))
    path.unlink()
    return float(size)


# Parts of the kernel and their typical time per call on the reference
# machine: interpreted float and dict work, scalar quadrature, column
# reductions with math.fsum over 1024-element arrays, the complex error
# function, and a CSV write and read.
PARTS = {
    _interpreted: 0.40e-3,
    _quadrature: 0.40e-3,
    _columns: 1.00e-3,
    _faddeeva: 0.10e-3,
    _csv: 0.85e-3,
}

# The parts each workload's timings are scaled by. Work of different
# kinds drifts by different amounts: interpreted code most, numpy
# reductions least. Over 6-12 s windows of a fixed request repeated with
# larger versions of the parts after it, the standard deviation of
# log(request time / reference time) was 0.021-0.066 for render with
# every part (0.041-0.060 with the column part alone), 0.063-0.073 for
# scan with every part, and 0.034-0.058 for oracle with the column part
# alone (0.051-0.078 with every part). The oracle's requests are almost
# all column reductions (counting_rate_reduced).
WORKLOAD_PARTS = {
    "render": tuple(PARTS),
    "scan": tuple(PARTS),
    "oracle": (_columns,),
}


class Speed:
    """Runs a workload's kernel between requests and gives its scale factor."""

    WARM_UP_CALLS = 20

    def __init__(self, workload: str, scratch: Path):
        self.parts = WORKLOAD_PARTS[workload]
        self.ref_s = sum(PARTS[part] for part in self.parts)
        self.scratch = Path(scratch)
        self.calls = 0
        self.busy = 0.0
        for _ in range(self.WARM_UP_CALLS):
            self._kernel()

    def _kernel(self) -> None:
        for part in self.parts:
            part(self.scratch)

    def keep_up(self, request_s: float) -> None:
        """Run the kernel until it has had its share of ``request_s`` seconds."""
        while self.busy < KERNEL_SHARE * request_s:
            t0 = perf_counter()
            self._kernel()
            self.busy += perf_counter() - t0
            self.calls += 1

    def scale(self) -> float:
        """Factor that turns a timing of this run into reference-speed time."""
        return self.ref_s * self.calls / self.busy


def ref_import_s(cwd: Path, env: dict, timeout: float) -> float:
    """Wall time of a fresh interpreter importing the reference libraries."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", REF_IMPORT], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)
    dt = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"reference import failed:\n{proc.stderr}")
    return dt
