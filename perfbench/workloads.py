"""Seeded request generator for the render, oracle and scan workloads.

A workload is an endless sequence of fixed-size blocks. Block ``i`` of
workload ``w`` under seed ``s`` depends on ``(w, s, i)`` alone, so the
same seed always gives the same inputs however long a run lasts. Each
block holds the workload's request mix in exact proportion, and the
continuous parameters that set a request's cost (resolution,
sigma_theta, d_a, screen size) are stratified, with the strata of
different parameters paired in a fixed pattern. The seed moves each
value only within its stratum. A run always ends on a block boundary,
so the mix and the cost profile of every run are the same and only the
fine detail of the inputs changes with the seed; that keeps run-to-run
spread small.

The generator writes only config files and CSV files; a request is the
argv list handed to the ``twinfringes`` CLI plus the values the output
checks need. Every request gets its own config file, and continuous
parameters make every config distinct.
"""

from __future__ import annotations

import math
import random
from itertools import cycle
from dataclasses import dataclass, field
from pathlib import Path

# Fixed optics shared by every request: 1550/810 nm pair, 532 nm pump,
# 150 mm camera lens, 2.36e-2 rad detected-beam spread.
LAMBDA_A_NM = 1550.0
LAMBDA_B_NM = 810.0
LAMBDA_P_NM = 532.0
F0_MM = 150.0
SIGMA_B = 2.36e-2

# Input domains, recorded again in BENCHMARK.json and perfbench/README.md.
D_A_MM = (5.0, 20.0)
RENDER_SIGMA = (3e-4, 3e-3)
RENDER_RESOLUTION = (256, 1024)
RENDER_SCREEN_MM = (2.0, 4.0)
# The 512-mode partial oracle misses its 0.01 rate gate at 2e-4 (1.18e-2)
# and its shell grid leaves the 0.1 rad paraxial range at 5e-3
# (ValueError); this range keeps every request inside the gate.
ORACLE_SIGMA = (5e-4, 2e-3)
SCAN_SIGMA = (3e-4, 3e-3)
SCAN_V0 = (0.1, 0.98)
SCAN_RHO_MM = (0.0, 3.0)
SCAN_SIGMA_LIST_LEN = 10
SCAN_RHO_LIST_LEN = 20
EQWL_SEPARATIONS = (3, 8)
EQWL_NOISE = 0.01

WORKLOADS = ("render", "oracle", "scan")


@dataclass
class Request:
    """One CLI invocation and what its output must satisfy."""

    kind: str  # render_<model>, oracle_<model>, invert, vis_sigma, vis_rho, eqwl
    argv: list[str]
    out: Path  # base path handed to --out
    params: dict = field(default_factory=dict)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of n equal sub-intervals of [lo, hi]."""
    width = (hi - lo) / n
    return [lo + (k + rng.random()) * width for k in range(n)]


def config_text(model: str, d_a_mm: float, sigma_theta: float | None = None) -> str:
    lines = [
        f"lambda_a_nm = {LAMBDA_A_NM!r}",
        f"lambda_b_nm = {LAMBDA_B_NM!r}",
        f"lambda_p_nm = {LAMBDA_P_NM!r}",
        f"d_a_mm = {d_a_mm!r}",
        f"f0_mm = {F0_MM!r}",
        f"sigma_b = {SIGMA_B!r}",
        f"model = {model}",
    ]
    if sigma_theta is not None:
        lines.append(f"sigma_theta = {sigma_theta!r}")
    return "\n".join(lines) + "\n"


def ring_radius_mm(d_a_mm: float) -> float:
    """First bright-ring radius from the ring law rho_1^2 = 2 lambda_eq f0^2 / (n_a d_a)."""
    lambda_eq_mm = (LAMBDA_B_NM**2 / LAMBDA_A_NM) * 1e-6
    return math.sqrt(2.0 * lambda_eq_mm * F0_MM * F0_MM / d_a_mm)


class _Block:
    """Writes the files of one block under its own directory."""

    def __init__(self, workdir: Path, tag: str):
        self.dir = workdir / tag
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def new(self, cfg: str) -> tuple[Path, Path, str]:
        stem = f"r{self.count:03d}"
        self.count += 1
        cfg_path = self.dir / f"{stem}.cfg"
        cfg_path.write_text(cfg, encoding="ascii")
        return cfg_path, self.dir / f"{stem}_out", stem


def _paired_strata(rng: random.Random, n: int,
                   *ranges: tuple[float, float]) -> list[tuple[float, ...]]:
    """n points with every coordinate stratified and the strata paired in a fixed pattern.

    Point k takes stratum k of the first range and stratum (m k) mod n of
    each further one, for a fixed multiplier m coprime to n. A Latin
    hypercube would shuffle the pairing with the seed, and which cheap
    and expensive values meet then moves the block's cost.
    """
    multipliers = cycle([m for m in range(1, n) if math.gcd(m, n) == 1] or [1])
    columns = []
    for lo, hi in ranges:
        m = next(multipliers)
        column = _strata(rng, lo, hi, n)
        columns.append([column[(m * k) % n] for k in range(n)])
    return list(zip(*columns))


def _render_block(rng: random.Random, blk: _Block, index: int) -> list[Request]:
    # 12 partial, 4 maximal and 4 uncorrelated requests. A partial share
    # just above half puts the median latency inside the partial group:
    # at exactly half it falls in the gap between the two latency groups
    # and jumps between seeds. Resolution, sigma_theta, d_a and screen
    # size all set the cost of a partial request (the quadrature refines
    # more on faster fringes), so each is stratified within the block,
    # with the strata paired the same way under every seed.
    log_sigma = (math.log(RENDER_SIGMA[0]), math.log(RENDER_SIGMA[1]))
    plan = [
        ("gaussian_partial", res, math.exp(ls), d_a, screen)
        for res, ls, d_a, screen in _paired_strata(
            rng, 12, RENDER_RESOLUTION, log_sigma, D_A_MM, RENDER_SCREEN_MM
        )
    ]
    for model in ("maximal", "uncorrelated"):
        plan += [
            (model, res, None, d_a, screen)
            for res, d_a, screen in _paired_strata(
                rng, 4, RENDER_RESOLUTION, D_A_MM, RENDER_SCREEN_MM
            )
        ]
    rng.shuffle(plan)
    requests = []
    for model, res, sigma, d_a_mm, screen_mm in plan:
        cfg, out, _ = blk.new(config_text(model, d_a_mm, sigma))
        resolution = int(round(res))
        phi0 = rng.uniform(0.0, 2.0 * math.pi)
        argv = [
            "simulate", "--config", str(cfg), "--out", str(out),
            "--resolution", str(resolution), "--screen-mm", repr(screen_mm), "--phi0", repr(phi0),
        ]
        params = {"model": model, "resolution": resolution, "screen_mm": screen_mm, "phi0": phi0}
        requests.append(Request(f"render_{model}", argv, out, params))
    return requests


def _oracle_block(rng: random.Random, blk: _Block, index: int) -> list[Request]:
    # Partial and uncorrelated at 512 and 1024 modes, plus maximal: 8
    # requests. Two maximal checks take about 0.15 s each and three
    # uncorrelated 512-mode checks about 0.9 s each, whatever the inputs,
    # so the median of any whole number of blocks falls among the
    # uncorrelated 512-mode checks rather than between two cost groups.
    # A partial check costs about twice as much at the narrow end of the
    # sigma_theta range as at the wide end. One partial request of each
    # block takes the lower half of the log range and the other the
    # upper half, swapped from block to block, so that any two
    # consecutive blocks cover both halves at both grid sizes.
    plan = [
        ("gaussian_partial", 512), ("gaussian_partial", 1024),
        ("uncorrelated", 512), ("uncorrelated", 512), ("uncorrelated", 512),
        ("uncorrelated", 1024), ("maximal", 512), ("maximal", 512),
    ]
    lo, hi = (math.log(x) for x in ORACLE_SIGMA)
    mid = 0.5 * (lo + hi)
    halves = [(lo, mid), (mid, hi)] if index % 2 == 0 else [(mid, hi), (lo, mid)]
    sigmas = {grid: math.exp(rng.uniform(*half)) for grid, half in zip((512, 1024), halves)}
    rng.shuffle(plan)
    requests = []
    for model, grid in plan:
        sigma = sigmas[grid] if model == "gaussian_partial" else None
        cfg, out, _ = blk.new(config_text(model, rng.uniform(*D_A_MM), sigma))
        argv = ["oracle", "--config", str(cfg), "--out", str(out), "--grid-points", str(grid)]
        requests.append(Request(f"oracle_{model}", argv, out, {"model": model, "grid": grid}))
    return requests


def _scan_block(rng: random.Random, blk: _Block, index: int) -> list[Request]:
    # 40% invert, 30% sigma-list visibility, 15% rho-list visibility,
    # 15% eqwavelength, in blocks of 20.
    plan = ["invert"] * 8 + ["vis_sigma"] * 6 + ["vis_rho"] * 3 + ["eqwl"] * 3
    rng.shuffle(plan)
    requests = []
    for kind in plan:
        d_a_mm = rng.uniform(*D_A_MM)
        sigma = _log_uniform(rng, *SCAN_SIGMA)
        cfg, out, stem = blk.new(config_text("gaussian_partial", d_a_mm, sigma))
        params: dict = {"d_a_mm": d_a_mm, "sigma_theta": sigma}
        if kind == "invert":
            v0 = rng.uniform(*SCAN_V0)
            rho1_mm = ring_radius_mm(d_a_mm) * (1.0 + EQWL_NOISE * rng.gauss(0.0, 1.0))
            argv = ["invert", "--v0", repr(v0), "--rho1-mm", repr(rho1_mm)]
            params.update(v0=v0, rho1_mm=rho1_mm)
        elif kind == "vis_sigma":
            sigmas = sorted(_log_uniform(rng, *SCAN_SIGMA) for _ in range(SCAN_SIGMA_LIST_LEN))
            argv = ["visibility", "--sigma-list", ",".join(map(repr, sigmas))]
            params["sigmas"] = sigmas
        elif kind == "vis_rho":
            radii = sorted(rng.uniform(*SCAN_RHO_MM) for _ in range(SCAN_RHO_LIST_LEN))
            argv = ["visibility", "--rho-mm-list", ",".join(map(repr, radii))]
            params["rho_mm"] = radii
        else:
            n = rng.randint(*EQWL_SEPARATIONS)
            rows = []
            for d in _strata(rng, *D_A_MM, n):
                rows.append((d, ring_radius_mm(d) * (1.0 + EQWL_NOISE * rng.gauss(0.0, 1.0))))
            data = blk.dir / f"{stem}_rings.csv"
            data.write_text(
                "d_a_mm,rho1_mm\n" + "".join(f"{d!r},{r!r}\n" for d, r in rows), encoding="ascii"
            )
            argv = ["eqwavelength", "--data", str(data)]
            params["rows"] = rows
        argv[1:1] = ["--config", str(cfg), "--out", str(out)]
        requests.append(Request(kind, argv, out, params))
    return requests


_BLOCKS = {"render": _render_block, "oracle": _oracle_block, "scan": _scan_block}


def make_block(workload: str, seed: int, index: int, workdir: Path) -> list[Request]:
    """Write the input files of one block and return its requests in order."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return _BLOCKS[workload](rng, _Block(Path(workdir), f"b{index:05d}"), index)


# Fixed inputs of the fresh-process probe: the workload's representative
# command on the reference setup (11.7 mm, sigma_theta 9.37e-4).
def cold_request(workload: str, workdir: Path) -> Request:
    blk = _Block(Path(workdir), "cold")
    if workload == "render":
        cfg, out, _ = blk.new(config_text("gaussian_partial", 11.7, 9.37e-4))
        argv = ["simulate", "--config", str(cfg), "--out", str(out), "--resolution", "600",
                "--screen-mm", "3"]
        return Request("render_gaussian_partial", argv, out,
                       {"model": "gaussian_partial", "resolution": 600, "screen_mm": 3.0,
                        "phi0": 0.0})
    if workload == "oracle":
        cfg, out, _ = blk.new(config_text("gaussian_partial", 11.7, 9.37e-4))
        argv = ["oracle", "--config", str(cfg), "--out", str(out), "--grid-points", "512"]
        return Request("oracle_gaussian_partial", argv, out,
                       {"model": "gaussian_partial", "grid": 512})
    cfg, out, _ = blk.new(config_text("gaussian_partial", 11.7, 9.37e-4))
    argv = ["invert", "--config", str(cfg), "--out", str(out), "--v0", "0.8", "--rho1-mm", "0.5"]
    return Request("invert", argv, out,
                   {"d_a_mm": 11.7, "sigma_theta": 9.37e-4, "v0": 0.8, "rho1_mm": 0.5})
