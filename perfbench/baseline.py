"""Single-layer timings in the shape of the ROADMAP item-1 table, plus the machine.

Run from the root of a source checkout:

    python3 perfbench/baseline.py > baseline.json

Each entry is the median of a few repeats, timed in this process except
the CLI entries, which start a fresh interpreter per repeat. The result
is one JSON object on standard output; perfbench/BASELINE.md records it
for the seed and compares it with the table.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import run  # sets the single-thread environment before numpy is imported
import workloads

sys.path.insert(0, str(run.SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402

from twinfringes import (  # noqa: E402
    CorrelationModel,
    ExperimentConfig,
    central_visibility,
    cli,
    counting_rate_partial_quadrature,
    radial_profile,
    render_pattern,
    validate_config,
    visibility_closed_form,
    visibility_hwhm,
)


def _median_s(fn, repeats: int, inner: int = 1) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(inner):
            fn()
        times.append((perf_counter() - t0) / inner)
    return statistics.median(times)


def _cpu_model() -> str:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _reference(model: CorrelationModel) -> ExperimentConfig:
    partial = model is CorrelationModel.GAUSSIAN_PARTIAL
    return validate_config(ExperimentConfig(
        lambda_a=1550e-9, lambda_b=810e-9, lambda_p=532e-9, d_a=11.7e-3, f0=150e-3,
        sigma_b=2.36e-2, correlation_model=model, sigma_theta=9.37e-4 if partial else None,
    ))


def main() -> int:
    partial = _reference(CorrelationModel.GAUSSIAN_PARTIAL)
    maximal = _reference(CorrelationModel.MAXIMAL)
    entries = {
        "central_visibility_us": _median_s(lambda: central_visibility(partial), 7, 2000) * 1e6,
        "visibility_closed_form_us":
            _median_s(lambda: visibility_closed_form(5e-4, partial), 7, 2000) * 1e6,
        "partial_quadrature_rate_us":
            _median_s(lambda: counting_rate_partial_quadrature(5e-4, 0.0, partial), 7, 200) * 1e6,
        "visibility_hwhm_ms": _median_s(lambda: visibility_hwhm(partial), 7, 20) * 1e3,
        "render_pattern_partial_600px_ms":
            _median_s(lambda: render_pattern(partial, 3e-3, 600, 0.0), 5) * 1e3,
        "radial_profile_partial_600_ms":
            _median_s(lambda: radial_profile(partial, 1.5e-3, 600, 0.0), 5) * 1e3,
        "render_pattern_maximal_600px_ms":
            _median_s(lambda: render_pattern(maximal, 3e-3, 600, 0.0), 7) * 1e3,
        "render_pattern_maximal_2048px_ms":
            _median_s(lambda: render_pattern(maximal, 3e-3, 2048, 0.0), 5) * 1e3,
    }
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        cfg = Path(tmp) / "partial.cfg"
        cfg.write_text(workloads.config_text("gaussian_partial", 11.7, 9.37e-4), encoding="ascii")
        out = str(Path(tmp) / "out")
        for modes, repeats in ((512, 3), (2048, 1)):
            argv = ["oracle", "--config", str(cfg), "--out", out, "--grid-points", str(modes)]
            entries[f"oracle_check_partial_{modes}_modes_s"] = _median_s(
                lambda: cli.main(argv), repeats)
        commands = {
            "cli_simulate_s": ["simulate", "--config", str(cfg), "--out", out],
            "cli_oracle_s": ["oracle", "--config", str(cfg), "--out", out],
            "cli_invert_s": ["invert", "--config", str(cfg), "--v0", "0.8"],
        }
        run.import_probe_s()  # fills the bytecode cache; not counted
        for name, argv in commands.items():
            entries[name] = statistics.median(
                run.run_child(["-m", "twinfringes.cli", *argv])[0] for _ in range(3))
        entries["import_twinfringes_cli_s"] = statistics.median(
            run.import_probe_s() for _ in range(5))
    machine = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps({"machine": machine, "timings": entries}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
