"""Benchmark of the twinfringes CLI: render, oracle and scan workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload render --seed 1 --seconds 12 --trace 0

The package is imported from ``src/`` of the current directory and
driven only through its public entry points: ``twinfringes.cli.main``
in this process and in fresh processes.
Traffic is a closed loop with one client and one request at a time.
Every request's output is checked outside the timed interval.

``--trace 0`` prints the end-to-end metrics: set-up time (a fresh
interpreter importing ``twinfringes.cli``), the fresh-process latency
of the workload's representative command, and throughput, median
latency and peak RSS of the in-process loop, with every timing scaled
to a reference machine speed measured in the same run (calibrate.py).
``--trace 1`` prints the per-layer metrics instead: import times from
``-X importtime``, and per-request calls and self times of the
package's public functions from a traced rerun of the same requests as
an untraced pass. The last line of standard output is one JSON object
with the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads

# Single-threaded numerical libraries, here and in every child process;
# set before numpy is first imported.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Rounds of fresh-process probes per run, after one uncounted start: each
# round is a reference import, then set-up, then the cold command.
PROBE_ROUNDS = 5
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 120
P90_MIN_REQUESTS = 100  # at least ten samples beyond the 90th percentile

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_cli_ms": "ms",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# --- fresh-process probes ---------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return perf_counter() - t0, proc


def import_probe_s() -> float:
    """Wall time of a fresh interpreter importing twinfringes.cli."""
    dt, proc = run_child(["-c", "import twinfringes.cli"])
    if proc.returncode != 0:
        _fail_setup(f"import twinfringes.cli failed:\n{proc.stderr}")
    return dt


# Runs the CLI in a fresh process as ``python -m twinfringes.cli`` would,
# and reports on stderr how long ``cli.main`` took once imported.
COLD_RUNNER = (
    "import sys, time\n"
    "from twinfringes import cli\n"
    "t0 = time.perf_counter()\n"
    "rc = cli.main(sys.argv[1:])\n"
    "sys.stderr.write(f'\\nperfbench-main-s {time.perf_counter() - t0!r}\\n')\n"
    "sys.exit(rc)\n"
)


def cold_cli_probe_s(workload: str, workdir: Path, tally) -> tuple[float, float]:
    """Fresh-process wall time of the workload's representative command.

    Returns the whole wall time and the part of it spent in ``cli.main``
    after the imports; the rest is interpreter start-up and import.
    """
    req = workloads.cold_request(workload, workdir)
    dt, proc = run_child(["-c", COLD_RUNNER, *req.argv])
    tally.record(req, proc.returncode, None)
    shutil.rmtree(req.out.parent)
    tag, _, value = proc.stderr.rstrip().rpartition("\n")[2].partition(" ")
    main_s = float(value) if tag == "perfbench-main-s" else 0.0
    return dt, main_s


# Import layers by module-name prefix, most specific first.
IMPORT_LAYERS = {
    "numpy": "import.numpy_ms",
    "scipy.special": "import.scipy_special_ms",
    "scipy.integrate": "import.scipy_integrate_ms",
    "twinfringes": "import.twinfringes_ms",
}


def _import_layer(module: str) -> str | None:
    for prefix, metric in IMPORT_LAYERS.items():
        if module == prefix or module.startswith(prefix + "."):
            return metric
    return None


def import_times_ms() -> dict[str, float]:
    """Median import time per layer from ``-X importtime`` in fresh interpreters.

    Each module's self time goes to the first layer met walking from the
    module up the chain of modules that imported it, so a layer holds
    what it pulls in first: ``scipy.linalg`` reached through
    ``scipy.integrate`` counts there, and ``argparse`` reached through
    ``twinfringes.cli`` counts as twinfringes. Interpreter start-up
    modules belong to no layer.
    """
    samples: dict[str, list[float]] = {metric: [] for metric in IMPORT_LAYERS.values()}
    for _ in range(IMPORTTIME_REPEATS):
        _, proc = run_child(["-X", "importtime", "-c", "import twinfringes.cli"])
        if proc.returncode != 0:
            _fail_setup(f"import twinfringes.cli failed:\n{proc.stderr}")
        rows = []
        for line in proc.stderr.splitlines():
            fields = line.partition("import time:")[2].split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            name = fields[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(), float(fields[0])))
        totals = dict.fromkeys(IMPORT_LAYERS.values(), 0.0)
        ancestors: list[tuple[int, str | None]] = []  # (depth, layer), outermost first
        # A module's line follows those of the modules it imported, one
        # level deeper, so walking backwards meets each parent first.
        for depth, module, self_us in reversed(rows):
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            layer = _import_layer(module) or (ancestors[-1][1] if ancestors else None)
            if layer is not None:
                totals[layer] += self_us
            ancestors.append((depth, layer))
        for metric, us in totals.items():
            samples[metric].append(us / 1e3)
    return {metric: statistics.median(values) for metric, values in samples.items()}


# --- in-process closed loop -------------------------------------------------

class Tally:
    """Attempted and failed requests; prints the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, req, returncode, after_request) -> None:
        import checks

        self.attempted += 1
        reason = None
        if returncode != 0:
            reason = f"exit code {returncode}"
        else:
            try:
                if after_request is not None:
                    after_request(req)
                reason = checks.check(req)
            except Exception as exc:  # a malformed output is a failed check
                reason = f"check raised {exc!r}"
        if reason is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"perfbench: {req.kind} {' '.join(req.argv)}: {reason}", file=sys.stderr)


def _call(cli_main, argv) -> int | None:
    try:
        return cli_main(argv)
    except Exception:  # an escaped exception is a failed request
        traceback.print_exc()
        return None


def run_loop(workload, seed, seconds, workdir, tally, recorder=None, n_blocks=None,
             after_request=None, between_requests=None, between_blocks=None):
    """Run whole blocks until ``seconds`` of request time (or ``n_blocks``) is reached.

    Returns the (kind, latency in seconds) of every request and the
    number of blocks run. Only the ``cli.main`` call is timed;
    generating inputs, checking outputs, deleting them,
    ``between_requests`` and ``between_blocks`` happen between requests.
    """
    from twinfringes import cli

    latencies: list[tuple[str, float]] = []
    busy = 0.0
    block = 0
    while (busy < seconds) if n_blocks is None else (block < n_blocks):
        requests = workloads.make_block(workload, seed, block, workdir)
        for req in requests:
            if recorder is not None:
                recorder.request = len(latencies)
                recorder.enabled = True
            t0 = perf_counter()
            rc = _call(cli.main, req.argv)
            dt = perf_counter() - t0
            if recorder is not None:
                recorder.enabled = False
            busy += dt
            latencies.append((req.kind, dt))
            tally.record(req, rc, after_request)
            if between_requests is not None:
                between_requests(busy)
        shutil.rmtree(requests[0].out.parent)
        block += 1
        if between_blocks is not None:
            between_blocks(busy)
    return latencies, block


def warm_up(workload, seed, workdir) -> None:
    """One request outside the measurement: first-call costs land here."""
    from twinfringes import cli

    req = workloads.make_block(workload, seed, -1, workdir)[0]
    _call(cli.main, req.argv)
    shutil.rmtree(req.out.parent)


# --- metrics ---------------------------------------------------------------

def end_to_end(workload, seed, seconds, workdir, tally) -> dict[str, float]:
    """End-to-end metrics, scaled to the reference machine speed (see calibrate.py)."""
    import calibrate

    env = _child_env()
    import_probe_s()  # fills the bytecode and page caches; not counted
    calibrate.ref_import_s(ROOT, env, CHILD_TIMEOUT_S)
    # A probe round is a reference import, the set-up probe and the cold
    # command. Both probes start a fresh interpreter that imports
    # twinfringes.cli, so each gives a start-up sample, taken over the
    # reference import of its round; the cold command also gives the
    # time of its cli.main call, scaled by the in-process kernel at the end.
    starts: list[float] = []
    mains: list[float] = []
    raw_starts: list[float] = []
    raw_cold: list[float] = []
    refs: list[float] = []

    # The fresh-process probes run one round at a time between blocks,
    # spread over the loop's request time, so they sample the machine
    # over the whole run rather than one stretch of it.
    def probe(busy=math.inf):
        while len(refs) < PROBE_ROUNDS and busy >= len(refs) * seconds / PROBE_ROUNDS:
            refs.append(calibrate.ref_import_s(ROOT, env, CHILD_TIMEOUT_S))
            import_s = import_probe_s()
            total, main_s = cold_cli_probe_s(workload, workdir, tally)
            raw_starts.extend([import_s, total - main_s])
            starts.extend([import_s / refs[-1], (total - main_s) / refs[-1]])
            mains.append(main_s)
            raw_cold.append(total)

    speed = calibrate.Speed(workload, workdir)
    warm_up(workload, seed, workdir)
    timed, _ = run_loop(workload, seed, seconds, workdir, tally,
                        between_requests=speed.keep_up, between_blocks=probe)
    probe()
    latencies = [dt for _, dt in timed]
    n = len(latencies)
    scale = speed.scale()
    setup_s = statistics.median(starts) * calibrate.IMPORT_REF_S
    values = {
        "setup_s": setup_s,
        "cold_cli_ms": (setup_s + statistics.median(mains) * scale) * 1e3,
        "throughput_rps": n / (sum(latencies) * scale),
        "latency_p50_ms": statistics.median(latencies) * scale * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"workload {workload}: {n} requests in the timed loop; "
          f"in-process scale {scale:.4f} from {speed.calls} kernel calls, "
          f"reference import median {statistics.median(refs):.4f} s")
    shown = dict(values)
    if n >= P90_MIN_REQUESTS:
        shown["latency_p90_ms"] = statistics.quantiles(latencies, n=10)[-1] * scale * 1e3
    shown["failed_frac"] = tally.failed / tally.attempted
    units = dict(END_TO_END_UNITS, latency_p90_ms="ms", failed_frac="1")
    raw = {
        "setup_s": statistics.median(raw_starts),
        "cold_cli_ms": statistics.median(raw_cold) * 1e3,
        "throughput_rps": n / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
    }
    print(f"  {'metric':<16} {'scaled':>14} {'raw':>14}")
    for name, value in shown.items():
        raw_value = f"{raw[name]:>14.6g}" if name in raw else f"{'':>14}"
        print(f"  {name:<16} {value:>14.6g} {raw_value} {units[name]}")
    for kind in sorted({k for k, _ in timed}):
        p50_ms = statistics.median(dt for k, dt in timed if k == kind) * scale * 1e3
        n_kind = sum(1 for k, _ in timed if k == kind)
        print(f"  {kind:<24} n={n_kind:<5} p50 {p50_ms:10.4g} ms")
    return values


# Per-layer metrics: (metric name, recorder field, function label, unit).
# Calls, bytes and self times are per request of the traced pass.
LAYER_METRICS = [
    ("special.integrate_radial.calls", "calls", "special.integrate_radial", "count/req"),
    ("special.integrate_radial.self_ms", "self", "special.integrate_radial", "ms/req"),
    ("special.integrate_radial.failed", "failed", "special.integrate_radial", "count"),
    ("special.faddeeva.calls", "calls", "special.faddeeva", "count/req"),
    ("analytics.counting_rate_partial_quadrature.calls", "calls",
     "analytics.counting_rate_partial_quadrature", "count/req"),
    ("analytics.counting_rate_partial_quadrature.self_ms", "self",
     "analytics.counting_rate_partial_quadrature", "ms/req"),
    ("analytics.render_pattern.self_ms", "self", "analytics.render_pattern", "ms/req"),
    ("analytics.radial_profile.self_ms", "self", "analytics.radial_profile", "ms/req"),
    ("analytics.visibility_closed_form.calls", "calls", "analytics.visibility_closed_form",
     "count/req"),
    ("analytics.visibility_closed_form.self_ms", "self", "analytics.visibility_closed_form",
     "ms/req"),
    ("analytics.visibility_hwhm.calls", "calls", "analytics.visibility_hwhm", "count/req"),
    ("analytics.visibility_hwhm.self_ms", "self", "analytics.visibility_hwhm", "ms/req"),
    ("analytics.central_visibility.calls", "calls", "analytics.central_visibility", "count/req"),
    ("fileio.write_pgm.self_ms", "self", "fileio.write_pgm", "ms/req"),
    ("fileio.write_pgm.bytes", "bytes", "fileio.write_pgm", "B/req"),
    ("fileio.write_profile_csv.self_ms", "self", "fileio.write_profile_csv", "ms/req"),
    ("fileio.write_profile_csv.bytes", "bytes", "fileio.write_profile_csv", "B/req"),
    ("fileio.parse_config.self_ms", "self", "fileio.parse_config", "ms/req"),
    ("fileio.write_manifest.self_ms", "self", "fileio.write_manifest", "ms/req"),
    ("oracle.counting_rate_reduced.calls", "calls", "oracle.counting_rate_reduced", "count/req"),
    ("oracle.counting_rate_reduced.self_ms", "self", "oracle.counting_rate_reduced", "ms/req"),
    ("oracle.sweep_visibility.calls", "calls", "oracle.sweep_visibility", "count/req"),
    ("oracle.visibility_scan.self_ms", "self", "oracle.visibility_scan", "ms/req"),
    ("state.assemble_state.self_ms", "self", "state.assemble_state", "ms/req"),
    ("state.build_amplitudes.self_ms", "self", "state.build_amplitudes", "ms/req"),
    ("state.amplitude_entries", "entries", None, "count/req"),
    ("config.derive_constants.calls", "calls", "config.derive_constants", "count/req"),
    ("config.validate_config.calls", "calls", "config.validate_config", "count/req"),
    ("inverse.estimate_sigma_theta.self_ms", "self", "inverse.estimate_sigma_theta", "ms/req"),
    ("inverse.estimate_sigma_theta_bisect.self_ms", "self", "inverse.estimate_sigma_theta_bisect",
     "ms/req"),
    ("inverse.estimate_equivalent_wavelength.self_ms", "self",
     "inverse.estimate_equivalent_wavelength", "ms/req"),
    ("cli.main.self_ms", "self", "cli.main", "ms/req"),
]
IMPORT_UNITS = {metric: "ms" for metric in IMPORT_LAYERS.values()}
TRACE_UNITS = {"trace.overhead_frac": "1", "trace.covered_frac": "1"}
PER_LAYER_UNITS = {
    **IMPORT_UNITS,
    **{name: unit for name, _, _, unit in LAYER_METRICS},
    **TRACE_UNITS,
}


def per_layer(workload, seed, seconds, workdir, tally) -> dict[str, float]:
    import tracing

    values = import_times_ms()
    warm_up(workload, seed, workdir)
    plain, n_blocks = run_loop(workload, seed, seconds / 2, workdir, tally)
    plain = [dt for _, dt in plain]
    recorder = tracing.Recorder()
    recorder.install()
    try:
        traced, _ = run_loop(workload, seed, None, workdir, tally, recorder, n_blocks)
    finally:
        recorder.uninstall()
    traced = [dt for _, dt in traced]
    n = len(traced)
    wall = sum(traced)
    for name, field, label, _ in LAYER_METRICS:
        if field == "calls":
            values[name] = recorder.calls[label] / n
        elif field == "self":
            values[name] = recorder.self_s[label] * 1e3 / n
        elif field == "failed":
            values[name] = float(recorder.failed[label])
        elif field == "bytes":
            values[name] = recorder.bytes[label] / n
        else:
            values[name] = recorder.amplitude_entries / n
    values["trace.overhead_frac"] = wall / sum(plain) - 1.0
    below_cli = sum(t for label, t in recorder.self_s.items() if label != "cli.main")
    values["trace.covered_frac"] = below_cli / wall
    out = WORK / f"trace-{workload}-seed{seed}.jsonl"
    recorder.write(out)
    print(f"workload {workload}: {n} traced requests; spans written to {out}")
    for name, value in values.items():
        print(f"  {name:<52} {value:>14.6g} {PER_LAYER_UNITS[name]}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twinfringes" / "cli.py").is_file():
        _fail_setup(f"no twinfringes sources under {SRC}; run from the repository root")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        if args.trace:
            values = per_layer(args.workload, args.seed, args.seconds, workdir, tally)
            units = PER_LAYER_UNITS
        else:
            values = end_to_end(args.workload, args.seed, args.seconds, workdir, tally)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
