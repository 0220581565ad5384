"""Self-check of the benchmark: metric names, and that bad outputs are caught.

Run from the root of a source checkout:

    python3 perfbench/selfcheck.py

For each workload it makes two short runs (``--trace 0`` and
``--trace 1``) and checks that the last line of output names exactly the
metrics BENCHMARK.json lists, with their units. It then runs one block
of each workload in this process, corrupts the first request's output
by a small amount before it is checked, and requires exactly that one
request to be counted as failed. Exits 1 if anything is off.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SHORT_SECONDS = "0.5"


def _corrupt(req) -> None:
    """Nudge one number of the request's output past its check's tolerance."""
    if req.kind.startswith("oracle_"):
        path = req.out.with_suffix(".json")
        report = json.loads(path.read_text(encoding="ascii"))
        report["passed"] = False
        path.write_text(json.dumps(report), encoding="ascii")
    elif req.kind in ("invert", "eqwl"):
        path = req.out.with_suffix(".txt")
        lines = path.read_text(encoding="ascii").splitlines()
        for i, line in enumerate(lines):
            key, _, value = line.partition(" = ")
            if key == "lambda_eq_nm":
                lines[i] = f"{key} = {float(value) + 1e-3:.6f}"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
    else:  # render profile and visibility tables: second column of the first row
        path = req.out.with_suffix(".csv")
        lines = path.read_text(encoding="ascii").splitlines()
        cells = lines[1].split(",")
        cells[1] = f"{float(cells[1]) + 1e-6:.11e}"
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="ascii")


def check_metric_names(spec: dict, workload: str) -> list[str]:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
             "--seconds", SHORT_SECONDS, "--trace", str(trace)],
            capture_output=True, text=True, timeout=180,
        )
        if proc.returncode != 0:
            problems.append(f"{workload} --trace {trace}: exit {proc.returncode}\n{proc.stderr}")
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{workload} --trace {trace}: result keys {sorted(result)}")
        expected = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            problems.append(
                f"{workload} --trace {trace}: metrics differ from BENCHMARK.json: "
                f"missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}, "
                f"units {[n for n in got if n in expected and got[n] != expected[n]]}"
            )
        if not result["correct"] or result["failed"]:
            problems.append(f"{workload} --trace {trace}: {result['failed']} failed requests")
    return problems


def check_corruption_counted(workload: str) -> list[str]:
    tally = run.Tally()
    first = []

    def corrupt_first(req):
        if not first:
            first.append(req)
            _corrupt(req)

    workdir = run.WORK / f"selfcheck-{workload}"
    try:
        run.run_loop(workload, 0, None, workdir, tally, n_blocks=1, after_request=corrupt_first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tally.failed != 1:
        return [f"{workload}: corrupted {first[0].kind} output gave {tally.failed} failures, "
                f"expected 1 of {tally.attempted}"]
    print(f"{workload}: corrupted {first[0].kind} output counted, "
          f"failed_frac {tally.failed / tally.attempted:.4g}")
    return []


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(run.SRC))
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        found = check_metric_names(spec, workload)
        if not found:
            print(f"{workload}: every end-to-end and per-layer metric emitted")
        problems += found + check_corruption_counted(workload)
    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
