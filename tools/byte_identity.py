"""Check that two source trees write the same CLI outputs, byte for byte.

Usage: python3 tools/byte_identity.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold the ``twinfringes``
package (the ``src`` directory of two checkouts). One fixed command list
runs against each: 27 configs (3 models x d_a 5/11.7/20 mm x sigma_theta
5e-4/9.37e-4/2e-3), each through simulate at 256 px with phi0 0.4, at
600 px, at an odd resolution and at 1021 px (odd, at the top of the
render workload's range, with 511 quadrant rows that the 8 render
strips do not divide evenly), visibility with a rho list and with two
sigma lists (one holding 0, a repeated width and an unsorted order),
invert at v0 0.9, 0.1 and 0.98, eqwavelength and oracle at 128, 512
and 1024 modes (a partial check that misses its gate at 128 modes
exits 2 and still writes its report). The d_a 11.7 mm, sigma_theta
9.37e-4 config of each model also runs simulate at 256 px on a 100 mm
screen, whose profile reaches rates below 1e-11 and with three-digit
exponents, the fields the CSV writer leaves to Python's format, and
simulate at 2049 px on a 3 mm screen, a frame past 1024 px whose
partial quadrant is split into more than 8 render strips and whose PGM
is quantised and written in several row blocks. Three
more configs, one per model with n_a 1.7, d_a 50 mm and sigma_theta
9.37e-4, run the oracle at 128, 512, 1024 and 4096 modes, simulate at
256 px with phi0 0.4, visibility with the rho list and the first sigma
list, and invert at v0 0.9: their on-axis a-path phase, near 3.4e5 rad,
is the longest here, and n_a scales every fringe phase. Six more,
the d_a 11.7 mm, sigma_theta 9.37e-4 config of each model with
phi1_rad 0.5 and with alpha1_mag 0.8, alpha2_mag 0.6, run the oracle at
512 modes, simulate at 256 px with phi0 0.4, visibility with the rho
list and invert at v0 0.9: a source phase shifts the scan phase and
unequal amplitudes scale the fringe term in every route. Three more,
the same config of each model with a single emitting source
(alpha1_mag 1, alpha2_mag 0), run the oracle at 512 modes, simulate at
256 px with phi0 0.4 and visibility with the rho list and both sigma
lists: the fringe term is 0 in every route, and so is every
visibility. Three more, the same config of each model on f0 53 mm and
sigma_b 0.006, run the oracle at 512 modes: the b envelope p_b depends
only on f0 and sigma_b, so these are the only runs on a second
envelope, and a change in how the envelope is summed can show in them.
The reference partial config at three narrow widths, sigma_theta 1e-7,
1e-5 and 2e-4, runs the oracle at 128, 512 and 1024 modes: a grid whose
columns share one line wide enough for every radius resolves such a
shell poorly or not at all. Seven hostile runs on the reference partial
config should each exit 1 and write no data file: simulate at 10^11 px
and the oracle at 10^11 modes, which no machine can allocate; simulate
at 600 px and the oracle at 512 modes with d_a 1e30 mm, whose closed
form overflows to NaN; visibility at radii 0 and 1e300 mm, whose
fringe phase overflows; invert with a first-ring radius of 1e-200 mm,
whose rho_1^2 d_a underflows to 0; and eqwavelength on ring radii of
1e-170 mm, whose squares underflow to a zero slope. Last, the reference
partial config and the ring file are written in the other forms the
readers accept, with a byte-order mark and CRLF line ends, a bare
``key value`` line, spaces around ``=`` and inline comments in the
config, and a space after each comma of the rings, and run through
invert at v0 0.9 with a first-ring radius, eqwavelength and simulate
at 256 px. That makes 469 runs per tree. Every command is
``python -m twinfringes.cli`` in a fresh interpreter with PYTHONPATH
set to the tree. Exit codes and every output file are compared byte
for byte; in a manifest the tree's work directory is first replaced by
a placeholder and the values of ``started_at`` and ``duration_s`` are
masked, so its indent, key order
and final newline are compared too. For two differing PGMs of the same
size, the number of changed samples and the largest change in 16-bit
LSB are printed as well; for two differing JSON files, the keys whose
values differ and the keys on one side only, with the largest change of
a number (in lists too); for two differing CSV files of the same shape,
the number of changed fields and the largest relative change of a
number, |b - a| / max(|a|, |b|).
Prints each difference and exits 1 if there is any, else exits 0.
Standard library only.
"""

import array
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

MODELS = ("gaussian_partial", "maximal", "uncorrelated")
D_A_MM = (5.0, 11.7, 20.0)
SIGMA_THETA = (5e-4, 9.37e-4, 2e-3)
OPTICS = "lambda_a_nm = 1550\nlambda_b_nm = 810\nlambda_p_nm = 532\nf0_mm = 150\nsigma_b = 2.36e-2\n"

# First bright-ring radii at several separations from the ring law
# rho_1 = sqrt(2 lambda_eq f0^2 / d_a), lambda_eq = 423 nm, f0 = 150 mm,
# with a fixed 1% perturbation pattern.
RING_ROWS = "".join(
    f"{d!r},{math.sqrt(2 * 423e-9 * 0.15**2 / (d * 1e-3)) * 1e3 * (1 + e):.9f}\n"
    for d, e in [(5.0, 0.01), (8.0, -0.004), (11.7, 0.0), (15.0, 0.007), (20.0, -0.01)]
)
RINGS = "d_a_mm,rho1_mm\n" + RING_ROWS

COMMANDS = {
    "sim256": ["simulate", "--resolution", "256", "--phi0", "0.4"],
    "sim600": ["simulate", "--resolution", "600"],
    "sim301": ["simulate", "--resolution", "301", "--screen-mm", "2.5", "--phi0", "2.1"],
    "sim1021": ["simulate", "--resolution", "1021", "--screen-mm", "3.7", "--phi0", "5.3"],
    "vsigma": ["visibility", "--sigma-list", "3e-4,5e-4,9.37e-4,2e-3,5e-3"],
    "vsigma_mixed": ["visibility", "--sigma-list", "2e-3,0,5e-4,2e-3,1e-5"],
    "vrho": ["visibility", "--rho-mm-list", "0,0.25,0.5,0.777,1,1.5,3"],
    "invert": ["invert", "--v0", "0.9", "--rho1-mm", "1.3"],
    "invert0p1": ["invert", "--v0", "0.1"],
    "invert0p98": ["invert", "--v0", "0.98"],
    "eqwl": ["eqwavelength", "--data", "RINGS"],
    "oracle": ["oracle", "--grid-points", "512"],
    "oracle128": ["oracle", "--grid-points", "128"],
    "oracle1024": ["oracle", "--grid-points", "1024"],
}

# Run on one config per model only (see the module docstring).
WIDE_CONFIG = "_d11p7_s0p000937"
WIDE_COMMANDS = {
    "simwide": ["simulate", "--resolution", "256", "--screen-mm", "100"],
    "sim2049": ["simulate", "--resolution", "2049", "--screen-mm", "3"],
}

# Runs on a long, dense a path (see the module docstring).
LONG_PATH = "d_a_mm = 50.0\nn_a = 1.7\nsigma_theta = 0.000937\n"
LONG_COMMANDS = dict(
    {name: args for name, args in COMMANDS.items()
     if name.startswith("oracle") or name in ("sim256", "vrho", "vsigma", "invert")},
    oracle4096=["oracle", "--grid-points", "4096"],
)

# Runs with a source phase or unequal amplitudes (see the module docstring).
SOURCE_CONFIGS = {"phi1": "phi1_rad = 0.5\n", "unbalanced": "alpha1_mag = 0.8\nalpha2_mag = 0.6\n"}
SOURCE_COMMANDS = {name: COMMANDS[name] for name in ("oracle", "sim256", "vrho", "invert")}

# Runs with one dark source (see the module docstring).
SINGLE_CONFIG = "alpha1_mag = 1\nalpha2_mag = 0\n"
SINGLE_COMMANDS = {
    name: COMMANDS[name] for name in ("oracle", "sim256", "vrho", "vsigma", "vsigma_mixed")
}

# Runs on a second b envelope (see the module docstring).
ENVELOPE_OPTICS = OPTICS.replace("f0_mm = 150", "f0_mm = 53").replace("2.36e-2", "0.006")
ENVELOPE_COMMANDS = {"oracle": COMMANDS["oracle"]}

# The reference partial config at narrow widths, and hostile runs on it
# (see the module docstring).
REFERENCE = OPTICS + "d_a_mm = 11.7\nsigma_theta = 0.000937\nmodel = gaussian_partial\n"
NARROW = {
    f"gaussian_partial_d11p7_s{sigma}": (
        REFERENCE.replace("0.000937", sigma),
        {name: args for name, args in COMMANDS.items() if name.startswith("oracle")},
    )
    for sigma in ("1e-7", "1e-5", "2e-4")
}
TINY_RINGS = "d_a_mm,rho1_mm\n5,1e-170\n8,1e-170\n11.7,1e-170\n"
HOSTILE = {
    "hostile_far": (
        REFERENCE.replace("d_a_mm = 11.7", "d_a_mm = 1e30"),
        {name: COMMANDS[name] for name in ("sim600", "oracle")},
    ),
    "hostile_huge": (REFERENCE, {
        "sim": ["simulate", "--resolution", "100000000000"],
        "oracle": ["oracle", "--grid-points", "100000000000"],
        "vrho": ["visibility", "--rho-mm-list", "0,1e300"],
        "invert": ["invert", "--v0", "0.5", "--rho1-mm", "1e-200"],
        "eqwl": ["eqwavelength", "--data", "TINY_RINGS"],
    }),
}

# The reference config and the rings in the other input forms (see the
# module docstring).
FORMS_CONFIG = "\ufeff" + "".join(f"{line}\r\n" for line in (
    "# reference partial config, saved with a BOM and CRLF line ends",
    "lambda_a_nm = 1550  # undetected photon",
    "lambda_b_nm 810",
    "lambda_p_nm   =   532",
    "d_a_mm=11.7",
    "f0_mm = 150 # lens",
    "sigma_b = 2.36e-2",
    "sigma_theta = 0.000937",
    "model = gaussian_partial",
))
FORMS_RINGS = "\ufeffd_a_mm,rho1_mm\r\n" + RING_ROWS.replace(",", ", ").replace("\n", "\r\n")
FORMS = {"input_forms": (FORMS_CONFIG, {
    "invert": COMMANDS["invert"],
    "eqwl": ["eqwavelength", "--data", "FORMS_RINGS"],
    "sim256": ["simulate", "--resolution", "256"],
})}

# The manifest values that change from run to run.
VOLATILE = re.compile(rb'"(started_at|duration_s)": ("[^"]*"|[^,\n]*)')


def _configs() -> dict[str, tuple[str, dict]]:
    """Config text and the commands it runs, by config name."""
    out = {}
    for model, d_a, sigma in itertools.product(MODELS, D_A_MM, SIGMA_THETA):
        # No dots in run names: older trees cut an --out base at its last
        # dot (Path.with_suffix), and the comparison must run against them.
        name = f"{model}_d{d_a:g}_s{sigma:g}".replace(".", "p")
        text = OPTICS + f"d_a_mm = {d_a!r}\nsigma_theta = {sigma!r}\nmodel = {model}\n"
        wide = name.endswith(WIDE_CONFIG)
        out[name] = text, dict(COMMANDS, **WIDE_COMMANDS) if wide else COMMANDS
    for model in MODELS:
        out[f"{model}_n1p7_d50"] = OPTICS + LONG_PATH + f"model = {model}\n", LONG_COMMANDS
        reference = OPTICS + f"d_a_mm = 11.7\nsigma_theta = 0.000937\nmodel = {model}\n"
        for name, extra in SOURCE_CONFIGS.items():
            out[f"{model}_{name}"] = reference + extra, SOURCE_COMMANDS
        out[f"{model}_single"] = reference + SINGLE_CONFIG, SINGLE_COMMANDS
        out[f"{model}_f53_sb0p006"] = (
            reference.replace(OPTICS, ENVELOPE_OPTICS), ENVELOPE_COMMANDS
        )
    out.update(NARROW)
    out.update(HOSTILE)
    out.update(FORMS)
    return out


def run_tree(src: Path, work: Path) -> dict[str, int]:
    """Run every command against one tree; return exit codes by run name."""
    work.mkdir(parents=True)
    rings = {"RINGS": RINGS, "TINY_RINGS": TINY_RINGS, "FORMS_RINGS": FORMS_RINGS}
    data = {name: work / f"{name.lower()}.csv" for name in rings}
    for name, text in rings.items():
        # bytes as written: no newline translation, the BOM as UTF-8
        data[name].write_bytes(text.encode("utf-8"))
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    codes = {}
    for cfg_name, (text, commands) in _configs().items():
        cfg = work / f"{cfg_name}.cfg"
        cfg.write_bytes(text.encode("utf-8"))
        for cmd_name, args in commands.items():
            run = f"{cfg_name}_{cmd_name}"
            argv = [str(data[a]) if a in data else a for a in args]
            argv[1:1] = ["--config", str(cfg), "--out", str(work / run)]
            proc = subprocess.run(
                [sys.executable, "-m", "twinfringes.cli", *argv],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            codes[run] = proc.returncode
    return codes


def _manifest_view(blob: bytes, work: Path) -> bytes:
    """Manifest bytes with the work directory and the volatile values masked."""
    blob = blob.replace(str(work).encode(), b"WORK")
    return VOLATILE.sub(rb'"\1": 0', blob)


def _pgm_change(blob_a: bytes, blob_b: bytes) -> str:
    """'; N samples changed, largest by K LSB' for two PGMs of one size, else ''.

    A twinfringes PGM has four header lines (magic, rate comment, size,
    maxval) and then big-endian 16-bit samples.
    """
    parts_a, parts_b = blob_a.split(b"\n", 4), blob_b.split(b"\n", 4)
    if len(parts_a) != 5 or len(parts_b) != 5 or parts_a[2] != parts_b[2]:
        return ""
    if len(parts_a[4]) != len(parts_b[4]) or len(parts_a[4]) % 2:
        return ""
    samples_a, samples_b = array.array("H", parts_a[4]), array.array("H", parts_b[4])
    if sys.byteorder == "little":
        samples_a.byteswap()
        samples_b.byteswap()
    changes = [abs(a - b) for a, b in zip(samples_a, samples_b) if a != b]
    return f"; {len(changes)} samples changed, largest by {max(changes, default=0)} LSB"


def _numbers(value) -> list[float]:
    """The numbers of a JSON value: itself, or the items of a list of them."""
    items = value if isinstance(value, list) else [value]
    return [float(x) for x in items if isinstance(x, (int, float)) and not isinstance(x, bool)]


def _json_change(blob_a: bytes, blob_b: bytes) -> str:
    """'; keys changed: ...' for two JSON objects, else ''.

    Names the top-level keys whose values differ and those on one side
    only, and the largest absolute change of a number among the changed
    keys, where both sides hold the same count of numbers.
    """
    try:
        a, b = json.loads(blob_a), json.loads(blob_b)
    except ValueError:
        return ""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return ""
    changed = [key for key in a if key in b and a[key] != b[key]]
    parts = [f"keys changed: {', '.join(changed) or 'none'}"]
    for side, keys in (("parent", a.keys() - b.keys()), ("change", b.keys() - a.keys())):
        if keys:
            parts.append(f"keys only in {side}: {', '.join(sorted(keys))}")
    deltas = [
        abs(x - y) for key in changed
        if len(_numbers(a[key])) == len(_numbers(b[key]))
        for x, y in zip(_numbers(a[key]), _numbers(b[key]))
    ]
    if deltas:
        parts.append(f"largest numeric change {max(deltas):.3g}")
    return "; " + "; ".join(parts)


def _csv_change(blob_a: bytes, blob_b: bytes) -> str:
    """'; N fields changed, largest relative change R' for two CSVs of one shape, else ''."""
    rows_a = [line.split(b",") for line in blob_a.splitlines()]
    rows_b = [line.split(b",") for line in blob_b.splitlines()]
    if [len(row) for row in rows_a] != [len(row) for row in rows_b]:
        return ""
    pairs = [(x, y) for ra, rb in zip(rows_a, rows_b) for x, y in zip(ra, rb) if x != y]
    worst = 0.0
    for x, y in pairs:
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            continue
        if fx != fy:
            worst = max(worst, abs(fy - fx) / max(abs(fx), abs(fy)))
    return f"; {len(pairs)} fields changed, largest relative change {worst:.3g}"


_DETAIL = {".pgm": _pgm_change, ".json": _json_change, ".csv": _csv_change}


def compare(parent: Path, change: Path, codes: tuple[dict, dict]) -> list[str]:
    diffs = [
        f"{run}: exit code {codes[0][run]} -> {codes[1][run]}"
        for run in codes[0] if codes[0][run] != codes[1][run]
    ]
    names = sorted({p.name for p in parent.iterdir()} | {p.name for p in change.iterdir()})
    for name in names:
        a, b = parent / name, change / name
        if not (a.exists() and b.exists()):
            diffs.append(f"{name}: only in {'parent' if a.exists() else 'change'}")
            continue
        blob_a, blob_b = a.read_bytes(), b.read_bytes()
        if name.endswith(".manifest.json"):
            if _manifest_view(blob_a, parent) != _manifest_view(blob_b, change):
                diffs.append(f"{name}: manifest differs")
        elif blob_a != blob_b:
            detail = _DETAIL.get(Path(name).suffix, lambda *_: "")(blob_a, blob_b)
            diffs.append(f"{name}: bytes differ ({len(blob_a)} vs {len(blob_b)} bytes{detail})")
    return diffs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="byte_identity_") as tmp:
        parent, change = Path(tmp, "parent"), Path(tmp, "change")
        codes = (run_tree(Path(argv[0]), parent), run_tree(Path(argv[1]), change))
        diffs = compare(parent, change, codes)
        n_files = len(list(parent.iterdir()))
    for line in diffs:
        print(line)
    print(f"{len(codes[0])} runs, {n_files} files per tree, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
