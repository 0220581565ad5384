"""Config-file parsing and serialization of images, profiles, manifests.

The config surface is a flat key-value text file; images go out as
16-bit binary PGM and profiles as plain CSV, both with deterministic
bytes for identical inputs. The run manifest is a plain dict written
as sorted JSON; it carries the only timestamp. Every number read from
outside text, a config value, a CSV field or a command-line flag, goes
through ``parse_number``, and every CSV input through ``read_rows``.
Only the image and profile readers and writers import numpy, on first
call; the config and manifest half does not.
"""

from __future__ import annotations

import codecs
import json
import math
import os
import re
from pathlib import Path
from typing import TYPE_CHECKING

from .config import CorrelationModel, ExperimentConfig, validate_config

if TYPE_CHECKING:
    import numpy as np

    from .analytics import FringeImage, RadialProfile

PGM_MAXVAL = 65535

# write_pgm writes the frame in 16-bit row blocks of about this many
# samples, and quantises the quadrant in float row blocks of a quarter
# as many: each block takes about 256 KiB.
_FRAME_BLOCK_SAMPLES = 1 << 17

PROFILE_HEADER = "rho_m,rate_norm,visibility"

# Config file keys: name -> (config field, scale to SI units).
_SCALAR_KEYS = {
    "lambda_a_nm": ("lambda_a", 1e-9),
    "lambda_b_nm": ("lambda_b", 1e-9),
    "lambda_p_nm": ("lambda_p", 1e-9),
    "d_a_mm": ("d_a", 1e-3),
    "f0_mm": ("f0", 1e-3),
    "n_a": ("n_a", 1.0),
    "sigma_b": ("sigma_b", 1.0),
    "sigma_theta": ("sigma_theta", 1.0),
    "alpha1_mag": ("alpha1_mag", 1.0),
    "alpha2_mag": ("alpha2_mag", 1.0),
    "phi1_rad": ("phi1", 1.0),
    "phi2_rad": ("phi2", 1.0),
    "phi_b_rad": ("phi_b", 1.0),
}

_REQUIRED_KEYS = ("lambda_a_nm", "lambda_b_nm", "d_a_mm", "f0_mm", "sigma_b", "model")


class ParseError(ValueError):
    """Malformed config file; the message names the offending line."""


class UnknownKey(ParseError):
    """Config file contains a key outside the documented surface."""


def read_text(path) -> str:
    """The text of a UTF-8 file, with a leading byte-order mark dropped.

    Bytes that are not UTF-8 raise ParseError naming the path and the
    line that holds them.
    """
    blob = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; number lines as splitlines does
        lineno = len((blob[:exc.start] + b".").decode("utf-8").splitlines())
        raise ParseError(
            f"{path}:{lineno}: not UTF-8 text (byte 0x{blob[exc.start]:02x})"
        ) from None


def parse_number(text, kind=float):
    """``kind(text)``, refused with ValueError unless the text is ASCII.

    The one reading of a number from outside text: config values, CSV
    fields and numeric flags. ``float`` and ``int`` alone also read
    every Unicode decimal digit, so 1550 written in Arabic-Indic digits
    would read as 1550; apart from that refusal this is ``kind``.
    """
    if not text.isascii():
        raise ValueError(f"not an ASCII number: {text!r}")
    return kind(text)


def read_rows(path, header: str) -> list[list[float]]:
    """The rows of a CSV file under ``header``, one finite number per column.

    The file is read with ``read_text``; its first line, stripped, must
    be ``header``, and every later line a row, so row i is on line
    i + 2. Any other line, a blank one included, raises ParseError
    naming the path and the line.
    """
    lines = read_text(path).splitlines()
    if not lines or lines[0].strip() != header:
        raise ParseError(f"{path}: expected header {header!r}")
    width = header.count(",") + 1
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            row = [parse_number(tok) for tok in line.split(",")]
        except ValueError:
            row = []
        if len(row) != width or not all(map(math.isfinite, row)):
            count = ("one", "two", "three")[width - 1]
            raise ParseError(f"{path}:{lineno}: expected {count} finite numbers, got {line!r}")
        rows.append(row)
    return rows


def parse_config(path) -> ExperimentConfig:
    """Read and validate a flat key-value config file.

    Lines hold ``key = value`` (the ``=`` is optional); ``#`` starts a
    comment. Unknown and duplicate keys are hard errors, as is a missing
    required key. Each line is parsed, checked and converted in one
    pass, so the first faulty line is the one named; numbers are read
    with ``parse_number``. Values are range-checked through
    validate_config. The file is read with ``read_text``.
    """
    seen: dict[str, int] = {}
    fields: dict[str, object] = {}
    for lineno, raw_line in enumerate(read_text(path).splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=" if "=" in line else " ")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate key {key!r} (first set on line {seen[key]})")
        seen[key] = lineno
        if key == "model":
            try:
                fields["correlation_model"] = CorrelationModel(value)
            except ValueError:
                tokens = ", ".join(m.value for m in CorrelationModel)
                raise ParseError(
                    f"line {lineno}: model must be one of {{{tokens}}}, got {value!r}"
                ) from None
        elif key in _SCALAR_KEYS:
            name, scale = _SCALAR_KEYS[key]
            try:
                fields[name] = parse_number(value) * scale
            except ValueError:
                raise ParseError(f"line {lineno}: {key} must be a number, got {value!r}") from None
        else:
            raise UnknownKey(f"line {lineno}: unknown key {key!r}")

    missing = [k for k in _REQUIRED_KEYS if k not in seen]
    if missing:
        raise ParseError(f"missing required keys: {', '.join(missing)}")
    return validate_config(ExperimentConfig(**fields))


def write_pgm(image: FringeImage, path) -> None:
    """Write a 16-bit big-endian binary PGM (P5), frame maximum at full scale.

    The physical rate corresponding to the full-scale sample is recorded
    in a comment line so the image is invertible to absolute units.
    This is the one place that lays the stored lower-right quadrant out
    as the full frame. Only the quadrant is scaled and rounded, in row
    blocks, into a 16-bit quadrant. A ``FringeImage`` quadrant is
    nonnegative and peaks at its normalization, so every scaled sample
    lies in [0, 65535.5) and rounds into [0, 65535] without a clip. The
    frame then goes out in blocks of rows from one reused buffer: the
    top half is the 16-bit quadrant's rows in reverse order and the
    bottom half its rows in order; in each row the left half is the
    quadrant's columns in reverse order. Beyond the 16-bit quadrant no
    block larger than about 256 KiB is held.
    """
    import numpy as np

    scale = PGM_MAXVAL / image.normalization if image.normalization > 0.0 else 0.0
    quadrant = image.quadrant
    side = len(quadrant)
    samples = np.empty(quadrant.shape, dtype=">u2")
    rows = max(1, _FRAME_BLOCK_SAMPLES // (4 * side))
    scaled = np.empty((min(rows, side), side))
    for r0 in range(0, side, rows):
        block = scaled[:min(rows, side - r0)]
        np.multiply(quadrant[r0:r0 + rows], scale, out=block)
        np.rint(block, out=block)
        samples[r0:r0 + rows] = block
    size = image.resolution
    half = size // 2
    header = f"P5\n# rate_max {image.normalization:.12e}\n{size} {size}\n{PGM_MAXVAL}\n"
    frame = np.empty((min(max(1, _FRAME_BLOCK_SAMPLES // size), side), size), dtype=">u2")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        # the top half is the quadrant's rows in reverse order, the bottom half its rows
        for half_rows in (samples[::-1][:half], samples):
            for r0 in range(0, len(half_rows), len(frame)):
                block = half_rows[r0:r0 + len(frame)]
                out = frame[:len(block)]
                out[:, half:] = block
                out[:, :half] = block[:, ::-1][:, :half]
                fh.write(out)


def read_pgm(path) -> tuple[np.ndarray, float]:
    """Read back a PGM written by write_pgm: (uint16 samples, rate_max).

    The four header lines must be exactly as write_pgm writes them, with
    a size line of two positive integers W and H, and exactly 2 W H
    bytes must follow them; both are checked, through the file's size,
    before any array is allocated, and any other file raises ParseError
    naming the path. The samples are read straight into the returned
    array, so nothing else the size of the file is held.
    """
    import numpy as np

    with open(path, "rb") as fh:
        header = b"".join(fh.readline(64) for _ in range(4))
        match = re.fullmatch(rb"P5\n# rate_max (\d\.\d{12}e[+-]\d+)\n([1-9]\d*) ([1-9]\d*)\n%d\n"
                             % PGM_MAXVAL, header)
        if not match:
            raise ParseError(f"{path}: not a twinfringes PGM header")
        width, height = parse_number(match[2], int), parse_number(match[3], int)
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != 2 * width * height:
            raise ParseError(f"{path}: {payload} sample bytes, expected 2 x {width} x {height}")
        samples = np.fromfile(fh, dtype=">u2", count=width * height)
    return samples.reshape(height, width), parse_number(match[1])


def write_profile_csv(profile: RadialProfile, path) -> None:
    """Write (rho, normalized rate, visibility) rows at 12 significant digits.

    Each field is the text of Python's ``format(x, ".11e")``, byte for
    byte; ``floattext.format_e11_rows`` builds the rows without
    formatting each float in Python.
    """
    import numpy as np

    from .floattext import format_e11_rows

    peak = float(profile.rate.max())
    scale = 1.0 / peak if peak > 0.0 else 0.0
    columns = np.stack([profile.rho, profile.rate * scale, profile.visibility], axis=1)
    with open(path, "wb") as fh:
        fh.write(PROFILE_HEADER.encode("ascii") + b"\n")
        fh.write(format_e11_rows(columns))


def read_profile_csv(path) -> RadialProfile:
    """Read back a profile written by write_profile_csv.

    The rows are read with ``read_rows``. Each must hold three finite
    numbers, with rho increasing and the visibility in [0, 1], and
    there must be at least one row; any other file raises ParseError
    naming the path, and the line where it can.
    """
    from .analytics import RadialProfile

    rows = read_rows(path, PROFILE_HEADER)
    if not rows:
        raise ParseError(f"{path}: no profile rows after the header")
    for lineno, (prev, row) in enumerate(zip([None, *rows], rows), start=2):
        if prev is not None and row[0] <= prev[0]:
            raise ParseError(f"{path}:{lineno}: rho must increase, got {row[0]!r}")
        if not 0.0 <= row[2] <= 1.0:
            raise ParseError(f"{path}:{lineno}: visibility must lie in [0, 1], got {row[2]!r}")
    return RadialProfile(*zip(*rows))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """JSON-ready view of a config (SI units, enum collapsed to its token)."""
    return {**vars(cfg), "correlation_model": cfg.correlation_model.value}


def write_manifest(manifest: dict, path) -> None:
    """Write a run manifest as sorted, indented JSON.

    ``manifest`` is a plain dict with the keys ``command``, ``config``
    (a ``config_to_dict`` view), ``outputs`` (the data files the run
    wrote, as strings), ``version``, ``duration_s`` and ``started_at``.
    Every listed output must exist; otherwise ValueError is raised and
    nothing is written.
    """
    missing = [p for p in manifest["outputs"] if not Path(p).exists()]
    if missing:
        raise ValueError(f"manifest lists outputs that do not exist: {missing}")
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
