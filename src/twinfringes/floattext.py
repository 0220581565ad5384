"""Text of float arrays in Python's ``.11e`` format, by array operations.

``format_e11_rows`` builds the rows that ``fileio.write_profile_csv``
writes. Positive finite fields and +0.0 (the whole visibility column of
an uncorrelated profile) take array operations; Python's ``format``
writes only the rest: -0.0 and other negatives, non-finite values,
values outside the exact scale range and mantissas near a rounding tie.
It is kept apart from ``fileio`` so that only a process that writes a
profile imports, and compiles, it.
"""

from __future__ import annotations

import functools

import numpy as np

# Decimal exponents e of positive doubles, after the decade correction,
# lie in [-325, 309]; the tables are indexed by e + _E_OFFSET.
_E_OFFSET = 330


@functools.cache
def _e11_tables():
    """Tables of ``format_e11_rows``, built on its first call.

    By index e + _E_OFFSET: the multiplier and divisor that scale x in
    decade e to the 12-digit mantissa x 10^(11 - e) (one of them 1, the
    other an exact power 10^k, k <= 22; both 1 where no exact power
    exists), whether that scale is exact, and the exponent text "e+XX"
    (used for |e| < 100 only). By four-digit group 0000..9999: its ASCII
    digits, and "d.ddd" for the leading group. The record type of one
    output field. Array arithmetic builds them in well under a
    millisecond, which a cold ``simulate`` pays once.
    """
    e = np.arange(-_E_OFFSET, _E_OFFSET + 1)
    k = 11 - e
    exact = np.abs(k) <= 22
    power = np.array([float(10**p) for p in range(23)])[np.minimum(np.abs(k), 22)]
    multiplier = np.where(exact & (k >= 0), power, 1.0)
    divisor = np.where(exact & (k < 0), power, 1.0)

    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    digits[..., 0] = ascii_digits[:, None, None, None]
    digits[..., 1] = ascii_digits[:, None, None]
    digits[..., 2] = ascii_digits[:, None]
    digits[..., 3] = ascii_digits
    digits = digits.reshape(10**4, 4)
    groups = digits.view("S4").ravel()
    heads = np.zeros((10**4, 8), dtype=np.uint8)
    heads[:, 0] = digits[:, 0]
    heads[:, 1] = ord(".")
    heads[:, 2:5] = digits[:, 1:]
    tails = np.empty((e.size, 4), dtype=np.uint8)
    tails[:, 0] = ord("e")
    tails[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    tails[:, 2:] = digits[np.abs(e) % 100, 2:]
    # One field of the output: "d.ddd" "dddd" "dddd" "e+XX" and its
    # separator. "head" is 8 bytes wide, since 8-byte items copy several
    # times faster than 5-byte ones; "mid", written after it, overwrites
    # its padding.
    record = np.dtype({
        "names": ["head", "mid", "lo", "tail", "sep"],
        "formats": ["S8", "S4", "S4", "S4", "S1"],
        "offsets": [0, 5, 9, 13, 17],
        "itemsize": 18,
    })
    tails, heads = tails.view("S4").ravel(), heads.view("S8").ravel()
    return multiplier, divisor, exact, tails, groups, heads, record


def format_e11_rows(columns: np.ndarray) -> bytes:
    """CSV text of a 2D float array: ``",".join(format(x, ".11e"))`` per row, "\\n" after each.

    A field x > 0 is formatted by array operations: e = floor(log10 x),
    corrected where the scaled value falls outside its decade, and the
    mantissa m = x 10^(11 - e) formed with one rounding, by an exact
    power of ten (|11 - e| <= 22). m lies in [1e11, 1e12], where half an
    ulp is at most 2^-14, so rounding m to an integer gives the
    correctly rounded 12 digits unless m lies within 2^-12 of a
    rounding tie; 10^12 carries into the exponent. The digits come from
    tables of four-digit groups. A field +0.0 is written as the
    constant "0.00000000000e+00" by one masked assignment. A field goes
    to ``format(x, ".11e")`` instead when it is -0.0, negative or not
    finite, when its scale is not exact (x below 1e-11 or from 1e34 on,
    which covers every three-digit exponent) or when m is near a tie. A
    fallback text 17 bytes long is written into its field; a row with
    one of another length (such as "-0.00000000000e+00") is formatted
    whole in Python.
    """
    multiplier, divisor, exact, tails, groups, heads, record = _e11_tables()
    n_rows, n_cols = np.shape(columns)
    x = np.ravel(columns).astype(float, copy=False)
    fast = (x > 0.0) & (x < np.inf)
    safe = np.where(fast, x, 1.0)
    index = np.floor(np.log10(safe)).astype(np.intp) + _E_OFFSET
    mantissa = safe * multiplier[index] / divisor[index]
    # log10 x can round across a decade boundary; move those fields once
    off = np.flatnonzero((mantissa >= 1e12) | (mantissa < 1e11))
    index[off] += np.where(mantissa[off] >= 1e12, 1, -1)
    mantissa[off] = safe[off] * multiplier[index[off]] / divisor[index[off]]
    number = np.rint(mantissa)
    fast &= exact[index] & (np.abs(mantissa - number) < 0.5 - 2.0**-12)
    carry = np.flatnonzero(number == 1e12)
    number[carry] = 1e11
    index[carry] += 1
    # a net: every field left in the fast path has exactly 12 digits
    fast &= (number >= 1e11) & (number < 1e12)

    number = np.where(fast, number, 1e11)
    hi = np.floor(number / 1e8)
    rest = number - hi * 1e8
    mid = np.floor(rest / 1e4)
    lo = rest - mid * 1e4
    fields = np.empty(x.size, dtype=record)
    fields["head"] = heads[hi.astype(np.intp)]
    fields["mid"] = groups[mid.astype(np.intp)]
    fields["lo"] = groups[lo.astype(np.intp)]
    fields["tail"] = tails[index]
    seps = fields["sep"].reshape(n_rows, n_cols)
    seps[:] = b","
    seps[:, -1] = b"\n"

    raw = fields.view(np.uint8).reshape(x.size, record.itemsize)
    zero = (x == 0.0) & ~np.signbit(x)
    raw[zero, :17] = np.frombuffer(b"0.00000000000e+00", dtype=np.uint8)
    odd_rows = set()
    for i in np.flatnonzero(~(fast | zero)).tolist():
        text = format(float(x[i]), ".11e").encode("ascii")
        if len(text) == 17:
            raw[i, :17] = np.frombuffer(text, dtype=np.uint8)
        else:
            odd_rows.add(i // n_cols)
    rows = raw.reshape(n_rows, -1)
    pieces, start = [], 0
    for row in sorted(odd_rows):
        text = ",".join(format(v, ".11e") for v in x[row * n_cols : (row + 1) * n_cols].tolist())
        pieces += [rows[start:row].tobytes(), text.encode("ascii") + b"\n"]
        start = row + 1
    pieces.append(rows[start:].tobytes())
    return b"".join(pieces)
