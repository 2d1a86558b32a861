"""float.__repr__ of every entry of a float64 array, with numpy.

embed writes hundreds of thousands of floats a call, most of them
coordinates of unit vectors; float.__repr__ one by one costs more than the
mathematics.  float_reprs gives the same text for a whole array, with a few
dozen numpy operations whatever its size.

Fast path: +-0.0, and 1e-3 <= |x| < 1, which repr writes in fixed
notation as "0." and the shortest digit string that reads back as x.

- Scale.  K = 17, 18 or 19 puts |x|*10^K in [10^16, 10^17).  The range
  and the decade are found by comparing |x| with the doubles 1e-3, 0.01
  and 0.1, each of which lies just above the power of ten it stands for,
  so the comparisons are exact.  10^K is exact in binary64 (5^19 < 2^53), and Dekker's
  two-product gives |x|*10^K = P + E exactly, with P an integer (it is at
  least 2^53) and |E| <= 8.
- Candidates.  The nearest decimals of 15, 16 and 17 digits are the
  nearest multiples of s = 100, 10 and 1 to P + E.  Their distances to
  P + E are small integers minus E, computed exactly in binary64.
- Bound.  Every real strictly within half an ulp of x reads back as x.
  Half an ulp times 10^K is a power of two times 10^K, exact in binary64,
  so every comparison with it is exact.  The rounding interval of x is
  narrower than the spacing of 15-digit decimals, so it holds at most one
  of them; if the nearest one is inside, it is the only one, and with its
  trailing zeros dropped it is the shortest string that reads back as x.
  Otherwise the nearest 16-digit decimal, then the nearest 17-digit one,
  is the nearest of the shortest strings, which is what repr writes.  The
  interval below a power of two is half as wide, but the powers of two
  in range, 2^-1 to 2^-9, are short decimals that the first candidate
  hits exactly.
- Text.  Each value's text is built in three little-endian uint64 words:
  a right-aligned prefix ("0.", "0.0", "0.00", signed) and the first digit,
  then two words of eight digits each, whose trailing zeros become spaces.
  Every text starts with at least two spaces, so one str.split of the
  whole buffer gives the list of texts.

Fallback: float.__repr__ writes every other value (NaN, infinities,
subnormals, |x| < 1e-3 and |x| >= 1, zero excepted) and every case the
argument above does not settle: a tie between two candidates, which repr
breaks by a rule of its own; a candidate exactly on the half-ulp bound,
which reads back as x only when x's significand is even (times 10^K, the
bound is an integer only when half an ulp is at least 2^-K, so this does
not happen in range); and a candidate of 10^17, which has 18 digits.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_POW10 = np.array([1e17, 1e18, 1e19])  # 10^K for K = 17, 18, 19
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# Bytes 0-6 of the first word, right-aligned, by 3 * sign + K - 17.
_PREFIX = np.array([int.from_bytes(p.rjust(8).encode("ascii")[1:] + b"\0", "little")
                    for p in ("0.", "0.0", "0.00", "-0.", "-0.0", "-0.00")], dtype=_U)
_EXPONENT = _U(0x7FF << 52)
# s for the nearest decimals of 15, 16 and 17 digits, as multiples of s
_STEPS = np.array([[100.0], [10.0], [1.0]])
_BYTES_7F = _U(0x7F7F7F7F7F7F7F7F)
_BYTES_80 = _U(0x8080808080808080)
_BYTES_01 = _U(0x0101010101010101)
_ASCII_0 = _U(0x3030303030303030)


def _digits8(v: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each v < 10^8, one a byte, first digit lowest."""
    hi = v // _U(10000)
    v = hi | ((v - hi * _U(10000)) << _U(32))
    # Lane-wise x // 100 for x < 10^4 and y // 10 for y < 100, by multiply
    # and shift; no lane's product reaches the next lane.
    hi = ((v * _U(5243)) >> _U(19)) & _U(0x0000007F0000007F)
    v = hi | ((v - hi * _U(100)) << _U(16))
    hi = ((v * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)
    return hi | ((v - hi * _U(10)) << _U(8))


def float_reprs(x: np.ndarray) -> list[str]:
    """[float.__repr__(v) for v in x] for a 1-D float64 array x."""
    a = np.abs(np.where(np.isfinite(x), x, 2.0))
    zero = a == 0.0
    fast = (a >= 1e-3) & (a < 1.0)
    a = np.where(fast, a, 0.5)
    k = (a < 0.1).astype(np.intp) + (a < 0.01)
    c = _POW10[k]
    p = a * c
    # a's exponent bits alone are the power of two 2^52 ulps of a
    half_ulp = (a.view(_U) & _EXPONENT).view(np.float64) * 2.0 ** -53 * c
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    c = _POW10_HI[k]
    t = _POW10_LO[k]
    e = ((ah * c - p) + ah * t + al * c) + al * t
    p = p.astype(np.int64)
    # One row per candidate: p's remainders mod 100, 10 and 1, and the
    # candidate's offset d from p.
    r = np.zeros((3, x.size))
    r[0] = p - p // 100 * 100
    r[1] = p - p // 10 * 10
    d = np.rint((r + e) / _STEPS) * _STEPS - r
    dist = np.abs(d - e)
    # The first row whose candidate lies inside the bound or on it decides.
    stop = dist <= half_ulp
    good = (dist < half_ulp) & (dist != _STEPS / 2)
    good = np.where(stop[0], good[0], np.where(stop[1], good[1], good[2]))
    d = np.where(stop[0], d[0], np.where(stop[1], d[1], d[2]))
    n = np.where(fast & good, p + d.astype(np.int64), 0)
    ok = (fast & good & (n < 10 ** 17)) | zero

    u = n.view(_U)
    first = u // _U(10 ** 16)
    u = u - first * _U(10 ** 16)
    hi = u // _U(10 ** 8)
    digits = _digits8(np.stack([hi, u - hi * _U(10 ** 8)]))
    # Bit 7 of a byte set where that digit or a later one of the value is nonzero.
    kept = (digits + _BYTES_7F) & _BYTES_80
    kept |= kept >> _U(8)
    kept |= kept >> _U(16)
    kept |= kept >> _U(32)
    kept[0] |= (kept[1] & _U(0x80)) * _BYTES_01
    digits |= _ASCII_0
    digits ^= (~kept & _BYTES_80) >> _U(3)  # trailing "0" to " "
    words = np.empty(3 * x.size, dtype="<u8")
    words[0::3] = _PREFIX[3 * np.signbit(x) + k] | ((first + _U(48)) << _U(56))
    words[1::3] = digits[0]
    words[2::3] = digits[1]
    texts = str(memoryview(words), "ascii").split()
    slow = np.flatnonzero(~ok)
    for i, v in zip(slow.tolist(), x[slow].tolist()):
        texts[i] = float.__repr__(v)
    return texts
