"""CSV rows of float64 columns, each value written as ``repr`` writes it.

``repr`` of a float prints the shortest decimal that reads back as the
same double, the one closest to it when several are that short, with the
decimal point or exponent placed by CPython's rule: an exponent when the
decimal point falls at ``decpt <= -4`` or ``decpt > 16`` (digits
``0.d1d2... * 10**decpt``), written ``e-05``, ``e+16``, ``e-324``.  Its
dtoa finds those digits with bignum arithmetic, one value at a time.

Here the digits come from Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020), run on ``uint64`` arrays.  A double ``c * 2**q``
is scaled by a 126-bit approximation ``g`` of ``10**-k`` (one table entry
per k, built once from Python ints), and three 64 x 126-bit products
bound the rounding interval of the double in units of ``10**k``.  The
shortest candidates inside it are then at most two integers apart, and
the closest one wins, ties to even.  Java's ``Double.toString`` runs the
same steps but keeps at least two digits; ``repr`` does not, so this
port always looks for the one-digit-shorter candidate and has no
special path for tiny subnormals (Java's would print ``4.9e-324`` for
``5e-324``).

Every cell is laid out in four 64-bit words, with NUL where a shorter
text leaves room, and a whole block of rows leaves as one ``bytes`` with
the NULs dropped.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_MASK_32 = _U(0xFFFF_FFFF)
_MASK_52 = _U((1 << 52) - 1)
_MASK_63 = _U((1 << 63) - 1)
_HIDDEN_BIT = _U(1 << 52)  # the significand of the smallest normal binade
_Q_MIN = -1074  # the exponent q of every subnormal, c * 2**q

# Exponents k of the scale 10**-k that any double needs.
_K_MIN, _K_MAX = -324, 292


def _flog2pow10(e):
    """floor(log2(10**e)) for |e| <= 1233."""
    return (e * 913_124_641_741) >> 38


def _scale_table():
    """Per k, ``g = floor(10**-k / 2**r) + 1`` with ``2**125 <= g < 2**126``,
    split as ``g = g1 * 2**63 + g0``."""
    g1 = np.empty(_K_MAX - _K_MIN + 1, dtype=_U)
    g0 = np.empty_like(g1)
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        r = _flog2pow10(-k) - 125
        num = 10 ** max(-k, 0) << max(-r, 0)
        den = 10 ** max(k, 0) << max(r, 0)
        g = num // den + 1
        g1[i], g0[i] = g >> 63, g & ((1 << 63) - 1)
    return g1, g0


_G1, _G0 = _scale_table()

# Powers of ten 10**0 .. 10**18.
_POW10 = 10 ** np.arange(19, dtype=_U)

# A cell is 32 bytes, four little-endian words, laid out as
#   byte 0: the sign; bytes 1-5: "0.000" of a positional value below 1;
#   bytes 8-25: the digits with a point among them; bytes 26-30: "e+308";
#   byte 31: the separator,
# with NUL wherever the text is shorter.
_CELL_WORDS = 4
_EVERY_BYTE = _U(0x0101_0101_0101_0101)
# _LOW[16 + b]: the low b bytes of a word set, for b in -16..17 clipped to 0..8
_LOW = np.array([(1 << 8 * min(max(b, 0), 8)) - 1 for b in range(-16, 18)], dtype=_U)
# sign, then the lead of a value below 1 with 0-3 zeros after its point
_HEAD = np.array([int.from_bytes(sign + lead, "little")
                  for lead in (b"", b"0.", b"0.0", b"0.00", b"0.000") for sign in (b"\0", b"-")],
                 dtype=_U)
_INF, _NEG_INF, _NAN = (int.from_bytes(text, "little") for text in (b"inf", b"-inf", b"nan"))

# The uint64 scalars of the arithmetic below, each built once: numpy takes
# about 0.6 us to build one, and a block used about a hundred.
_1, _2, _4, _8, _10, _16, _19, _32, _52, _56, _63, _100, _103 = (
    _U(v) for v in (1, 2, 4, 8, 10, 16, 19, 32, 52, 56, 63, 100, 103))
_5243, _10_000, _1E10 = _U(5243), _U(10_000), _U(10**10)
_EXP_MASK = _U(0x7FF)
_HUNDREDS_MASK = _U(0x0000_007F_0000_007F)  # the low 7 bits of each 32-bit half
_TENS_MASK = _U(0x000F_000F_000F_000F)  # the low 4 bits of each 16-bit quarter
_ZEROS = _U(0x30) * _EVERY_BYTE  # "0" in every byte
_DOTS = _U(ord(".")) * _EVERY_BYTE
_COMMA_LAST, _NEWLINE_LAST = (_U(ord(sep)) << _56 for sep in ",\n")  # in a cell's byte 31


def _mul_hi(a_lo, a_hi, b_lo, b_hi):
    """High 64 bits of ``a * b`` for ``a < 2**63`` and ``b < 2**59``, from 32-bit halves.

    The two cross products and the carry out of the low product sum below 2**64.
    """
    mid = (a_lo * b_lo >> _32) + a_lo * b_hi + a_hi * b_lo
    return a_hi * b_hi + (mid >> _32)


def _round_to_odd(g1, g1_halves, g0_halves, cp):
    """``g * cp / 2**127`` for the 126-bit ``g``, rounded down with a sticky last bit."""
    cp_halves = cp & _MASK_32, cp >> _32
    x1 = _mul_hi(*g0_halves, *cp_halves)
    y1 = _mul_hi(*g1_halves, *cp_halves)
    z = ((g1 * cp) >> _1) + x1
    vbp = y1 + (z >> _63)
    return vbp | (((z & _MASK_63) + _MASK_63) >> _63)


def _schubfach(c, q):
    """Shortest digits of the nonzero doubles ``c * 2**q``: (s, k) with value s * 10**k.

    Selections are arithmetic on 0/1 masks: ``np.where`` branches on each
    element and is several times slower on masks that mix both values.
    """
    irregular = (c == _HIDDEN_BIT) & (q != _Q_MIN)  # the interval below v is half as wide
    # floor(log10(2**q)), or floor(log10(3/4 * 2**q)) for an irregular interval
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(_U)
    g1 = _G1[k - _K_MIN]
    g0 = _G0[k - _K_MIN]
    g1_halves = g1 & _MASK_32, g1 >> _32
    g0_halves = g0 & _MASK_32, g0 >> _32
    cb = c << _2
    vb = _round_to_odd(g1, g1_halves, g0_halves, cb << h)
    vbl = _round_to_odd(g1, g1_halves, g0_halves, (cb - _2 + irregular) << h)
    vbr = _round_to_odd(g1, g1_halves, g0_halves, (cb + _2) << h)
    out = c & _1  # an even significand's interval includes its ends
    vbl += out
    vbr -= out

    # s 10**k or t 10**k = (s+1) 10**k: the one inside, or the one closer to v, ties to even
    s = vb >> _2
    t = s + _1
    uin = vbl <= s << _2
    win = t << _2 <= vbr
    cmp = vb.astype(np.int64) - ((s + t) << _1).astype(np.int64)
    closer_t = (cmp > 0) | ((cmp == 0) & (s & _1 == 1))
    one_in = uin ^ win
    digits = s + ((one_in & win) | (~one_in & closer_t))
    # but one digit shorter, s' 10**(k+1) or (s'+1) 10**(k+1), if exactly one is inside
    sp10 = s // _10 * _10
    upin = vbl <= sp10 << _2
    wpin = (sp10 + _10) << _2 <= vbr
    shorter = upin ^ wpin
    digits += shorter * (sp10 + wpin * _10 - digits)
    return digits, k


def _eight_digits(x):
    """The 8 decimal digits of each ``x < 10**8``, the first in the lowest byte.

    Splits into 4-digit halves, then 2-digit quarters, then digits, every
    lane at once; each quotient is an exact multiply-and-shift for its range.
    """
    hi = x // _10_000
    v = hi | (x - hi * _10_000) << _32
    hundreds = (v * _5243 >> _19) & _HUNDREDS_MASK
    v = hundreds | (v - hundreds * _100) << _16
    tens = (v * _103 >> _10) & _TENS_MASK
    return tens | (v - tens * _10) << _8


def _bit_length(x):
    """Bits of each ``x`` up to its highest set one; 4 for every x below 16.

    Exact wherever ``x >> 4`` does not round up to a power of two as a float64:
    below 2**57, and for any word of digit bytes (each at most 9).
    """
    return np.frexp((x >> _4).astype(np.float64))[1] + 4


def _write_cells(values, out) -> None:
    """Write ``repr`` of each float64 value into its 32-byte cell.

    ``out`` is a ``(values.size, 4)`` array of words; every word is written,
    byte 31 of each cell as NUL.
    """
    bits = values.view(_U)
    negative = bits >> _63
    biased = (bits >> _52) & _EXP_MASK
    normal = biased != 0
    c = bits & _MASK_52 | normal * _HIDDEN_BIT
    q = biased.astype(np.int64) - 1075 + ~normal  # subnormals share q = -1074
    special = np.flatnonzero(biased == _EXP_MASK)
    c[special] = 0

    # an integer below 2**53 is its own shortest form; zero goes this way too
    fraction_bits = (q < 0) & (q > -53)
    shift = (-q * fraction_bits).astype(_U)
    whole = c >> shift
    integer = (c == 0) | (fraction_bits & (whole << shift == c))
    digits, decpt = whole, np.zeros(values.shape, dtype=np.int64)
    rows = np.flatnonzero(~integer)
    if rows.size:  # an integer column skips the 128-bit products
        digits[rows], decpt[rows] = _schubfach(c[rows], q[rows])

    # to 18 digits 0.d1...d18 * 10**decpt: d18 is always 0, d1 only for zero
    guess = _bit_length(digits) * 1233 >> 12  # floor(log10(2**bits)), at most one short
    length = guess + (digits >= _POW10[guess])
    digits *= _POW10[18 - length]
    decpt += length
    top = digits // _1E10
    rest = digits - top * _1E10
    middle = rest // _100
    last = rest - middle * _100
    tens = last * _103 >> _10
    words = [_eight_digits(top), _eight_digits(middle), tens | (last - tens * _10) << _8]
    # the significant digits, through the last nonzero one (zero counts one)
    count = np.maximum(_bit_length(words[0]) + 7 >> 3,
                       np.maximum((_bit_length(words[1]) + 7 >> 3) + 8 * (words[1] != 0),
                                  17 * (words[2] != 0)))

    exp_form = (decpt <= -4) | (decpt > 16)
    below_one = ~exp_form & (decpt <= 0)
    above_one = ~exp_form & ~below_one
    # the digits shown: all significant ones, and for a positional value at
    # or above 1 at least through the first after the point ("100.0")
    shown = np.maximum(count, (decpt + 1) * above_one) + 16
    # the point goes after the first `point` digits: none in the body of a
    # value below 1, whose lead holds it, nor in a one-digit exponent form
    point = decpt * above_one + exp_form + 17 * below_one + 16
    point_end = point + ~(below_one | (exp_form & (count == 1)))

    carry = 0
    for i, word in enumerate(words):
        word |= _ZEROS
        word &= _LOW[shown - 8 * i]
        below = _LOW[point - 8 * i]
        before = word & below
        after = word ^ before
        dot = (_LOW[point_end - 8 * i] ^ below) & _DOTS
        out[:, i + 1] = before | after << _8 | carry | dot
        carry = after >> _56
    out[:, 0] = _HEAD[2 * (1 - decpt) * below_one + negative.astype(np.intp)]

    rows = np.flatnonzero(exp_form)
    if rows.size:
        e = decpt[rows] - 1
        mag = np.abs(e)
        text = (ord("e") | np.where(e < 0, ord("-"), ord("+")) << 8
                | np.where(mag >= 100, mag // 100 + ord("0"), 0) << 16
                | (mag // 10 % 10 + ord("0")) << 24 | (mag % 10 + ord("0")) << 32)
        out[rows, 3] |= text.astype(_U) << _16

    if special.size:
        nan = np.isnan(values[special])
        out[special] = 0
        out[special, 0] = np.where(nan, _NAN, np.where(negative[special] != 0, _NEG_INF, _INF))


def csv_rows(columns) -> bytes:
    """The CSV lines of equal-length float64 columns, each value as ``repr`` writes it."""
    values = np.empty((len(columns[0]), len(columns)))
    for i, col in enumerate(columns):
        values[:, i] = col
    buf = np.empty(values.shape + (_CELL_WORDS,), dtype="<u8")
    _write_cells(values.ravel(), buf.reshape(-1, _CELL_WORDS))
    buf[:, :-1, -1] |= _COMMA_LAST
    buf[:, -1, -1] |= _NEWLINE_LAST
    flat = buf.view(np.uint8)
    return flat[flat != 0].tobytes()
