"""Byte-exact ``'%.17g'`` rendering of float tables as CSV lines, vectorized.

Python formats 17 digits through its arbitrary-precision dtoa at about a
microsecond a value.  Here the 17 digits of |x| are the integer
N = round(|x| 10^(16-k)), k = floor(log10 |x|): k is taken from np.log10 and
corrected once where the product shows it a decade low, and the product is
taken in double-double arithmetic (10^p as a hi + lo pair, the product by
Dekker's error-free TwoProduct; Dekker 1971, Loitsch 2010).  Its error is
about 1e-14 in units of N, so N is exact wherever the product's fraction
lies more than 1e-6 from 1/2; where 10^(16-k) is itself a double
(1e-6 <= |x| < 1e17) the product is exact, and so is its rounding, ties to
even.  Python's own ``'%.17g'`` renders the rest: other near ties, nan,
inf, |x| outside [1e-280, 1e290) and any value still a decade off.  Signed
zeros stay on the fast path.

Every rendering of a value is a subsequence of one 48-byte slot row::

    - 0 . 0 0 0 d0 _ | . d1 . d2 ... . d16 | e s e2 e1 e0 SEP _ _

(six little-endian uint64 words).  Which bytes are kept depends only on the
sign, the decimal exponent and the position of the last nonzero digit, so a
row is the AND of a word row and a mask row from a small table, and the
line bytes are the kept bytes in order: the zero bytes are deleted.
"""

from __future__ import annotations

import numpy as np

__all__ = ["render"]

_U8 = np.dtype("<u8")
_P_MIN, _P_MAX = -280, 300      # the table of 10^p, p = 16 - k
_X_OFF = 400                    # decimal exponents X index tables at X + _X_OFF
_FAST_MIN, _FAST_MAX = 1e-280, 1e290
_MINUS = ord("-")


def _pow10():
    """Rows (hi, lo, hi's high half, hi's low half) for p in [_P_MIN, _P_MAX]:
    10^p = hi + lo, each part correctly rounded."""
    hi, lo = [], []
    d = 10 ** -_P_MIN
    for _ in range(_P_MIN, 0):
        h = 1 / d  # int / int is correctly rounded
        num, den = h.as_integer_ratio()
        hi.append(h)
        lo.append((den - num * d) / (den * d))
        d //= 10
    n = 1
    for _ in range(_P_MAX + 1):
        h = float(n)
        hi.append(h)
        lo.append(float(n - int(h)))
        n *= 10
    hi = np.array(hi)
    return np.stack([hi, np.array(lo), *_split(hi)], axis=-1)


def _split(a):
    """Veltkamp's split a = high + low into halves of 26 bits."""
    c = 134217729.0 * a  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


def _tables():
    """Digit chunk words, last-digit tables, exponent words, mask classes
    and mask rows."""
    ten = np.arange(10, dtype=np.uint8)
    # the four digits of the chunks 0 ... 9999
    digits = [np.tile(np.repeat(ten, 10 ** (3 - j)), 10 ** j) for j in range(4)]
    chunk = np.full((10_000, 8), ord("."), dtype=np.uint8)
    for j, d in enumerate(digits):
        chunk[:, 2 * j + 1] = 0x30 + d
    # the position of a chunk's last nonzero digit, 0 for the zero chunk;
    # row j is for the chunk of digits 4j + 1 ... 4j + 4
    last = np.zeros(10_000, dtype=np.uint8)
    for j, d in enumerate(digits):
        last[d > 0] = j + 1
    last = np.where(last > 0, last + np.arange(0, 16, 4, dtype=np.uint8)[:, None], 0)

    x = np.arange(-_X_OFF, _X_OFF + 1)
    e = np.abs(x)
    exp_word = np.zeros((x.size, 8), dtype=np.uint8)
    exp_word[:, 0] = ord("e")
    exp_word[:, 1] = np.where(x < 0, _MINUS, ord("+"))
    exp_word[:, 2:5] = 0x30 + np.stack([e // 100 % 10, e // 10 % 10, e % 10], axis=-1)
    exp_word[:, 5] = ord(",")  # the separator; a row's last one becomes a newline
    # mask classes: fixed notation for X in [-4, 16], then exponent notation
    # with two and with three exponent digits
    cls = np.where((x >= -4) & (x <= 16), x + 4, np.where(e >= 100, 22, 21)) * 17

    # the digit index or the index of the digit after the dot at each byte
    # of a slot row; 99 where there is none
    pos = np.arange(48)
    inner = (pos >= 8) & (pos < 40)
    digit = np.where(pos == 6, 0, np.where(inner & (pos % 2 == 1), (pos - 7) // 2, 99))
    dot = np.where(inner & (pos % 2 == 0), (pos - 6) // 2, 99)
    X = np.arange(-4, 17)[:, None, None]
    L = np.arange(17)[None, :, None]
    fixed = (digit <= np.maximum(X, L)) | ((dot == X + 1) & (L > X)) \
        | ((X < 0) & ((pos == 1) | (pos == 2) | ((pos >= 3) & (pos < 2 - X))))
    expo = [(digit <= L) | ((dot == 1) & (L >= 1))
            | ((pos >= 40) & (pos < 45) & ((pos != 42) | three)) for three in (False, True)]
    keep = np.concatenate([np.broadcast_to(fixed, (21, 17, 48)), *expo]) | (pos == 45)
    masks = (keep * np.uint8(0xFF)).reshape(-1, 48)
    return chunk.view(_U8).ravel(), last, exp_word.view(_U8).ravel(), cls, masks.view(_U8)


_POW10 = _pow10()
_CHUNK, _LAST, _EXP_WORD, _CLASS, _MASKS = _tables()
# word 0 by its digit d0: '-' '0' '.' '0' '0' '0' d0
_WORD0 = np.array([int.from_bytes(b"-0.000%d\0" % d, "little") for d in range(10)], dtype=_U8)
_SIGN = np.uint64(0xFF)
_NEWLINE = np.uint64((ord(",") ^ ord("\n")) << 40)
# values per block: a block's temporaries stay small enough to be reused
# from the heap, not mapped afresh.  On 40,401 values 8,192 was the fastest
# of 1,024 ... 65,536; 4,096 is about 0.6 ms slower with half the memory
_BLOCK = 4096


def _scaled(a, k):
    """|x| 10^(16 - k) as an unevaluated sum high + low, and whether the sum
    is exact: so it is where 10^(16 - k) is a double (lo = 0, p <= 22)."""
    hi, lo, bh, bl = _POW10.take(16 - _P_MIN - k, axis=0).T
    ah, al = _split(a)
    high = a * hi
    return high, ((ah * bh - high) + ah * bl + al * bh) + al * bl + a * lo, lo == 0.0


def _round(high, low, exact):
    """round(high + low), ties to even, as an int64, and whether it is
    right: always where the sum is exact, else 1e-6 or more from a tie."""
    floor = np.floor(low)
    low -= floor
    n = high.astype(np.int64)
    n += floor.astype(np.int64)
    n += (low > 0.5) | ((low == 0.5) & ((n & 1) == 1))
    return n, exact | (np.abs(low - 0.5) > 1e-6)


def _digits(a):
    """(N, X, ok): the 17 digits of each a > 0 as an int64 and its decimal
    exponent; ok is False where N may be off and Python must render."""
    # never above floor(log10 a): the product is >= 1e16 and at most
    # one decade too large
    k = np.floor(np.log10(a) - 1e-12).astype(np.int64)
    n, ok = _round(*_scaled(a, k))
    up = np.flatnonzero(n > 10 ** 17)
    if up.size:
        k[up] += 1
        n[up], ok[up] = _round(*_scaled(a[up], k[up]))
    ok &= (n >= 10 ** 16) & (n <= 10 ** 17)
    top = n == 10 ** 17  # rounded up to the next decade
    n[top] = 10 ** 16
    k += top
    return n, k, ok


def _slots(x):
    """The masked slot words of a block of rows, (rows, 6 * cols) uint64."""
    rows, cols = x.shape
    x = x.ravel()
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)  # False for nan
    # only fast values reach the arithmetic (log10(0), the split's overflow)
    n, e, ok = _digits(np.where(fast, a, 1.0))
    zero = a == 0.0
    n[zero] = 0  # 1.0 stood in: its exponent is 0, as for 0
    slow = np.flatnonzero(~(fast & ok | zero))

    # below 10^9 the chunk arithmetic runs in int32, on half the memory
    high = n // 10 ** 8
    low = (n - high * 10 ** 8).astype(np.int32)
    high = high.astype(np.int32)
    d0 = high // 10 ** 8
    high -= d0 * 10 ** 8
    chunks = [high // 10 ** 4, None, low // 10 ** 4, None]
    chunks[1] = high - chunks[0] * 10 ** 4
    chunks[3] = low - chunks[2] * 10 ** 4
    last = np.maximum(np.maximum(_LAST[0].take(chunks[0]), _LAST[1].take(chunks[1])),
                      np.maximum(_LAST[2].take(chunks[2]), _LAST[3].take(chunks[3])))
    e += _X_OFF

    words = np.empty((rows * cols, 6), dtype=_U8)
    words[:, 0] = _WORD0.take(d0)
    for j, c in enumerate(chunks):
        words[:, j + 1] = _CHUNK.take(c)
    words[:, 5] = _EXP_WORD.take(e)
    masks = _MASKS.take(_CLASS.take(e) + last, axis=0)
    masks[:, 0] |= np.signbit(x) * _SIGN
    # Python renders the rest, after a '-' that only a mirrored row keeps and
    # before the separator at its usual byte
    if slow.size:
        byte_words, byte_masks = words.view(np.uint8), masks.view(np.uint8)
        for i in slow.tolist():
            s = ("%.17g" % x[i]).encode()
            byte_words[i] = np.frombuffer(b"-" + s.rjust(44, b"\0") + b",\0\0", dtype=np.uint8)
            byte_masks[i] = 0
            byte_masks[i, 45 - len(s):46] = 0xFF
    words &= masks
    words = words.reshape(rows, cols * 6)
    words[:, -1] ^= _NEWLINE
    return words


def render(table, mirrored: bool = False) -> bytes:
    """The CSV lines of a 2-D float table, as ASCII bytes: each value
    exactly as ``'%.17g' % v`` renders it, ',' between columns, a newline
    per row.

    With ``mirrored`` the lines of rows n-1, ..., 1 come first, each with a
    '-' put before its first field: the rows at -t of a table whose first
    column is a grid 0 = t_0 < t_1 < ... of the right half.
    """
    x = np.asarray(table, dtype=float)
    step = max(1, _BLOCK // x.shape[1])
    right, left = [], []
    for i in range(0, len(x), step):
        words = _slots(x[i:i + step])
        right.append(words.tobytes().translate(None, b"\0"))
        if mirrored:
            words = words[:0:-1] if i == 0 else words[::-1]
            words[:, 0] |= _MINUS
            left.append(words.tobytes().translate(None, b"\0"))
    return b"".join(left[::-1] + right)
