"""Packed-bitset rows: the word-parallel primitives behind the OMv substrate.

:class:`repro.dynamic.omv.OMvMatrix` packs each Boolean row into machine
words ("an honest ~64x constant factor"); this module holds the primitives
it reads and writes those rows with.  The design follows the layout-first
mindset of the 2.5D sparse-matmul decomposition (PAPERS.md): commit to a
data layout -- here little-endian uint64 words, bit ``j`` of a length-``n``
set living at word ``j >> 6``, offset ``j & 63`` -- and the operations fall
out as word-parallel primitives.

Layout contract
---------------
* A *packed set* over a universe of size ``n`` is a 1-D ``uint64`` array of
  ``words_for(n)`` words.  Bits at positions ``>= n`` in the last word are
  zero (every kernel preserves this, so popcounts never overcount).
* A *packed matrix* is a 2-D ``uint64`` array, one packed set per row.
* ``np.packbits``/``np.unpackbits`` (``bitorder="little"``) are used only at
  the boundaries (:func:`pack_indicator`, :func:`unpack_words`); everything
  between operates on whole words.
* Popcount goes through a 16-bit lookup table (:data:`POPCOUNT16`) -- the
  words are viewed as ``uint16`` quads, gathered through the table and
  summed, which keeps the working set at 64 KiB instead of a 2^64 table or a
  per-bit loop.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.utils.contracts import hot_path

#: bits per packed word (the layout contract; do not change casually --
#: checkpoints and fixtures encode it)
WORD_BITS = 64

#: popcount lookup table: POPCOUNT16[x] = number of set bits in the uint16 x.
#: Built once at import via unpackbits (boundary use, not a hot path).
POPCOUNT16: np.ndarray = (
    np.unpackbits(np.arange(1 << 16, dtype=np.uint16).view(np.uint8))
    .reshape(-1, 16)
    .sum(axis=1)
    .astype(np.uint16)
)

# --------------------------------------------------------------------------
# layout primitives
# --------------------------------------------------------------------------

def words_for(n: int) -> int:
    """Number of uint64 words covering an ``n``-bit universe."""
    return (n + WORD_BITS - 1) >> 6


def pack_indicator(mask) -> np.ndarray:
    """Pack a boolean indicator vector into little-endian uint64 words.

    Boundary kernel: one ``np.packbits`` plus zero-padding to a whole number
    of words.  ``mask`` may be any boolean-convertible 1-D sequence.
    """
    mask = np.asarray(mask, dtype=bool)
    packed_bytes = np.packbits(mask, bitorder="little")
    pad = (-len(packed_bytes)) % 8
    if pad:
        packed_bytes = np.concatenate(
            [packed_bytes, np.zeros(pad, dtype=np.uint8)])
    return packed_bytes.view("<u8")


def unpack_words(words: np.ndarray, n: int) -> np.ndarray:
    """Unpack uint64 words back to an ``n``-long boolean vector (boundary)."""
    bits = np.unpackbits(words.view("<u1"), bitorder="little")
    return bits[:n].astype(bool)


#: widest universe (in words) the scalar Python-int fast paths cover; below
#: this, arbitrary-precision int bit tricks beat per-call numpy dispatch by
#: an order of magnitude (same threshold the OMv extractor uses)
SCALAR_WORDS_MAX = 16


def pack_indices(indices, n: int) -> np.ndarray:
    """Packed set of the given bit positions over an ``n``-bit universe."""
    nwords = words_for(n)
    if nwords <= SCALAR_WORDS_MAX:
        acc = 0
        for j in indices:
            acc |= 1 << int(j)
        return np.frombuffer(acc.to_bytes(nwords << 3, "little"),
                             dtype="<u8").copy()
    words = np.zeros(nwords, dtype=np.uint64)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size:
        np.bitwise_or.at(words, idx >> 6,
                         np.uint64(1) << (idx & 63).astype(np.uint64))
    return words


def clear_bit(words: np.ndarray, j: int) -> None:
    """Clear bit ``j`` in a packed set, in place (O(1))."""
    words[j >> 6] &= ~(np.uint64(1) << np.uint64(j & 63))


def test_bit(words: np.ndarray, j: int) -> bool:
    """Whether bit ``j`` is set in a packed set (O(1))."""
    return bool((words[j >> 6] >> np.uint64(j & 63)) & np.uint64(1))


# --------------------------------------------------------------------------
# word-parallel kernels
# --------------------------------------------------------------------------

@hot_path
def popcount_words(words: np.ndarray) -> int:
    """Total number of set bits in a packed set (16-bit lookup table)."""
    return int(POPCOUNT16[words.view("<u2")].sum())


@hot_path
def any_and_rows(rows: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-row predicate ``(row & mask) != 0`` over a packed matrix.

    This is the masked matrix product of the OMv query: row ``i`` of
    ``M v`` is 1 iff the packed row intersects the packed indicator.
    """
    return (rows & mask[None, :]).any(axis=1)


def first_set_bits(rows: np.ndarray) -> np.ndarray:
    """Lowest set bit position per row of a packed matrix; -1 for empty rows.

    Because the layout is little-endian, the lowest set bit is the *minimum*
    element of the set -- exactly the deterministic choice the scalar scans
    make, which is what keeps the OMv extractor byte-identical to them.
    """
    nonzero = rows != 0
    has_any = nonzero.any(axis=1)
    word_idx = nonzero.argmax(axis=1)
    row_idx = np.arange(rows.shape[0])
    word = rows[row_idx, word_idx]
    # isolate the lowest set bit; a single power of two up to 2^63 is exactly
    # representable in float64, so log2 recovers the offset without a scan
    isolated = word & (~word + np.uint64(1))
    safe = np.where(isolated == 0, np.uint64(1), isolated)
    offset = np.log2(safe.astype(np.float64)).astype(np.int64)
    first = (word_idx.astype(np.int64) << 6) + offset
    return np.where(has_any, first, np.int64(-1))


@hot_path
def first_set_bit(words: np.ndarray) -> int:
    """Lowest set bit of a single packed set (-1 if empty)."""
    if words.size <= SCALAR_WORDS_MAX:
        as_int = int.from_bytes(words.tobytes(), "little")
        if not as_int:
            return -1
        return (as_int & -as_int).bit_length() - 1
    return int(first_set_bits(words.reshape(1, -1))[0])


@hot_path
def and_words(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None
              ) -> np.ndarray:
    """Word-parallel intersection ``a & b``."""
    return np.bitwise_and(a, b, out=out)


@hot_path
def andnot_words(a: np.ndarray, b: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """Word-parallel difference ``a & ~b`` (ANDN sweep)."""
    return np.bitwise_and(a, np.bitwise_not(b), out=out)


def iter_set_bits(words: np.ndarray) -> List[int]:
    """Ascending bit positions of a packed set.

    Narrow universes extract bits from one arbitrary-precision int
    (``x & -x`` isolates the lowest set bit -- the minimum element); wide
    ones scan only the non-zero words, unpacking 8 bytes per hit word.
    """
    out: List[int] = []
    if words.size <= SCALAR_WORDS_MAX:
        as_int = int.from_bytes(words.tobytes(), "little")
        while as_int:
            low = as_int & -as_int
            out.append(low.bit_length() - 1)
            as_int ^= low
        return out
    nonzero = np.flatnonzero(words)
    for w in nonzero:
        base = int(w) << 6
        bits = np.unpackbits(words[w:w + 1].view("<u1"), bitorder="little")
        out.extend((base + int(b)) for b in np.flatnonzero(bits))
    return out


def select_bits(words: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Boolean gather: whether each of ``indices`` is set in the packed set.

    Touches only the words covering the requested indices -- the
    ``row_neighbors(restrict=...)`` fix rides on this kernel.
    """
    idx = np.asarray(indices, dtype=np.int64)
    gathered = words[idx >> 6]
    return ((gathered >> (idx & 63).astype(np.uint64)) & np.uint64(1)
            ).astype(bool)
