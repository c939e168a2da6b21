"""GF(256) Reed–Solomon codec for the erasure-coded policies.

Deterministic and table-driven: fragments are plain ``bytes`` over the
field GF(2^8) under the AES/QR polynomial ``x^8 + x^4 + x^3 + x^2 + 1``
(0x11d); a generator-3 exp/log pair gives O(1) multiply and divide.

The code is *systematic* in Lagrange form (the scheme Hydra and Carbink
build on): an 8 KB page splits into ``k`` equal data fragments, each
treated as the evaluations of ``fragment_size`` independent degree-(k-1)
polynomials at the points ``x = 0 .. k-1``.  Parity fragments are the
same polynomials evaluated at ``x = k .. k+m-1``.  Any ``k`` of the
``k+m`` fragments re-interpolate the polynomials, hence the page —
that's the only algebra the policies need:

* ``encode(data_fragments)`` — evaluate at the parity points;
* ``reconstruct(available)`` — interpolate from any k points to whatever
  points are missing.

Both reduce to XOR-accumulating scalar-multiplied fragments: scalar
multiplication of a whole fragment is a single ``bytes.translate``
with a per-scalar 256-entry table (one C-level pass per (fragment,
scalar) pair, no per-byte python loop).  GF arithmetic is exact, so
the result is the same bytes a per-byte ``gf_mul`` loop computes
(tests/faults/test_codec_backends.py checks it against one).

Coefficient rows are memoised at module level so every
:class:`ReedSolomon` instance in the process shares them: encode
matrices per ``(k, m)`` shape (a handful ever exist), reconstruction
rows per ``(k, m, survivors, targets)`` subset behind an LRU bound
(repeated degraded reads against the same crash pattern stop
re-deriving Lagrange rows).  :func:`codec_stats` exposes the cache
counters; instances additionally count their own deterministic hit/miss
stream into an optional ``stats`` Counter (the erasure policy wires its
``policy.*`` metrics counter in, so the cache's effectiveness lands in
every MetricsRegistry snapshot without breaking run-for-run
determinism — the per-instance stream depends only on the instance's
own call sequence, never on process-global cache state).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ...vm.page import xor_bytes

__all__ = [
    "ReedSolomon",
    "codec_backend",
    "codec_stats",
    "gf_mul",
    "gf_inv",
    "scale_bytes",
    "split_page",
    "join_fragments",
]

_GF_POLY = 0x11D

# exp table doubled so gf_mul can skip the mod-255 reduction.
GF_EXP = [0] * 512
GF_LOG = [0] * 256
_x = 1
for _i in range(255):
    GF_EXP[_i] = _x
    GF_LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= _GF_POLY
for _i in range(255, 512):
    GF_EXP[_i] = GF_EXP[_i - 255]
del _x, _i


def gf_mul(a: int, b: int) -> int:
    """Product in GF(256)."""
    if a == 0 or b == 0:
        return 0
    return GF_EXP[GF_LOG[a] + GF_LOG[b]]


def gf_inv(a: int) -> int:
    """Multiplicative inverse in GF(256); ``a`` must be non-zero."""
    if a == 0:
        raise ZeroDivisionError("no inverse of 0 in GF(256)")
    return GF_EXP[255 - GF_LOG[a]]


def codec_backend() -> str:
    """Name of the codec engine: always ``"python"``.

    There is one engine, so this is a constant; it stays for callers
    that record the engine name next to their measurements.
    """
    return "python"


#: scalar -> 256-byte translation table for whole-fragment multiply.
_MUL_TABLES: Dict[int, bytes] = {}


def _mul_table(c: int) -> bytes:
    table = _MUL_TABLES.get(c)
    if table is None:
        table = bytes(gf_mul(c, v) for v in range(256))
        _MUL_TABLES[c] = table
    return table


def scale_bytes(data: bytes, c: int) -> bytes:
    """``c * data`` element-wise in GF(256) (one C-level pass)."""
    if c == 0:
        return bytes(len(data))
    if c == 1:
        return data
    return data.translate(_mul_table(c))


def _combine(
    fragments: Sequence[bytes], coefficients: Sequence[int]
) -> bytes:
    """XOR-accumulate ``coefficients[i] * fragments[i]`` over GF(256)."""
    out: Optional[bytes] = None
    for fragment, c in zip(fragments, coefficients):
        if c == 0:
            continue
        term = scale_bytes(fragment, c)
        out = term if out is None else xor_bytes(out, term)
    if out is None:
        return bytes(len(fragments[0]))
    return out


# --------------------------------------------------------------------------
# Coefficient rows, memoised at module level.
# --------------------------------------------------------------------------

def _lagrange_row(src_points: Sequence[int], y: int) -> Tuple[int, ...]:
    """Coefficients c_i with ``p(y) = XOR_i c_i * p(x_i)`` for the unique
    degree-(len-1) polynomial through the src points.

    In GF(2^n) addition and subtraction are both XOR, so the Lagrange
    basis ``l_i(y) = prod_{j != i} (y - x_j) / (x_i - x_j)`` becomes a
    product of ``(y ^ x_j) / (x_i ^ x_j)`` terms.
    """
    row = []
    for i, xi in enumerate(src_points):
        num = 1
        den = 1
        for j, xj in enumerate(src_points):
            if j == i:
                continue
            num = gf_mul(num, y ^ xj)
            den = gf_mul(den, xi ^ xj)
        row.append(gf_mul(num, gf_inv(den)))
    return tuple(row)


#: (k, m) -> encode coefficient matrix.  A handful of shapes ever exist
#: in one process, so this is unbounded.
_ENCODE_ROWS: Dict[Tuple[int, int], Tuple[Tuple[int, ...], ...]] = {}

#: (k, m, survivors, targets) -> reconstruction rows, LRU-bounded: the
#: keyspace is combinatorial in principle but tiny in practice (one
#: entry per distinct crash pattern actually seen).
_RECON_ROWS: "OrderedDict[tuple, Tuple[Tuple[int, ...], ...]]" = OrderedDict()
_RECON_ROWS_MAX = 1024

_STATS = {
    "encode_matrices": 0,
    "recon_row_hits": 0,
    "recon_row_misses": 0,
    "recon_row_evictions": 0,
}


def codec_stats() -> dict:
    """Process-wide coefficient-cache state."""
    return {
        "encode_matrices": _STATS["encode_matrices"],
        "recon_rows_cached": len(_RECON_ROWS),
        "recon_row_hits": _STATS["recon_row_hits"],
        "recon_row_misses": _STATS["recon_row_misses"],
        "recon_row_evictions": _STATS["recon_row_evictions"],
    }


def _encode_rows(k: int, m: int) -> Tuple[Tuple[int, ...], ...]:
    rows = _ENCODE_ROWS.get((k, m))
    if rows is None:
        data_points = tuple(range(k))
        rows = tuple(_lagrange_row(data_points, k + j) for j in range(m))
        _ENCODE_ROWS[(k, m)] = rows
        _STATS["encode_matrices"] += 1
    return rows


def _reconstruction_rows(
    k: int, m: int, src: Tuple[int, ...], todo: Tuple[int, ...]
) -> Tuple[Tuple[int, ...], ...]:
    key = (k, m, src, todo)
    rows = _RECON_ROWS.get(key)
    if rows is not None:
        _RECON_ROWS.move_to_end(key)
        _STATS["recon_row_hits"] += 1
        return rows
    rows = tuple(_lagrange_row(src, index) for index in todo)
    _RECON_ROWS[key] = rows
    _STATS["recon_row_misses"] += 1
    if len(_RECON_ROWS) > _RECON_ROWS_MAX:
        _RECON_ROWS.popitem(last=False)
        _STATS["recon_row_evictions"] += 1
    return rows


class ReedSolomon:
    """Systematic RS(k, m) over GF(256) in Lagrange (evaluation) form.

    Fragment index ``i`` is the evaluation point ``x = i``; indices
    ``0..k-1`` are the verbatim data fragments, ``k..k+m-1`` parity.
    Coefficient matrices come from the module-level memos (shared across
    instances); ``stats`` — when set to a Counter-like object — receives
    a *deterministic* per-instance hit/miss stream keyed on whether this
    instance has already requested the same reconstruction subset
    (independent of process-global cache warmth, so metrics snapshots
    stay byte-identical across repeated runs).
    """

    def __init__(self, k: int, m: int):
        if k < 1:
            raise ValueError(f"need at least one data fragment: k={k}")
        if m < 1:
            raise ValueError(f"need at least one parity fragment: m={m}")
        if k + m > 255:
            raise ValueError(f"k+m must fit GF(256) evaluation points: {k + m}")
        self.k = k
        self.m = m
        self.width = k + m
        self._encode_matrix = _encode_rows(k, m)
        #: Reconstruction subsets this instance has asked for before —
        #: the basis of the deterministic hit/miss accounting.
        self._seen_subsets: set = set()
        #: Optional Counter-like sink for ``codec_row_{hits,misses}``.
        self.stats = None

    # ------------------------------------------------------------ encode
    def encode(self, data_fragments: Sequence[bytes]) -> List[bytes]:
        """Parity fragments for ``k`` equal-length data fragments."""
        if len(data_fragments) != self.k:
            raise ValueError(
                f"expected {self.k} data fragments, got {len(data_fragments)}"
            )
        return [_combine(data_fragments, row) for row in self._encode_matrix]

    def encode_many(
        self, pages: Sequence[Sequence[bytes]]
    ) -> List[List[bytes]]:
        """Parity for a stripe batch: ``[encode(p) for p in pages]``.

        ``pages`` is a sequence of per-page data-fragment lists; the
        batch must be uniform (``k`` fragments per page, one fragment
        length throughout) or :class:`ValueError` is raised.
        """
        if pages:
            sizes = {len(page) for page in pages}
            if sizes != {self.k}:
                raise ValueError(
                    f"expected {self.k} data fragments per page, got {sizes}"
                )
            if len({len(f) for page in pages for f in page}) != 1:
                raise ValueError("ragged fragment lengths in batch")
        return [self.encode(page) for page in pages]

    def data_from_many(
        self, availables: Sequence[Dict[int, bytes]]
    ) -> List[List[bytes]]:
        """Batched :meth:`data_from`: one call per survivor dict."""
        return [self.data_from(available) for available in availables]

    # ------------------------------------------------------- reconstruct
    def reconstruct(
        self,
        available: Dict[int, bytes],
        want: Optional[Sequence[int]] = None,
    ) -> Dict[int, bytes]:
        """Rebuild fragments from any ``k`` survivors.

        ``available`` maps fragment index -> bytes (at least ``k``
        entries; extras are ignored deterministically, preferring data
        fragments, then lower indices).  ``want`` selects the indices to
        produce (default: every missing index).  Returns
        ``{index: fragment}`` for the requested indices; indices already
        in ``available`` are returned as-is without algebra.
        """
        if want is None:
            want = [i for i in range(self.width) if i not in available]
        out: Dict[int, bytes] = {}
        todo = []
        for index in want:
            if not 0 <= index < self.width:
                raise ValueError(f"fragment index out of range: {index}")
            if index in available:
                out[index] = available[index]
            else:
                todo.append(index)
        if not todo:
            return out
        if len(available) < self.k:
            raise ValueError(
                f"need {self.k} fragments to reconstruct, have {len(available)}"
            )
        src = tuple(sorted(available, key=lambda i: (i >= self.k, i))[: self.k])
        key = (src, tuple(todo))
        if self.stats is not None:
            self.stats.add(
                "codec_row_hits" if key in self._seen_subsets
                else "codec_row_misses"
            )
        self._seen_subsets.add(key)
        rows = _reconstruction_rows(self.k, self.m, src, key[1])
        fragments = [available[i] for i in src]
        for index, row in zip(todo, rows):
            out[index] = _combine(fragments, row)
        return out

    def data_from(self, available: Dict[int, bytes]) -> List[bytes]:
        """The ``k`` data fragments, reconstructing any that are missing."""
        rebuilt = self.reconstruct(available, want=range(self.k))
        return [rebuilt[i] for i in range(self.k)]


# ------------------------------------------------------------ page <-> frags
def split_page(contents: bytes, k: int, fragment_size: int) -> List[bytes]:
    """Split a page into ``k`` fragments of ``fragment_size`` bytes.

    The last fragment is zero-padded: ``join_fragments`` truncates back
    to the original page size, so the round trip is byte-identical.
    """
    padded = contents.ljust(k * fragment_size, b"\0")
    return [
        padded[i * fragment_size : (i + 1) * fragment_size] for i in range(k)
    ]


def join_fragments(data_fragments: Sequence[bytes], page_size: int) -> bytes:
    """Concatenate data fragments and strip the split-time padding."""
    return b"".join(data_fragments)[:page_size]
