"""Vectorized codec kernels: bulk codeword decoding into numpy keys.

The array operators (DESIGN.md §13) evaluate compressed-domain
predicates positionally: containers are value-sorted, so any eq/ineq/
interval predicate over ALM, Huffman or numeric codewords reduces to a
``[start, end)`` slot range and a boolean mask over record positions —
no per-record decoding at all.  What *does* need per-record keys is the
merge machinery (``np.searchsorted`` joins) and numeric analytics, and
for the fixed-width numeric codecs that decoding is a pure array
transform:

* :class:`IntegerKernel` — codewords are offset big-endian unsigned
  integers; one ``frombuffer`` + matrix-vector product recovers every
  value.
* :class:`FloatKernel` — codewords are IEEE-754 bits under the total
  order transform; one ``frombuffer`` + vectorized bit flip + ``view``
  recovers every value.

Variable-width codecs (ALM, Huffman, Hu-Tucker, arithmetic) have no
vectorized decode kernel — their compressed-domain strength is the
positional route above, and callers fall back to scalar decoding when
they truly need plaintext.  :func:`kernel_for` returns ``None`` for
them, which is the documented "scalar fallback" signal.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Codec
from repro.compression.numeric import FloatCodec, IntegerCodec


class IntegerKernel:
    """Bulk decoder for :class:`IntegerCodec` codewords."""

    #: result dtype of :meth:`decode_keys`.
    dtype = np.int64

    def __init__(self, codec: IntegerCodec):
        self._codec = codec
        self._width = codec.width

    def decode_keys(self, records) -> np.ndarray:
        """Numeric values of ``records`` as one int64 array.

        ``records`` is a sequence of
        :class:`~repro.storage.containers.ContainerRecord`; each
        codeword is ``width`` big-endian bytes holding
        ``value - minimum``.
        """
        width = self._width
        count = len(records)
        data = b"".join(r.compressed.data for r in records)
        raw = np.frombuffer(data, dtype=np.uint8).reshape(count, width)
        weights = (np.int64(256) **
                   np.arange(width - 1, -1, -1, dtype=np.int64))
        return raw.astype(np.int64) @ weights + self._codec.minimum


class FloatKernel:
    """Bulk decoder for :class:`FloatCodec` codewords."""

    dtype = np.float64

    def decode_keys(self, records) -> np.ndarray:
        """Numeric values of ``records`` as one float64 array.

        Inverts the total-order transform: stored words with the top
        bit set were positives (sign bit flipped), the rest were
        negatives (all bits flipped).
        """
        data = b"".join(r.compressed.data for r in records)
        words = np.frombuffer(data, dtype=">u8").astype(np.uint64)
        top = np.uint64(1) << np.uint64(63)
        everything = np.uint64(0xFFFFFFFFFFFFFFFF)
        decoded = np.where(words & top != 0,
                           words ^ top, words ^ everything)
        return decoded.view(np.float64)


def kernel_for(codec: Codec):
    """The vectorized decode kernel for ``codec``, or ``None``.

    ``None`` means scalar fallback: the codec's codewords are variable
    width (or too wide for exact int64 arithmetic) and must be decoded
    one at a time through ``codec.decode``.
    """
    if isinstance(codec, IntegerCodec):
        # 8-byte codewords can exceed int64 once the minimum offset is
        # added back; keep the exact scalar path for those rarities.
        if codec.width <= 7:
            return IntegerKernel(codec)
        return None
    if isinstance(codec, FloatCodec):
        return FloatKernel()
    return None
