"""Codec registry: look codecs up by name, train them uniformly.

The cost-model search (:mod:`repro.partitioning.search`) manipulates
algorithm *names* and needs to instantiate and characterize codecs
without knowing concrete classes.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.compression.alm import ALMCodec
from repro.compression.arithmetic import ArithmeticCodec
from repro.compression.base import Codec
from repro.compression.blob import Bzip2Blob, ZlibBlob
from repro.compression.huffman import HuffmanCodec
from repro.compression.hutucker import HuTuckerCodec
from repro.compression.numeric import FloatCodec, IntegerCodec
from repro.errors import UnknownCodecError

_REGISTRY: dict[str, type[Codec]] = {
    ALMCodec.name: ALMCodec,
    ArithmeticCodec.name: ArithmeticCodec,
    HuffmanCodec.name: HuffmanCodec,
    HuTuckerCodec.name: HuTuckerCodec,
    IntegerCodec.name: IntegerCodec,
    FloatCodec.name: FloatCodec,
    ZlibBlob.name: ZlibBlob,
    Bzip2Blob.name: Bzip2Blob,
}

#: string codecs the workload-driven search chooses among (paper §3: the
#: set A of available compression algorithms for textual containers).
STRING_ALGORITHMS = (ALMCodec.name, HuffmanCodec.name, HuTuckerCodec.name,
                     ArithmeticCodec.name, Bzip2Blob.name)


def available_codecs() -> list[str]:
    """Names of all registered codecs."""
    return sorted(_REGISTRY)


def codec_class(name: str) -> type[Codec]:
    """Look up a codec class; raises :class:`UnknownCodecError`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownCodecError(
            f"no codec named {name!r}; available: "
            f"{', '.join(available_codecs())}") from None


def train_codec(name: str, values: Iterable[str]) -> Codec:
    """Train the named codec on ``values``."""
    return codec_class(name).train(values)


def train_and_encode(name: str, values: Iterable[str]):
    """Train the named codec on ``values`` and compress them with it:
    ``(codec, compressed values in order)`` — see
    :meth:`Codec.train_and_encode`."""
    return codec_class(name).train_and_encode(values)


def register_codec(cls: type[Codec]) -> type[Codec]:
    """Register a user-supplied codec class (usable as a decorator)."""
    _REGISTRY[cls.name] = cls
    return cls
