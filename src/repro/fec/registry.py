"""String-keyed registry of erasure-code implementations.

The registry is the single place the rest of the tree — `BlockEncoder` /
`BlockDecoder`, the MC simulators, the protocol harness's ``codec=`` knob,
and the experiment CLI's ``--codec`` flag — resolves a
codec name into a constructed :class:`~repro.fec.code.ErasureCode`.  Names
are plain strings, so they cross process boundaries (the sharded MC kernels
receive ``codec="lrc"`` in their params dict, never a live object).

Geometry is validated through the class's
:meth:`~repro.fec.code.ErasureCode.validate_geometry` *before* construction,
so every codec rejects impossible ``(k, h)`` uniformly with
:exc:`~repro.fec.code.CodeGeometryError`.

>>> from repro.fec.registry import create_codec, codec_names
>>> sorted(codec_names())  # doctest: +SKIP
['lrc', 'rect', 'rse', 'xor']
>>> create_codec("xor", k=7, h=1).n
8
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.fec.code import ErasureCode
from repro.galois.field import GF256

__all__ = [
    "DEFAULT_CODEC",
    "register_codec",
    "codec_names",
    "get_codec",
    "create_codec",
    "resolve_codec",
    "temporary_codec",
]

#: Codec used when callers don't specify one (the paper's own coder).
DEFAULT_CODEC = "rse"

_REGISTRY: dict[str, type[ErasureCode]] = {}


def register_codec(cls: type[ErasureCode]) -> type[ErasureCode]:
    """Class decorator: register ``cls`` under its :attr:`name`.

    Re-registering the *same* class is a no-op (module reloads); claiming
    an existing name with a different class is an error.
    """
    name = getattr(cls, "name", None)
    if not isinstance(name, str) or not name or name == "abstract":
        raise ValueError(
            f"codec class {cls.__name__} must define a non-empty `name`"
        )
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"codec name {name!r} already registered by {existing.__name__}"
        )
    _REGISTRY[name] = cls
    return cls


def codec_names() -> list[str]:
    """Sorted names of every registered codec."""
    return sorted(_REGISTRY)


def get_codec(name: str) -> type[ErasureCode]:
    """The codec class registered under ``name``.

    Raises
    ------
    KeyError
        With the list of known names, for typo-friendly CLI errors.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown codec {name!r}; registered codecs: {codec_names()}"
        ) from None


def create_codec(name: str, k: int, h: int, **kwargs) -> ErasureCode:
    """Construct codec ``name`` for geometry ``(k, h)``.

    Geometry is validated via the class's ``validate_geometry`` before the
    constructor runs, so impossible shapes fail with
    :exc:`~repro.fec.code.CodeGeometryError` regardless of implementation.
    Extra keyword arguments are passed to the constructor (e.g. ``field=``,
    RSE's ``inverse_cache=``, LRC's ``local_groups=``).
    """
    cls = get_codec(name)
    geometry_kwargs = dict(kwargs)
    geometry_kwargs.setdefault("field", GF256)
    # validate_geometry signatures accept and ignore construction-only
    # extras (e.g. inverse_cache), so all kwargs can be forwarded
    cls.validate_geometry(k, h, **geometry_kwargs)
    return cls(k, h, **kwargs)


def resolve_codec(
    codec: ErasureCode | str | None, k: int, h: int, **kwargs
) -> ErasureCode | None:
    """Normalise a codec knob: name -> instance, instance -> geometry-checked.

    ``None`` passes through (caller-specific default).  An instance must
    already match ``(k, h)`` exactly; a string is constructed through the
    registry.
    """
    if codec is None:
        return None
    if isinstance(codec, str):
        return create_codec(codec, k, h, **kwargs)
    if codec.k != k or codec.h != h:
        raise ValueError(
            f"codec {codec!r} does not match requested geometry "
            f"k={k}, h={h}"
        )
    return codec


@contextmanager
def temporary_codec(cls: type[ErasureCode]) -> Iterator[type[ErasureCode]]:
    """Register ``cls`` for the duration of a ``with`` block (tests only).

    The conformance suite uses this to prove it catches contract
    violations: a deliberately broken codec is registered, the battery is
    run against it, and the registry is restored afterwards even if the
    battery (correctly) fails.
    """
    name = cls.name
    previous = _REGISTRY.get(name)
    if previous is not None and previous is not cls:
        raise ValueError(f"codec name {name!r} already registered")
    register_codec(cls)
    try:
        yield cls
    finally:
        if previous is None:
            _REGISTRY.pop(name, None)
        else:
            _REGISTRY[name] = previous
