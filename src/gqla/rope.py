"""Rotary position embedding primitives.

The convention is adjacent pairs: coordinates (2k, 2k+1) form pair k and are
rotated counterclockwise by angle t * base**(-2k/dim) at position t. The same
convention must be used by the attention model and the checkpoint converter;
the converter's exactness relies on per-pair rotations commuting with it.

Pair k is rotated as the complex number v[2k] + i*v[2k+1] times
exp(i * angle): one complex multiply per pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@functools.lru_cache(maxsize=64)
def _frequencies(dim: int, base: float) -> np.ndarray:
    k = np.arange(dim // 2, dtype=np.float64)
    freqs = base ** (-2.0 * k / dim)
    freqs.setflags(write=False)
    return freqs


@dataclass(frozen=True)
class RopeSpec:
    dim: int
    base: float = 10000.0

    def __post_init__(self):
        if self.dim < 2 or self.dim % 2 != 0:
            raise ShapeError(f"rotary dim must be a positive even count, got {self.dim}")
        if not self.base > 1.0:
            raise ShapeError(f"rotary base must be > 1, got {self.base}")

    def frequencies(self) -> np.ndarray:
        """Angular frequency of each pair: base**(-2k/dim) for pair k (read-only,
        computed once per (dim, base))."""
        return _frequencies(self.dim, self.base)


def apply_rope(spec: RopeSpec, v, t) -> np.ndarray:
    """Rotate each coordinate pair of v by its frequency times position t.

    t is one integer position, or an integer array giving the position of
    each entry along v's leading axis.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != spec.dim:
        raise ShapeError(f"vector length {v.shape[-1]} does not match rotary dim {spec.dim}")
    t = np.asarray(t)
    if t.ndim and (t.ndim != 1 or v.ndim < 2 or t.shape[0] != v.shape[0]):
        raise ShapeError(f"positions of shape {t.shape} do not align with the "
                         f"leading axis of shape {v.shape}")
    rot = np.exp(1j * np.multiply.outer(t.astype(np.float64), spec.frequencies()))
    if t.ndim:
        rot = rot.reshape(t.shape + (1,) * (v.ndim - 2) + rot.shape[-1:])
    pairs = np.ascontiguousarray(v).view(np.complex128)
    return (pairs * rot).view(np.float64)


def apply_folded_rope(spec: RopeSpec, v, t) -> np.ndarray:
    """Apply the same rotation independently to each consecutive dim-sized block.

    t is a position or a position per entry along v's leading axis, as in
    apply_rope.
    """
    v = np.asarray(v, dtype=np.float64)
    n = v.shape[-1]
    if n % spec.dim != 0:
        raise ShapeError(f"length {n} is not a multiple of rotary dim {spec.dim}")
    if np.ndim(t) and v.ndim < 2:
        raise ShapeError("a position vector needs a leading position axis on v")
    blocks = v.reshape(v.shape[:-1] + (n // spec.dim, spec.dim))
    return apply_rope(spec, blocks, t).reshape(v.shape)
