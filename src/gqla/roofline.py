"""Analytical roofline planner for the two decoding paths.

Counts only attention-decode KV traffic and FLOPs (no projection GEMMs, no
softmax ops), with BF16 elements fixed at 2 bytes: that accounting is what
makes per-step times and throughputs comparable across hardware with nothing
measured. Throughput is per attention layer per sequence, not end-to-end.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

from .errors import ParameterError
from .model import GqlaConfig

MQA_ABSORB = "MQA-absorb"
GQA = "GQA"
BF16_BYTES = 2


@dataclass(frozen=True)
class HardwareSpec:
    name: str
    flops_peak: float  # FLOP/s, dense BF16
    bandwidth: float   # bytes/s, HBM

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.flops_peak, self.bandwidth)):
            raise ParameterError("flops_peak and bandwidth must be finite and positive")


H100 = HardwareSpec("H100", flops_peak=989e12, bandwidth=3.35e12)
H20 = HardwareSpec("H20", flops_peak=148e12, bandwidth=4.0e12)


def ridge(hw: HardwareSpec) -> float:
    """Arithmetic intensity at which the hardware turns compute-bound (FLOPs/byte)."""
    return hw.flops_peak / hw.bandwidth


def _check_path(path: str) -> str:
    if path not in (MQA_ABSORB, GQA):
        raise ParameterError(f"path must be {MQA_ABSORB!r} or {GQA!r}, got {path!r}")
    return path


def elements_per_token(config: GqlaConfig, path: str, g: int | None = None) -> int:
    """Cached elements per token for a path (latent vs per-group expanded). On
    the expanded path g (num_groups when None) must divide num_heads."""
    _check_path(path)
    if path == MQA_ABSORB:
        return config.latent_elements_per_token
    g = config.num_groups if g is None else g
    if g < 1 or config.num_heads % g != 0:
        raise ParameterError(f"g must divide num_heads ({config.num_heads}), got {g}")
    return replace(config, num_groups=g).expanded_elements_per_token


def _float_count(count: int) -> float:
    """An exact count as a float; past the float range it raises ParameterError."""
    if count > sys.float_info.max:
        raise ParameterError("length or s_q too large: the step's counts exceed the float range")
    return float(count)


def bytes_per_token(config: GqlaConfig, path: str, g: int | None = None,
                    element_bytes: int = BF16_BYTES) -> int:
    return element_bytes * elements_per_token(config, path, g)


def flops_per_step(config: GqlaConfig, path: str, s_q: int, length: int) -> float:
    """Attention-decode FLOPs for one step over a length-L prefix.

    Each (head, query, position) triplet costs 2*(score dims + value dims):
    on the absorbed path scores run over kv_rank + rope dims and values over
    kv_rank; on the expanded path scores over head_dim + rope dims and values
    over value_head_dim.
    """
    _check_path(path)
    c = config
    if path == MQA_ABSORB:
        per_triplet = 2 * (2 * c.kv_rank + c.rope_head_dim)
    else:
        per_triplet = 2 * (c.head_dim + c.rope_head_dim + c.value_head_dim)
    return _float_count(length * c.num_heads * s_q * per_triplet)


@dataclass(frozen=True)
class OperatingPoint:
    """One planner row: a (hardware, path, g, s_q) combination at fixed L."""

    gpu: str
    path: str
    g: int
    s_q: int
    cache_bytes_per_token: int
    intensity: float
    mem_time: float   # seconds
    cmp_time: float   # seconds
    step_time: float  # seconds, max(mem, cmp)
    throughput: float  # tokens/s, s_q / step_time


def step_time(hw: HardwareSpec, config: GqlaConfig, path: str, g: int | None = None,
              s_q: int = 1, length: int = 8192,
              element_bytes: int = BF16_BYTES) -> OperatingPoint:
    """Per-step roofline timing for one operating point; g as in
    elements_per_token."""
    if length < 1:
        raise ParameterError(f"length must be >= 1, got {length}")
    if s_q < 1:
        raise ParameterError(f"s_q must be >= 1, got {s_q}")
    g_eff = (1 if path == MQA_ABSORB else (config.num_groups if g is None else g))
    b_tok = bytes_per_token(config, path, g_eff, element_bytes)
    total_bytes = _float_count(length * b_tok)
    total_flops = flops_per_step(config, path, s_q, length)
    mem = total_bytes / hw.bandwidth
    cmp = total_flops / hw.flops_peak
    step = max(mem, cmp)
    return OperatingPoint(
        gpu=hw.name, path=path, g=g_eff, s_q=s_q,
        cache_bytes_per_token=b_tok, intensity=total_flops / total_bytes,
        mem_time=mem, cmp_time=cmp, step_time=step, throughput=s_q / step,
    )


# Default planner rows: the latent path at s_q in {1,2}, the expanded path at
# the two ridge-relevant group counts. The H100 preset alone (not any spec so
# named) gets only the latent rows, as the reference table is laid out.
_LATENT_ROWS = [(MQA_ABSORB, 1, 1), (MQA_ABSORB, 1, 2)]
_EXPANDED_ROWS = [(GQA, 8, 1), (GQA, 8, 2), (GQA, 4, 1), (GQA, 4, 2)]


def default_rows(hw: HardwareSpec) -> list:
    if hw == H100:
        return list(_LATENT_ROWS)
    return _LATENT_ROWS + _EXPANDED_ROWS


def operating_table(hardware, config: GqlaConfig, rows=None, length: int = 8192) -> list:
    """OperatingPoints for each hardware spec; rows=None uses default_rows per GPU."""
    points = []
    for hw in hardware:
        for path, g, s_q in (default_rows(hw) if rows is None else rows):
            points.append(step_time(hw, config, path, g=g, s_q=s_q, length=length))
    return points


@dataclass(frozen=True)
class Recommendation:
    path: str
    g: int
    s_q: int
    step_seconds: float
    throughput: float
    note: str


def recommend(hw: HardwareSpec, config: GqlaConfig, allow_mtp: bool = False,
              max_g: int | None = None, length: int = 8192) -> Recommendation:
    """Pick the (path, g, s_q) with the best per-token step time.

    Expanded-path candidates are limited to group counts that divide the head
    count, respect the max_g tensor-parallel cap, and keep g*head_dim >=
    kv_rank so the per-group expansion does not lose latent rank. Ties on
    per-token time prefer intensity at or just under the hardware ridge when
    any tied candidate qualifies, then the larger group count (larger TP cap),
    then single-query decoding.
    """
    max_g = config.num_groups if max_g is None else max_g
    s_q_options = (1, 2) if allow_mtp else (1,)
    candidates = []
    for s_q in s_q_options:
        candidates.append(step_time(hw, config, MQA_ABSORB, s_q=s_q, length=length))
    for g in range(1, max_g + 1):
        if config.num_heads % g != 0:
            continue
        if g * config.head_dim < config.kv_rank:
            continue  # expansion would be rank-deficient against the latent
        for s_q in s_q_options:
            candidates.append(step_time(hw, config, GQA, g=g, s_q=s_q, length=length))

    best = min(p.step_time / p.s_q for p in candidates)
    tied = [p for p in candidates if p.step_time / p.s_q <= best * (1 + 1e-9)]
    top = ridge(hw)
    under = [p for p in tied if p.intensity <= top * (1 + 1e-9)]
    if under:
        closest = max(p.intensity for p in under)
        tied = [p for p in under if p.intensity >= closest * (1 - 1e-9)]
    tied.sort(key=lambda p: (-p.g, p.s_q, p.path))
    pick = tied[0]

    notes = []
    if pick.path == GQA:
        notes.append(f"{pick.g}-way tensor-parallel cap on the expanded path")
        if pick.s_q == 1:
            notes.append(
                f"adding s_q=2 at g={pick.g} would need kv_rank <= "
                f"{pick.g * config.head_dim // 2} (not enforced)")
    else:
        notes.append("latent path; intensity and cache are group-independent")
    return Recommendation(path=pick.path, g=pick.g, s_q=pick.s_q,
                          step_seconds=pick.step_time, throughput=pick.throughput,
                          note="; ".join(notes))
