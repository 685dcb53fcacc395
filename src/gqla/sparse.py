"""Top-k sparse attention over the expanded cache, plus the tile rule.

The index scores come from a deliberately simple stub (mean over heads of the
rotary query against cached rotary keys); real hierarchical indexers are out
of scope. The stub reads one cached (rope_head_dim, model_dim) matrix of the
weights, not the query path, and top-k selection partitions the scores
rather than sorting them, so the pre-pass stays small next to the attention
it prunes. Sparse attention runs the dense paths' grouped attention core on the
selected cache rows and defaults to their logit scale, config.score_scale, so
selecting every position reproduces the dense output without passing a scale.
A latent-cache twin of the sparse step is provided behind the same signature,
and the two agree for any fixed selection, exactly as the dense paths do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .model import (ExpandedCache, GqlaConfig, GqlaWeights, LatentCache, _attention,
                    _check_cache, _check_tokens, _fieldwise, _project_queries, _softmax)
from .rope import apply_rope

TILE_M = 16
MASK_VALUE = -1e9


@dataclass(frozen=True)
class TileReport:
    """Whether the expanded path can fill a tensor-core MMA tile."""

    heads_per_group: int
    gqa_path_feasible: bool
    rationale: str
    tile_m: int = TILE_M


def tile_feasibility(config: GqlaConfig) -> TileReport:
    """The expanded sparse path needs >= tile_m query heads per K/V group."""
    hpg = config.heads_per_group
    feasible = hpg >= TILE_M
    if feasible:
        rationale = (f"{hpg} query heads share each K/V group, filling the "
                     f"m={TILE_M} MMA tile; the expanded sparse path runs on tensor cores")
    elif hpg == 1:
        rationale = ("one query head per K/V group: the per-token GEMM degenerates "
                     "to a GEMV and falls off tensor cores; only the absorbed path remains")
    else:
        rationale = (f"only {hpg} query heads share each K/V group, under the "
                     f"m={TILE_M} MMA tile; the expanded sparse path cannot fill tensor cores")
    return TileReport(heads_per_group=hpg, gqa_path_feasible=feasible, rationale=rationale)


def stub_index_scores(weights: GqlaWeights, config: GqlaConfig, cache, x) -> np.ndarray:
    """Fixed stub indexer: mean over heads of the rotary query-key dot product.

    Works on either cache layout (both carry the rotary keys). The query is
    the newest cached token, at position t = len(cache) - 1. Every head's
    rotary query R_t·Q_h·c_q is rotated by the same R_t, so the head mean of
    its dot products with a cached key k_s is k_s·R_t·(Q̄·x), where Q̄ =
    mean_h(Q_h)·q_down (mean_h(Q_h) without q_down) is kept on the weights
    (see GqlaWeights). One (rope_head_dim, model_dim) product, one rotation
    and one read of the cached rotary keys give the scores; they match the
    per-head form to rounding, not bitwise.
    """
    x = _check_token(x, config.model_dim)
    _check_cache(weights, cache, (ExpandedCache, LatentCache))
    if len(cache) < 1:
        raise ParameterError("cache must be non-empty")
    q = apply_rope(config.rope_spec(), weights._index_query_map @ x, len(cache) - 1)
    return cache.k_rope @ q


def topk_select(scores, k: int) -> np.ndarray:
    """Positions of the k largest scores, ties toward the smaller position.

    Returns all positions when k >= len(scores); result sorted ascending.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ParameterError("scores must be a non-empty 1-D array")
    if not np.all(np.isfinite(scores)):
        raise ShapeError("scores contain non-finite entries")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if k >= scores.size:
        return np.arange(scores.size)
    # Keep every score above the k-th largest, then the first positions that
    # tie it until k are kept.
    kth = np.partition(scores, -k)[-k]
    keep = scores > kth
    ties = np.flatnonzero(scores == kth)
    keep[ties[: k - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def _check_token(x, model_dim: int) -> np.ndarray:
    return _check_tokens(np.asarray(x, dtype=np.float64)[None], model_dim, 1)[0]


def _check_selection(selected, length: int) -> np.ndarray:
    sel = np.asarray(selected)
    if sel.ndim != 1 or sel.size == 0 or sel.dtype.kind not in "iu":
        raise ParameterError("selection must be a non-empty 1-D set of integer positions")
    if np.unique(sel).size != sel.size:
        raise ParameterError("selection contains repeated positions")
    if sel.min() < 0 or sel.max() >= length:
        raise ParameterError(f"selection out of range for a cache of {length} tokens")
    return sel


def _sparse_step(weights: GqlaWeights, config: GqlaConfig, cache, layout: type, x, selected,
                 scale):
    x = _check_token(x, config.model_dim)
    _check_cache(weights, cache, layout)
    sel = _check_selection(selected, len(cache))
    q_nope, q_rope = _project_queries(weights, config, x[None], len(cache) - 1)
    picked = _fieldwise(lambda rows: rows[sel], cache)
    return _attention(weights, config, q_nope, q_rope, picked,
                      config.score_scale if scale is None else scale)[0]


def sparse_attention(weights: GqlaWeights, config: GqlaConfig, cache: ExpandedCache,
                     x, selected, scale: float | None = None) -> np.ndarray:
    """Attend only over the selected cache positions along the expanded path.

    The query token x is the newest cached entry; its position is
    len(cache) - 1. Returns the combined model_dim output.
    """
    return _sparse_step(weights, config, cache, ExpandedCache, x, selected, scale)


def sparse_attention_absorbed(weights: GqlaWeights, config: GqlaConfig, cache: LatentCache,
                              x, selected, scale: float | None = None) -> np.ndarray:
    """Latent-cache twin of sparse_attention; identical output for the same selection."""
    return _sparse_step(weights, config, cache, LatentCache, x, selected, scale)


def masked_reference(weights: GqlaWeights, config: GqlaConfig, cache: ExpandedCache,
                     x, selected, scale: float | None = None) -> np.ndarray:
    """Diagnostic oracle: dense attention with excluded logits forced to MASK_VALUE.

    True exclusion and masking must agree; this is the masking-equivalence
    check run by tests and the sparse-check command.
    """
    x = _check_token(x, config.model_dim)
    _check_cache(weights, cache, ExpandedCache)
    sel = _check_selection(selected, len(cache))
    if scale is None:
        scale = config.score_scale
    q_nope, q_rope = _project_queries(weights, config, x, len(cache) - 1)
    gi = np.arange(config.num_heads) // config.heads_per_group
    length = len(cache)
    k_g = cache.k_nope.reshape(length, config.num_groups, config.head_dim)[:, gi, :]
    v_g = cache.v.reshape(length, config.num_groups, config.value_head_dim)[:, gi, :]
    logits = (np.einsum("hd,shd->hs", q_nope, k_g) + q_rope @ cache.k_rope.T) * scale
    mask = np.full(length, True)
    mask[sel] = False
    logits[:, mask] = MASK_VALUE
    attn = _softmax(logits)
    o = np.einsum("hs,shd->hd", attn, v_g)
    return weights.out_proj @ o.reshape(-1)
