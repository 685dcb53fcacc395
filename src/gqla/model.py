"""Group-query latent attention core.

One set of projection weights admits two algebraically equivalent decoding
paths. The expanded path materializes per-group K/V from the latent and runs
grouped-query attention against an ExpandedCache; the absorbed path folds the
K/V up-projections into the query/output sides so every head attends directly
to the cached latent (LatentCache). Both run one grouped attention core: the
absorbed path is its one-group (MQA) case, whose keys and values are both the
latent. Switching between them is a one-shot cache expand/compress. Their
oracle is a brute-force attention (oracle_mha): per head and per query, with
one product per head over all positions, its own rotation and softmax, and
no shared helper.

A token is a (model_dim,) vector, a sequence or block an (L, model_dim) array.
Prefill appends a sequence to an empty cache and decode a token or a block to
a given one, through one append-and-attend routine; decode outputs are shaped
like its input. All arithmetic is float64. No function writes an array that
a caller made, but building weights makes their arrays read-only, a caller's
too (see GqlaWeights). No row that any cache can see ever changes; but a
decoded cache may share storage with the cache it extends, since decode
appends into spare rows past it (see _append). Appending to one cache from
several threads at once is not supported.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateCalibrationError, NumericError, OutOfSubspaceError, ParameterError,
                     ShapeError)
from .numerics import CovarianceAccumulator, _read_only, accumulate
from .rope import RopeSpec, apply_folded_rope, apply_rope


def _check_counts(**counts) -> None:
    """Raise ParameterError unless every named count is >= 1."""
    for name, value in counts.items():
        if value < 1:
            raise ParameterError(f"{name} must be >= 1, got {value}")


def _check_rotary(dim_name: str, dim: int, base: float) -> None:
    """Raise ParameterError unless the rotary dim is even and its base > 1."""
    if dim % 2 != 0:
        raise ParameterError(f"{dim_name} must be even (rotary pairs), got {dim}")
    if not base > 1.0:
        raise ParameterError(f"rope_base must be > 1, got {base}")


@dataclass(frozen=True)
class GqlaConfig:
    """Architecture dimensions plus the rotary base.

    num_heads query heads share num_groups K/V groups; the joint K/V latent
    has kv_rank dims and queries are compressed through a q_rank latent. The
    decoupled rotary pathway carries rope_head_dim dims, shared across heads
    on the key side.
    """

    model_dim: int
    num_heads: int
    num_groups: int
    head_dim: int
    value_head_dim: int
    rope_head_dim: int
    kv_rank: int
    q_rank: int
    rope_base: float = 10000.0

    def __post_init__(self):
        _check_counts(**{f: getattr(self, f) for f in (
            "model_dim", "num_heads", "num_groups", "head_dim",
            "value_head_dim", "rope_head_dim", "kv_rank", "q_rank")})
        if self.num_heads % self.num_groups != 0:
            raise ParameterError(
                f"num_heads ({self.num_heads}) must be divisible by num_groups ({self.num_groups})")
        _check_rotary("rope_head_dim", self.rope_head_dim, self.rope_base)

    @property
    def heads_per_group(self) -> int:
        return self.num_heads // self.num_groups

    @property
    def score_scale(self) -> float:
        """Softmax logit scale shared by both decoding paths."""
        return 1.0 / math.sqrt(self.head_dim + self.rope_head_dim)

    def rope_spec(self) -> RopeSpec:
        return RopeSpec(self.rope_head_dim, self.rope_base)

    @property
    def latent_elements_per_token(self) -> int:
        return self.kv_rank + self.rope_head_dim

    @property
    def expanded_elements_per_token(self) -> int:
        return self.num_groups * (self.head_dim + self.value_head_dim) + self.rope_head_dim


def canonical_config() -> GqlaConfig:
    """The reference DeepSeek-style operating shape used by the planner."""
    return GqlaConfig(
        model_dim=7168, num_heads=128, num_groups=8, head_dim=128,
        value_head_dim=128, rope_head_dim=64, kv_rank=512, q_rank=1536,
    )


@dataclass(frozen=True)
class GqlaWeights:
    """The projection matrices (row-major, float64).

    q_down: (q_rank, model_dim)             query down-projection, or None:
            queries project straight from the token (needs q_rank == model_dim)
    q_up:   (num_heads*head_dim, q_rank)    per-head query up-projection
    q_rope: (num_heads*rope_head_dim, q_rank) per-head rotary query projection
    kv_down:(kv_rank, model_dim)            joint K/V down-projection
    k_up:   (num_groups*head_dim, kv_rank)  per-group key up-projection
    v_up:   (num_groups*value_head_dim, kv_rank) per-group value up-projection
    k_rope: (rope_head_dim, model_dim)      shared rotary key projection
    out_proj:(model_dim, num_heads*value_head_dim) output combination

    Building weights makes every array read-only in place, with every ndarray
    in its .base chain: a caller's arrays, and their bases, too. So the two
    matrices made from them on first use, the cache_compress solve
    (_compress_map) and the stub indexer's query map (_index_query_map),
    cannot go stale; dataclasses.replace builds weights without them.
    """

    q_down: np.ndarray | None
    q_up: np.ndarray
    q_rope: np.ndarray
    kv_down: np.ndarray
    k_up: np.ndarray
    v_up: np.ndarray
    k_rope: np.ndarray
    out_proj: np.ndarray

    def __post_init__(self):
        for field in dataclasses.fields(self):
            _read_only(getattr(self, field.name))

    def validate(self, config: GqlaConfig, require_finite: bool = True) -> None:
        shapes = expected_shapes(config)
        if self.q_down is None and config.q_rank == config.model_dim:
            del shapes["q_down"]
        _check_arrays(self, shapes, require_finite)

    @functools.cached_property
    def _compress_map(self) -> np.ndarray:
        """The matrix M (rows of [k_up; v_up], kv_rank) with cache_compress's
        latents kv = S·M for stacked cache rows S, by the rule it documents.
        Computed on first use; a failed solve raises NumericError and keeps
        nothing."""
        basis = np.vstack([self.k_up, self.v_up])
        live = np.flatnonzero(np.any(basis, axis=0))
        sub = basis[:, live]
        gram = sub.T @ sub
        solve = np.zeros(basis.shape)
        try:
            if live.size and np.all(np.isfinite(gram)):
                lam, vecs = np.linalg.eigh(gram)  # ascending
                if lam[0] > COMPRESS_GRAM_MIN_RATIO * lam[-1]:
                    solve[:, live] = (sub @ vecs / lam) @ vecs.T  # B_l·(B_lᵀ·B_l)⁻¹
                    return solve
            return np.linalg.pinv(basis, rcond=max(basis.shape) * np.finfo(np.float64).eps).T
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"cache compression solve failed: {exc}") from exc

    @functools.cached_property
    def _index_query_map(self) -> np.ndarray:
        """The matrix Q̄ (rope_head_dim, model_dim) = (mean over heads of
        q_rope's (rope_head_dim, q_rank) blocks)·q_down, or the mean alone
        without q_down: the pre-rotary mean of the heads' rotary queries of a
        token x is Q̄·x."""
        rope_dim = self.k_rope.shape[0]
        mean = self.q_rope.reshape(-1, rope_dim, self.q_rope.shape[1]).mean(axis=0)
        return mean if self.q_down is None else mean @ self.q_down


def _check_arrays(weights, shapes: dict, require_finite: bool = True) -> None:
    """Raise ShapeError unless each named array of weights has its shape in
    shapes and, with require_finite, only finite entries."""
    for name, shape in shapes.items():
        arr = getattr(weights, name)
        if not isinstance(arr, np.ndarray):
            raise ShapeError(f"{name} is {type(arr).__name__}, not an array of shape {shape}")
        if arr.shape != shape:
            raise ShapeError(f"{name} has shape {arr.shape}, expected {shape}")
        if require_finite and not np.all(np.isfinite(arr)):
            raise ShapeError(f"{name} contains non-finite entries")


def expected_shapes(config: GqlaConfig) -> dict:
    c = config
    return {
        "q_down": (c.q_rank, c.model_dim),
        "q_up": (c.num_heads * c.head_dim, c.q_rank),
        "q_rope": (c.num_heads * c.rope_head_dim, c.q_rank),
        "kv_down": (c.kv_rank, c.model_dim),
        "k_up": (c.num_groups * c.head_dim, c.kv_rank),
        "v_up": (c.num_groups * c.value_head_dim, c.kv_rank),
        "k_rope": (c.rope_head_dim, c.model_dim),
        "out_proj": (c.model_dim, c.num_heads * c.value_head_dim),
    }


def init_random(config: GqlaConfig, seed: int) -> GqlaWeights:
    """Seeded random weights, entries uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)].

    Matrices are drawn in the field order of GqlaWeights, so a (config, seed)
    pair is fully reproducible.
    """
    return GqlaWeights(**_fan_in_uniform(expected_shapes(config), seed))


def _fan_in_uniform(shapes: dict, seed: int) -> dict:
    """One seeded matrix per (name, shape) of shapes, drawn in that order, with
    entries uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)], fan_in = shape[1]."""
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in shapes.items():
        bound = 1.0 / math.sqrt(shape[1])
        arrays[name] = rng.uniform(-bound, bound, size=shape)
    return arrays


class _Cache:
    """Per-token cache rows: every field is an (L, width) array.

    A cache that decode returns also carries, outside its fields, the
    _RowBuffer its fields are the first L rows of; any other cache carries
    none (see _append).
    """

    _buffer = None

    def __len__(self) -> int:
        return self.k_rope.shape[0]

    @property
    def elements_per_token(self) -> int:
        return sum(getattr(self, f.name).shape[1] for f in dataclasses.fields(self))


@dataclass(frozen=True)
class LatentCache(_Cache):
    """Per-token latent layout: kv (L, kv_rank) and post-rotary k_rope (L, rope_head_dim)."""

    kv: np.ndarray
    k_rope: np.ndarray


@dataclass(frozen=True)
class ExpandedCache(_Cache):
    """Per-token expanded layout: per-group K (L, g*head_dim), V (L, g*value_head_dim),
    and the shared post-rotary k_rope (L, rope_head_dim)."""

    k_nope: np.ndarray
    v: np.ndarray
    k_rope: np.ndarray


def random_tokens(count: int, dim: int, seed: int) -> np.ndarray:
    """Seeded synthetic token stream (standard normal), used for calibration
    and probe inputs at desk scale."""
    if count < 1 or dim < 1:
        raise ParameterError("count and dim must be >= 1")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    if count * dim * 8 > np.iinfo(np.intp).max:
        raise ParameterError("count x dim float64 tokens exceed the largest array numpy can make")
    return np.random.default_rng(seed).standard_normal((count, dim))


def _probe_deviation(reference, candidate, model_dim: int, seed: int) -> tuple:
    """Largest |candidate(p) - reference(p)| entry and largest |reference(p)|
    entry over two held-out 10-token probe sequences p (seeds seed and
    seed + 1); reference and candidate map tokens to arrays."""
    deviation, scale = 0.0, 0.0
    for n in range(2):
        probe = random_tokens(10, model_dim, seed + n)
        ref = reference(probe)
        deviation = max(deviation, float(np.max(np.abs(candidate(probe) - ref))))
        scale = max(scale, float(np.max(np.abs(ref))))
    return deviation, scale


def _check_tokens(tokens, model_dim: int, s_q: int) -> np.ndarray:
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 2 or tokens.shape[1] != model_dim:
        raise ShapeError(f"tokens must be (L, {model_dim}), got {tokens.shape}")
    if tokens.shape[0] < 1:
        raise ParameterError("token sequence must be non-empty")
    if not 1 <= s_q <= tokens.shape[0]:
        raise ParameterError(f"s_q must be in [1, {tokens.shape[0]}], got {s_q}")
    return tokens


def _calibration_gram(calib, model_dim: int) -> CovarianceAccumulator:
    """The second-moment accumulator of the calibration tokens (N, model_dim),
    or calib itself once its dim is checked. DegenerateCalibrationError if it
    holds no samples or its moment is all zero (no energy, or squares that
    underflow): no conversion can read a basis from it."""
    if not isinstance(calib, CovarianceAccumulator):
        calib = accumulate(CovarianceAccumulator.empty(model_dim),
                           _check_tokens(calib, model_dim, 1))
    elif calib.dim != model_dim:
        raise ShapeError(f"calibration accumulator has dim {calib.dim}, "
                         f"expected model_dim {model_dim}")
    if calib.sample_count == 0 or not calib.second_moment.any():
        raise DegenerateCalibrationError("calibration moment is all zero: the calibration "
                                         "holds no samples or its tokens carry no energy")
    return calib


def _project_queries(weights: GqlaWeights, config: GqlaConfig, x: np.ndarray, position):
    """Per-head queries of tokens x (..., model_dim) at their positions.

    Returns q_nope (..., num_heads, head_dim) and the post-rotary q_rope
    (..., num_heads, rope_head_dim). position is an int, or one per token of
    an (n, model_dim) batch.
    """
    c_q = x if weights.q_down is None else x @ weights.q_down.T
    heads = x.shape[:-1] + (config.num_heads,)
    q_nope = (c_q @ weights.q_up.T).reshape(heads + (config.head_dim,))
    q_rope = apply_folded_rope(config.rope_spec(), c_q @ weights.q_rope.T, position)
    return q_nope, q_rope.reshape(heads + (config.rope_head_dim,))


def _project_keys(weights, config: GqlaConfig, x: np.ndarray, position):
    """Latent kv (..., kv_rank) and post-rotary k_rope (..., rope_head_dim) of tokens x."""
    return x @ weights.kv_down.T, apply_rope(config.rope_spec(), x @ weights.k_rope.T,
                                             position)


# Largest (queries, heads, keys) score array, in float64 elements (8 MiB), that
# one attention call holds at a time; longer query batches are scored in blocks.
SCORE_BLOCK_ELEMENTS = 2 ** 20


def _query_blocks(count: int, rows_per_query: int, length: int):
    """Split count queries, the last count of length keys, into blocks whose
    scores fit SCORE_BLOCK_ELEMENTS.

    A block holds one query at least. Yields (slice, keys seen): a block's
    queries see only the keys up to the last of them, so the later keys are
    left out of its scores.
    """
    step = max(1, SCORE_BLOCK_ELEMENTS // (rows_per_query * length))
    for start in range(0, count, step):
        block = slice(start, min(start + step, count))
        yield block, length - count + block.stop


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, into a new array."""
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _grouped_core(q_nope, q_rope, keys, values, k_rope, scale: float):
    """Causal grouped attention: every K/V group's heads read that group's keys
    and values.

    Queries are (G, n, k, .): the k heads of each of G groups for n queries.
    keys are (G, d, L), values (G, L, dv), and the post-rotary k_rope (L,
    rope_head_dim) is shared by every head; a block without a shared rotary
    part passes zero-width q_rope and k_rope. The n queries are the last n of
    the L keys, in order, and each sees the keys up to its own, so a block of
    queries hides only the strict upper triangle of its own last key columns.
    One matmul batched over the group axis scores all of a group's heads.
    Returns the value reads (G, n, k, dv).
    """
    groups, count, hpg, dim = q_nope.shape
    length = k_rope.shape[0]
    out = np.empty((groups, count, hpg, values.shape[-1]))
    for block, seen in _query_blocks(count, groups * hpg, length):
        n = block.stop - block.start
        q_n = q_nope[:, block].reshape(groups, -1, dim)
        q_r = q_rope[:, block].reshape(groups * q_n.shape[1], q_rope.shape[-1])
        scores = q_n @ keys[..., :seen]
        scores += (q_r @ k_rope[:seen].T).reshape(scores.shape)
        scores *= scale
        scores = scores.reshape(groups, n, hpg, seen)
        if n > 1:
            np.copyto(scores[..., seen - n:], -np.inf,
                      where=np.triu(np.ones((n, n), bool), 1)[:, None])
        attn = _softmax(scores)
        out[:, block] = (attn.reshape(groups, -1, seen) @ values[:, :seen]).reshape(
            out[:, block].shape)
    return out


def _attention(weights: GqlaWeights, config: GqlaConfig, q_nope, q_rope, cache,
               scale: float) -> np.ndarray:
    """Attention of n queries (n, num_heads, .) over a cache of either layout,
    the queries being its last n tokens (see _grouped_core).

    An expanded cache is the grouped core's num_groups groups. A latent cache
    is its one group whose keys and values are both the latent (MQA): each K/V
    group's key up-projection is folded into its heads' queries and its value
    up-projection into their reads. Returns (n, model_dim).
    """
    c = config
    count = q_nope.shape[0]
    grouped = (count, c.num_groups, c.heads_per_group, -1)
    if isinstance(cache, LatentCache):
        k_up = weights.k_up.reshape(c.num_groups, c.head_dim, c.kv_rank)
        v_up = weights.v_up.reshape(c.num_groups, c.value_head_dim, c.kv_rank)
        q_latent = (q_nope.reshape(grouped) @ k_up).reshape(1, count, c.num_heads, c.kv_rank)
        reads = _grouped_core(q_latent, q_rope[None], cache.kv.T[None], cache.kv[None],
                              cache.k_rope, scale)
        o = reads.reshape(grouped) @ v_up.transpose(0, 2, 1)
    else:
        length = len(cache)
        keys = cache.k_nope.reshape(length, c.num_groups, c.head_dim).transpose(1, 2, 0)
        values = cache.v.reshape(length, c.num_groups, c.value_head_dim).transpose(1, 0, 2)
        reads = _grouped_core(q_nope.reshape(grouped).transpose(1, 0, 2, 3),
                              q_rope.reshape(grouped).transpose(1, 0, 2, 3),
                              keys, values, cache.k_rope, scale)
        o = reads.transpose(1, 0, 2, 3)
    return o.reshape(count, -1) @ weights.out_proj.T


def _fieldwise(fn, *caches):
    """The cache of caches[0]'s layout whose every field is fn of the caches' same fields."""
    return type(caches[0])(**{f.name: fn(*(getattr(c, f.name) for c in caches))
                              for f in dataclasses.fields(caches[0])})


def _check_cache(weights: GqlaWeights, cache, layout) -> None:
    """Raise ShapeError unless cache is of the layout (a cache class, or a tuple
    of them), every field is 2-D, all fields have one row per token, and each
    field is as wide as the weights make it."""
    layouts = layout if isinstance(layout, tuple) else (layout,)
    if not isinstance(cache, layouts):
        raise ShapeError(f"expected a {' or '.join(c.__name__ for c in layouts)}, "
                         f"got {type(cache).__name__}")
    widths = {"kv": weights.k_up.shape[1], "k_nope": weights.k_up.shape[0],
              "v": weights.v_up.shape[0], "k_rope": weights.k_rope.shape[0]}
    rows = np.shape(cache.k_rope)[:1]
    for field in dataclasses.fields(cache):
        name, shape = field.name, np.shape(getattr(cache, field.name))
        if shape != rows + (widths[name],):
            raise ShapeError(f"cache field {name} has shape {shape}; each field needs "
                             f"k_rope's rows and width {widths[name]}")


def _cache_rows(weights: GqlaWeights, layout: type, kv: np.ndarray, k_rope: np.ndarray):
    """Rows of the cache layout (LatentCache or ExpandedCache) for latents kv
    (n, kv_rank) and post-rotary keys k_rope (n, rope_head_dim)."""
    if layout is LatentCache:
        return LatentCache(kv=kv, k_rope=k_rope)
    return ExpandedCache(k_nope=kv @ weights.k_up.T, v=kv @ weights.v_up.T, k_rope=k_rope)


def _empty_cache(weights: GqlaWeights, config: GqlaConfig, layout: type):
    return _cache_rows(weights, layout, np.empty((0, config.kv_rank)),
                       np.empty((0, config.rope_head_dim)))


class _RowBuffer:
    """Preallocated rows for each field of a cache layout, of which the first
    fill are written; caches over it are views of its first len(cache) rows."""

    __slots__ = ("rows", "fill")

    def __init__(self, rows: dict, fill: int):
        self.rows, self.fill = rows, fill


def _append(cache, new):
    """The cache of cache's rows followed by new's, of cache's layout.

    Onto an empty cache the new rows are the whole cache, with no copy and no
    buffer. Otherwise new's rows are written in place after cache's when
    cache's buffer is filled up to exactly len(cache) and has room for them;
    else both are copied into a new buffer of twice the rows (at least all of
    them). Either way no row that any cache can see is ever written, and the
    given caches are left unchanged. The returned fields are read-only views,
    so no caller can write through them into rows other caches share.
    """
    length = len(cache)
    if not length:
        return new
    total = length + len(new)
    buf = cache._buffer
    if buf is None or buf.fill != length or total > buf.rows["k_rope"].shape[0]:
        capacity = max(2 * length, total)
        rows = {}
        for f in dataclasses.fields(cache):
            old = getattr(cache, f.name)
            rows[f.name] = np.empty((capacity, old.shape[1]),
                                    np.result_type(old, getattr(new, f.name)))
            rows[f.name][:length] = old
        buf = _RowBuffer(rows, length)
    fields = {}
    for name, arr in buf.rows.items():
        arr[length:total] = getattr(new, name)
        fields[name] = arr[:total]
        fields[name].flags.writeable = False
    buf.fill = total
    grown = type(cache)(**fields)
    object.__setattr__(grown, "_buffer", buf)
    return grown


def _extend(weights: GqlaWeights, config: GqlaConfig, cache, tokens: np.ndarray, s_q: int):
    """Append tokens (n, model_dim) to cache and score the trailing s_q of them.

    The new tokens take positions len(cache) .. len(cache) + n - 1, and each
    query sees the keys up to its own position. Returns (outputs (s_q,
    model_dim), the extended cache). The extended cache may share storage
    with the given one, whose rows stay as they were (_append).
    """
    positions = np.arange(len(cache), len(cache) + tokens.shape[0])
    cache = _append(cache, _cache_rows(weights, type(cache),
                                       *_project_keys(weights, config, tokens, positions)))
    q_nope, q_rope = _project_queries(weights, config, tokens[-s_q:], positions[-s_q:])
    return _attention(weights, config, q_nope, q_rope, cache, config.score_scale), cache


def _decode(weights: GqlaWeights, config: GqlaConfig, cache, layout: type, x):
    x = np.asarray(x, dtype=np.float64)
    tokens = _check_tokens(x[None] if x.ndim == 1 else x, config.model_dim, 1)
    _check_cache(weights, cache, layout)
    out, cache = _extend(weights, config, cache, tokens, tokens.shape[0])
    return (out[0] if x.ndim == 1 else out), cache


def forward_gqa_path(weights: GqlaWeights, config: GqlaConfig, tokens, s_q: int = 1):
    """Causal attention along the expanded path for the trailing s_q positions.

    Returns (outputs (s_q, model_dim), ExpandedCache over the whole sequence).
    """
    tokens = _check_tokens(tokens, config.model_dim, s_q)
    return _extend(weights, config, _empty_cache(weights, config, ExpandedCache), tokens, s_q)


def forward_absorb_path(weights: GqlaWeights, config: GqlaConfig, tokens, s_q: int = 1):
    """Causal attention along the absorbed path for the trailing s_q positions.

    Returns (outputs (s_q, model_dim), LatentCache over the whole sequence).
    """
    tokens = _check_tokens(tokens, config.model_dim, s_q)
    return _extend(weights, config, _empty_cache(weights, config, LatentCache), tokens, s_q)


def decode_gqa(weights: GqlaWeights, config: GqlaConfig, cache: ExpandedCache, x):
    """Append and score a token (model_dim,) or a block (n, model_dim) on an expanded
    cache. Returns (outputs shaped like x, new cache)."""
    return _decode(weights, config, cache, ExpandedCache, x)


def decode_absorb(weights: GqlaWeights, config: GqlaConfig, cache: LatentCache, x):
    """Append and score a token (model_dim,) or a block (n, model_dim) on a latent
    cache. Returns (outputs shaped like x, new cache)."""
    return _decode(weights, config, cache, LatentCache, x)


def cache_expand(cache: LatentCache, weights: GqlaWeights) -> ExpandedCache:
    """One-shot latent -> expanded switch: up-project every cached token."""
    _check_cache(weights, cache, LatentCache)
    return _cache_rows(weights, ExpandedCache, cache.kv, cache.k_rope.copy())


COMPRESS_REJECT_ABOVE = 1e-6

# Smallest eigenvalue of the basis's Gram matrix, relative to its largest, for
# which cache_compress solves through that matrix. Forming it squares the
# basis's condition number, and the latents it gives carry a relative error
# of about cond(Gram)·eps; above this ratio cond(Gram) < 1e6, so that error
# stays below 1e6·2.2e-16 ≈ 2e-10, well inside the 1e-9 that the cache
# round trip is held to. (The √eps ratio of numerics.root_eig admits
# cond(Gram) up to 7e7, and with it errors above 1e-9.)
COMPRESS_GRAM_MIN_RATIO = 1e-6


def cache_compress(cache: ExpandedCache, weights: GqlaWeights):
    """One-shot expanded -> latent switch by per-token least squares.

    The latents kv = S·M of the stacked cache rows S solve each token's
    least-squares problem against the stacked up-projections B = [k_up;
    v_up], minimum-norm where B's columns are dependent. M depends on the
    weights alone and is solved on the first switch with them (see
    GqlaWeights). Over B's nonzero columns B_l (a converter leaves the latent
    dims past its calibration rank as zero columns), M = B_l·V·Λ⁻¹·Vᵀ from
    one eigendecomposition V·Λ·Vᵀ of the Gram matrix B_lᵀ·B_l when its
    smallest eigenvalue exceeds COMPRESS_GRAM_MIN_RATIO (1e-6) times its
    largest, and M's columns for the zero columns of B are zero; otherwise,
    as for every B_l with more columns than rows, M = pinv(B)ᵀ (singular
    values cut at max(B.shape)·eps of the largest). Neither route is
    selectable.

    Returns (LatentCache, relative residual per token), the residual taken
    explicitly as S - kv·Bᵀ. Raises OutOfSubspaceError when any entry's
    residual exceeds COMPRESS_REJECT_ABOVE times its norm, which signals a
    cache not generated by these weights, and NumericError on non-finite
    weights, cache entries or results, or a failed solve.
    """
    _check_cache(weights, cache, ExpandedCache)
    basis = np.vstack([weights.k_up, weights.v_up])
    stacked = np.hstack([cache.k_nope, cache.v])  # (L, rows(basis))
    if not (np.all(np.isfinite(basis)) and np.all(np.isfinite(stacked))):
        raise NumericError("cache compression needs finite weights and cache entries")
    kv = stacked @ weights._compress_map
    misfit = kv @ basis.T
    misfit -= stacked
    residual = np.sqrt(np.einsum("ij,ij->i", misfit, misfit))
    if not (np.all(np.isfinite(kv)) and np.all(np.isfinite(residual))):
        raise NumericError("cache compression gave non-finite latents or residuals")
    norms = np.sqrt(np.einsum("ij,ij->i", stacked, stacked))
    relative = np.where(norms > 0, residual / np.where(norms > 0, norms, 1.0), residual)
    worst = int(np.argmax(relative)) if len(cache) else 0
    if len(cache) and relative[worst] > COMPRESS_REJECT_ABOVE:
        raise OutOfSubspaceError(
            f"cache entry {worst} lies outside the K/V up-projection column space "
            f"(relative residual {relative[worst]:.3e} > {COMPRESS_REJECT_ABOVE:.1e})")
    return LatentCache(kv=kv, k_rope=cache.k_rope.copy()), relative


def oracle_mha(weights: GqlaWeights, config: GqlaConfig, tokens, s_q: int = 1) -> np.ndarray:
    """Brute-force reference attention for the trailing s_q positions.

    Per head and per query, with one product per head over all positions,
    its own rotation and softmax, and no shared helper beyond the token
    check: each head reads its own replicated block of k_up/v_up, with no
    grouping, absorption or cache. It shares no code with the two paths, so
    it can serve as their oracle.
    """
    tokens = _check_tokens(tokens, config.model_dim, s_q)
    c = config
    length = tokens.shape[0]
    hpg = c.heads_per_group
    freqs = c.rope_base ** (-2.0 * np.arange(c.rope_head_dim // 2) / c.rope_head_dim)

    def rotate(vecs, t):
        # pair (2k, 2k+1) of each row turned by angle t * freqs[k]; t per row or one
        a = np.multiply.outer(t, freqs)
        ca, sa = np.cos(a), np.sin(a)
        even, odd = vecs[..., 0::2], vecs[..., 1::2]
        out = np.empty_like(vecs)
        out[..., 0::2] = even * ca - odd * sa
        out[..., 1::2] = even * sa + odd * ca
        return out

    # Per-head keys/values for every position (head i uses its group's block).
    latents = tokens @ weights.kv_down.T
    k_rope = rotate(tokens @ weights.k_rope.T, np.arange(length))
    keys, vals = [], []
    for i in range(c.num_heads):
        j = i // hpg
        keys.append(latents @ weights.k_up[j * c.head_dim:(j + 1) * c.head_dim].T)
        vals.append(latents @ weights.v_up[j * c.value_head_dim:(j + 1) * c.value_head_dim].T)

    outputs = np.empty((s_q, c.model_dim))
    scale = 1.0 / math.sqrt(c.head_dim + c.rope_head_dim)
    for idx, t in enumerate(range(length - s_q, length)):
        c_q = tokens[t] if weights.q_down is None else weights.q_down @ tokens[t]
        per_head = []
        for i in range(c.num_heads):
            q_n = weights.q_up[i * c.head_dim:(i + 1) * c.head_dim] @ c_q
            q_r = rotate(weights.q_rope[i * c.rope_head_dim:(i + 1) * c.rope_head_dim] @ c_q, t)
            logits = (keys[i][:t + 1] @ q_n + k_rope[:t + 1] @ q_r) * scale
            exps = np.exp(logits - logits.max())
            per_head.append((exps / exps.sum()) @ vals[i][:t + 1])
        outputs[idx] = weights.out_proj @ np.concatenate(per_head)
    return outputs
