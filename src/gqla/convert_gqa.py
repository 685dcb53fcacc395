"""Grouped-query checkpoint conversion into the dual-path latent form.

Four stages, the first two exact and the last two calibration-driven:

1. merge_heads: read the source K/V projections as one joint latent whose
   key and value halves (k_proj, v_proj) hold one head_dim block of rows per
   group. Its output is the validated source itself: the merged module is
   still standard grouped-query attention and runs, as the source does, on
   the model's grouped attention core with every key dim rotated and no
   shared rotary part.
2. rorope_align: per K/V head, one 2 x 2 rotation per rotary pair (the
   rotations are (num_groups, head_dim/2, 2, 2) blocks) is applied to the
   key path and folded into the matching query slices. Scores are preserved
   exactly; per-pair energy concentrates on the leading coordinate so a
   shared rotary basis becomes available. Each pair's leading eigenvector
   has the closed form (cos θ, sin θ) with θ = ½·atan2(2b, a − c) for the
   pair covariance [[a, b], [b, c]].
3. freqfold_compress: the key coordinates are partitioned into one band per
   rotary frequency (2g dims each) and PCA runs inside each band on the
   pair-structured (complex) covariance, so basis vectors keep their rotary
   partners. The highest-energy directions keep their rotation and become the
   shared decoupled key; the rest become position-free latent candidates.
4. balance_and_joint_pca: the position-free key part and the values are
   rescaled to a common Frobenius activation norm (inverse scales folded back
   so the forward pass is untouched) and jointly compressed to the target
   latent rank.

No gradient updates anywhere; calibration is a seeded synthetic token stream
at desk scale. Every calibrated stage reads it through the root r of its Gram
matrix (CovarianceAccumulator.root), the activations of a map w having the
normalized moment (r·w^T)^T·(r·w^T), and takes as calib either the tokens or
their accumulator, so convert accumulates and factors the Gram matrix once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import model as gqla_model
from .errors import DegenerateCalibrationError, ParameterError, ShapeError
from .model import (GqlaConfig, GqlaWeights, _calibration_gram, _check_arrays, _check_counts,
                    _check_rotary, _check_tokens, _fan_in_uniform, _grouped_core,
                    _probe_deviation)
from .numerics import _canonical_signs, _eigh, root_eig
from .rope import RopeSpec, apply_folded_rope


@dataclass(frozen=True)
class GqaWeights:
    """A source grouped-query attention block.

    q_proj: (num_heads*head_dim, model_dim); k_proj/v_proj:
    (num_groups*head_dim, model_dim); out_proj: (model_dim,
    num_heads*head_dim). Queries and keys are rotated with the per-head
    rope ladder (dim head_dim) at their positions.
    """

    num_heads: int
    num_groups: int
    head_dim: int
    model_dim: int
    rope_base: float
    q_proj: np.ndarray
    k_proj: np.ndarray
    v_proj: np.ndarray
    out_proj: np.ndarray

    def __post_init__(self):
        _check_counts(num_heads=self.num_heads, num_groups=self.num_groups,
                      head_dim=self.head_dim, model_dim=self.model_dim)
        if self.num_heads % self.num_groups != 0:
            raise ParameterError("num_heads must be divisible by num_groups")
        _check_rotary("head_dim", self.head_dim, self.rope_base)

    @property
    def heads_per_group(self) -> int:
        return self.num_heads // self.num_groups

    def rope_spec(self) -> RopeSpec:
        return RopeSpec(self.head_dim, self.rope_base)

    def validate(self) -> None:
        _check_arrays(self, _gqa_shapes(self.num_heads, self.num_groups, self.head_dim,
                                        self.model_dim))


def _gqa_shapes(num_heads: int, num_groups: int, head_dim: int, model_dim: int) -> dict:
    q, kv = (num_heads * head_dim, model_dim), (num_groups * head_dim, model_dim)
    return {"q_proj": q, "k_proj": kv, "v_proj": kv, "out_proj": q[::-1]}


def init_random_gqa(num_heads: int, num_groups: int, head_dim: int, model_dim: int,
                    seed: int, rope_base: float = 10000.0) -> GqaWeights:
    """Seeded random source block, uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    dims = dict(num_heads=num_heads, num_groups=num_groups, head_dim=head_dim, model_dim=model_dim)
    _check_counts(**dims)
    return GqaWeights(rope_base=rope_base, **dims, **_fan_in_uniform(_gqa_shapes(**dims), seed))


def _grouped_queries_keys(src: GqaWeights, tokens: np.ndarray, s_q: int) -> tuple:
    """Rotated queries (g, s_q, heads per group, head_dim) of the trailing s_q
    tokens and rotated keys (g, head_dim, L) of all L tokens, per group."""
    length = tokens.shape[0]
    g, d = src.num_groups, src.head_dim
    spec = src.rope_spec()
    positions = np.arange(length)
    q = apply_folded_rope(spec, tokens[-s_q:] @ src.q_proj.T, positions[-s_q:])
    k = apply_folded_rope(spec, tokens @ src.k_proj.T, positions)
    return (q.reshape(s_q, g, -1, d).transpose(1, 0, 2, 3),
            k.reshape(length, g, d).transpose(1, 2, 0))


def forward_gqa_source(src: GqaWeights, tokens, s_q: int = 1) -> np.ndarray:
    """Reference forward of the source block for the trailing s_q positions: the
    model's grouped attention core with every key dim rotated, so with
    zero-width rotary queries and keys, scored with 1/sqrt(head_dim)."""
    tokens = _check_tokens(tokens, src.model_dim, s_q)
    length = tokens.shape[0]
    g, d = src.num_groups, src.head_dim
    q, keys = _grouped_queries_keys(src, tokens, s_q)
    values = (tokens @ src.v_proj.T).reshape(length, g, d).transpose(1, 0, 2)
    reads = _grouped_core(q, q[..., :0], keys, values, np.empty((length, 0)),
                          1.0 / math.sqrt(d))
    return reads.transpose(1, 0, 2, 3).reshape(s_q, -1) @ src.out_proj.T


def merge_heads(src: GqaWeights) -> GqaWeights:
    """The source block itself, once validated: the stage-1 form reads the
    source's rows as one stacked K/V latent, k_proj over v_proj, group j's
    heads at rows j*head_dim to (j+1)*head_dim of each; the rotary ladder
    repeats every head_dim coordinates of the key latent. No stage writes
    the source, so nothing is copied."""
    src.validate()
    return src


def merged_forward(merged: GqaWeights, tokens, s_q: int = 1) -> np.ndarray:
    """Forward pass of the merged form for the trailing s_q positions: the
    source forward, since the merged form is the source's rows."""
    return forward_gqa_source(merged, tokens, s_q)


def merged_scores(merged: GqaWeights, tokens) -> np.ndarray:
    """Causal pre-softmax logits (num_heads, L, L); upper triangle left zero."""
    tokens = _check_tokens(tokens, merged.model_dim, 1)
    length = tokens.shape[0]
    q, keys = _grouped_queries_keys(merged, tokens, length)
    logits = (q.reshape(merged.num_groups, -1, merged.head_dim) @ keys) / math.sqrt(
        merged.head_dim)  # (g, L * heads per group, L)
    logits = logits.reshape(q.shape[:-1] + (length,)).transpose(0, 2, 1, 3)
    return np.tril(logits.reshape(merged.num_heads, length, length))


def apply_head_rotations(merged: GqaWeights, rotations) -> GqaWeights:
    """Rotate each group's key rows pair by pair by rotations (num_groups,
    head_dim/2, 2, 2), one 2 x 2 block per rotary pair, and fold the same
    blocks into the group's query slices. Scores are unchanged because each
    block commutes with the rotary map. A wrongly shaped or non-finite array,
    or a block that is not a rotation [[c, s], [-s, c]] with c^2 + s^2 = 1
    within 1e-12, raises ShapeError."""
    g, d, dm = merged.num_groups, merged.head_dim, merged.model_dim
    rotations = np.asarray(rotations, dtype=np.float64)
    if rotations.shape != (g, d // 2, 2, 2):
        raise ShapeError(f"rotations have shape {rotations.shape}, expected {(g, d // 2, 2, 2)}")
    if not np.all(np.isfinite(rotations)):
        raise ShapeError("rotations hold non-finite values")
    c, s = rotations[..., 0, 0], rotations[..., 0, 1]
    if not (np.array_equal(rotations[..., 1, :], np.stack([-s, c], axis=-1))
            and np.all(np.abs(c * c + s * s - 1.0) <= 1e-12)):
        raise ShapeError("rotations must be 2 x 2 blocks [[c, s], [-s, c]] with c^2 + s^2 = 1")
    keys = rotations @ merged.k_proj.reshape(g, d // 2, 2, dm)
    q_proj = rotations[:, None] @ merged.q_proj.reshape(g, -1, d // 2, 2, dm)
    return replace(merged, q_proj=q_proj.reshape(merged.q_proj.shape),
                   k_proj=keys.reshape(merged.k_proj.shape))


def _key_moments(weights: GqaWeights, calib, layout: np.ndarray) -> np.ndarray:
    """Normalized second moments (n, k, k) of the key coordinates in each row of layout."""
    columns = (_calibration_gram(calib, weights.model_dim).root() @ weights.k_proj.T)[:, layout]
    return np.einsum("npi,npj->pij", columns, columns)


def rorope_align(merged: GqaWeights, calib) -> tuple:
    """Concentrate each head's per-pair key energy on the leading pair coordinate.

    For every head and rotary pair, the leading eigenvector of the 2-dim
    second moment [[a, b], [b, c]] of the pre-rotation key activations is
    (cos θ, sin θ) with θ = ½·atan2(2b, a − c), signed as numerics.sym_eig
    signs it (largest-magnitude entry positive, the first on ties); the pure
    rotation taking it to the first coordinate is applied (keys) and folded
    back (queries). All heads end up sharing the per-pair leading axis as
    their common rotary reference. Returns (aligned weights, rotations of
    shape (num_groups, head_dim/2, 2, 2)), each pair's block holding the rows
    (cos θ, sin θ) and (−sin θ, cos θ).
    """
    m = _key_moments(merged, calib, np.arange(len(merged.k_proj)).reshape(-1, 2))
    theta = 0.5 * np.arctan2(2.0 * m[:, 0, 1], m[:, 0, 0] - m[:, 1, 1])
    lead = _canonical_signs(np.stack([np.cos(theta), np.sin(theta)], axis=-1)[..., None])
    pair = lead.reshape(merged.num_groups, -1, 2)  # (cos, sin) of each pair
    rotations = np.stack([pair, pair[..., ::-1] * [-1.0, 1.0]], axis=-2)
    return apply_head_rotations(merged, rotations), rotations


def _band_layout(num_groups: int, head_dim: int) -> np.ndarray:
    """Key coordinates (head_dim/2, 2g) of each rotary frequency band: band p
    holds coordinates j*head_dim + 2p + e for every group j and e in (0, 1)."""
    return np.arange(num_groups * head_dim).reshape(num_groups, head_dim // 2, 2).transpose(
        1, 0, 2).reshape(head_dim // 2, 2 * num_groups)


@dataclass(frozen=True)
class FreqFoldResult:
    """Band-wise split of the key coordinates into rotary and position-free parts.

    band_bases (bands, 2g, 2g) holds each frequency band's orthonormal
    direction basis over the band's 2g key coordinates (band_layout): column
    2r + k is column k of the band's direction r, directions in descending
    energy, and energies (bands, g) holds the directions' energies. The
    columns are numbered band by band (band p's column c is p*2g + c);
    rope_columns picks the retained rotary directions' pairs in ascending
    order, and nope_columns, its complement, feeds the joint latent
    compression. Products with either set of columns run as one batched
    product over the bands (project, lift); lift(np.eye(n), columns) is the
    dense (g*head_dim x n) basis, every column on a single band.
    """

    band_bases: np.ndarray
    energies: np.ndarray
    rope_columns: np.ndarray

    @property
    def band_layout(self) -> np.ndarray:
        bands, width, _ = self.band_bases.shape
        return _band_layout(width // 2, 2 * bands)

    @property
    def nope_columns(self) -> np.ndarray:
        return np.setdiff1d(np.arange(self.band_bases[..., 0].size), self.rope_columns)

    def project(self, key_rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """basis^T·key_rows over the basis columns named in columns, for key_rows
        (g*head_dim, n): each band's basis^T times its coordinates' rows, then
        the named rows of the result."""
        per_band = np.swapaxes(self.band_bases, -1, -2) @ key_rows[self.band_layout]
        return per_band.reshape(-1, key_rows.shape[-1])[columns]

    def lift(self, coefficients: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """basis·coefficients (g*head_dim, n) over the basis columns named in
        columns, for coefficients (len(columns), n): the coefficients scattered
        to their bands, then each band's basis times its own."""
        bands = self.band_layout
        per_band = np.zeros((bands.size, coefficients.shape[-1]))
        per_band[columns] = coefficients
        rows = np.empty_like(per_band)
        rows[bands.ravel()] = (self.band_bases @ per_band.reshape(bands.shape + (-1,))
                               ).reshape(per_band.shape)
        return rows


def _band_complex_pca(blocks: np.ndarray):
    """Eigenpairs of the pair-structured second moment of every band.

    blocks (bands, 2g, 2g) holds each band's moment, its 2g coordinates
    (x, y of group 0, then of group 1, ...) read as g complex numbers; the
    g x g Hermitian moments of all bands are eigendecomposed
    in one batch and each complex eigenvector is returned as the two real
    paired columns it spans. Only complex-linear mixtures are considered,
    which is exactly the set of maps commuting with the common in-band
    rotation. Returns energies (bands, g), descending per band, and bases
    (bands, 2g, 2g): column 2r + k of band p is column k of its direction r.
    """
    xx, xy = blocks[:, 0::2, 0::2], blocks[:, 0::2, 1::2]
    yx, yy = blocks[:, 1::2, 0::2], blocks[:, 1::2, 1::2]
    w, u = _eigh((xx + yy) + 1j * (yx - xy))  # exactly Hermitian: the blocks are symmetric
    # each column's largest-magnitude entry turns real and positive
    u = _canonical_signs(u)  # (bands, coordinate, direction)
    # coordinate a and direction r span the real 2 x 2 block [[re, -im], [im, re]]
    real = np.stack([np.stack([u.real, -u.imag], axis=-1),
                     np.stack([u.imag, u.real], axis=-1)], axis=2)
    return w, real.reshape(blocks.shape)


def freqfold_compress(aligned: GqaWeights, calib, kv_rank: int,
                      rope_dim: int) -> FreqFoldResult:
    """Split the key coordinates into a rotary remainder and latent candidates.

    rope_dim/2 directions are retained greedily by energy across all bands
    (ties toward the lower angular frequency, i.e. the later band) and keep
    their rotation; everything else becomes a position-free candidate for the
    joint compression. Pairs are never split between the two outputs.
    """
    g, d = aligned.num_groups, aligned.head_dim
    width = g * d
    if rope_dim % 2 != 0 or rope_dim < 0:
        raise ParameterError(f"rope_dim must be a non-negative even count, got {rope_dim}")
    if rope_dim > width:
        raise ParameterError(f"rope_dim {rope_dim} exceeds the key width {width}")
    if kv_rank < 1 or kv_rank + rope_dim > 2 * width:
        raise ParameterError(
            f"rank budget kv_rank={kv_rank}, rope_dim={rope_dim} is infeasible "
            f"for a {2 * width}-element source cache")
    energies, bases = _band_complex_pca(_key_moments(aligned, calib, _band_layout(g, d)))
    # Greedy retention by energy; on ties prefer the lower angular frequency
    # (larger band index), then the leading direction. Directions are numbered
    # p*g + r (band p, direction r), so sorting the numbers sorts by band, then
    # direction; direction n's pair is basis columns 2n and 2n + 1.
    band, direction = np.divmod(np.arange(energies.size), g)
    order = np.lexsort((direction, -band, -energies.ravel()))
    retained = np.sort(order[: rope_dim // 2])
    return FreqFoldResult(band_bases=bases, energies=energies,
                          rope_columns=(2 * retained[:, None] + [0, 1]).ravel())


@dataclass(frozen=True)
class JointCompression:
    """Stage-4 output: the compressed latent map and per-group up-projections.

    kv_down is the new (kv_rank x model_dim) joint down-projection; k_up /
    v_up are the group-indexed up-projections with the balancing scales
    already inverted, so the composed forward map is unchanged by balancing.
    energy_* are per-side retained activation energy fractions (unscaled
    units). latent_rank counts the latent dims that carry calibration energy
    (root_eig's nonzero eigenvalues); each other dim has a zero kv_down row
    and zero k_up and v_up columns.
    """

    kv_down: np.ndarray
    k_up: np.ndarray
    v_up: np.ndarray
    scale_key: float
    scale_value: float
    energy_key: float
    energy_value: float
    latent_rank: int


def balance_and_joint_pca(aligned: GqaWeights, calib, kv_rank: int, freqfold: FreqFoldResult,
                          balance: bool = True) -> JointCompression:
    """Norm-balance the position-free key part against the values, then
    compress both jointly to kv_rank with a covariance-weighted PCA.

    The stacked activations calib·w_map^T, w_map being the position-free
    key map nope_basis^T·k_proj over v_proj, have rank at most model_dim, so
    neither they nor their (d_n + g*head_dim)-square second moment are
    formed: read through the calibration root r, b = r·w_map^T (model_dim
    rows) has that moment as b^T·b, so norms, the PCA basis and the per-side
    energies come from b (numerics.root_eig). w_map is never stacked,
    products with the nope basis run band by band (FreqFoldResult.project,
    lift), and products with the PCA basis skip its dead (zero) columns.
    """
    g, d = aligned.num_groups, aligned.head_dim
    width = g * d
    if freqfold.band_bases.shape != (d // 2, 2 * g, 2 * g):
        raise ShapeError(f"FreqFold band bases have shape {freqfold.band_bases.shape}, "
                         f"expected {(d // 2, 2 * g, 2 * g)} for these weights")
    nope_columns = freqfold.nope_columns
    key_map = freqfold.project(aligned.k_proj, nope_columns)  # (d_n, model_dim)
    d_n = key_map.shape[0]
    if kv_rank < 1 or kv_rank > d_n + width:
        raise ParameterError(
            f"kv_rank {kv_rank} is outside [1, {d_n + width}] for this rank budget")

    root = _calibration_gram(calib, aligned.model_dim).root()
    root_k = root @ key_map.T                         # (model_dim, d_n)
    root_v = root @ aligned.v_proj.T                  # (model_dim, g*head_dim)
    norm_k = float(np.linalg.norm(root_k))
    norm_v = float(np.linalg.norm(root_v))
    if norm_v == 0.0 or (d_n and norm_k == 0.0):
        raise DegenerateCalibrationError("a side has zero activation energy under calibration")
    # Balancing only makes sense for comparable sides: amplifying a side that
    # is numerical dust (e.g. all key energy already lives in the rotary
    # remainder) would promote noise to signal parity, so it is skipped.
    comparable = d_n and min(norm_k, norm_v) >= 1e-9 * max(norm_k, norm_v)
    if balance and comparable:
        target = math.sqrt(norm_k * norm_v)
        scale_k, scale_v = target / norm_k, target / norm_v
    else:
        scale_k, scale_v = 1.0, 1.0

    b = np.hstack([scale_k * root_k, scale_v * root_v])
    eig = root_eig(b, kv_rank)
    live = int(np.count_nonzero(eig.eigenvalues))  # products over live columns: dead ones stay 0
    lam, u = eig.eigenvalues[:live], eig.eigenvectors[:, :live]
    u_k, u_v = u[:d_n], u[d_n:]
    kv_down = np.zeros((kv_rank, aligned.model_dim))
    kv_down[:live] = (scale_k * u_k).T @ key_map + (scale_v * u_v).T @ aligned.v_proj
    k_up, v_up = np.zeros((width, kv_rank)), np.zeros((width, kv_rank))
    k_up[:, :live] = freqfold.lift(u_k, nope_columns) / scale_k
    v_up[:, :live] = u_v / scale_v

    # Per-side energies are exact from b: calib = Q·R with orthonormal Q and
    # R^T·R = N·root^T·root, so ||calib·X|| = √N·||root·X|| for every X and
    # the √N cancels in each ratio. With c_s = b_s·u_s and c = b·u = c_k + c_v,
    # side s keeps all but ||b_s - c·u_s^T||^2 = ||b_s||^2 - 2<c_s, c> +
    # Σ_i λ_i·||u_s,i||^2, since c^T·c = u^T·b^T·b·u = Λ over the live columns.
    c_k, c_v = b[:, :d_n] @ u_k, b[:, d_n:] @ u_v
    c = c_k + c_v

    def retained(total, c_s, u_s):
        lost = total - 2.0 * float(np.vdot(c_s, c)) + float(lam @ np.einsum("ij,ij->j", u_s, u_s))
        return 1.0 - max(lost, 0.0) / total if total else 1.0
    energy_key = retained((scale_k * norm_k) ** 2, c_k, u_k)
    energy_value = retained((scale_v * norm_v) ** 2, c_v, u_v)
    return JointCompression(kv_down=kv_down, k_up=k_up, v_up=v_up,
                            scale_key=scale_k, scale_value=scale_v,
                            energy_key=energy_key, energy_value=energy_value,
                            latent_rank=live)


@dataclass(frozen=True)
class ConversionReport:
    """Per-stage diagnostics of one conversion run."""

    source_elements_per_token: int
    latent_elements_per_token: int
    cache_ratio: float
    score_deviation: float
    rotary_energy_retained: float
    key_energy_retained: float
    value_energy_retained: float
    latent_rank: int
    kv_rank: int
    balance_scale_key: float
    balance_scale_value: float
    output_deviation: float
    output_scale: float

    @property
    def cache_ratio_text(self) -> str:
        return f"{self.cache_ratio * 100:g}%"

    def lines(self) -> list:
        return [
            f"rotary alignment:       max score deviation {self.score_deviation:.3e}",
            f"rotary energy retained: {self.rotary_energy_retained:.6f}",
            f"key energy retained:    {self.key_energy_retained:.6f}",
            f"value energy retained:  {self.value_energy_retained:.6f}",
            f"latent rank:            {self.latent_rank}/{self.kv_rank}",
            f"balance scales:         key {self.balance_scale_key:.6g}, "
            f"value {self.balance_scale_value:.6g}",
            f"cache ratio:            {self.latent_elements_per_token}/"
            f"{self.source_elements_per_token} elements/token = {self.cache_ratio_text}",
            f"output deviation:       {self.output_deviation:.3e} "
            f"(source output scale {self.output_scale:.3e})",
        ]


_PROBE_SEED = 91151


def target_config(src: GqaWeights, kv_rank: int, rope_head_dim: int) -> GqlaConfig:
    """Config of the converted checkpoint: the source's head count, group
    count, head dim (keys and values), model dim and rotary base, the given
    latent rank and rotary dim, and q_rank == model_dim, since this route
    does not compress queries (the emitted query down-projection is the
    identity)."""
    return GqlaConfig(model_dim=src.model_dim, num_heads=src.num_heads,
                      num_groups=src.num_groups, head_dim=src.head_dim,
                      value_head_dim=src.head_dim, rope_head_dim=rope_head_dim,
                      kv_rank=kv_rank, q_rank=src.model_dim, rope_base=src.rope_base)


def convert(src: GqaWeights, calib, target: GqlaConfig):
    """Run the full pipeline and emit dual-path weights for the target config.

    Returns (GqlaWeights, ConversionReport). The target must equal
    target_config(src, target.kv_rank, target.rope_head_dim).
    """
    expected = target_config(src, target.kv_rank, target.rope_head_dim)
    if target != expected:
        raise ParameterError(f"target config incompatible with source: expected {expected}")

    h, g, d, dm = src.num_heads, src.num_groups, src.head_dim, src.model_dim
    d_r = target.rope_head_dim

    merged = merge_heads(src)
    gram = _calibration_gram(calib, dm)
    aligned, _ = rorope_align(merged, gram)
    folded = freqfold_compress(aligned, gram, target.kv_rank, d_r)
    joint = balance_and_joint_pca(aligned, gram, target.kv_rank, folded, balance=True)
    del gram  # with its root: neither is needed past the joint PCA

    # The merged form scores with 1/sqrt(head_dim); the emitted weights run
    # under the model's 1/sqrt(head_dim + rope_head_dim), so queries carry the
    # compensating factor.
    q_scale = math.sqrt((d + d_r) / d)
    k_rope = folded.project(aligned.k_proj, folded.rope_columns)
    # Rotary direction n = p*g + r of band p: its pair of basis columns mixes
    # each head's coordinates 2p, 2p + 1 with the head's group's 2 x 2 block
    # of band_bases[p], so head i's rotary query rows gather only those rows.
    band, column = np.divmod(folded.rope_columns[0::2], 2 * g)
    blocks = folded.band_bases[band[:, None], :, column[:, None] + [0, 1]]  # (d_r/2, 2, 2g)
    blocks = q_scale * blocks.reshape(-1, 2, g, 2).transpose(2, 0, 1, 3)   # (g, d_r/2, 2, 2)
    q_rope = blocks[:, None] @ np.take(aligned.q_proj.reshape(g, -1, d // 2, 2, dm), band, axis=2)
    weights = GqlaWeights(
        q_down=np.eye(dm),
        q_up=q_scale * aligned.q_proj,
        q_rope=q_rope.reshape(h * d_r, dm),
        kv_down=joint.kv_down,
        k_up=joint.k_up,
        v_up=joint.v_up,
        k_rope=k_rope,
        out_proj=src.out_proj.copy(),
    )
    weights.validate(target)

    # Probe diagnostics on held-out sequences: score invariance of the rotary
    # alignment and the end-to-end output deviation against the source.
    score_dev, _ = _probe_deviation(lambda p: merged_scores(merged, p),
                                    lambda p: merged_scores(aligned, p), dm, _PROBE_SEED)
    out_dev, out_scale = _probe_deviation(
        lambda p: forward_gqa_source(src, p, 2),
        lambda p: gqla_model.forward_gqa_path(weights, target, p, 2)[0], dm, _PROBE_SEED)

    total_energy = sum(float(np.sum(w)) for w in folded.energies)
    kept_energy = sum(float(e) for e in folded.energies.ravel()[folded.rope_columns[0::2] // 2])
    report = ConversionReport(
        source_elements_per_token=2 * g * d,
        latent_elements_per_token=target.latent_elements_per_token,
        cache_ratio=target.latent_elements_per_token / (2 * g * d),
        score_deviation=score_dev,
        rotary_energy_retained=(kept_energy / total_energy) if total_energy > 0 else 1.0,
        key_energy_retained=joint.energy_key,
        value_energy_retained=joint.energy_value,
        latent_rank=joint.latent_rank,
        kv_rank=target.kv_rank,
        balance_scale_key=joint.scale_key,
        balance_scale_value=joint.scale_value,
        output_deviation=out_dev,
        output_scale=out_scale,
    )
    return weights, report
