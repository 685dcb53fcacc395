"""Head-indexed latent checkpoints converted to the group-indexed dual-path form.

A head-indexed source (one K/V up-projection block per query head, i.e.
num_groups == num_heads) shares the joint latent but only decodes through the
absorbed path. The conversion recovers group-indexed up-projections by
per-group, side-separated PCA on up-projection activations, then folds the
square orthonormal factors into the query and output slices with no shape
change. Each group's activation moment is held as its root, the calibration
Gram root (a Cholesky factor unless the Gram matrix is near singular) times
the group's up·kv_down block (model_dim rows), and the bases of all groups
are taken from those roots by one stacked numerics.root_eig per side: the
activations are never formed, and their moments only where
(h/g)·head_dim <= model_dim. Factors are stacked arrays over the groups,
and the converted up-projections are views of them. With one head per
group each factor is square, and its columns past the calibration rank are
completed to an orthonormal basis, so that conversion is an exact
reparameterization at any calibration size. The latent down-projection and
the rotary pathway pass through untouched, so the source's latent cache and
absorbed kernel stay valid. No gradient updates; calibration only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import model as gqla_model
from .errors import DegenerateCalibrationError, ParameterError
from .model import GqlaConfig, GqlaWeights, _calibration_gram, _check_tokens, _probe_deviation
from .numerics import root_eig, sym_eig
from .rope import apply_rope


def _check_source(config: GqlaConfig) -> None:
    if config.num_groups != config.num_heads:
        raise ParameterError(
            "source must be head-indexed: num_groups == num_heads "
            f"(got {config.num_groups} groups for {config.num_heads} heads)")


def _check_groups(config: GqlaConfig, groups: int) -> int:
    if groups < 1 or config.num_heads % groups != 0:
        raise ParameterError(f"groups must divide num_heads ({config.num_heads}), got {groups}")
    return groups


def target_config(config: GqlaConfig, groups: int) -> GqlaConfig:
    """Config of the converted checkpoint: only the group count changes."""
    _check_source(config)
    _check_groups(config, groups)
    return replace(config, num_groups=groups)


@dataclass(frozen=True)
class GroupStats:
    """Per-group, per-side roots of the up-projection activation moments.

    key_root[j] (model_dim x (h/g)*head_dim) is r·(k_up_j·kv_down)^T, r being
    any root (r^T·r) of the normalized calibration Gram matrix, as
    CovarianceAccumulator.root gives it, and k_up_j group j's (h/g)*head_dim
    rows of k_up; key_root[j]^T·key_root[j] is the normalized second moment
    of group j's key activations. value_root likewise.
    """

    key_root: np.ndarray    # (groups, model_dim, (h/g)*head_dim)
    value_root: np.ndarray  # (groups, model_dim, (h/g)*value_head_dim)


def calibrate(weights: GqlaWeights, config: GqlaConfig, calib, groups: int) -> GroupStats:
    """Per-group, per-side roots of the up-projection activation moments: the
    calibration Gram root r (model_dim square) times kv_down^T, the root of the
    latent moment, times each side's up-projection, one product per side. calib
    is the calibration tokens (N, model_dim) or their CovarianceAccumulator.
    DegenerateCalibrationError if ||r·kv_down^T|| <= model_dim·eps·||r||·||kv_down||
    (Frobenius), that product's rounding bound: the latent carries only rounding."""
    _check_source(config)
    _check_groups(config, groups)
    root = _calibration_gram(calib, config.model_dim).root()
    latent_root = root @ weights.kv_down.T
    rounding = config.model_dim * np.finfo(np.float64).eps * np.linalg.norm(root)
    if np.linalg.norm(latent_root) <= rounding * np.linalg.norm(weights.kv_down):
        raise DegenerateCalibrationError("the calibration carries no energy into the latent")

    def side(up):  # (groups, model_dim, rows per group)
        return (latent_root @ up.T).reshape(config.model_dim, groups, -1).transpose(1, 0, 2)

    return GroupStats(key_root=side(weights.k_up), value_root=side(weights.v_up))


@dataclass(frozen=True)
class GroupFactorization:
    """Per-group, per-side factors W_j ~ u_j @ v_j, stacked over the groups.

    key_u[j] is column-orthonormal ((h/g)*dim x dim) and key_v[j] =
    key_u[j]^T W_j (dim x kv_rank), dim being head_dim for keys and
    value_head_dim for values (value_u, value_v). energy_* hold the
    per-group retained activation energy fraction and *_rank the per-group
    count of live basis columns (nonzero eigenvalues), at most dim.
    """

    key_u: np.ndarray    # (groups, (h/g)*head_dim, head_dim)
    key_v: np.ndarray    # (groups, head_dim, kv_rank)
    value_u: np.ndarray  # (groups, (h/g)*value_head_dim, value_head_dim)
    value_v: np.ndarray  # (groups, value_head_dim, kv_rank)
    key_energy: tuple
    value_energy: tuple
    key_rank: tuple
    value_rank: tuple


def factor(weights: GqlaWeights, config: GqlaConfig, stats: GroupStats) -> GroupFactorization:
    """Side-separated PCA of each group's stacked up-projection block.

    Group j's basis is the leading eigenbasis of its activation moment,
    taken from the moment's root in stats by numerics.root_eig, one stacked
    call per side (one batched eigendecomposition of order
    min(model_dim, (h/g)*dim)), which is pca_factor's basis to rounding; the
    energy is the retained eigenvalues over the moment's trace, the root's
    squared norm, and key_rank / value_rank count the nonzero ones.
    The ranks are head_dim and value_head_dim, which make every per-head
    sub-block square and therefore absorbable. Past the calibration rank
    root_eig's columns are zero; where the factor itself is square (one head
    per group) those columns are completed to an orthonormal basis, so the
    conversion stays an exact reparameterization.
    """
    _check_source(config)

    def side(proj, roots, rank):
        eig = root_eig(roots, rank)
        u, dead = eig.eigenvectors, eig.eigenvalues == 0.0
        if u.shape[-2] == rank and dead.any():
            # the trailing eigenvectors of the projector u·u^T span what the
            # live columns leave out
            u = np.where(dead[:, None, :], sym_eig(u @ np.swapaxes(u, -1, -2)).eigenvectors, u)
        totals = [float(np.linalg.norm(root)) ** 2 for root in roots]  # each moment's trace
        energies = tuple(float(kept) / total if total > 0 else 1.0
                         for kept, total in zip(eig.eigenvalues.sum(axis=-1), totals))
        ranks = tuple(np.count_nonzero(eig.eigenvalues, axis=-1).tolist())
        v = np.swapaxes(u, -1, -2) @ proj.reshape(len(roots), -1, proj.shape[1])
        return u, v, energies, ranks

    key_u, key_v, key_energy, key_rank = side(weights.k_up, stats.key_root, config.head_dim)
    value_u, value_v, value_energy, value_rank = side(weights.v_up, stats.value_root,
                                                      config.value_head_dim)
    return GroupFactorization(key_u=key_u, key_v=key_v, value_u=value_u, value_v=value_v,
                              key_energy=key_energy, value_energy=value_energy,
                              key_rank=key_rank, value_rank=value_rank)


def absorb_factors(weights: GqlaWeights, config: GqlaConfig,
                   fact: GroupFactorization) -> GqlaWeights:
    """Fold the square per-head factor blocks into the query/output slices.

    The group-indexed up-projections become the stacked v_j factors (first
    dimension shrinks by heads-per-group), read as views of fact; query and
    output projections keep their shapes; the latent and rotary projections
    pass through unchanged: they are the source's own read-only arrays.
    """
    _check_source(config)
    groups = len(fact.key_u)
    hpg = config.num_heads // groups
    d, dv = config.head_dim, config.value_head_dim

    # Head i = j*hpg + pos folds the square block pos of group j's factors.
    # The output columns are written in place: no transposed copy is held.
    q_up = np.matmul(fact.key_u.reshape(groups, hpg, d, d).transpose(0, 1, 3, 2),
                     weights.q_up.reshape(groups, hpg, d, -1)).reshape(weights.q_up.shape)

    def head_blocks(o):  # out_proj columns as (group, head in group, model_dim, dv)
        return o.reshape(config.model_dim, groups, hpg, dv).transpose(1, 2, 0, 3)
    out_proj = np.empty_like(weights.out_proj)
    np.matmul(head_blocks(weights.out_proj), fact.value_u.reshape(groups, hpg, dv, dv),
              out=head_blocks(out_proj))
    converted = replace(weights, q_up=q_up, k_up=fact.key_v.reshape(-1, config.kv_rank),
                        v_up=fact.value_v.reshape(-1, config.kv_rank), out_proj=out_proj)
    converted.validate(target_config(config, groups))
    return converted


def unfused_forward(weights: GqlaWeights, config: GqlaConfig, fact: GroupFactorization,
                    tokens, s_q: int = 1) -> np.ndarray:
    """Forward with the PCA factors applied but NOT absorbed.

    Straight-line evaluation of the factored source: head i scores against
    u_j v_j-approximated keys and reads u_j v_j-approximated values through
    the original output projection. Algebraically identical to running the
    absorbed weights; the gap between the two is pure floating-point noise.
    """
    tokens = _check_tokens(tokens, config.model_dim, s_q)
    length = tokens.shape[0]
    hpg = config.num_heads // len(fact.key_u)
    d, dv, dr = config.head_dim, config.value_head_dim, config.rope_head_dim
    spec = config.rope_spec()
    scale = 1.0 / math.sqrt(d + dr)

    latents = tokens @ weights.kv_down.T
    k_rope = np.stack([apply_rope(spec, weights.k_rope @ tokens[t], t) for t in range(length)])
    group_k = [latents @ v.T for v in fact.key_v]    # (L, head_dim)
    group_v = [latents @ v.T for v in fact.value_v]  # (L, value_head_dim)

    outputs = np.empty((s_q, config.model_dim))
    for idx, t in enumerate(range(length - s_q, length)):
        c_q = tokens[t] if weights.q_down is None else weights.q_down @ tokens[t]
        per_head = []
        for i in range(config.num_heads):
            j, pos = divmod(i, hpg)
            q_n = weights.q_up[i * d:(i + 1) * d] @ c_q
            q_r = apply_rope(spec, weights.q_rope[i * dr:(i + 1) * dr] @ c_q, t)
            keys = group_k[j][: t + 1] @ fact.key_u[j][pos * d:(pos + 1) * d].T
            logits = (keys @ q_n + k_rope[: t + 1] @ q_r) * scale
            attn = np.exp(logits - logits.max())
            attn /= attn.sum()
            vals = group_v[j][: t + 1] @ fact.value_u[j][pos * dv:(pos + 1) * dv].T
            per_head.append(attn @ vals)
        outputs[idx] = weights.out_proj @ np.concatenate(per_head)
    return outputs


@dataclass(frozen=True)
class MlaConversionReport:
    """Diagnostics for one head-indexed-to-grouped conversion: per group and
    side, the retained activation energy and the rank of its basis (the live
    columns of GroupFactorization) out of head_dim or value_head_dim."""

    groups: int
    key_energy: tuple
    value_energy: tuple
    key_rank: tuple
    value_rank: tuple
    head_dim: int
    value_head_dim: int
    output_deviation: float
    output_scale: float
    latent_elements_per_token: int

    def lines(self) -> list:
        key = ", ".join(f"{e:.6f}" for e in self.key_energy)
        value = ", ".join(f"{e:.6f}" for e in self.value_energy)
        key_rank = ", ".join(f"{r}/{self.head_dim}" for r in self.key_rank)
        value_rank = ", ".join(f"{r}/{self.value_head_dim}" for r in self.value_rank)
        return [
            f"groups:                  {self.groups}",
            f"key energy retained:     [{key}]",
            f"key basis rank:          [{key_rank}]",
            f"value energy retained:   [{value}]",
            f"value basis rank:        [{value_rank}]",
            f"latent cache:            {self.latent_elements_per_token} elements/token "
            "(unchanged by conversion)",
            f"output deviation:        {self.output_deviation:.3e} "
            f"(source output scale {self.output_scale:.3e})",
        ]


_PROBE_SEED = 46301


def convert(weights: GqlaWeights, config: GqlaConfig, calib, groups: int):
    """calibrate -> factor -> absorb.

    Returns (GqlaWeights, MlaConversionReport); the converted config is
    target_config(config, groups). Held-out probe sequences measure the
    end-to-end output deviation against the source.
    """
    # Each stage's inputs are released as soon as the next stage has them: the
    # roots once factored, the u factors once absorbed (the v factors live on
    # as the converted up-projections).
    fact = factor(weights, config, calibrate(weights, config, calib, groups))
    diagnostics = dict(key_energy=fact.key_energy, value_energy=fact.value_energy,
                       key_rank=fact.key_rank, value_rank=fact.value_rank)
    converted = absorb_factors(weights, config, fact)
    del fact
    tgt = target_config(config, groups)

    dev, scale = _probe_deviation(
        lambda p: gqla_model.forward_gqa_path(weights, config, p, 2)[0],
        lambda p: gqla_model.forward_gqa_path(converted, tgt, p, 2)[0],
        config.model_dim, _PROBE_SEED)
    report = MlaConversionReport(
        groups=groups, **diagnostics, head_dim=config.head_dim,
        value_head_dim=config.value_head_dim, output_deviation=dev, output_scale=scale,
        latent_elements_per_token=config.latent_elements_per_token,
    )
    return converted, report
