"""Shared fixtures: desk-scale configs, planted sources, loop oracles, and a
reader for the CSV tables the CLI prints.

The loop oracles here are intentionally naive reimplementations (explicit
per-head/per-position loops, no shared code with the package) used to check
the vectorized implementations against an independent route.
"""

import csv
import dataclasses
import io
import math

import numpy as np
import pytest

from gqla.convert_gqa import GqaWeights, init_random_gqa
from gqla.model import GqlaConfig, init_random, random_tokens


@pytest.fixture
def desk_config() -> GqlaConfig:
    return GqlaConfig(model_dim=64, num_heads=8, num_groups=2, head_dim=16,
                      value_head_dim=16, rope_head_dim=8, kv_rank=32, q_rank=48)


@pytest.fixture
def desk_weights(desk_config):
    return init_random(desk_config, 1)


@pytest.fixture
def mini_canonical_config() -> GqlaConfig:
    # the canonical shape scaled by 1/8 in every dimension
    return GqlaConfig(model_dim=896, num_heads=16, num_groups=1, head_dim=16,
                      value_head_dim=16, rope_head_dim=8, kv_rank=64, q_rank=192)


@pytest.fixture
def desk_gqa() -> GqaWeights:
    return init_random_gqa(num_heads=8, num_groups=2, head_dim=16, model_dim=64, seed=5)


@pytest.fixture
def mla_config() -> GqlaConfig:
    # head-indexed source: one K/V block per query head
    return GqlaConfig(model_dim=64, num_heads=8, num_groups=8, head_dim=16,
                      value_head_dim=16, rope_head_dim=8, kv_rank=32, q_rank=48)


@pytest.fixture
def mla_weights(mla_config):
    return init_random(mla_config, 21)


def plant_bandrank1_gqa(num_heads, num_groups, head_dim, model_dim, seed,
                        rope_base=10000.0) -> GqaWeights:
    """Source whose per-band key activations have complex rank 1.

    Every rotary frequency band's key content across heads is a complex
    multiple of one shared direction, so the full rotary structure fits a
    single head_dim-wide frequency ladder and conversion can be lossless.
    """
    rng = np.random.default_rng(seed)
    g, d, dm = num_groups, head_dim, model_dim
    k = np.zeros((g * d, dm))
    for p in range(d // 2):
        a = rng.standard_normal(dm)
        b = rng.standard_normal(dm)
        for j in range(g):
            re, im = rng.standard_normal(2)
            k[j * d + 2 * p] = re * a - im * b
            k[j * d + 2 * p + 1] = im * a + re * b
    bq = 1.0 / math.sqrt(dm)
    bo = 1.0 / math.sqrt(num_heads * d)
    return GqaWeights(
        num_heads=num_heads, num_groups=g, head_dim=d, model_dim=dm, rope_base=rope_base,
        q_proj=rng.uniform(-bq, bq, (num_heads * d, dm)),
        k_proj=k,
        v_proj=rng.uniform(-bq, bq, (g * d, dm)),
        out_proj=rng.uniform(-bo, bo, (dm, num_heads * d)))


def plant_group_structured_mla(config: GqlaConfig, groups: int, seed: int):
    """Head-indexed weights whose per-group up-projections share a rank-d_h core.

    Each head's block is an orthogonal rotation of its group's common map, so
    per-group PCA at the canonical rank recovers the structure exactly.
    """
    base = init_random(config, seed)
    rng = np.random.default_rng(seed + 1)
    hpg = config.num_heads // groups
    d, dv, r = config.head_dim, config.value_head_dim, config.kv_rank
    k_up = np.zeros_like(base.k_up)
    v_up = np.zeros_like(base.v_up)
    for j in range(groups):
        core_k = rng.standard_normal((d, r))
        core_v = rng.standard_normal((dv, r))
        for i in range(hpg):
            rot_k, _ = np.linalg.qr(rng.standard_normal((d, d)))
            rot_v, _ = np.linalg.qr(rng.standard_normal((dv, dv)))
            head = j * hpg + i
            k_up[head * d:(head + 1) * d] = rot_k @ core_k
            v_up[head * dv:(head + 1) * dv] = rot_v @ core_v
    return dataclasses.replace(base, k_up=k_up, v_up=v_up)


def loop_gqa_oracle(src: GqaWeights, tokens, s_q=1) -> np.ndarray:
    """From-scratch grouped-query attention with explicit loops and inline trig."""
    tokens = np.asarray(tokens, dtype=np.float64)
    length = tokens.shape[0]
    h, g, d = src.num_heads, src.num_groups, src.head_dim
    hpg = h // g
    half = d // 2
    freqs = [src.rope_base ** (-2.0 * k / d) for k in range(half)]

    def rot(vec, t):
        out = np.empty_like(vec)
        for k in range(half):
            ang = t * freqs[k]
            c, s = math.cos(ang), math.sin(ang)
            out[2 * k] = vec[2 * k] * c - vec[2 * k + 1] * s
            out[2 * k + 1] = vec[2 * k] * s + vec[2 * k + 1] * c
        return out

    keys = [[rot((src.k_proj @ tokens[t])[j * d:(j + 1) * d], t) for j in range(g)]
            for t in range(length)]
    vals = [[(src.v_proj @ tokens[t])[j * d:(j + 1) * d] for j in range(g)]
            for t in range(length)]
    outputs = np.empty((s_q, src.model_dim))
    for idx, t in enumerate(range(length - s_q, length)):
        per_head = []
        for i in range(h):
            j = i // hpg
            q = rot((src.q_proj @ tokens[t])[i * d:(i + 1) * d], t)
            logits = [float(np.dot(q, keys[s][j])) / math.sqrt(d) for s in range(t + 1)]
            m = max(logits)
            exps = [math.exp(l - m) for l in logits]
            z = sum(exps)
            o = np.zeros(d)
            for s in range(t + 1):
                o += (exps[s] / z) * vals[s][j]
            per_head.append(o)
        outputs[idx] = src.out_proj @ np.concatenate(per_head)
    return outputs


def longhand_mha(weights, config: GqlaConfig, tokens, s_q=1) -> np.ndarray:
    """oracle_mha written out longhand, as the referee of oracle_mha itself:
    a scalar rotation, one matvec per (position, head) and a math.exp softmax."""
    tokens = np.asarray(tokens, dtype=np.float64)
    c = config
    length = tokens.shape[0]
    hpg = c.heads_per_group
    half = c.rope_head_dim // 2
    freqs = [c.rope_base ** (-2.0 * k / c.rope_head_dim) for k in range(half)]

    def rotate(vec, t):
        out = np.empty_like(vec)
        for k in range(half):
            a = t * freqs[k]
            ca, sa = math.cos(a), math.sin(a)
            out[2 * k] = vec[2 * k] * ca - vec[2 * k + 1] * sa
            out[2 * k + 1] = vec[2 * k] * sa + vec[2 * k + 1] * ca
        return out

    # Replicated per-head up-projections (head i uses its group's block).
    k_maps = []
    v_maps = []
    for i in range(c.num_heads):
        j = i // hpg
        k_maps.append(weights.k_up[j * c.head_dim:(j + 1) * c.head_dim])
        v_maps.append(weights.v_up[j * c.value_head_dim:(j + 1) * c.value_head_dim])

    # Fully materialized per-head keys/values for every position.
    keys = [[None] * c.num_heads for _ in range(length)]
    vals = [[None] * c.num_heads for _ in range(length)]
    k_ropes = []
    for s in range(length):
        latent = weights.kv_down @ tokens[s]
        k_ropes.append(rotate(weights.k_rope @ tokens[s], s))
        for i in range(c.num_heads):
            keys[s][i] = k_maps[i] @ latent
            vals[s][i] = v_maps[i] @ latent

    outputs = np.empty((s_q, c.model_dim))
    scale = 1.0 / math.sqrt(c.head_dim + c.rope_head_dim)
    for idx, t in enumerate(range(length - s_q, length)):
        c_q = tokens[t] if weights.q_down is None else weights.q_down @ tokens[t]
        per_head = []
        for i in range(c.num_heads):
            q_n = weights.q_up[i * c.head_dim:(i + 1) * c.head_dim] @ c_q
            q_r = rotate(weights.q_rope[i * c.rope_head_dim:(i + 1) * c.rope_head_dim] @ c_q, t)
            logits = []
            for s in range(t + 1):
                logits.append((float(np.dot(q_n, keys[s][i])) +
                               float(np.dot(q_r, k_ropes[s]))) * scale)
            m = max(logits)
            exps = [math.exp(l - m) for l in logits]
            z = sum(exps)
            o = np.zeros(c.value_head_dim)
            for s in range(t + 1):
                o += (exps[s] / z) * vals[s][i]
            per_head.append(o)
        outputs[idx] = weights.out_proj @ np.concatenate(per_head)
    return outputs


def dual_path_bound(outputs, tol=1e-10) -> float:
    return tol * (1.0 + float(np.max(np.abs(outputs))))


__all__ = ["plant_bandrank1_gqa", "plant_group_structured_mla", "loop_gqa_oracle",
           "longhand_mha", "dual_path_bound", "random_tokens"]


def parse_csv(text: str):
    """Inverse of gqla.cli.emit_table(format="csv"): (columns, rows), all strings."""
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]
