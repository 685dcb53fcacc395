"""Property tests: the decoding paths agree with each other and with the
oracle across the valid configuration space, not only at the fixed shapes,
and both converters keep their contracts across small sources.

Each suite is bounded and derandomized (a fixed example count drawn from a
fixed seed), so every run checks the same cases and tier-1 stays fast.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqla import convert_gqa as CG
from gqla import convert_mla as CM
from gqla import model as M
from gqla.errors import GqlaError, ParameterError
from gqla.model import GqlaConfig, random_tokens
from gqla.numerics import root_eig

from conftest import dual_path_bound, longhand_mha


@st.composite
def attention_cases(draw):
    """A valid config with seeded weights, a length, an s_q and a token seed."""
    groups = draw(st.integers(1, 4))
    config = GqlaConfig(
        model_dim=draw(st.integers(1, 24)),
        num_heads=groups * draw(st.integers(1, 4)),
        num_groups=groups,
        head_dim=draw(st.integers(1, 12)),
        value_head_dim=draw(st.integers(1, 12)),
        rope_head_dim=2 * draw(st.integers(1, 6)),
        kv_rank=draw(st.integers(1, 40)),
        q_rank=draw(st.integers(1, 24)),
        rope_base=draw(st.sampled_from([10.0, 10000.0, 1e6])),
    )
    length = draw(st.integers(1, 24))
    s_q = draw(st.integers(1, length))
    seed = draw(st.integers(0, 2 ** 16))
    tokens = random_tokens(length, config.model_dim, seed + 1)
    return config, M.init_random(config, seed), tokens, s_q


@settings(derandomize=True, max_examples=100, deadline=None)
@given(attention_cases(), st.sampled_from([1, 7, 64, 2 ** 20]))
def test_expanded_absorbed_and_oracle_agree(case, block_elements):
    config, weights, tokens, s_q = case
    # block_elements splits prefills and decoded blocks into query blocks of
    # one query up to all of them
    with mock.patch.object(M, "SCORE_BLOCK_ELEMENTS", block_elements):
        expanded, _ = M.forward_gqa_path(weights, config, tokens, s_q)
        absorbed, _ = M.forward_absorb_path(weights, config, tokens, s_q)
        oracle = M.oracle_mha(weights, config, tokens, s_q)
        bound = dual_path_bound(oracle)
        assert expanded.shape == oracle.shape == (s_q, config.model_dim)
        assert np.max(np.abs(expanded - absorbed)) <= bound
        assert np.max(np.abs(expanded - oracle)) <= bound
        assert np.max(np.abs(absorbed - oracle)) <= bound
        # the trailing s_q tokens decoded as one block onto the prefix cache
        prefix = tokens.shape[0] - s_q
        for forward, decode, layout in ((M.forward_gqa_path, M.decode_gqa, M.ExpandedCache),
                                        (M.forward_absorb_path, M.decode_absorb, M.LatentCache)):
            cache = (forward(weights, config, tokens[:prefix])[1] if prefix
                     else M._empty_cache(weights, config, layout))
            decoded, _ = decode(weights, config, cache, tokens[prefix:])
            assert np.max(np.abs(decoded - oracle)) <= bound


@settings(derandomize=True, max_examples=30, deadline=None)
@given(attention_cases())
def test_oracle_matches_its_longhand_form(case):
    config, weights, tokens, s_q = case
    ref = longhand_mha(weights, config, tokens, s_q)
    assert np.max(np.abs(M.oracle_mha(weights, config, tokens, s_q) - ref)) <= 1e-12 * (
        1 + np.max(np.abs(ref)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(attention_cases(), st.lists(st.integers(1, 3), min_size=1, max_size=12),
       st.integers(0, 11))
def test_decoded_blocks_match_the_prefill_and_leave_earlier_caches(case, blocks, branch_at):
    # prefill the drawn tokens, then decode fresh tokens in the drawn blocks;
    # a second block decoded from an earlier cache must leave every cache as it was
    config, weights, prompt, _ = case
    tokens = np.vstack([prompt, random_tokens(sum(blocks) + 1, config.model_dim, len(blocks))])
    for forward, decode in ((M.forward_gqa_path, M.decode_gqa),
                            (M.forward_absorb_path, M.decode_absorb)):
        caches = [forward(weights, config, prompt)[1]]
        start = len(prompt)
        for block in blocks:
            caches.append(decode(weights, config, caches[-1], tokens[start:start + block])[1])
            start += block
        fields = [{f.name: getattr(c, f.name).copy() for f in dataclasses.fields(c)}
                  for c in caches]
        earlier = caches[min(branch_at, len(caches) - 1)]
        out, _ = decode(weights, config, earlier, tokens[start])
        for cache, before in zip(caches, fields):
            assert all(np.array_equal(getattr(cache, name), arr) for name, arr in before.items())
        _, whole = forward(weights, config, tokens[:start])
        for name, arr in fields[-1].items():
            expect = getattr(whole, name)
            assert np.max(np.abs(arr - expect)) <= 1e-12 * (1 + np.max(np.abs(expect)))
        oracle = M.oracle_mha(weights, config, np.vstack([tokens[:len(earlier)], tokens[start]]))
        assert np.max(np.abs(out - oracle[0])) <= dual_path_bound(oracle)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(attention_cases())
def test_cache_switch_round_trip(case):
    # expand -> compress -> expand; the space holds kv_rank > g*(d+dv), where the
    # compressed latent may differ from the decoded one but not in its image
    config, weights, tokens, _ = case
    expanded = M.cache_expand(M.forward_absorb_path(weights, config, tokens)[1], weights)
    compressed, residuals = M.cache_compress(expanded, weights)
    rebuilt = M.cache_expand(compressed, weights)
    for name in ("k_nope", "v"):
        expect = getattr(expanded, name)
        assert np.max(np.abs(getattr(rebuilt, name) - expect)) <= 1e-9 * (
            1 + np.max(np.abs(expect)))
    assert np.max(residuals) <= 1e-9


def assert_passes_verify(weights, config):
    """Every check `gqla verify` makes, at its default bound 1e-9·(1 + max|out|),
    on 6 tokens with s_q = 2; the round trip also within 1e-9 of each field's
    own scale. Returns the tokens and the expanded path's output."""
    tokens = random_tokens(6, config.model_dim, 7)
    expanded, cache = M.forward_gqa_path(weights, config, tokens, 2)
    absorbed, latent = M.forward_absorb_path(weights, config, tokens, 2)
    oracle = M.oracle_mha(weights, config, tokens, 2)
    bound = dual_path_bound(expanded, 1e-9)
    assert np.max(np.abs(expanded - absorbed)) <= bound
    assert np.max(np.abs(expanded - oracle)) <= bound
    assert np.max(np.abs(absorbed - oracle)) <= bound
    compressed, residuals = M.cache_compress(cache, weights)
    up = np.vstack([weights.k_up, weights.v_up])
    assert np.max(np.abs((compressed.kv - latent.kv) @ up.T)) <= bound
    rebuilt = M.cache_expand(compressed, weights)
    for name in ("k_nope", "v"):
        expect = getattr(cache, name)
        dev = np.max(np.abs(getattr(rebuilt, name) - expect))
        assert dev <= bound and dev <= 1e-9 * (1 + np.max(np.abs(expect)))
    assert np.max(residuals) <= 1e-9
    return tokens, expanded


@st.composite
def gqa_conversions(draw):
    """A small GQA source, a target whose kv_rank is drawn up to 2·g·d (above
    model_dim, and past the feasible budget 2·g·d - rope dims), and
    calibration tokens fewer or more than model_dim."""
    groups = draw(st.integers(1, 3))
    head_dim = 2 * draw(st.integers(1, 4))
    model_dim = draw(st.integers(2, 10))
    base = draw(st.sampled_from([10.0, 10000.0]))
    seed = draw(st.integers(0, 2 ** 16))
    src = CG.init_random_gqa(groups * draw(st.integers(1, 3)), groups, head_dim, model_dim,
                             seed, rope_base=base)
    width = groups * head_dim
    target = GqlaConfig(model_dim=model_dim, num_heads=src.num_heads, num_groups=groups,
                        head_dim=head_dim, value_head_dim=head_dim,
                        rope_head_dim=2 * draw(st.integers(1, width // 2)),
                        kv_rank=draw(st.integers(1, 2 * width)), q_rank=model_dim,
                        rope_base=base)
    calib = random_tokens(draw(st.integers(1, 3 * model_dim)), model_dim, seed + 1)
    return src, target, calib


@settings(derandomize=True, max_examples=40, deadline=None)
@given(gqa_conversions())
def test_gqa_conversion_leaves_dead_latent_dims_empty_and_switches(case):
    src, target, calib = case
    if target.kv_rank + target.rope_head_dim > 2 * src.num_groups * src.head_dim:
        with pytest.raises(ParameterError):
            CG.convert(src, calib, target)
        return
    ranks = []

    def recording(b, rank):
        eig = root_eig(b, rank)
        ranks.append(int(np.count_nonzero(eig.eigenvalues)))
        return eig

    with mock.patch.object(CG, "root_eig", recording):
        try:
            weights, report = CG.convert(src, calib, target)
        except GqlaError:
            return
    [live] = ranks
    assert report.latent_rank == live
    dead = ~np.any(np.vstack([weights.k_up, weights.v_up]), axis=0)
    assert np.count_nonzero(dead) == target.kv_rank - live and not np.any(dead[:live])
    assert np.all(weights.kv_down[live:] == 0.0)

    assert_passes_verify(weights, target)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(gqa_conversions())
def test_rorope_align_preserves_the_scores_of_held_out_probes(case):
    src, _, calib = case
    merged = CG.merge_heads(src)
    aligned, _ = CG.rorope_align(merged, calib)
    probe = random_tokens(6, src.model_dim, 99)
    ref = CG.merged_scores(merged, probe)
    assert np.max(np.abs(CG.merged_scores(aligned, probe) - ref)) <= 1e-10 * (
        1 + np.max(np.abs(ref)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(gqa_conversions())
def test_balancing_leaves_the_full_rank_forward_unchanged(case):
    # at kv_rank = 2·g·d - rope dims the joint PCA keeps every direction, so
    # the balancing scales cancel, given a calibration that spans model_dim
    src, target, calib = case
    full = dataclasses.replace(
        target, kv_rank=2 * src.num_groups * src.head_dim - target.rope_head_dim)
    calib = np.vstack([calib, random_tokens(src.model_dim, src.model_dim, 5)])
    balanced, _ = CG.convert(src, calib, full)
    joint_pca = CG.balance_and_joint_pca
    with mock.patch.object(CG, "balance_and_joint_pca",
                           lambda *args, balance: joint_pca(*args, balance=False)):
        plain, _ = CG.convert(src, calib, full)
    probe = random_tokens(6, src.model_dim, 98)
    ref, _ = M.forward_gqa_path(plain, full, probe, 6)
    got, _ = M.forward_gqa_path(balanced, full, probe, 6)
    assert np.max(np.abs(got - ref)) <= 1e-12 * (1 + np.max(np.abs(ref)))


def reconstruction_energies(b, u, d_n):
    """Referee for the joint PCA's per-side energies: the share of each side's
    columns of b (key columns first, d_n of them) kept by the projection onto
    the basis u, from the reconstruction (b·u)·u^T itself."""
    recon = (b @ u) @ u.T

    def retained(cols):
        total = np.linalg.norm(b[:, cols]) ** 2
        return 1.0 - np.linalg.norm(b[:, cols] - recon[:, cols]) ** 2 / total if total else 1.0
    return retained(slice(0, d_n)), retained(slice(d_n, None))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(gqa_conversions())
def test_gqa_energies_match_the_reconstruction(case):
    src, target, calib = case
    width = src.num_groups * src.head_dim
    roots = []

    def recording(b, rank):
        roots.append((b, root_eig(b, rank)))
        return roots[-1][1]

    with mock.patch.object(CG, "root_eig", recording):
        try:
            _, report = CG.convert(src, calib, target)
        except GqlaError:
            return
    [(b, eig)] = roots
    key, value = reconstruction_energies(b, eig.eigenvectors, b.shape[1] - width)
    assert abs(report.key_energy_retained - key) <= 1e-12
    assert abs(report.value_energy_retained - value) <= 1e-12


@st.composite
def mla_conversions(draw):
    """A small head-indexed source, a group count that divides its heads, and
    1..3·model_dim calibration tokens, so the calibration Gram matrix is
    singular (fewer tokens than model_dim) or not."""
    heads = draw(st.integers(1, 6))
    model_dim = draw(st.integers(1, 10))
    config = GqlaConfig(model_dim=model_dim, num_heads=heads, num_groups=heads,
                        head_dim=draw(st.integers(1, 6)), value_head_dim=draw(st.integers(1, 6)),
                        rope_head_dim=2 * draw(st.integers(1, 3)),
                        kv_rank=draw(st.integers(1, 12)), q_rank=draw(st.integers(1, 10)),
                        rope_base=draw(st.sampled_from([10.0, 10000.0])))
    groups = draw(st.sampled_from([g for g in range(1, heads + 1) if heads % g == 0]))
    seed = draw(st.integers(0, 2 ** 16))
    calib = random_tokens(draw(st.integers(1, 3 * model_dim)), model_dim, seed + 1)
    return config, M.init_random(config, seed), calib, groups


@settings(derandomize=True, max_examples=60, deadline=None)
@given(mla_conversions())
def test_mla_conversion_raises_only_package_errors_and_keeps_both_paths(case):
    config, weights, calib, groups = case
    try:
        converted, _ = CM.convert(weights, config, calib, groups)
    except GqlaError:
        return
    tokens, expanded = assert_passes_verify(converted, CM.target_config(config, groups))
    # one head per group is a reparameterization at any calibration rank: past
    # it, each square per-group basis is completed to an orthonormal one
    if groups == config.num_heads:
        source, _ = M.forward_gqa_path(weights, config, tokens, 2)
        assert np.max(np.abs(expanded - source)) <= 1e-10 * np.max(np.abs(source))
