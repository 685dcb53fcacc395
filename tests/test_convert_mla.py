import dataclasses

import numpy as np
import pytest

from gqla import convert_gqa as CG
from gqla import convert_mla as CM
from gqla import model as M
from gqla.errors import DegenerateCalibrationError, ParameterError
from gqla.model import random_tokens
from gqla.numerics import CovarianceAccumulator, accumulate, pca_factor, root_eig, sym_eig

from conftest import dual_path_bound, plant_group_structured_mla, unit_scaled

CALIB = random_tokens(2048, 64, 17)


def group_moments(weights, up, calib, groups):
    """Referee for calibrate: one accumulator per group of that group's
    activations c @ (up_j @ kv_down).T, up_j being its rows of up and c the
    calibration as calibrate reads it (unit_scaled)."""
    return [accumulate(CovarianceAccumulator.empty(len(block)),
                       unit_scaled(calib) @ (block @ weights.kv_down).T)
            for block in up.reshape(groups, -1, up.shape[1])]


def assert_root_matches(root, acc, rtol):
    """root.T @ root is the normalized moment acc holds, to rtol of its largest entry."""
    ref = acc.normalized()
    assert np.max(np.abs(root.T @ root - ref)) <= rtol * np.max(np.abs(ref))


class TestCalibrate:
    def test_single_token_gives_rank_one_moments(self, mla_config, mla_weights):
        token = random_tokens(1, 64, 30)
        stats = CM.calibrate(mla_weights, mla_config, token, 2)
        latent = mla_weights.kv_down @ unit_scaled(token)[0]
        for j, root in enumerate(stats.key_root):
            act = mla_weights.k_up[j * 64:(j + 1) * 64] @ latent
            assert np.max(np.abs(root.T @ root - np.outer(act, act))) <= 1e-12

    def test_moments_are_symmetric_psd(self, mla_config, mla_weights):
        stats = CM.calibrate(mla_weights, mla_config, CALIB[:512], 2)
        accs = (group_moments(mla_weights, mla_weights.k_up, CALIB[:512], 2) +
                group_moments(mla_weights, mla_weights.v_up, CALIB[:512], 2))
        for root, acc in zip(list(stats.key_root) + list(stats.value_root), accs):
            assert_root_matches(root, acc, 1e-12)
            m = root.T @ root
            assert np.max(np.abs(m - m.T)) <= 1e-12 * (1 + np.abs(m).max())
            lam = sym_eig(m).eigenvalues
            assert np.all(lam >= -1e-9 * np.trace(m))

    def test_rejects_bad_inputs(self, mla_config, mla_weights):
        with pytest.raises(ParameterError):
            CM.calibrate(mla_weights, mla_config, np.zeros((0, 64)), 2)
        with pytest.raises(ParameterError):
            CM.calibrate(mla_weights, mla_config, CALIB[:4], 3)  # 3 does not divide 8
        grouped = dataclasses.replace(mla_config, num_groups=2)
        with pytest.raises(ParameterError):
            CM.calibrate(M.init_random(grouped, 0), grouped, CALIB[:4], 2)


class TestFactor:
    def test_one_head_per_group_is_exact(self, mla_config, mla_weights):
        stats = CM.calibrate(mla_weights, mla_config, CALIB[:512], 8)
        fact = CM.factor(mla_weights, mla_config, stats)
        for j in range(8):
            u, v = fact.key_u[j], fact.key_v[j]
            block = mla_weights.k_up[j * 16:(j + 1) * 16]
            assert np.max(np.abs(u @ v - block)) <= 1e-10
            assert np.max(np.abs(u.T @ u - np.eye(16))) <= 1e-10

    def test_planted_low_rank_recovered(self, mla_config):
        planted = plant_group_structured_mla(mla_config, groups=2, seed=5)
        stats = CM.calibrate(planted, mla_config, CALIB[:512], 2)
        fact = CM.factor(planted, mla_config, stats)
        for j in range(2):
            block = planted.k_up[j * 64:(j + 1) * 64]
            assert np.max(np.abs(fact.key_u[j] @ fact.key_v[j] - block)) <= 1e-8
        assert min(fact.key_energy) > 1.0 - 1e-12

    def test_factor_beats_random_bases(self, mla_config, mla_weights):
        from gqla.numerics import weighted_error
        stats = CM.calibrate(mla_weights, mla_config, CALIB[:512], 2)
        fact = CM.factor(mla_weights, mla_config, stats)
        accs = group_moments(mla_weights, mla_weights.k_up, CALIB[:512], 2)
        rng = np.random.default_rng(60)
        for j, acc in enumerate(accs):
            assert_root_matches(stats.key_root[j], acc, 1e-12)
            block = mla_weights.k_up[j * 64:(j + 1) * 64]
            err = weighted_error(block, fact.key_u[j], fact.key_v[j], acc)
            for _ in range(20):
                b, _ = np.linalg.qr(rng.standard_normal((64, 16)))
                assert err <= weighted_error(block, b, b.T @ block, acc) + 1e-9

    def test_matches_pca_factor_and_eigenvalue_energy(self, mla_config, mla_weights):
        stats = CM.calibrate(mla_weights, mla_config, CALIB, 2)
        fact = CM.factor(mla_weights, mla_config, stats)
        d = mla_config.head_dim
        # factor eigendecomposes the moment's root, pca_factor the directly
        # accumulated moment: both give the same canonical columns, to rounding
        for j, acc in enumerate(group_moments(mla_weights, mla_weights.k_up, CALIB, 2)):
            assert_root_matches(stats.key_root[j], acc, 1e-12)
            u, v = pca_factor(mla_weights.k_up[j * 4 * d:(j + 1) * 4 * d], acc, d)
            assert np.max(np.abs(fact.key_u[j] - u)) <= 1e-10
            assert np.max(np.abs(fact.key_v[j] - v)) <= 1e-10
            lam = sym_eig(acc.normalized()).eigenvalues
            energy = lam[:d].sum() / lam.sum()
            assert abs(fact.key_energy[j] - energy) <= 1e-14 * energy


def looped_factor(weights, config, stats):
    """Referee for factor: one unstacked root_eig per group and side, each
    group's v from its own u and block, stacked only at the end."""
    def side(proj, roots, rank):
        us, vs, energies, ranks = [], [], [], []
        for root, block in zip(roots, proj.reshape(len(roots), -1, proj.shape[1])):
            eig = root_eig(root, rank)
            total = float(np.linalg.norm(root)) ** 2
            energies.append(float(eig.eigenvalues.sum()) / total if total > 0 else 1.0)
            ranks.append(int(np.sum(eig.eigenvalues > 0.0)))
            us.append(eig.eigenvectors)
            vs.append(eig.eigenvectors.T @ block)
        return np.stack(us), np.stack(vs), tuple(energies), tuple(ranks)

    key_u, key_v, key_energy, key_rank = side(weights.k_up, stats.key_root, config.head_dim)
    value_u, value_v, value_energy, value_rank = side(weights.v_up, stats.value_root,
                                                      config.value_head_dim)
    return CM.GroupFactorization(key_u, key_v, value_u, value_v, key_energy, value_energy,
                                 key_rank, value_rank)


class TestStackedFactor:
    def test_reference_shape_is_bitwise_the_per_group_loop(self):
        config = M.GqlaConfig(model_dim=256, num_heads=32, num_groups=32, head_dim=128,
                              value_head_dim=128, rope_head_dim=64, kv_rank=512, q_rank=256)
        weights = M.init_random(config, 12)
        calib = random_tokens(1024, 256, 13)
        converted, report = CM.convert(weights, config, calib, 8)
        fact = looped_factor(weights, config, CM.calibrate(weights, config, calib, 8))
        referee = CM.absorb_factors(weights, config, fact)
        for field in dataclasses.fields(referee):
            assert np.array_equal(getattr(converted, field.name), getattr(referee, field.name))
        assert report.key_energy == fact.key_energy
        assert report.value_energy == fact.value_energy
        assert report.key_rank == fact.key_rank and report.value_rank == fact.value_rank

    def test_square_factors_are_completed_past_the_calibration_rank(self, mla_config,
                                                                   mla_weights):
        # 4 tokens give each head's 16-dim factor 4 live columns
        calib = CALIB[:4]
        stats = CM.calibrate(mla_weights, mla_config, calib, 8)
        fact = CM.factor(mla_weights, mla_config, stats)
        loop = looped_factor(mla_weights, mla_config, stats)
        eye = np.eye(16)
        for u, v, ref_u, block in zip(fact.key_u, fact.key_v, loop.key_u,
                                      mla_weights.k_up.reshape(8, 16, -1)):
            assert np.count_nonzero(np.any(ref_u, axis=0)) == 4
            assert np.array_equal(u[:, :4], ref_u[:, :4])  # the live columns are kept
            assert np.max(np.abs(u.T @ u - eye)) <= 1e-12
            assert np.max(np.abs(u @ v - block)) <= 1e-12 * np.max(np.abs(block))
        assert fact.key_energy == loop.key_energy and fact.value_energy == loop.value_energy
        assert fact.key_rank == loop.key_rank == (4,) * 8 and fact.value_rank == (4,) * 8
        converted, report = CM.convert(mla_weights, mla_config, calib, 8)
        tokens = random_tokens(15, 64, 44)
        ref, _ = M.forward_gqa_path(mla_weights, mla_config, tokens, 2)
        got, _ = M.forward_gqa_path(converted, mla_config, tokens, 2)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert report.output_deviation <= 1e-10

    def test_non_square_factors_keep_zero_columns(self, mla_config, mla_weights):
        stats = CM.calibrate(mla_weights, mla_config, CALIB[:4], 2)
        fact = CM.factor(mla_weights, mla_config, stats)
        loop = looped_factor(mla_weights, mla_config, stats)
        for name in ("key_u", "key_v", "value_u", "value_v"):
            assert np.array_equal(getattr(fact, name), getattr(loop, name))
        assert np.all(fact.key_u[:, :, 4:] == 0.0)


class TestAbsorb:
    def test_planted_source_converts_losslessly(self, mla_config):
        planted = plant_group_structured_mla(mla_config, groups=2, seed=5)
        converted, report = CM.convert(planted, mla_config, CALIB[:512], 2)
        target = CM.target_config(mla_config, 2)
        for seed in range(5):
            tokens = random_tokens(14, 64, 400 + seed)
            ref, _ = M.forward_gqa_path(planted, mla_config, tokens, 2)
            got, _ = M.forward_gqa_path(converted, target, tokens, 2)
            assert np.max(np.abs(got - ref)) <= 1e-10 * (1 + np.max(np.abs(ref)))
        assert report.output_deviation <= 1e-10

    def test_absorbed_matches_unfused(self, mla_config, mla_weights):
        stats = CM.calibrate(mla_weights, mla_config, CALIB[:512], 2)
        fact = CM.factor(mla_weights, mla_config, stats)
        absorbed = CM.absorb_factors(mla_weights, mla_config, fact)
        target = CM.target_config(mla_config, 2)
        tokens = random_tokens(16, 64, 33)
        via_model, _ = M.forward_gqa_path(absorbed, target, tokens, 2)
        via_unfused = CM.unfused_forward(mla_weights, mla_config, fact, tokens, 2)
        assert np.max(np.abs(via_model - via_unfused)) <= \
            1e-10 * (1 + np.max(np.abs(via_unfused)))

    def test_query_and_output_shapes_unchanged(self, mla_config, mla_weights):
        stats = CM.calibrate(mla_weights, mla_config, CALIB[:256], 2)
        fact = CM.factor(mla_weights, mla_config, stats)
        converted = CM.absorb_factors(mla_weights, mla_config, fact)
        assert converted.q_up.shape == mla_weights.q_up.shape
        assert converted.out_proj.shape == mla_weights.out_proj.shape
        # up-projection first dimension shrinks by heads-per-group
        assert converted.k_up.shape[0] == mla_weights.k_up.shape[0] // 4
        assert converted.v_up.shape[0] == mla_weights.v_up.shape[0] // 4

    def test_latent_pathway_passes_through(self, mla_config, mla_weights):
        converted, _ = CM.convert(mla_weights, mla_config, CALIB[:512], 2)
        assert np.array_equal(converted.kv_down, mla_weights.kv_down)
        assert np.array_equal(converted.k_rope, mla_weights.k_rope)
        # so the latent cache contents are identical before and after
        tokens = random_tokens(9, 64, 50)
        target = CM.target_config(mla_config, 2)
        _, cache_src = M.forward_absorb_path(mla_weights, mla_config, tokens, 1)
        _, cache_new = M.forward_absorb_path(converted, target, tokens, 1)
        assert np.array_equal(cache_src.kv, cache_new.kv)
        assert np.array_equal(cache_src.k_rope, cache_new.k_rope)

    def test_passed_through_arrays_are_the_sources_own(self, mla_config, mla_weights):
        # read-only weights need no defensive copy
        converted, _ = CM.convert(mla_weights, mla_config, CALIB[:512], 2)
        for name in ("q_down", "q_rope", "kv_down", "k_rope"):
            assert np.shares_memory(getattr(converted, name), getattr(mla_weights, name)), name
        for name in ("q_up", "k_up", "v_up", "out_proj"):
            assert not np.shares_memory(getattr(converted, name), getattr(mla_weights, name))


class TestConvert:
    def test_group_per_head_is_exact_reparameterization(self, mla_config, mla_weights):
        converted, report = CM.convert(mla_weights, mla_config, CALIB[:512], 8)
        tokens = random_tokens(15, 64, 44)
        ref, _ = M.forward_gqa_path(mla_weights, mla_config, tokens, 2)
        got, _ = M.forward_gqa_path(converted, mla_config, tokens, 2)
        assert np.max(np.abs(got - ref)) <= 1e-10 * (1 + np.max(np.abs(ref)))
        assert report.output_deviation <= 1e-10

    def test_converted_weights_pass_dual_path(self, mla_config, mla_weights):
        converted, _ = CM.convert(mla_weights, mla_config, CALIB[:512], 2)
        target = CM.target_config(mla_config, 2)
        tokens = random_tokens(17, 64, 55)
        a, _ = M.forward_gqa_path(converted, target, tokens, 2)
        b, _ = M.forward_absorb_path(converted, target, tokens, 2)
        o = M.oracle_mha(converted, target, tokens, 2)
        assert np.max(np.abs(a - b)) <= dual_path_bound(a)
        assert np.max(np.abs(b - o)) <= dual_path_bound(a)

    def test_deviation_non_increasing_with_calibration_size(self, mla_config):
        planted = plant_group_structured_mla(mla_config, groups=2, seed=5)
        stream = random_tokens(512, 64, 17)  # nested: the first 64 are a prefix
        small = CM.convert(planted, mla_config, stream[:64], 2)[1].output_deviation
        large = CM.convert(planted, mla_config, stream, 2)[1].output_deviation
        assert large <= small + 1e-12

    def test_report_energies(self, mla_config, mla_weights):
        _, report = CM.convert(mla_weights, mla_config, CALIB[:512], 2)
        assert len(report.key_energy) == 2 and len(report.value_energy) == 2
        assert all(0.0 < e <= 1.0 for e in report.key_energy + report.value_energy)
        assert report.latent_elements_per_token == 40


# A calibration whose second moment is all zero: no energy at all.
NO_ENERGY = {"zeros": np.zeros((256, 64))}


@pytest.mark.parametrize("calib", NO_ENERGY.values(), ids=NO_ENERGY.keys())
@pytest.mark.parametrize("route", ["gqa", "mla"])
def test_calibration_without_energy_raises_on_both_routes(route, calib, desk_gqa,
                                                          mla_config, mla_weights):
    with pytest.raises(DegenerateCalibrationError, match="calibration moment is all zero"):
        if route == "gqa":
            CG.convert(desk_gqa, calib, CG.target_config(desk_gqa, 24, 8))
        else:
            CM.convert(mla_weights, mla_config, calib, 2)


# Calibrations whose moment is not finite: one NaN token, or an accumulator
# that already holds an infinite moment.
NOT_FINITE = {
    "nan_token": (np.vstack([random_tokens(255, 64, 17), np.full((1, 64), np.nan)]),
                  "calibration tokens hold non-finite entries"),
    "accumulator": (CovarianceAccumulator(64, np.full((64, 64), np.inf), 256),
                    "calibration moment is not finite"),
}


@pytest.mark.filterwarnings("error")  # no numpy warning may escape either route
@pytest.mark.parametrize("calib, message", NOT_FINITE.values(), ids=NOT_FINITE.keys())
@pytest.mark.parametrize("route", ["gqa", "mla"])
def test_calibration_whose_moment_is_not_finite_raises_on_both_routes(
        route, calib, message, desk_gqa, mla_config, mla_weights):
    with pytest.raises(DegenerateCalibrationError, match=message):
        if route == "gqa":
            CG.convert(desk_gqa, calib, CG.target_config(desk_gqa, 14, 4))
        else:
            CM.convert(mla_weights, mla_config, calib, 2)


# Token scales whose squares would underflow to zero, lose most of their
# bits, or overflow, if the moment were formed at the tokens' own scale.
EXTREME_SCALES = {"underflow": 1e-200, "subnormal": 1e-160, "overflow": 1e160}


@pytest.mark.filterwarnings("error")  # no numpy warning may escape either route
@pytest.mark.parametrize("scale", EXTREME_SCALES.values(), ids=EXTREME_SCALES.keys())
@pytest.mark.parametrize("route", ["gqa", "mla"])
def test_calibration_scale_does_not_matter(route, scale, desk_gqa, mla_config, mla_weights):
    calib, probe = random_tokens(256, 64, 17), random_tokens(10, 64, 77)
    outputs = []
    for tokens in (calib, calib * scale):
        if route == "gqa":
            target = CG.target_config(desk_gqa, 14, 4)
            weights, _ = CG.convert(desk_gqa, tokens, target)
        else:
            target = CM.target_config(mla_config, 2)
            weights, _ = CM.convert(mla_weights, mla_config, tokens, 2)
        outputs.append(M.forward_gqa_path(weights, target, probe, 2)[0])
    ref, got = outputs
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_calibration_whose_energy_never_reaches_the_latent_raises(mla_config, mla_weights):
    # tokens in the null space of kv_down: latent entries ~1e-15 against tokens ~3
    null_space = np.linalg.svd(mla_weights.kv_down)[2][32:]
    calib = random_tokens(256, 32, 17) @ null_space
    with pytest.raises(DegenerateCalibrationError, match="no energy into the latent"):
        CM.convert(mla_weights, mla_config, calib, 2)
    # eight tokens that reach the latent are enough
    mixed = np.vstack([calib, random_tokens(8, 64, 18)])
    converted, report = CM.convert(mla_weights, mla_config, mixed, 2)
    assert converted.k_up.shape == (32, 32) and np.isfinite(report.output_deviation)


def test_report_shows_each_groups_basis_rank(mla_config, mla_weights):
    # the null-space mix spans 8 latent directions: full energy, but at rank 8 of 16
    null_space = np.linalg.svd(mla_weights.kv_down)[2][32:]
    mixed = np.vstack([random_tokens(256, 32, 17) @ null_space, random_tokens(8, 64, 18)])
    _, report = CM.convert(mla_weights, mla_config, mixed, 2)
    assert report.key_rank == report.value_rank == (8, 8)
    assert "key basis rank:          [8/16, 8/16]" in report.lines()
    assert "value basis rank:        [8/16, 8/16]" in report.lines()
    _, report = CM.convert(mla_weights, mla_config, random_tokens(512, 64, 19), 2)
    assert report.key_rank == report.value_rank == (16, 16)
    assert "key basis rank:          [16/16, 16/16]" in report.lines()


def test_a_missing_q_down_passes_through(mla_config):
    # a head-indexed source whose queries project straight from the token
    config = dataclasses.replace(mla_config, q_rank=64)
    bare = dataclasses.replace(M.init_random(config, 21), q_down=None)
    eye = dataclasses.replace(bare, q_down=np.eye(64))
    converted, report = CM.convert(bare, config, CALIB[:512], 2)
    with_eye, eye_report = CM.convert(eye, config, CALIB[:512], 2)
    assert converted.q_down is None and report == eye_report
    for field in dataclasses.fields(converted)[1:]:
        assert np.array_equal(getattr(converted, field.name), getattr(with_eye, field.name))
    fact = CM.factor(bare, config, CM.calibrate(bare, config, CALIB[:512], 2))
    tokens = random_tokens(7, 64, 8)
    assert np.array_equal(CM.unfused_forward(bare, config, fact, tokens, 2),
                          CM.unfused_forward(eye, config, fact, tokens, 2))
