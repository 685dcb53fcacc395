import dataclasses
import math
import os
import time

import numpy as np
import pytest

from gqla import convert_gqa as CG
from gqla import convert_mla as CM
from gqla import model as M
from gqla import sparse
from gqla.errors import DegenerateCalibrationError, ParameterError, ShapeError
from gqla.model import GqlaConfig, random_tokens
from gqla.numerics import CovarianceAccumulator, accumulate, pca_factor, root_eig, sym_eig
from gqla.rope import apply_rope

from conftest import (assert_bitwise_equal, dual_path_bound, loop_gqa_oracle, plant_bandrank1_gqa,
                      unit_scaled)

CALIB = random_tokens(512, 64, 3)


def gram(calib):
    return accumulate(CovarianceAccumulator.empty(calib.shape[1]), calib)


def pair_layout(merged):
    """Each rotary pair's two key coordinates (g*d/2, 2)."""
    return np.arange(merged.num_groups * merged.head_dim).reshape(-1, 2)


def pair_moments(merged, calib):
    """The normalized (g*d/2, 2, 2) rotary-pair key moments rorope_align reads."""
    return CG._key_moments(merged, calib, pair_layout(merged))


def identity_rotations(merged):
    return np.tile(np.eye(2), (merged.num_groups, merged.head_dim // 2, 1, 1))


def dense_basis(folded, columns):
    """The dense (g*head_dim x len(columns)) basis over the named columns."""
    return folded.lift(np.eye(len(columns)), columns)


def desk_target(kv_rank, rope_dim) -> GqlaConfig:
    return GqlaConfig(model_dim=64, num_heads=8, num_groups=2, head_dim=16,
                      value_head_dim=16, rope_head_dim=rope_dim, kv_rank=kv_rank, q_rank=64)


class TestMergeHeads:
    def test_returns_the_source_itself(self, desk_gqa):
        assert CG.merge_heads(desk_gqa) is desk_gqa

    def test_non_finite_source_rejected(self, desk_gqa):
        k = desk_gqa.k_proj.copy()
        k[0, 0] = np.nan
        src = dataclasses.replace(desk_gqa, k_proj=k)
        with pytest.raises(ShapeError, match="non-finite"):
            CG.merge_heads(src)
        with pytest.raises(ShapeError, match="non-finite"):
            CG.convert(src, CALIB, desk_target(kv_rank=18, rope_dim=4))

    def test_degenerate_grouping_is_reshape(self):
        src = CG.init_random_gqa(num_heads=4, num_groups=4, head_dim=8, model_dim=32, seed=2)
        merged = CG.merge_heads(src)
        tokens = random_tokens(10, 32, 3)
        a = CG.merged_forward(merged, tokens, 2)
        b = CG.forward_gqa_source(src, tokens, 2)
        assert np.max(np.abs(a - b)) <= 1e-12 * (1 + np.max(np.abs(b)))

    def test_matches_loop_oracle(self, desk_gqa):
        tokens = random_tokens(24, 64, 5)
        merged = CG.merge_heads(desk_gqa)
        got = CG.merged_forward(merged, tokens, 2)
        expect = loop_gqa_oracle(desk_gqa, tokens, 2)
        assert np.max(np.abs(got - expect)) <= 1e-10 * (1 + np.max(np.abs(expect)))

    @pytest.mark.parametrize("block_elements", [64, 1])
    @pytest.mark.parametrize("s_q", [1, 2, 8])
    def test_source_query_blocks_match_loop_oracle(self, monkeypatch, block_elements, s_q):
        # 4 heads over 8 keys: 64 score elements hold two queries, 1 holds one
        monkeypatch.setattr(M, "SCORE_BLOCK_ELEMENTS", block_elements)
        src = CG.init_random_gqa(num_heads=4, num_groups=2, head_dim=8, model_dim=32, seed=9)
        tokens = random_tokens(8, 32, 10)
        got = CG.forward_gqa_source(src, tokens, s_q)
        expect = loop_gqa_oracle(src, tokens, s_q)
        assert got.shape == expect.shape == (s_q, 32)
        assert np.max(np.abs(got - expect)) <= 1e-10 * (1 + np.max(np.abs(expect)))

    def test_scores_match_per_head_rotary_dot_products(self, desk_gqa):
        tokens = random_tokens(9, 64, 8)
        scores = CG.merged_scores(CG.merge_heads(desk_gqa), tokens)
        spec = desk_gqa.rope_spec()
        d, hpg = desk_gqa.head_dim, desk_gqa.heads_per_group
        for i in range(desk_gqa.num_heads):
            q_rows = desk_gqa.q_proj[i * d:(i + 1) * d]
            k_rows = desk_gqa.k_proj[(i // hpg) * d:(i // hpg + 1) * d]
            for t in range(9):
                q = apply_rope(spec, q_rows @ tokens[t], t)
                keys = [apply_rope(spec, k_rows @ tokens[s], s) for s in range(t + 1)]
                expect = np.array(keys) @ q / np.sqrt(d)
                assert np.max(np.abs(scores[i, t, : t + 1] - expect)) <= 1e-12 * (
                    1 + np.max(np.abs(expect)))
                assert np.all(scores[i, t, t + 1:] == 0.0)


@pytest.mark.parametrize("num_groups", [4, 1])  # one head per group; one group
def test_merged_scores_match_longhand_products(num_groups):
    src = CG.init_random_gqa(num_heads=4, num_groups=num_groups, head_dim=8, model_dim=32,
                             seed=12)
    length, d, hpg = 6, src.head_dim, src.heads_per_group
    tokens = random_tokens(length, src.model_dim, 13)
    spec = src.rope_spec()
    expect = np.zeros((src.num_heads, length, length))
    for i in range(src.num_heads):
        q_rows = src.q_proj[i * d:(i + 1) * d]
        k_rows = src.k_proj[(i // hpg) * d:(i // hpg + 1) * d]
        for t in range(length):
            q = apply_rope(spec, q_rows @ tokens[t], t)
            for s in range(t + 1):
                expect[i, t, s] = q @ apply_rope(spec, k_rows @ tokens[s], s) / np.sqrt(d)
    got = CG.merged_scores(src, tokens)
    assert np.max(np.abs(got - expect)) <= 1e-12 * (1 + np.max(np.abs(expect)))


@pytest.mark.parametrize("value", [0, -2])
@pytest.mark.parametrize("field", ["num_heads", "num_groups", "head_dim", "model_dim"])
def test_source_counts_below_one_rejected(desk_gqa, field, value):
    dims = dict(num_heads=8, num_groups=2, head_dim=16, model_dim=64)
    with pytest.raises(ParameterError, match=field):
        CG.init_random_gqa(**{**dims, field: value}, seed=1)
    with pytest.raises(ParameterError, match=field):
        dataclasses.replace(desk_gqa, **{field: value})


@pytest.mark.parametrize("base", [1.0, 0.5, float("nan")])
def test_source_rope_base_at_most_one_rejected(desk_gqa, base):
    # rejected at construction, as GqlaConfig does, not on the first forward
    with pytest.raises(ParameterError, match="rope_base"):
        CG.init_random_gqa(8, 2, 16, 64, 1, rope_base=base)
    with pytest.raises(ParameterError, match="rope_base"):
        dataclasses.replace(desk_gqa, rope_base=base)


class TestRoRope:
    def test_identity_rotations_change_nothing(self, desk_gqa):
        merged = CG.merge_heads(desk_gqa)
        same = CG.apply_head_rotations(merged, identity_rotations(merged))
        tokens = random_tokens(12, 64, 6)
        a = CG.merged_forward(merged, tokens, 2)
        b = CG.merged_forward(same, tokens, 2)
        assert np.array_equal(a, b)

    def test_scores_exactly_preserved(self, desk_gqa):
        merged = CG.merge_heads(desk_gqa)
        aligned, _ = CG.rorope_align(merged, random_tokens(256, 64, 6))
        for seed in range(10):
            probe = random_tokens(8, 64, 60 + seed)
            before = CG.merged_scores(merged, probe)
            after = CG.merged_scores(aligned, probe)
            assert np.max(np.abs(before - after)) <= 1e-10 * (1 + np.max(np.abs(before)))

    def test_outputs_preserved_too(self, desk_gqa):
        merged = CG.merge_heads(desk_gqa)
        aligned, _ = CG.rorope_align(merged, CALIB)
        tokens = random_tokens(16, 64, 7)
        a = CG.merged_forward(merged, tokens, 2)
        b = CG.merged_forward(aligned, tokens, 2)
        assert np.max(np.abs(a - b)) <= 1e-10 * (1 + np.max(np.abs(a)))

    def test_off_leading_energy_never_grows(self, desk_gqa):
        merged = CG.merge_heads(desk_gqa)
        aligned, _ = CG.rorope_align(merged, CALIB)
        pre = pair_moments(merged, CALIB)
        post = pair_moments(aligned, CALIB)
        assert np.all(post[:, 1, 1] <= pre[:, 1, 1] + 1e-12)

    def test_rotation_structure(self, desk_gqa):
        merged = CG.merge_heads(desk_gqa)
        _, rotations = CG.rorope_align(merged, CALIB)
        assert rotations.shape == (merged.num_groups, merged.head_dim // 2, 2, 2)
        for block in rotations.reshape(-1, 2, 2):
            assert np.max(np.abs(block.T @ block - np.eye(2))) <= 1e-12
            assert abs(np.linalg.det(block) - 1.0) <= 1e-12
            # rows (cos, sin) and (-sin, cos)
            assert np.array_equal(block[1], [-block[0, 1], block[0, 0]])

    def test_empty_calibration_rejected(self, desk_gqa):
        merged = CG.merge_heads(desk_gqa)
        with pytest.raises(ParameterError):
            CG.rorope_align(merged, np.zeros((0, 64)))

    @pytest.mark.parametrize("shape", [(8, 2, 16, 64), (16, 4, 32, 128), (4, 1, 8, 32)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_closed_form_matches_pairwise_eigendecomposition(self, shape, seed):
        merged = CG.merge_heads(CG.init_random_gqa(*shape, seed=30 + seed))
        calib = random_tokens(300, shape[3], 40 + seed)
        _, rotations = CG.rorope_align(merged, calib)
        expect = sym_eig_rotations(merged, pair_moments(merged, calib))
        assert rotations.shape == expect.shape
        assert np.max(np.abs(rotations - expect)) <= 1e-14

    def test_tied_pairs_get_proper_rotations(self):
        # calib = I makes the key moment exactly K·K^T. In the first six
        # pairs rounding alone sets the leading eigenvector or its sign, so
        # only the rotation's structure is checked.
        g, d, dm = 2, 8, 16
        e = np.eye(dm)
        k = np.zeros((g * d, dm))
        k[0:2] = 2 * e[0], 2 * e[1]                   # isotropic: a = c, b = 0
        # rows 2, 3 stay zero                          # all-zero pair
        k[4:6] = e[2], 3 * e[3]                       # a < c, b = 0
        k[6:8] = 2 * e[4] + e[5], e[4] + 2 * e[5]     # a = c, b > 0
        k[8:10] = 2 * e[6] + e[7], -e[6] - 2 * e[7]   # a = c, b < 0
        k[10:12] = 0 * e[8], e[8]                     # a = 0 < c, b = 0
        k[12:16] = np.random.default_rng(3).standard_normal((4, dm))
        src = dataclasses.replace(CG.init_random_gqa(4, g, d, dm, seed=2), k_proj=k)
        merged = CG.merge_heads(src)
        calib = np.eye(dm)
        aligned, rotations = CG.rorope_align(merged, calib)
        pre = pair_moments(merged, calib)
        post = pair_moments(aligned, calib)
        for j, rot in enumerate(rotations):
            for p, block in enumerate(rot):
                assert np.max(np.abs(block.T @ block - np.eye(2))) <= 1e-12
                assert abs(np.linalg.det(block) - 1.0) <= 1e-12
                i = j * d // 2 + p
                assert post[i, 1, 1] <= pre[i, 1, 1] + 1e-12
                assert post[i, 0, 0] >= post[i, 1, 1] - 1e-12

    def test_rotations_of_wrong_shape_rejected(self, desk_gqa):
        merged = CG.merge_heads(desk_gqa)
        rotations = identity_rotations(merged)
        dense = np.tile(np.eye(merged.head_dim), (merged.num_groups, 1, 1))
        for bad in (rotations[:1], rotations[:, :-1], rotations[..., :1], rotations[0], dense):
            with pytest.raises(ShapeError, match="shape"):
                CG.apply_head_rotations(merged, bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rotations_rejected(self, desk_gqa, value):
        merged = CG.merge_heads(desk_gqa)
        rotations = identity_rotations(merged)
        rotations[1, 3, 0, 1] = value
        with pytest.raises(ShapeError, match="non-finite"):
            CG.apply_head_rotations(merged, rotations)

    @pytest.mark.parametrize("block", [2 * np.eye(2), np.diag([1.0, -1.0])],
                             ids=["scaled", "reflection"])
    def test_blocks_that_are_not_rotations_rejected(self, desk_gqa, block):
        # 2·I scales every score by 4 and a reflection moves them: neither
        # commutes with the rotary map as a rotation does
        merged = CG.merge_heads(desk_gqa)
        rotations = identity_rotations(merged)
        rotations[1, 3] = block
        with pytest.raises(ShapeError, match="rotation"):
            CG.apply_head_rotations(merged, rotations)


def sym_eig_rotations(merged, moments):
    """Referee for rorope_align's closed form: each rotary pair's 2x2
    moment (pair_moments) is eigendecomposed by sym_eig and its leading
    eigenvector (l0, l1) gives the block [[l0, l1], [-l1, l0]]."""
    blocks = []
    for moment in moments:
        lead = sym_eig(moment).eigenvectors[:, 0]
        blocks.append([[lead[0], lead[1]], [-lead[1], lead[0]]])
    return np.array(blocks).reshape(merged.num_groups, merged.head_dim // 2, 2, 2)


class TestKeyMoments:
    """The key moments the calibrated stages read through the calibration root,
    against the Gram matrix route K·S·K^T/N, S that of the calibration as the
    stages read it (unit_scaled)."""

    @pytest.mark.parametrize("tokens", [512, 16])  # Cholesky root; eigh root, rank 16
    def test_stage_moments_match_the_gram_matrix(self, desk_gqa, monkeypatch, tokens):
        read, key_moments = [], CG._key_moments

        def recording(weights, calib, layout):
            read.append((weights.k_proj[layout], key_moments(weights, calib, layout)))
            return read[-1][1]
        monkeypatch.setattr(CG, "_key_moments", recording)
        calib = CALIB[:tokens]
        aligned, _ = CG.rorope_align(CG.merge_heads(desk_gqa), calib)
        CG.freqfold_compress(aligned, calib, 16, 4)
        g, d, dm = desk_gqa.num_groups, desk_gqa.head_dim, desk_gqa.model_dim
        assert [rows.shape for rows, _ in read] == [(g * d // 2, 2, dm), (d // 2, 2 * g, dm)]
        s = gram(unit_scaled(calib)).second_moment
        for rows, moments in read:
            ref = rows @ s @ np.swapaxes(rows, -1, -2) / tokens
            assert np.array_equal(moments, np.swapaxes(moments, -1, -2))
            assert np.max(np.abs(moments - ref)) <= 1e-12 * np.max(np.abs(ref))


_CHECK_MERGED = CG.merge_heads(CG.init_random_gqa(8, 2, 16, 64, seed=5))
# A rotary dim of 0 makes every key direction position-free.
_CHECK_FOLD = CG.freqfold_compress(_CHECK_MERGED, CALIB, 16, 0)
_CHECK_MLA_CONFIG = GqlaConfig(model_dim=64, num_heads=8, num_groups=8, head_dim=16,
                               value_head_dim=16, rope_head_dim=8, kv_rank=32, q_rank=48)
CALIBRATED_STAGES = {
    "rorope_align": lambda calib: CG.rorope_align(_CHECK_MERGED, calib),
    "freqfold_compress": lambda calib: CG.freqfold_compress(_CHECK_MERGED, calib, 32, 8),
    "balance_and_joint_pca": lambda calib: CG.balance_and_joint_pca(_CHECK_MERGED, calib, 16,
                                                                    _CHECK_FOLD),
    "calibrate": lambda calib: CM.calibrate(M.init_random(_CHECK_MLA_CONFIG, 21),
                                            _CHECK_MLA_CONFIG, calib, 2),
}


@pytest.mark.parametrize("stage", sorted(CALIBRATED_STAGES))
def test_calibration_batch_checked(stage):
    run = CALIBRATED_STAGES[stage]
    run(CALIB[:32])
    with pytest.raises(ShapeError):
        run(CALIB[:32, :-1])
    with pytest.raises(ParameterError):
        run(np.zeros((0, 64)))


GQA_STAGES = ("rorope_align", "freqfold_compress", "balance_and_joint_pca")


class TestSingleStagePath:
    """Each calibrated GQA stage takes the tokens, read as the accumulator of
    their unit_scaled form, or an accumulator, and convert runs every public
    stage once on one accumulator."""

    @pytest.mark.parametrize("stage", GQA_STAGES)
    def test_tokens_and_accumulator_agree_bitwise(self, stage):
        run = CALIBRATED_STAGES[stage]
        assert_bitwise_equal(run(CALIB), run(gram(unit_scaled(CALIB))))

    def test_joint_pca_with_freqfold_agrees_bitwise(self):
        aligned, _ = CG.rorope_align(_CHECK_MERGED, gram(CALIB))
        folded = CG.freqfold_compress(aligned, gram(CALIB), 24, 8)
        assert_bitwise_equal(CG.balance_and_joint_pca(aligned, gram(CALIB), 24, folded),
                             CG.balance_and_joint_pca(aligned, CALIB, 24, folded))

    @pytest.mark.parametrize("stage", GQA_STAGES)
    def test_empty_accumulator_raises(self, stage):
        with pytest.raises(DegenerateCalibrationError):
            CALIBRATED_STAGES[stage](CovarianceAccumulator.empty(64))

    @pytest.mark.parametrize("stage", GQA_STAGES)
    def test_accumulator_of_wrong_dim_raises(self, stage):
        with pytest.raises(ShapeError):
            CALIBRATED_STAGES[stage](gram(CALIB[:, :-1]))

    def test_convert_runs_each_stage_once_on_one_accumulation(self, desk_gqa, monkeypatch):
        calls = {}

        def counted(name, module=CG):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for name in ("merge_heads",) + GQA_STAGES:
            counted(name)
        counted("accumulate", M)  # the calibration Gram is built in model._calibration_gram
        cholesky = np.linalg.cholesky
        factors = []
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: factors.append(m) or cholesky(m))
        CG.convert(desk_gqa, CALIB, desk_target(kv_rank=18, rope_dim=4))
        assert calls == {name: 1 for name in ("merge_heads", "accumulate") + GQA_STAGES}
        assert len(factors) == 1  # the three stages share one root


class TestFreqFold:
    def setup_method(self):
        self.src = CG.init_random_gqa(8, 2, 16, 64, seed=5)
        self.aligned, _ = CG.rorope_align(CG.merge_heads(self.src), CALIB)
        self.width = 2 * 16  # num_groups * head_dim of the key latent

    def test_full_retention_reconstructs_exactly(self):
        width = self.width
        ff = CG.freqfold_compress(self.aligned, CALIB, kv_rank=width, rope_dim=width)
        rope = dense_basis(ff, ff.rope_columns)
        basis = np.hstack([rope, dense_basis(ff, ff.nope_columns)])
        assert np.max(np.abs(basis @ basis.T - np.eye(width))) <= 1e-10
        acts = CALIB @ self.aligned.k_proj.T
        recon = (acts @ rope) @ rope.T
        assert np.max(np.abs(recon - acts)) <= 1e-10 * (1 + np.max(np.abs(acts)))

    def test_band_partition_covers_all_key_dims(self):
        ff = CG.freqfold_compress(self.aligned, CALIB, kv_rank=32, rope_dim=8)
        g, d = self.aligned.num_groups, self.aligned.head_dim
        assert ff.band_layout.shape == (d // 2, 2 * g)
        assert sorted(ff.band_layout.ravel()) == list(range(self.width))
        for p, band in enumerate(ff.band_layout):  # each group's coordinates 2p, 2p + 1
            assert list(band) == [j * d + 2 * p + e for j in range(g) for e in (0, 1)]

    @pytest.mark.parametrize("rope_dim", [0, 2, 8, 32])
    def test_rope_and_nope_columns_split_every_band_column_into_whole_pairs(self, rope_dim):
        ff = CG.freqfold_compress(self.aligned, CALIB, kv_rank=16, rope_dim=rope_dim)
        rope, nope = ff.rope_columns, ff.nope_columns
        assert len(rope) == rope_dim and len(rope) + len(nope) == self.width
        assert np.array_equal(np.sort(np.concatenate([rope, nope])), np.arange(self.width))
        for columns in (rope, nope):
            assert np.all(np.diff(columns) > 0)
            assert np.all(columns[0::2] % 2 == 0) and np.array_equal(columns[1::2],
                                                                      columns[0::2] + 1)

    def test_energy_in_lowest_frequency_band_is_retained(self, desk_gqa):
        g, d, dm = 2, 16, 64
        k = np.zeros((g * d, dm))
        rng = np.random.default_rng(8)
        lowest = d // 2 - 1  # largest pair index = smallest angular frequency
        for j in range(g):
            k[j * d + 2 * lowest] = rng.standard_normal(dm)
            k[j * d + 2 * lowest + 1] = rng.standard_normal(dm)
        merged = CG.merge_heads(dataclasses.replace(desk_gqa, k_proj=k))
        ff = CG.freqfold_compress(merged, CALIB, kv_rank=32, rope_dim=2 * g)
        assert sorted(set(ff.rope_columns // (2 * g))) == [lowest]

    def test_pairs_stay_paired(self):
        ff = CG.freqfold_compress(self.aligned, CALIB, kv_rank=32, rope_dim=8)
        rope = dense_basis(ff, ff.rope_columns)
        bands = ff.rope_columns[0::2] // (2 * self.aligned.num_groups)
        for m, band in enumerate(bands):
            v1 = rope[:, 2 * m]
            v2 = rope[:, 2 * m + 1]
            support = np.flatnonzero(np.abs(v1) + np.abs(v2) > 1e-14)
            assert set(support) <= set(ff.band_layout[band])
            # the partner is the quarter-turn image within the band
            idx = list(ff.band_layout[band])
            x, y = v1[idx[0::2]], v1[idx[1::2]]
            assert np.max(np.abs(v2[idx[0::2]] + y)) <= 1e-12
            assert np.max(np.abs(v2[idx[1::2]] - x)) <= 1e-12

    def test_bands_match_per_band_loop(self):
        ff = CG.freqfold_compress(self.aligned, CALIB, kv_rank=32, rope_dim=8)
        blocks = CG._key_moments(self.aligned, CALIB, ff.band_layout)
        energies, bases = CG._band_complex_pca(blocks)
        assert np.array_equal(ff.band_bases, bases)
        g = self.aligned.num_groups
        for p, block in enumerate(blocks):
            w, expect = per_band_complex_pca(block, g)
            assert np.array_equal(energies[p], w)
            assert np.array_equal(ff.energies[p], w)
            # column 2r + k of the band basis is column k of direction r
            assert np.max(np.abs(bases[p] - expect.transpose(1, 0, 2).reshape(2 * g, 2 * g))
                          ) <= 1e-15

    def test_infeasible_budget_rejected(self):
        with pytest.raises(ParameterError):
            CG.freqfold_compress(self.aligned, CALIB, kv_rank=64, rope_dim=3)
        with pytest.raises(ParameterError):
            CG.freqfold_compress(self.aligned, CALIB, kv_rank=64, rope_dim=34)
        with pytest.raises(ParameterError):
            CG.freqfold_compress(self.aligned, CALIB, kv_rank=60, rope_dim=32)


def per_band_complex_pca(block, g):
    """Referee for _band_complex_pca on one band: the g x g Hermitian
    moment built entry by entry from the band's (2g, 2g) block and
    eigendecomposed alone, each column phased so its largest-magnitude entry
    is real and positive. Returns the energies (g,) and pairs (g, 2g, 2)."""
    herm = np.empty((g, g), dtype=np.complex128)
    for a in range(g):
        xa, ya = 2 * a, 2 * a + 1
        for b in range(g):
            xb, yb = 2 * b, 2 * b + 1
            herm[a, b] = (block[xa, xb] + block[ya, yb]) + 1j * (block[ya, xb] - block[xa, yb])
    w, u = np.linalg.eigh((herm + herm.conj().T) / 2.0)
    order = np.argsort(-w, kind="stable")
    w, u = w[order], u[:, order]
    pairs = []
    for r in range(g):
        col = u[:, r]
        lead = int(np.argmax(np.abs(col)))
        col = col * np.conj(col[lead] / abs(col[lead]))
        v1, v2 = np.empty(2 * g), np.empty(2 * g)
        v1[0::2], v1[1::2] = col.real, col.imag
        v2[0::2], v2[1::2] = -col.imag, col.real
        pairs.append(np.stack([v1, v2], axis=-1))
    return w, np.array(pairs)


def placed_bases(aligned, calib, folded):
    """Referee for the dense rotary and position-free bases: each retained,
    then each other, direction's pair of columns written into its band's rows
    of a dense matrix, band-ascending, as freqfold_compress first built them."""
    g = aligned.num_groups
    bands = folded.band_layout
    _, bases = CG._band_complex_pca(CG._key_moments(aligned, calib, bands))
    kept = set(folded.rope_columns[0::2] // 2)

    def place(selection):
        cols = np.zeros((bands.size, 2 * len(selection)))
        for m, n in enumerate(selection):
            p, r = divmod(n, g)
            cols[bands[p], 2 * m:2 * m + 2] = bases[p][:, 2 * r:2 * r + 2]
        return cols
    return place(sorted(kept)), place(sorted(set(range(bands.size // 2)) - kept))


def assert_close(got, ref, rtol):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= rtol * np.max(np.abs(ref), initial=0.0)


class TestBandProducts:
    """The band-wise products with the FreqFold bases against dense ones."""

    @pytest.mark.parametrize("shape, kv_rank, rope_dim, tokens", [
        ((8, 2, 16, 64), 14, 4, 512),
        ((8, 2, 16, 64), 40, 12, 16),       # calibration rank below kv_rank
        ((8, 1, 16, 64), 8, 16, 512),       # every key dim rotary: no nope columns
        ((12, 3, 8, 32), 30, 2, 256),
        ((32, 8, 128, 256), 512, 64, 1024),  # the reference conversion shape
    ])
    def test_match_the_dense_bases(self, monkeypatch, shape, kv_rank, rope_dim, tokens):
        h, g, d, dm = shape
        src = CG.init_random_gqa(h, g, d, dm, seed=11)
        calib = random_tokens(tokens, dm, 13)
        target = GqlaConfig(model_dim=dm, num_heads=h, num_groups=g, head_dim=d,
                            value_head_dim=d, rope_head_dim=rope_dim, kv_rank=kv_rank, q_rank=dm)
        eigs = []

        def recording(b, rank):
            eigs.append(root_eig(b, rank))
            return eigs[-1]
        monkeypatch.setattr(CG, "root_eig", recording)
        weights, report = CG.convert(src, calib, target)
        aligned, _ = CG.rorope_align(CG.merge_heads(src), calib)
        folded = CG.freqfold_compress(aligned, calib, kv_rank, rope_dim)
        rope, nope = placed_bases(aligned, calib, folded)
        assert np.array_equal(dense_basis(folded, folded.rope_columns), rope)
        assert np.array_equal(dense_basis(folded, folded.nope_columns), nope)

        key_map = folded.project(aligned.k_proj, folded.nope_columns)
        assert_close(key_map, nope.T @ aligned.k_proj, 1e-13)
        assert_close(weights.k_rope, rope.T @ aligned.k_proj, 1e-13)
        q_scale = math.sqrt((d + rope_dim) / d)
        q_rope = rope.reshape(g, 1, d, rope_dim).transpose(0, 1, 3, 2) @ \
            aligned.q_proj.reshape(g, -1, d, dm)
        assert_close(weights.q_rope, q_scale * q_rope.reshape(h * rope_dim, dm), 1e-13)

        eig = eigs[0]  # convert's joint PCA
        joint = CG.balance_and_joint_pca(aligned, calib, kv_rank, folded)
        live, d_n = report.latent_rank, nope.shape[1]
        u = eig.eigenvectors[:, :live]
        assert_close(joint.k_up[:, :live], nope @ u[:d_n] / joint.scale_key, 1e-13)
        w_map = np.vstack([joint.scale_key * (nope.T @ aligned.k_proj),
                           joint.scale_value * aligned.v_proj])
        assert_close(joint.kv_down[:live], u.T @ w_map, 1e-13)
        for name in ("kv_down", "k_up", "v_up"):
            assert np.array_equal(getattr(joint, name), getattr(weights, name))


@pytest.mark.parametrize("shape, kv_rank, rope_dim, tokens", [
    ((8, 2, 16, 64), 18, 4, 512),        # desk
    ((8, 2, 16, 64), 6, 2, 512),         # lossy
    ((8, 2, 16, 64), 18, 4, 16),         # calibration rank below the key width
    ((8, 2, 16, 64), 18, 4, 3),
    ((16, 4, 32, 128), 128, 32, 2048),   # the CLI session's source
    ((32, 8, 128, 256), 512, 64, 1024),  # the reference conversion shape
], ids=["desk", "lossy", "16-tokens", "3-tokens", "cli", "reference"])
def test_rorope_fixes_coordinates_not_the_converted_function(monkeypatch, shape, kv_rank,
                                                             rope_dim, tokens):
    # Each pair rotation is a unit complex phase on one group's coordinates of
    # one FreqFold band, and the band PCA is equivariant under it: converting
    # without the alignment gives the same function and energies to rounding.
    src = CG.init_random_gqa(*shape, seed=5)
    calib = random_tokens(tokens, src.model_dim, 3)
    target = CG.target_config(src, kv_rank, rope_dim)
    weights, report = CG.convert(src, calib, target)
    monkeypatch.setattr(CG, "rorope_align", lambda merged, _: (merged, identity_rotations(merged)))
    plain, plain_report = CG.convert(src, calib, target)
    probe = random_tokens(20, src.model_dim, 4)
    got, _ = M.forward_gqa_path(plain, target, probe, 20)
    ref, _ = M.forward_gqa_path(weights, target, probe, 20)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    for name in ("rotary_energy_retained", "key_energy_retained", "value_energy_retained"):
        assert abs(getattr(plain_report, name) - getattr(report, name)) <= 1e-12, name
    assert plain_report.latent_rank == report.latent_rank


@pytest.mark.skipif(os.environ.get("GQLA_PAPER_WIDTH") != "1",
                    reason="one LLaMA-3-8B layer (~1.5 GB, seconds): set GQLA_PAPER_WIDTH=1")
def test_paper_width_layer_converts_within_twelve_seconds():
    src = CG.init_random_gqa(32, 8, 128, 4096, seed=1)
    calib = random_tokens(8192, 4096, 2)
    target = GqlaConfig(model_dim=4096, num_heads=32, num_groups=8, head_dim=128,
                        value_head_dim=128, rope_head_dim=64, kv_rank=512, q_rank=4096)
    start = time.perf_counter()
    _, report = CG.convert(src, calib, target)
    seconds = time.perf_counter() - start
    assert report.cache_ratio_text == "28.125%"
    assert "cache ratio:            576/2048 elements/token = 28.125%" in report.lines()
    assert report.latent_rank == 512
    assert seconds <= 12.0, f"paper-width conversion took {seconds:.1f} s"


class TestBalanceAndJointPca:
    def setup_method(self):
        src = CG.init_random_gqa(8, 2, 16, 64, seed=5)
        self.aligned, _ = CG.rorope_align(CG.merge_heads(src), CALIB)
        self.width = 2 * 16  # num_groups * head_dim of the key latent
        # a rotary dim of 0 makes every key direction position-free
        self.folded = CG.freqfold_compress(self.aligned, CALIB, 2 * self.width, 0)

    def test_near_equal_sides_give_near_identity_scales(self):
        joint = CG.balance_and_joint_pca(self.aligned, CALIB, kv_rank=16, freqfold=self.folded)
        assert abs(joint.scale_key - 1.0) <= 0.1
        assert abs(joint.scale_value - 1.0) <= 0.1
        assert joint.scale_key * joint.scale_value == pytest.approx(1.0, abs=1e-12)

    def test_balancing_is_forward_noop_at_full_rank(self):
        full = 2 * self.width
        bal = CG.balance_and_joint_pca(self.aligned, CALIB, full, self.folded, balance=True)
        raw = CG.balance_and_joint_pca(self.aligned, CALIB, full, self.folded, balance=False)
        comp_b = np.vstack([bal.k_up, bal.v_up]) @ bal.kv_down
        comp_r = np.vstack([raw.k_up, raw.v_up]) @ raw.kv_down
        assert np.max(np.abs(comp_b - comp_r)) <= 1e-12 * (1 + np.max(np.abs(comp_r)))

    def test_balancing_protects_the_quiet_side(self, desk_gqa):
        loud = dataclasses.replace(desk_gqa, v_proj=desk_gqa.v_proj * 100.0)
        aligned, _ = CG.rorope_align(CG.merge_heads(loud), CALIB)
        folded = CG.freqfold_compress(aligned, CALIB, 16, 0)
        bal = CG.balance_and_joint_pca(aligned, CALIB, 16, folded, balance=True)
        raw = CG.balance_and_joint_pca(aligned, CALIB, 16, folded, balance=False)
        assert bal.energy_key >= raw.energy_key

    def test_full_rank_reconstruction_exact(self):
        full = 2 * self.width
        joint = CG.balance_and_joint_pca(self.aligned, CALIB, full, self.folded)
        composed = np.vstack([joint.k_up, joint.v_up]) @ joint.kv_down
        source = np.vstack([self.aligned.k_proj, self.aligned.v_proj])
        assert np.max(np.abs(composed - source)) <= 1e-10
        assert joint.energy_key == pytest.approx(1.0, abs=1e-12)
        assert joint.energy_value == pytest.approx(1.0, abs=1e-12)

    def test_freqfold_of_other_weights_rejected(self):
        # a two-group FreqFold result against a one-group source of the same head_dim
        one = CG.init_random_gqa(8, 1, 16, 64, seed=5)
        aligned, _ = CG.rorope_align(CG.merge_heads(one), CALIB)
        for folded in (self.folded, CG.freqfold_compress(self.aligned, CALIB, 16, 8)):
            with pytest.raises(ShapeError, match="band bases"):
                CG.balance_and_joint_pca(aligned, CALIB, 16, folded)
        short = CG.init_random_gqa(8, 2, 8, 64, seed=5)  # half the bands
        aligned, _ = CG.rorope_align(CG.merge_heads(short), CALIB)
        with pytest.raises(ShapeError, match="band bases"):
            CG.balance_and_joint_pca(aligned, CALIB, 16, self.folded)

    def test_zero_side_raises(self, desk_gqa):
        dead = dataclasses.replace(desk_gqa, v_proj=np.zeros_like(desk_gqa.v_proj))
        aligned, _ = CG.rorope_align(CG.merge_heads(dead), CALIB)
        folded = CG.freqfold_compress(aligned, CALIB, 16, 0)
        with pytest.raises(DegenerateCalibrationError):
            CG.balance_and_joint_pca(aligned, CALIB, 16, folded)


def dense_joint_pca(aligned, calib, kv_rank, freqfold, balance=True):
    """Referee for balance_and_joint_pca: the wide route, which accumulates the
    N x (d_n + g*head_dim) stacked activations and runs pca_factor on their
    second moment. Returns (kv_down, k_up, v_up, energy_key, energy_value)."""
    g, d = aligned.num_groups, aligned.head_dim
    width = g * d
    nope = dense_basis(freqfold, freqfold.nope_columns)
    d_n = nope.shape[1]
    act_k = (calib @ aligned.k_proj.T) @ nope
    act_v = calib @ aligned.v_proj.T
    scale_k = scale_v = 1.0
    if balance:
        norm_k, norm_v = np.linalg.norm(act_k), np.linalg.norm(act_v)
        target = np.sqrt(norm_k * norm_v)
        scale_k, scale_v = target / norm_k, target / norm_v
    w_map = np.vstack([scale_k * (nope.T @ aligned.k_proj), scale_v * aligned.v_proj])
    stacked = np.hstack([scale_k * act_k, scale_v * act_v])
    sigma = accumulate(CovarianceAccumulator.empty(d_n + width), stacked)
    u, v = pca_factor(w_map, sigma, kv_rank)
    k_up = np.vstack([nope[j * d:(j + 1) * d] @ u[:d_n] / scale_k for j in range(g)])
    v_up = u[d_n:] / scale_v
    recon = stacked @ u @ u.T
    def retained(cols):
        return 1.0 - np.linalg.norm(stacked[:, cols] - recon[:, cols]) ** 2 / \
            np.linalg.norm(stacked[:, cols]) ** 2
    return v, k_up, v_up, retained(slice(0, d_n)), retained(slice(d_n, None))


def composed(k_up, v_up, kv_down):
    return np.vstack([k_up, v_up]) @ kv_down


class TestIntrinsicJointPca:
    """balance_and_joint_pca against the dense accumulate + pca_factor route."""

    def setup_method(self):
        self.src = CG.init_random_gqa(8, 2, 16, 64, seed=5)
        self.aligned, _ = CG.rorope_align(CG.merge_heads(self.src), CALIB)
        self.width = 2 * 16  # num_groups * head_dim of the key latent
        self.folded = CG.freqfold_compress(self.aligned, CALIB, kv_rank=24, rope_dim=8)

    @pytest.mark.parametrize("kv_rank", [6, 24, 40])
    def test_leading_subspace_and_energies(self, kv_rank):
        joint = CG.balance_and_joint_pca(self.aligned, CALIB, kv_rank, freqfold=self.folded)
        kv_down, k_up, v_up, e_k, e_v = dense_joint_pca(self.aligned, CALIB, kv_rank,
                                                         self.folded)
        ref = composed(k_up, v_up, kv_down)
        got = composed(joint.k_up, joint.v_up, joint.kv_down)
        assert np.max(np.abs(got - ref)) <= 1e-9 * (1 + np.max(np.abs(ref)))
        assert joint.energy_key == pytest.approx(e_k, abs=1e-12)
        assert joint.energy_value == pytest.approx(e_v, abs=1e-12)
        assert joint.energy_key < 1.0 and joint.energy_value < 1.0

    def test_full_rank_composed_map(self):
        full = len(self.folded.nope_columns) + self.width
        joint = CG.balance_and_joint_pca(self.aligned, CALIB, full, freqfold=self.folded)
        kv_down, k_up, v_up, _, _ = dense_joint_pca(self.aligned, CALIB, full, self.folded)
        assert np.max(np.abs(composed(joint.k_up, joint.v_up, joint.kv_down) -
                             composed(k_up, v_up, kv_down))) <= 1e-10

    def test_rank_above_numerical_rank(self):
        # 16 calibration tokens: the stacked activations have rank 16 < kv_rank.
        calib = random_tokens(16, 64, 41)
        target = desk_target(kv_rank=40, rope_dim=8)
        aligned, _ = CG.rorope_align(CG.merge_heads(self.src), calib)
        folded = CG.freqfold_compress(aligned, calib, target.kv_rank, 8)
        joint = CG.balance_and_joint_pca(aligned, calib, target.kv_rank, freqfold=folded)
        again = CG.balance_and_joint_pca(aligned, calib, target.kv_rank, freqfold=folded)
        for name in ("kv_down", "k_up", "v_up"):
            assert np.array_equal(getattr(joint, name), getattr(again, name))
        u = np.vstack([dense_basis(folded, folded.nope_columns).T @ joint.k_up * joint.scale_key,
                       joint.v_up * joint.scale_value])
        live = 16  # the dims past the calibration rank are exactly empty
        assert np.max(np.abs(u[:, :live].T @ u[:, :live] - np.eye(live))) <= 1e-12
        assert np.all(u[:, live:] == 0.0) and np.all(joint.kv_down[live:] == 0.0)
        assert np.all(joint.k_up[:, live:] == 0.0) and np.all(joint.v_up[:, live:] == 0.0)

        weights, _ = CG.convert(self.src, calib, target)
        kv_down, k_up, v_up, _, _ = dense_joint_pca(aligned, calib, target.kv_rank, folded)
        dense = dataclasses.replace(weights, kv_down=kv_down, k_up=k_up, v_up=v_up)
        tokens = calib[:12]  # inside the calibrated subspace, where both routes are exact
        got, _ = M.forward_gqa_path(weights, target, tokens, 12)
        ref, _ = M.forward_gqa_path(dense, target, tokens, 12)
        assert np.max(np.abs(got - ref)) <= 1e-10 * (1 + np.max(np.abs(ref)))


class TestConvert:
    def test_single_group_full_retention_is_lossless(self):
        src = CG.init_random_gqa(num_heads=8, num_groups=1, head_dim=16, model_dim=64, seed=5)
        target = GqlaConfig(model_dim=64, num_heads=8, num_groups=1, head_dim=16,
                            value_head_dim=16, rope_head_dim=16, kv_rank=16, q_rank=64)
        weights, report = CG.convert(src, CALIB, target)
        for seed in range(10):
            tokens = random_tokens(12, 64, 200 + seed)
            ref = CG.forward_gqa_source(src, tokens, 2)
            got, _ = M.forward_gqa_path(weights, target, tokens, 2)
            assert np.max(np.abs(got - ref)) <= 1e-8 * (1 + np.max(np.abs(ref)))
        assert report.output_deviation <= 1e-8

    def test_planted_two_group_source_is_lossless(self):
        src = plant_bandrank1_gqa(num_heads=8, num_groups=2, head_dim=16,
                                  model_dim=64, seed=7)
        target = desk_target(kv_rank=48, rope_dim=16)
        weights, _ = CG.convert(src, CALIB, target)
        for seed in range(10):
            tokens = random_tokens(12, 64, 300 + seed)
            ref = CG.forward_gqa_source(src, tokens, 2)
            got, _ = M.forward_gqa_path(weights, target, tokens, 2)
            assert np.max(np.abs(got - ref)) <= 1e-8 * (1 + np.max(np.abs(ref)))

    def test_converted_weights_keep_dual_path_equivalence(self, desk_gqa):
        target = desk_target(kv_rank=18, rope_dim=4)
        weights, _ = CG.convert(desk_gqa, CALIB, target)
        tokens = random_tokens(17, 64, 9)
        a, _ = M.forward_gqa_path(weights, target, tokens, 2)
        b, _ = M.forward_absorb_path(weights, target, tokens, 2)
        o = M.oracle_mha(weights, target, tokens, 2)
        assert np.max(np.abs(a - b)) <= dual_path_bound(a)
        assert np.max(np.abs(a - o)) <= dual_path_bound(a)

    def test_output_projection_is_the_sources_own(self, desk_gqa):
        # read-only weights need no defensive copy
        weights, _ = CG.convert(desk_gqa, CALIB, desk_target(kv_rank=14, rope_dim=4))
        assert weights.out_proj is desk_gqa.out_proj

    def test_desk_cache_ratio_formats_exactly(self, desk_gqa):
        weights, report = CG.convert(desk_gqa, CALIB, desk_target(kv_rank=14, rope_dim=4))
        assert report.cache_ratio == 0.28125
        assert report.cache_ratio_text == "28.125%"
        assert report.latent_elements_per_token == 18
        assert report.source_elements_per_token == 64

    def test_output_error_non_increasing_in_rank(self, desk_gqa):
        tokens = random_tokens(20, 64, 9)
        ref = CG.forward_gqa_source(desk_gqa, tokens, 2)
        devs = []
        for kv_rank in (14, 28, 56):  # quarter, half, full of the 56-dim budget
            target = desk_target(kv_rank=kv_rank, rope_dim=8)
            weights, _ = CG.convert(desk_gqa, CALIB, target)
            got, _ = M.forward_gqa_path(weights, target, tokens, 2)
            devs.append(float(np.max(np.abs(got - ref))))
        assert devs[0] >= devs[1] >= devs[2]

    def test_stage_exactness_reported(self, desk_gqa):
        _, report = CG.convert(desk_gqa, CALIB, desk_target(kv_rank=18, rope_dim=4))
        assert report.score_deviation <= 1e-10
        assert 0.0 < report.rotary_energy_retained < 1.0

    def test_reference_shape_reports_half_the_latent_live(self, monkeypatch):
        # kv_rank 512 above model_dim 256: calibration fills 256 latent dims,
        # and the other 256 stay empty without costing the cache switch a pinv
        src = CG.init_random_gqa(32, 8, 128, 256, seed=11)
        target = GqlaConfig(model_dim=256, num_heads=32, num_groups=8, head_dim=128,
                            value_head_dim=128, rope_head_dim=64, kv_rank=512, q_rank=256)
        weights, report = CG.convert(src, random_tokens(1024, 256, 13), target)
        assert "latent rank:            256/512" in report.lines()
        assert np.count_nonzero(np.all(weights.kv_down == 0.0, axis=1)) == 256
        pinv_calls = []
        monkeypatch.setattr(np.linalg, "pinv", lambda *a, **k: pinv_calls.append(a))
        _, expanded = M.forward_gqa_path(weights, target, random_tokens(6, 256, 4), 1)
        _, residuals = M.cache_compress(expanded, weights)
        assert not pinv_calls and np.max(residuals) <= 1e-9

    def test_incompatible_target_rejected(self, desk_gqa):
        # every field a GQA target takes from its source, one at a time
        good = desk_target(kv_rank=18, rope_dim=4)
        assert CG.target_config(desk_gqa, 18, 4) == good
        for field, value in (("model_dim", 32), ("num_heads", 16), ("num_groups", 4),
                             ("head_dim", 8), ("value_head_dim", 8), ("q_rank", 32),
                             ("rope_base", 500.0)):
            with pytest.raises(ParameterError, match="incompatible"):
                CG.convert(desk_gqa, CALIB, dataclasses.replace(good, **{field: value}))


def _every_output(weights, config, tokens) -> dict:
    """What each reader of the weights computes on tokens: prefill and decode on
    both paths, the oracle, the stub indexer, sparse steps on both layouts and
    both cache switches."""
    got = {}
    got["prefill_gqa"], expanded = M.forward_gqa_path(weights, config, tokens[:-3], 2)
    got["prefill_absorb"], latent = M.forward_absorb_path(weights, config, tokens[:-3], 2)
    got["decode_gqa"], expanded = M.decode_gqa(weights, config, expanded, tokens[-3])
    got["decode_absorb"], latent = M.decode_absorb(weights, config, latent, tokens[-3])
    got["block_gqa"], expanded = M.decode_gqa(weights, config, expanded, tokens[-2:])
    got["block_absorb"], latent = M.decode_absorb(weights, config, latent, tokens[-2:])
    got["oracle"] = M.oracle_mha(weights, config, tokens, 3)
    got["index_scores"] = sparse.stub_index_scores(weights, config, expanded, tokens[-1])
    selected = sparse.topk_select(got["index_scores"], 4)
    got["sparse"] = sparse.sparse_attention(weights, config, expanded, tokens[-1], selected)
    got["sparse_absorbed"] = sparse.sparse_attention_absorbed(weights, config, latent,
                                                              tokens[-1], selected)
    got["expand"] = M.cache_expand(latent, weights).k_nope
    got["compress"] = M.cache_compress(expanded, weights)[0].kv
    return got


# (source, calibration, kv_rank, rotary dim): the desk CLI convert, the CLI
# session's shape and the reference shape
_NO_Q_DOWN_SHAPES = {
    "desk": (lambda: CG.init_random_gqa(8, 2, 16, 64, seed=5), (2048, 64), 14, 4),
    "cli_session": (lambda: CG.init_random_gqa(16, 4, 32, 128, seed=3), (2048, 128), 128, 32),
    "reference": (lambda: CG.init_random_gqa(32, 8, 128, 256, seed=11), (1024, 256), 512, 64),
}


@pytest.mark.parametrize("shape", _NO_Q_DOWN_SHAPES)
def test_converted_queries_project_straight_from_the_token(shape):
    make, (count, dim), kv_rank, rope_dim = _NO_Q_DOWN_SHAPES[shape]
    src = make()
    target = CG.target_config(src, kv_rank, rope_dim)
    weights, report = CG.convert(src, random_tokens(count, dim, 0), target)
    assert weights.q_down is None and target.q_rank == target.model_dim
    eye = dataclasses.replace(weights, q_down=np.eye(dim))  # the identity it stands for
    tokens = random_tokens(9, dim, 1)
    got, ref = _every_output(weights, target, tokens), _every_output(eye, target, tokens)
    for name in ref:
        assert np.array_equal(got[name], ref[name]), name
    assert (report.output_deviation, report.output_scale) == M._probe_deviation(
        lambda p: CG.forward_gqa_source(src, p, 2),
        lambda p: M.forward_gqa_path(eye, target, p, 2)[0], dim, CG._PROBE_SEED)
