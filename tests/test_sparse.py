import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqla import model as M
from gqla import sparse
from gqla.errors import ParameterError, ShapeError
from gqla.model import GqlaConfig, random_tokens


@pytest.fixture
def prefix(desk_config, desk_weights):
    tokens = random_tokens(24, 64, 40)
    dense, expanded = M.forward_gqa_path(desk_weights, desk_config, tokens, 1)
    _, latent = M.forward_absorb_path(desk_weights, desk_config, tokens, 1)
    return tokens, dense[0], expanded, latent


class TestTopK:
    def test_saturation_returns_everything(self):
        scores = np.array([0.3, -1.0, 2.0])
        assert np.array_equal(sparse.topk_select(scores, 5), [0, 1, 2])

    def test_ties_break_toward_smaller_index(self):
        assert np.array_equal(sparse.topk_select(np.array([3.0, 1.0, 3.0, 2.0]), 2), [0, 2])

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(41)
        scores = rng.standard_normal(40)
        got = sparse.topk_select(scores, 5)
        expect = np.sort(np.argsort(-scores, kind="stable")[:5])
        assert np.array_equal(got, expect)

    def test_deterministic(self):
        scores = np.random.default_rng(42).standard_normal(33)
        a = sparse.topk_select(scores, 7)
        b = sparse.topk_select(scores.copy(), 7)
        assert np.array_equal(a, b)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            sparse.topk_select(np.array([]), 1)
        with pytest.raises(ParameterError):
            sparse.topk_select(np.array([1.0]), 0)
        with pytest.raises(ShapeError):
            sparse.topk_select(np.array([1.0, np.inf]), 1)


class TestSparseAttention:
    def test_saturation_matches_dense_with_dense_scale(self, desk_config, desk_weights, prefix):
        tokens, dense, expanded, _ = prefix
        everything = np.arange(len(expanded))
        out = sparse.sparse_attention(desk_weights, desk_config, expanded, tokens[-1],
                                      everything, scale=desk_config.score_scale)
        assert np.max(np.abs(out - dense)) <= 1e-10 * (1 + np.max(np.abs(dense)))

    def test_saturation_matches_dense_at_default_scale(self, desk_config, desk_weights, prefix):
        tokens, dense, expanded, latent = prefix
        everything = np.arange(len(expanded))
        for attend, cache in ((sparse.sparse_attention, expanded),
                              (sparse.sparse_attention_absorbed, latent)):
            out = attend(desk_weights, desk_config, cache, tokens[-1], everything)
            assert np.max(np.abs(out - dense)) <= 1e-10 * (1 + np.max(np.abs(dense)))

    def test_single_position_reads_its_values(self, desk_config, desk_weights, prefix):
        tokens, _, expanded, _ = prefix
        out = sparse.sparse_attention(desk_weights, desk_config, expanded, tokens[-1], [3])
        gi = np.arange(8) // desk_config.heads_per_group
        vals = expanded.v[3].reshape(2, 16)[gi].reshape(-1)
        expect = desk_weights.out_proj @ vals
        assert np.max(np.abs(out - expect)) <= 1e-12 * (1 + np.max(np.abs(expect)))

    def test_masking_equivalence(self, desk_config, desk_weights, prefix):
        tokens, _, expanded, _ = prefix
        scores = sparse.stub_index_scores(desk_weights, desk_config, expanded, tokens[-1])
        selected = sparse.topk_select(scores, 6)
        true_excl = sparse.sparse_attention(desk_weights, desk_config, expanded,
                                            tokens[-1], selected)
        masked = sparse.masked_reference(desk_weights, desk_config, expanded,
                                         tokens[-1], selected)
        assert np.max(np.abs(true_excl - masked)) <= 1e-8 * (1 + np.max(np.abs(masked)))

    def test_latent_twin_agrees_for_any_selection(self, desk_config, desk_weights, prefix):
        tokens, _, expanded, latent = prefix
        rng = np.random.default_rng(43)
        for size in (1, 5, 24):
            selected = np.sort(rng.choice(len(expanded), size=size, replace=False))
            a = sparse.sparse_attention(desk_weights, desk_config, expanded,
                                        tokens[-1], selected)
            b = sparse.sparse_attention_absorbed(desk_weights, desk_config, latent,
                                                 tokens[-1], selected)
            assert np.max(np.abs(a - b)) <= 1e-10 * (1 + np.max(np.abs(a)))

    def test_selection_validation(self, desk_config, desk_weights, prefix):
        tokens, _, expanded, _ = prefix
        with pytest.raises(ParameterError):
            sparse.sparse_attention(desk_weights, desk_config, expanded, tokens[-1], [])
        with pytest.raises(ParameterError):
            sparse.sparse_attention(desk_weights, desk_config, expanded, tokens[-1], [0, 0])
        with pytest.raises(ParameterError):
            sparse.sparse_attention(desk_weights, desk_config, expanded, tokens[-1], [24])
        with pytest.raises(ParameterError):  # not truncated to [0, 1]
            sparse.sparse_attention(desk_weights, desk_config, expanded, tokens[-1], [0.5, 1.7])


class TestStubIndexer:
    def test_scores_cover_the_whole_prefix(self, desk_config, desk_weights, prefix):
        tokens, _, expanded, latent = prefix
        scores = sparse.stub_index_scores(desk_weights, desk_config, expanded, tokens[-1])
        assert scores.shape == (24,)
        assert np.all(np.isfinite(scores))
        # the stub only reads rotary keys, so both cache layouts agree
        alt = sparse.stub_index_scores(desk_weights, desk_config, latent, tokens[-1])
        assert np.array_equal(scores, alt)

    def test_scores_match_the_head_mean_referee(self, desk_config, desk_weights, prefix):
        tokens, _, expanded, _ = prefix
        for length in (1, 2, 9, 24):
            cache = M.ExpandedCache(k_nope=expanded.k_nope[:length], v=expanded.v[:length],
                                    k_rope=expanded.k_rope[:length])
            x = tokens[length - 1]
            expect = head_mean_referee(desk_weights, desk_config, cache, x)
            got = sparse.stub_index_scores(desk_weights, desk_config, cache, x)
            assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_picks_the_referee_top_k(self, desk_config):
        weights = M.init_random(desk_config, 7)
        tokens = random_tokens(96, 64, 44)
        _, expanded = M.forward_gqa_path(weights, desk_config, tokens, 1)
        expect = head_mean_referee(weights, desk_config, expanded, tokens[-1])
        got = sparse.stub_index_scores(weights, desk_config, expanded, tokens[-1])
        for k in (1, 8, 33, 95):
            assert np.array_equal(sparse.topk_select(got, k), lexsort_top_k(expect, k))

    def test_replaced_weights_score_with_their_own_map(self, desk_config, desk_weights, prefix):
        tokens, _, expanded, _ = prefix
        before = sparse.stub_index_scores(desk_weights, desk_config, expanded, tokens[-1])
        assert "_index_query_map" in vars(desk_weights)
        q_rope = np.random.default_rng(45).standard_normal(desk_weights.q_rope.shape)
        fresh = dataclasses.replace(desk_weights, q_rope=q_rope)
        assert "_index_query_map" not in vars(fresh)
        got = sparse.stub_index_scores(fresh, desk_config, expanded, tokens[-1])
        expect = head_mean_referee(fresh, desk_config, expanded, tokens[-1])
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))
        assert np.max(np.abs(got - before)) > 1e-3 * np.max(np.abs(before))

    def test_the_query_map_cannot_go_stale(self, desk_config, desk_weights, prefix):
        # negating q_rope in place after a call would leave the kept map stale
        tokens, _, expanded, _ = prefix
        before = sparse.stub_index_scores(desk_weights, desk_config, expanded, tokens[-1])
        with pytest.raises(ValueError, match="read-only"):
            np.negative(desk_weights.q_rope, out=desk_weights.q_rope)
        again = sparse.stub_index_scores(desk_weights, desk_config, expanded, tokens[-1])
        assert np.array_equal(again, before)
        expect = head_mean_referee(desk_weights, desk_config, expanded, tokens[-1])
        assert np.max(np.abs(again - expect)) <= 1e-12 * np.max(np.abs(expect))
        negated = dataclasses.replace(desk_weights, q_rope=-desk_weights.q_rope)
        flipped = sparse.stub_index_scores(negated, desk_config, expanded, tokens[-1])
        assert not np.array_equal(sparse.topk_select(flipped, 8), sparse.topk_select(before, 8))


def head_mean_referee(weights, config, cache, x):
    """The stub's definition: each head's rotary query against every cached
    rotary key, averaged over heads."""
    _, q_rope = M._project_queries(weights, config, x, len(cache) - 1)
    return (q_rope @ cache.k_rope.T).mean(axis=0)


def lexsort_top_k(scores, k):
    """Descending score, ties to the smaller position, output sorted."""
    order = np.lexsort((np.arange(scores.size), -scores))
    return np.sort(order[:k])


mixed_scores = st.lists(
    st.one_of(st.integers(-2, 2).map(float), st.sampled_from([0.0, -0.0]),
              st.floats(-1e6, 1e6, allow_nan=False)),
    min_size=1, max_size=40)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(values=mixed_scores, data=st.data())
def test_topk_select_is_the_lexsort_rule(values, data):
    scores = np.array(values)
    k = data.draw(st.integers(1, len(values) + 5), label="k")
    got = sparse.topk_select(scores, k)
    expect = lexsort_top_k(scores, k)
    assert got.dtype == expect.dtype and np.array_equal(got, expect)


def make_config(num_heads, num_groups) -> GqlaConfig:
    return GqlaConfig(model_dim=32, num_heads=num_heads, num_groups=num_groups,
                      head_dim=4, value_head_dim=4, rope_head_dim=2,
                      kv_rank=8, q_rank=8)


class TestTileRule:
    def test_canonical_fills_the_tile(self):
        report = sparse.tile_feasibility(M.canonical_config())
        assert report.gqa_path_feasible and report.heads_per_group == 16
        assert report.tile_m == 16

    def test_one_head_per_group_degenerates(self):
        report = sparse.tile_feasibility(make_config(8, 8))
        assert not report.gqa_path_feasible
        assert "GEMV" in report.rationale

    def test_half_canonical_head_count_is_infeasible(self):
        report = sparse.tile_feasibility(make_config(64, 8))
        assert report.heads_per_group == 8 and not report.gqa_path_feasible

    def test_rule_is_exactly_heads_per_group_at_least_16(self):
        for num_heads, num_groups in [(16, 1), (32, 2), (48, 3), (32, 4), (128, 16)]:
            report = sparse.tile_feasibility(make_config(num_heads, num_groups))
            assert report.gqa_path_feasible == (num_heads // num_groups >= 16)
