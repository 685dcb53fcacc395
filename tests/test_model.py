import dataclasses
import math

import numpy as np
import pytest

from gqla import convert_gqa, convert_mla
from gqla import io as gqck
from gqla import model as M
from gqla import sparse
from gqla.errors import NumericError, OutOfSubspaceError, ParameterError, ShapeError
from gqla.rope import RopeSpec, apply_rope

from conftest import dual_path_bound, longhand_mha, loop_gqa_oracle


class TestInitRandom:
    def test_deterministic(self, desk_config):
        a = M.init_random(desk_config, 3)
        b = M.init_random(desk_config, 3)
        for name in M.expected_shapes(desk_config):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_shapes(self, desk_config):
        w = M.init_random(desk_config, 0)
        w.validate(desk_config)
        assert w.q_up.shape == (desk_config.num_heads * desk_config.head_dim,
                                desk_config.q_rank)

    def test_entry_bound(self, desk_config):
        w = M.init_random(desk_config, 1)
        min_fan = min(shape[1] for shape in M.expected_shapes(desk_config).values())
        bound = 1.0 / math.sqrt(min_fan)
        for name in M.expected_shapes(desk_config):
            assert np.max(np.abs(getattr(w, name))) <= bound


def _read_back(path, kind, config, weights):
    gqck.write_checkpoint(path, kind, config, weights)
    return gqck.read_checkpoint(path)[2]


_CALIB = M.random_tokens(256, 64, 17)

# Every way the package makes weights, each a function of a fixture getter.
WEIGHT_PRODUCERS = {
    "init_random": lambda f: M.init_random(f("desk_config"), 1),
    "init_random_gqa": lambda f: convert_gqa.init_random_gqa(8, 2, 16, 64, seed=5),
    "read_checkpoint_gqla": lambda f: _read_back(f("tmp_path") / "a.gqck", "gqla",
                                                 f("desk_config"), f("desk_weights")),
    "read_checkpoint_mla": lambda f: _read_back(f("tmp_path") / "b.gqck", "mla",
                                                f("mla_config"), f("mla_weights")),
    "read_checkpoint_gqa": lambda f: _read_back(f("tmp_path") / "c.gqck", "gqa", None,
                                                f("desk_gqa")),
    "convert_gqa": lambda f: convert_gqa.convert(
        f("desk_gqa"), _CALIB, convert_gqa.target_config(f("desk_gqa"), 14, 4))[0],
    "convert_mla": lambda f: convert_mla.convert(f("mla_weights"), f("mla_config"),
                                                 _CALIB, 2)[0],
    "apply_head_rotations": lambda f: convert_gqa.apply_head_rotations(
        f("desk_gqa"), np.tile([[0.6, 0.8], [-0.8, 0.6]], (2, 8, 1, 1))),
    "replace_gqla": lambda f: dataclasses.replace(  # a fresh array and a strided view
        f("desk_weights"), q_rope=np.ones((64, 48)), k_up=np.zeros((32, 64))[:, ::2]),
    "replace_gqa": lambda f: dataclasses.replace(f("desk_gqa"), v_proj=np.ones((32, 64))),
}


class TestWeightsAreReadOnly:
    @pytest.mark.parametrize("producer", WEIGHT_PRODUCERS)
    def test_every_array_refuses_in_place_writes(self, request, producer):
        weights = WEIGHT_PRODUCERS[producer](request.getfixturevalue)
        arrays = [getattr(weights, f.name) for f in dataclasses.fields(weights)
                  if isinstance(getattr(weights, f.name), np.ndarray)]
        assert len(arrays) == (4 if isinstance(weights, convert_gqa.GqaWeights)
                               else 7 if producer == "convert_gqa" else 8)  # GQA route: no q_down
        for arr in arrays:
            before = arr.copy()
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                arr *= -1
            assert np.array_equal(arr, before)

    def test_building_weights_makes_the_callers_arrays_and_bases_read_only(self,
                                                                           desk_weights):
        stacked = np.vstack([desk_weights.k_up, desk_weights.v_up])  # the caller's array
        weights = dataclasses.replace(desk_weights, k_up=stacked[:32], v_up=stacked[32:])
        assert np.shares_memory(weights.k_up, stacked)  # frozen in place, not copied
        with pytest.raises(ValueError, match="read-only"):
            stacked[0, 0] = 1.0
        with pytest.raises(ValueError):  # numpy keeps a view of a read-only base read-only
            weights.k_up.flags.writeable = True

    def test_replace_shares_the_arrays_and_starts_without_derived_matrices(
            self, desk_config, desk_weights):
        _, expanded = M.forward_gqa_path(desk_weights, desk_config, M.random_tokens(6, 64, 2))
        M.cache_compress(expanded, desk_weights)
        sparse.stub_index_scores(desk_weights, desk_config, expanded, np.ones(64))
        assert {"_compress_map", "_index_query_map"} <= set(vars(desk_weights))
        fresh = dataclasses.replace(desk_weights)
        assert not {"_compress_map", "_index_query_map"} & set(vars(fresh))
        assert all(getattr(fresh, name) is getattr(desk_weights, name)
                   for name in M.expected_shapes(desk_config))


class TestMissingQueryDownProjection:
    """q_down may be None, meaning queries project straight from the token,
    only where q_rank == model_dim."""

    def test_every_reader_treats_it_as_the_identity(self, desk_config):
        config = dataclasses.replace(desk_config, q_rank=64)
        bare = dataclasses.replace(M.init_random(config, 4), q_down=None)
        eye = dataclasses.replace(bare, q_down=np.eye(64))
        bare.validate(config)
        tokens = M.random_tokens(10, 64, 6)
        for run in (M.forward_gqa_path, M.forward_absorb_path):
            assert np.array_equal(run(bare, config, tokens, 3)[0], run(eye, config, tokens, 3)[0])
        oracle = M.oracle_mha(bare, config, tokens, 3)
        assert np.array_equal(oracle, M.oracle_mha(eye, config, tokens, 3))
        ref = longhand_mha(bare, config, tokens, 3)
        assert np.max(np.abs(oracle - ref)) <= 1e-12 * (1 + np.max(np.abs(ref)))
        assert np.array_equal(bare._index_query_map, eye._index_query_map)

    def test_it_needs_q_rank_equal_to_model_dim(self, desk_config, desk_weights):
        with pytest.raises(ShapeError, match="q_down is NoneType"):
            dataclasses.replace(desk_weights, q_down=None).validate(desk_config)


@pytest.mark.parametrize("value", ["none", "list"])
@pytest.mark.parametrize("kind", ["gqla", "gqa"])
def test_validate_raises_shape_error_for_a_field_that_is_no_array(kind, value, desk_config,
                                                                 desk_weights, desk_gqa):
    weights, name = (desk_weights, "q_up") if kind == "gqla" else (desk_gqa, "k_proj")
    field = None if value == "none" else getattr(weights, name).tolist()
    bad = dataclasses.replace(weights, **{name: field})
    with pytest.raises(ShapeError, match=name):
        bad.validate(desk_config) if kind == "gqla" else bad.validate()


@pytest.mark.parametrize("count, dim", [(10 ** 400, 64), (2 ** 62, 64), (64, 10 ** 400)],
                         ids=["count", "size", "dim"])
def test_random_tokens_past_the_largest_array_rejected(count, dim):
    # numpy would raise its own ValueError for these shapes
    with pytest.raises(ParameterError, match="largest array"):
        M.random_tokens(count, dim, 0)


class TestProjectToken:
    """One token through the query and key projections."""

    def test_zero_token_gives_zero(self, desk_config, desk_weights):
        x = np.zeros(64)
        for arr in (*M._project_queries(desk_weights, desk_config, x, 5),
                    *M._project_keys(desk_weights, desk_config, x, 5)):
            assert np.all(arr == 0)

    def test_position_zero_skips_rotation(self, desk_config, desk_weights):
        x = M.random_tokens(1, 64, 2)[0]
        _, q_rope = M._project_queries(desk_weights, desk_config, x, 0)
        raw = (desk_weights.q_rope @ (desk_weights.q_down @ x)).reshape(8, 8)
        assert np.array_equal(q_rope, raw)

    def test_matches_straight_line_recomputation(self, desk_config, desk_weights):
        c = desk_config
        x = M.random_tokens(1, 64, 2)[0]
        t = 7
        q_nope, q_rope = M._project_queries(desk_weights, c, x, t)
        kv, k_rope = M._project_keys(desk_weights, c, x, t)
        spec = RopeSpec(c.rope_head_dim, c.rope_base)
        c_q = desk_weights.q_down @ x
        for i in range(c.num_heads):
            q_n = desk_weights.q_up[i * c.head_dim:(i + 1) * c.head_dim] @ c_q
            q_r = apply_rope(
                spec, desk_weights.q_rope[i * c.rope_head_dim:(i + 1) * c.rope_head_dim] @ c_q, t)
            assert np.max(np.abs(q_nope[i] - q_n)) <= 1e-12
            assert np.max(np.abs(q_rope[i] - q_r)) <= 1e-12
        assert np.max(np.abs(kv - desk_weights.kv_down @ x)) <= 1e-12
        assert np.max(np.abs(k_rope - apply_rope(spec, desk_weights.k_rope @ x, t))) <= 1e-12


_TOKEN_ENTRY_POINTS = {
    "decode_gqa": lambda w, c, expanded, latent, x: M.decode_gqa(w, c, expanded, x),
    "decode_absorb": lambda w, c, expanded, latent, x: M.decode_absorb(w, c, latent, x),
    "sparse_attention": lambda w, c, expanded, latent, x: sparse.sparse_attention(
        w, c, expanded, x, [0, 1]),
    "sparse_attention_absorbed": lambda w, c, expanded, latent, x:
        sparse.sparse_attention_absorbed(w, c, latent, x, [0, 1]),
    "stub_index_scores": lambda w, c, expanded, latent, x: sparse.stub_index_scores(
        w, c, expanded, x),
    "masked_reference": lambda w, c, expanded, latent, x: sparse.masked_reference(
        w, c, expanded, x, [0, 1]),
}


@pytest.mark.parametrize("shape", [(63,), (2, 63), ()], ids=["width", "block-width", "scalar"])
@pytest.mark.parametrize("entry", _TOKEN_ENTRY_POINTS)
def test_per_token_entry_points_reject_bad_tokens(desk_config, desk_weights, entry, shape):
    tokens = M.random_tokens(4, 64, 3)
    _, expanded = M.forward_gqa_path(desk_weights, desk_config, tokens, 1)
    _, latent = M.forward_absorb_path(desk_weights, desk_config, tokens, 1)
    with pytest.raises(ShapeError):
        _TOKEN_ENTRY_POINTS[entry](desk_weights, desk_config, expanded, latent, np.ones(shape))


# entry point -> (cache layout it takes, call on a cache and the newest token)
_CACHE_ENTRY_POINTS = {
    "decode_gqa": ("expanded", M.decode_gqa),
    "decode_absorb": ("latent", M.decode_absorb),
    "cache_expand": ("latent", lambda w, c, cache, x: M.cache_expand(cache, w)),
    "cache_compress": ("expanded", lambda w, c, cache, x: M.cache_compress(cache, w)),
    "sparse_attention": ("expanded", lambda w, c, cache, x: sparse.sparse_attention(
        w, c, cache, x, [0, 5])),
    "sparse_attention_absorbed": ("latent", lambda w, c, cache, x:
                                  sparse.sparse_attention_absorbed(w, c, cache, x, [0, 5])),
    "stub_index_scores": ("expanded", lambda w, c, cache, x: sparse.stub_index_scores(
        w, c, cache, x)),
    "masked_reference": ("expanded", lambda w, c, cache, x: sparse.masked_reference(
        w, c, cache, x, [0, 5])),
}


@pytest.mark.parametrize("fault", ["narrow", "rows"])
@pytest.mark.parametrize("entry", _CACHE_ENTRY_POINTS)
def test_cache_entry_points_reject_misshapen_caches(desk_config, desk_weights, entry, fault):
    # the first field (kv or k_nope) loses a column, or half its rows
    layout, call = _CACHE_ENTRY_POINTS[entry]
    forward = M.forward_gqa_path if layout == "expanded" else M.forward_absorb_path
    tokens = M.random_tokens(6, 64, 3)
    _, cache = forward(desk_weights, desk_config, tokens, 1)
    first = dataclasses.fields(cache)[0].name
    cut = getattr(cache, first)[:, :-1] if fault == "narrow" else getattr(cache, first)[:3]
    with pytest.raises(ShapeError):
        call(desk_weights, desk_config, dataclasses.replace(cache, **{first: cut}), tokens[5])


@pytest.mark.parametrize("entry", [e for e in _CACHE_ENTRY_POINTS if e != "stub_index_scores"])
def test_cache_entry_points_reject_the_other_layout(desk_config, desk_weights, entry):
    # stub_index_scores takes either layout; every other entry point takes one
    layout, call = _CACHE_ENTRY_POINTS[entry]
    other = M.forward_absorb_path if layout == "expanded" else M.forward_gqa_path
    tokens = M.random_tokens(6, 64, 3)
    _, cache = other(desk_weights, desk_config, tokens, 1)
    with pytest.raises(ShapeError):
        call(desk_weights, desk_config, cache, tokens[5])


def test_referees_share_no_code_with_the_cores():
    def names(code):
        nested = (names(const) for const in code.co_consts if hasattr(const, "co_names"))
        return set(code.co_names).union(*nested)

    cores = {"_grouped_core", "_attention", "_extend", "forward_gqa_source"}
    for referee in (M.oracle_mha, sparse.masked_reference, convert_mla.unfused_forward,
                    loop_gqa_oracle):
        assert not names(referee.__code__) & cores
    # the oracle also keeps its own rotation, softmax, projections and scoring
    # (masked_reference projects queries and normalizes through the model's own)
    shared = {"apply_rope", "apply_folded_rope", "rope_spec", "RopeSpec", "frequencies",
              "_softmax", "_project_queries", "_project_keys", "_cache_rows", "_query_blocks"}
    assert not names(M.oracle_mha.__code__) & shared


@pytest.mark.parametrize("change", [
    {}, {"num_groups": 1}, {"num_groups": 8}, {"rope_base": 10.0}, {"rope_base": 1e6}])
@pytest.mark.parametrize("length, s_q", [(12, 3), (17, 17)])
def test_oracle_matches_its_longhand_form(desk_config, change, length, s_q):
    # num_groups 8 is one group per head
    config = dataclasses.replace(desk_config, **change)
    weights = M.init_random(config, 2)
    tokens = M.random_tokens(length, config.model_dim, 5)
    ref = longhand_mha(weights, config, tokens, s_q)
    out = M.oracle_mha(weights, config, tokens, s_q)
    assert out.shape == ref.shape == (s_q, config.model_dim)
    assert np.max(np.abs(out - ref)) <= 1e-12 * (1 + np.max(np.abs(ref)))


class TestForwardPaths:
    def test_single_token_softmax_is_one(self, desk_config, desk_weights):
        x = M.random_tokens(1, 64, 4)
        out, cache = M.forward_gqa_path(desk_weights, desk_config, x, 1)
        kv = desk_weights.kv_down @ x[0]
        v = (desk_weights.v_up @ kv).reshape(desk_config.num_groups, desk_config.value_head_dim)
        gi = np.arange(8) // desk_config.heads_per_group
        expect = desk_weights.out_proj @ v[gi].reshape(-1)
        assert np.max(np.abs(out[0] - expect)) <= 1e-12
        assert len(cache) == 1

    def test_degenerate_grouping_matches_per_head_mha(self, desk_config):
        cfg = dataclasses.replace(desk_config, num_groups=desk_config.num_heads)
        w = M.init_random(cfg, 6)
        tokens = M.random_tokens(10, 64, 7)
        out, _ = M.forward_gqa_path(w, cfg, tokens, 1)
        # naive per-head MHA over explicitly expanded K/V
        t = 9
        spec = cfg.rope_spec()
        per_head = []
        for i in range(cfg.num_heads):
            q_n = (w.q_up @ (w.q_down @ tokens[t]))[i * 16:(i + 1) * 16]
            q_r = apply_rope(spec, (w.q_rope @ (w.q_down @ tokens[t]))[i * 8:(i + 1) * 8], t)
            logits = []
            for s in range(t + 1):
                kv = w.kv_down @ tokens[s]
                k_n = (w.k_up @ kv)[i * 16:(i + 1) * 16]
                k_r = apply_rope(spec, w.k_rope @ tokens[s], s)
                logits.append((q_n @ k_n + q_r @ k_r) * cfg.score_scale)
            logits = np.asarray(logits)
            att = np.exp(logits - logits.max())
            att /= att.sum()
            o = np.zeros(16)
            for s in range(t + 1):
                kv = w.kv_down @ tokens[s]
                o += att[s] * (w.v_up @ kv)[i * 16:(i + 1) * 16]
            per_head.append(o)
        expect = w.out_proj @ np.concatenate(per_head)
        assert np.max(np.abs(out[0] - expect)) <= 1e-10

    def test_dual_path_and_oracle_desk(self, desk_config, desk_weights):
        tokens = M.random_tokens(32, 64, 4)
        a, _ = M.forward_gqa_path(desk_weights, desk_config, tokens, 2)
        b, _ = M.forward_absorb_path(desk_weights, desk_config, tokens, 2)
        o = M.oracle_mha(desk_weights, desk_config, tokens, 2)
        bound = dual_path_bound(a)
        assert np.max(np.abs(a - b)) <= bound
        assert np.max(np.abs(a - o)) <= bound
        assert np.max(np.abs(b - o)) <= bound

    def test_dual_path_mini_canonical(self, mini_canonical_config):
        w = M.init_random(mini_canonical_config, 8)
        tokens = M.random_tokens(12, mini_canonical_config.model_dim, 9)
        a, _ = M.forward_gqa_path(w, mini_canonical_config, tokens, 2)
        b, _ = M.forward_absorb_path(w, mini_canonical_config, tokens, 2)
        assert np.max(np.abs(a - b)) <= dual_path_bound(a)

    @pytest.mark.parametrize("length,s_q", [(1, 1), (2, 1), (2, 2), (17, 2), (64, 1), (17, 17)])
    def test_dual_path_across_lengths(self, desk_config, desk_weights, length, s_q):
        tokens = M.random_tokens(length, 64, 100 + length)
        a, _ = M.forward_gqa_path(desk_weights, desk_config, tokens, s_q)
        b, _ = M.forward_absorb_path(desk_weights, desk_config, tokens, s_q)
        assert np.max(np.abs(a - b)) <= dual_path_bound(a)

    @pytest.mark.parametrize("num_groups", [8, 1])  # one head per group; one group
    def test_full_prefill_matches_oracle_on_every_row(self, desk_config, num_groups):
        cfg = dataclasses.replace(desk_config, num_groups=num_groups)
        w = M.init_random(cfg, 30 + num_groups)
        tokens = M.random_tokens(12, 64, 31)
        oracle = M.oracle_mha(w, cfg, tokens, 12)
        bound = dual_path_bound(oracle)
        for forward in (M.forward_gqa_path, M.forward_absorb_path):
            out, _ = forward(w, cfg, tokens, 12)
            assert np.max(np.abs(out - oracle), axis=1).max() <= bound

    def test_query_blocks_match_per_prefix_calls(self, desk_config, desk_weights):
        # enough queries that the score array is split into several blocks
        length = 544
        assert length * desk_config.num_heads * length > 2 * M.SCORE_BLOCK_ELEMENTS
        tokens = M.random_tokens(length, 64, 32)
        for forward in (M.forward_gqa_path, M.forward_absorb_path):
            out, _ = forward(desk_weights, desk_config, tokens, length)
            for t in range(0, length, 7):
                row, _ = forward(desk_weights, desk_config, tokens[: t + 1], 1)
                assert np.max(np.abs(out[t] - row[0])) <= dual_path_bound(row)

    def test_causality(self, desk_config, desk_weights):
        tokens = M.random_tokens(12, 64, 5)
        zeroed = tokens.copy()
        zeroed[8:] = 0.0
        # query position 7 sees only the prefix, so outputs match exactly
        full, _ = M.forward_gqa_path(desk_weights, desk_config, tokens[:8], 1)
        cut, _ = M.forward_gqa_path(desk_weights, desk_config, zeroed[:8], 1)
        assert np.array_equal(full[0], cut[0])

    def test_empty_sequence_rejected(self, desk_config, desk_weights):
        with pytest.raises(ParameterError):
            M.forward_gqa_path(desk_weights, desk_config, np.zeros((0, 64)), 1)
        with pytest.raises(ParameterError):
            M.forward_absorb_path(desk_weights, desk_config, np.zeros((0, 64)), 1)

    def test_s_q_beyond_length_rejected(self, desk_config, desk_weights):
        with pytest.raises(ParameterError):
            M.forward_gqa_path(desk_weights, desk_config, M.random_tokens(3, 64, 0), 4)


class TestDecode:
    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("layout", ["expanded", "latent"])
    def test_blocks_continue_the_prefill(self, desk_config, desk_weights, layout, block):
        # prefill 8 tokens, then decode the next 12 in blocks; one token goes in
        # as a (model_dim,) vector, longer blocks as (n, model_dim) arrays
        forward, decode = {"expanded": (M.forward_gqa_path, M.decode_gqa),
                           "latent": (M.forward_absorb_path, M.decode_absorb)}[layout]
        tokens = M.random_tokens(20, 64, 50)
        _, prompt = forward(desk_weights, desk_config, tokens[:8], 1)
        before = {f.name: getattr(prompt, f.name).copy() for f in dataclasses.fields(prompt)}

        def generate(cache):
            outputs = []
            for start in range(8, 20, block):
                x = tokens[start] if block == 1 else tokens[start:start + block]
                out, cache = decode(desk_weights, desk_config, cache, x)
                assert out.shape == x.shape
                outputs.append(out.reshape(-1, 64))
            return np.vstack(outputs), cache

        first, cache = generate(prompt)
        second, _ = generate(prompt)
        oracle = M.oracle_mha(desk_weights, desk_config, tokens, 12)
        assert len(cache) == 20
        assert np.max(np.abs(first - oracle)) <= dual_path_bound(oracle)
        assert np.array_equal(first, second)
        for name, arr in before.items():
            assert np.array_equal(getattr(prompt, name), arr)


_PATHS = {"expanded": (M.forward_gqa_path, M.decode_gqa),
          "latent": (M.forward_absorb_path, M.decode_absorb)}


def _fields(cache) -> dict:
    return {f.name: getattr(cache, f.name) for f in dataclasses.fields(cache)}


def _snapshot(cache) -> dict:
    return {name: arr.copy() for name, arr in _fields(cache).items()}


def _matches(cache, expect: dict, tol: float = 0.0) -> bool:
    """Whether every field of cache has expect's shape and lies within tol,
    relative to 1 + its largest entry, of expect's (tol 0: equal)."""
    return all(arr.shape == expect[name].shape and np.max(np.abs(arr - expect[name]), initial=0)
               <= tol * (1 + np.max(np.abs(expect[name]), initial=0))
               for name, arr in _fields(cache).items())


class TestCapacityBuffer:
    """Decode appends into a shared buffer that doubles when full, yet every
    cache stays a fixed value: no row any cache can see is ever written."""

    @pytest.mark.parametrize("layout", ["expanded", "latent"])
    def test_generation_across_doublings_matches_the_prefill(self, desk_config, desk_weights,
                                                            layout):
        # prefill 3, then blocks of 1, 2, 3, ... up to 41 tokens: the buffer
        # is made with 6 rows at the first append and grows to 12, 24 and 48
        forward, decode = _PATHS[layout]
        tokens = M.random_tokens(41, 64, 60)
        out, cache = forward(desk_weights, desk_config, tokens[:3], 1)
        assert cache._buffer is None  # prefill makes no spare rows
        outputs, buffers, start = [], [], 3
        for block in [1, 2, 3] * 6 + [2]:
            x = tokens[start] if block == 1 else tokens[start:start + block]
            out, cache = decode(desk_weights, desk_config, cache, x)
            outputs.append(out.reshape(-1, 64))
            start += block
            capacity = cache._buffer.rows["k_rope"].shape[0]
            assert len(cache) == start and capacity <= 2 * len(cache)
            if not buffers or buffers[-1] is not cache._buffer:
                buffers.append(cache._buffer)
        assert start == 41 and len(buffers) == 4
        _, whole = forward(desk_weights, desk_config, tokens, 1)
        assert _matches(cache, _fields(whole), 1e-12)
        oracle = M.oracle_mha(desk_weights, desk_config, tokens, 38)
        assert np.max(np.abs(np.vstack(outputs) - oracle)) <= dual_path_bound(oracle)

    @pytest.mark.parametrize("layout", ["expanded", "latent"])
    def test_branches_leave_every_earlier_cache_unchanged(self, desk_config, desk_weights,
                                                          layout):
        forward, decode = _PATHS[layout]
        w, c = desk_weights, desk_config
        tokens = M.random_tokens(12, 64, 61)
        _, prompt = forward(w, c, tokens[:4], 1)
        _, first = decode(w, c, prompt, tokens[4])        # copied into a new buffer
        _, second = decode(w, c, first, tokens[5])        # written in place after first
        assert second._buffer is first._buffer
        with pytest.raises(ValueError):  # shared rows are read-only views
            first.k_rope[-1] = 0.0
        caches = [prompt, first, second]
        snapshots = [_snapshot(cache) for cache in caches]
        # branch from first after second was appended to it, and from second twice
        y_a, branch = decode(w, c, first, tokens[6])
        y_b, again = decode(w, c, first, tokens[6])
        _, third = decode(w, c, second, tokens[7:9])
        _, other = decode(w, c, second, tokens[9:11])
        assert branch._buffer is not first._buffer and again._buffer is not branch._buffer
        for cache, snapshot in zip(caches, snapshots):
            assert _matches(cache, snapshot)
        assert np.array_equal(y_a, y_b) and _matches(branch, _fields(again))
        assert not any(np.shares_memory(getattr(third, name), getattr(other, name))
                       for name in _fields(third))
        for cache, tail in ((branch, [4, 6]), (third, [4, 5, 7, 8]), (other, [4, 5, 9, 10])):
            _, whole = forward(w, c, np.vstack([tokens[:4], tokens[tail]]), 1)
            assert _matches(cache, _fields(whole), 1e-12)

    @pytest.mark.parametrize("layout", ["expanded", "latent"])
    def test_read_only_caller_cache_is_never_written(self, desk_config, desk_weights, layout):
        forward, decode = _PATHS[layout]
        tokens = M.random_tokens(8, 64, 62)
        _, built = forward(desk_weights, desk_config, tokens[:6], 1)
        arrays = _snapshot(built)
        for arr in arrays.values():
            arr.setflags(write=False)
        caller = type(built)(**arrays)
        snapshot = _snapshot(caller)
        y_one, one = decode(desk_weights, desk_config, caller, tokens[6])
        y_two, two = decode(desk_weights, desk_config, caller, tokens[6:8])
        assert _matches(caller, snapshot)
        assert np.max(np.abs(y_one - y_two[0])) <= dual_path_bound(y_one)
        for cache in (one, two):
            assert not any(np.shares_memory(getattr(cache, name), arr)
                           for name, arr in arrays.items())

    def test_switches_and_sparse_on_a_prefix_view_match_a_copy(self, desk_config, desk_weights):
        w, c = desk_weights, desk_config
        tokens = M.random_tokens(14, 64, 63)
        _, expanded = M.forward_gqa_path(w, c, tokens[:5], 1)
        _, latent = M.forward_absorb_path(w, c, tokens[:5], 1)
        for t in range(5, 14):
            _, expanded = M.decode_gqa(w, c, expanded, tokens[t])
            _, latent = M.decode_absorb(w, c, latent, tokens[t])
        assert expanded._buffer.rows["k_rope"].shape[0] > len(expanded)  # spare rows
        for length in (len(expanded), 11):
            views = [type(cache)(**{n: a[:length] for n, a in _fields(cache).items()})
                     for cache in (expanded, latent)]
            copies = [type(cache)(**{n: a.copy() for n, a in _fields(cache).items()})
                      for cache in views]
            x, selected = tokens[length - 1], np.array([0, 2, length - 1])
            pairs = [
                (M.cache_compress(views[0], w)[0].kv, M.cache_compress(copies[0], w)[0].kv),
                (M.cache_expand(views[1], w).k_nope, M.cache_expand(copies[1], w).k_nope),
                (sparse.sparse_attention(w, c, views[0], x, selected),
                 sparse.sparse_attention(w, c, copies[0], x, selected)),
                (sparse.sparse_attention_absorbed(w, c, views[1], x, selected),
                 sparse.sparse_attention_absorbed(w, c, copies[1], x, selected)),
            ]
            for got, expect in pairs:
                assert np.max(np.abs(got - expect)) <= 1e-13 * (1 + np.max(np.abs(expect)))

    @pytest.mark.parametrize("layout", ["expanded", "latent"])
    def test_buffered_cache_of_the_wrong_layout_rejected(self, desk_config, desk_weights, layout):
        forward, decode = _PATHS[layout]
        other = _PATHS["latent" if layout == "expanded" else "expanded"][1]
        tokens = M.random_tokens(6, 64, 64)
        _, cache = forward(desk_weights, desk_config, tokens[:4], 1)
        _, cache = decode(desk_weights, desk_config, cache, tokens[4])
        assert cache._buffer is not None
        with pytest.raises(ShapeError):
            other(desk_weights, desk_config, cache, tokens[5])


class TestCacheLayouts:
    def test_per_token_element_counts(self, desk_config, desk_weights):
        c = desk_config
        tokens = M.random_tokens(5, 64, 6)
        _, expanded = M.forward_gqa_path(desk_weights, c, tokens, 1)
        _, latent = M.forward_absorb_path(desk_weights, c, tokens, 1)
        assert latent.elements_per_token == c.kv_rank + c.rope_head_dim
        assert latent.elements_per_token == c.latent_elements_per_token
        expect = c.num_groups * (c.head_dim + c.value_head_dim) + c.rope_head_dim
        assert expanded.elements_per_token == expect
        # symmetric head dims collapse to 2*g*d_h + rope
        assert expect == 2 * c.num_groups * c.head_dim + c.rope_head_dim


class TestCacheSwitching:
    def test_expand_zero_latent(self, desk_config, desk_weights):
        latent = M.LatentCache(kv=np.zeros((3, 32)), k_rope=np.zeros((3, 8)))
        expanded = M.cache_expand(latent, desk_weights)
        assert np.all(expanded.k_nope == 0) and np.all(expanded.v == 0)

    def test_switch_then_decode_matches(self, desk_config, desk_weights):
        tokens = M.random_tokens(12, 64, 13)
        nxt = M.random_tokens(1, 64, 14)[0]
        _, latent = M.forward_absorb_path(desk_weights, desk_config, tokens[:11], 1)
        expanded = M.cache_expand(latent, desk_weights)
        y_gqa, _ = M.decode_gqa(desk_weights, desk_config, expanded, nxt)
        y_abs, _ = M.decode_absorb(desk_weights, desk_config, latent, nxt)
        assert np.max(np.abs(y_gqa - y_abs)) <= dual_path_bound(y_abs)

    def test_round_trip(self, desk_config, desk_weights):
        tokens = M.random_tokens(9, 64, 15)
        _, expanded = M.forward_gqa_path(desk_weights, desk_config, tokens, 1)
        latent, residuals = M.cache_compress(expanded, desk_weights)
        rebuilt = M.cache_expand(latent, desk_weights)
        scale = 1.0 + np.max(np.abs(expanded.k_nope))
        assert np.max(np.abs(rebuilt.k_nope - expanded.k_nope)) <= 1e-9 * scale
        assert np.max(np.abs(rebuilt.v - expanded.v)) <= 1e-9 * scale
        assert np.max(residuals) <= 1e-9

    def test_compress_recovers_latent_across_paths(self, desk_config, desk_weights):
        tokens = M.random_tokens(9, 64, 15)
        _, expanded = M.forward_gqa_path(desk_weights, desk_config, tokens, 1)
        _, latent = M.forward_absorb_path(desk_weights, desk_config, tokens, 1)
        recovered, _ = M.cache_compress(expanded, desk_weights)
        assert np.max(np.abs(recovered.kv - latent.kv)) <= 1e-9 * (1 + np.max(np.abs(latent.kv)))


@pytest.fixture
def solver_calls(monkeypatch):
    """The names of the np.linalg solvers (eigh, pinv, svd, lstsq) called, in order."""
    calls = []

    def spy(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("eigh", "pinv", "svd", "lstsq"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    return calls


def _route_weights(weights, route: str):
    """weights as given ("gram": the desk basis is well conditioned), or ("lstsq")
    with [k_up; v_up] replaced by a random basis of the same shape whose
    singular values spread log-evenly from 1 to 1e-5, so its Gram matrix has
    condition number 1e10 and cache_compress solves by minimum-norm least
    squares through pinv."""
    if route == "gram":
        return weights
    rows_k, rank = weights.k_up.shape
    rows = rows_k + weights.v_up.shape[0]
    count = min(rows, rank)
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.standard_normal((rows, count)))
    v, _ = np.linalg.qr(rng.standard_normal((rank, count)))
    basis = (u * np.logspace(0, -5, count)) @ v.T
    return dataclasses.replace(weights, k_up=basis[:rows_k], v_up=basis[rows_k:])


def _stacked_lstsq(cache, weights) -> np.ndarray:
    basis = np.vstack([weights.k_up, weights.v_up])
    return np.linalg.lstsq(basis, np.hstack([cache.k_nope, cache.v]).T, rcond=None)[0].T


def _assert_lstsq_latents(kv, cache, weights):
    """kv is the minimum-norm least-squares solution within 1e-10 relative."""
    expect = _stacked_lstsq(cache, weights)
    assert np.max(np.abs(kv - expect)) <= 1e-10 * np.max(np.abs(expect))


class TestCompressRoutes:
    """cache_compress solves through the Gram matrix of the basis's nonzero
    columns when it is well conditioned and through np.linalg.pinv otherwise,
    once per weights object."""

    def test_desk_weights_take_the_gram_route(self, desk_config, desk_weights, solver_calls):
        _, expanded = M.forward_gqa_path(desk_weights, desk_config,
                                         M.random_tokens(9, 64, 15), 1)
        latent, _ = M.cache_compress(expanded, desk_weights)
        assert solver_calls == ["eigh"]
        expect = _stacked_lstsq(expanded, desk_weights)
        assert np.max(np.abs(latent.kv - expect)) <= 1e-12 * (1 + np.max(np.abs(expect)))

    def test_converted_weights_take_the_gram_route(self, desk_gqa, mla_config, mla_weights,
                                                   solver_calls):
        target = M.GqlaConfig(model_dim=64, num_heads=8, num_groups=2, head_dim=16,
                              value_head_dim=16, rope_head_dim=8, kv_rank=24, q_rank=64)
        calib = M.random_tokens(256, 64, 3)
        converted = [(convert_gqa.convert(desk_gqa, calib, target)[0], target),
                     (convert_mla.convert(mla_weights, mla_config, calib, 2)[0],
                      convert_mla.target_config(mla_config, 2))]
        solver_calls.clear()
        for weights, config in converted:
            _, expanded = M.forward_gqa_path(weights, config, M.random_tokens(9, 64, 4), 1)
            _, residuals = M.cache_compress(expanded, weights)
            assert np.max(residuals) <= 1e-9
        assert solver_calls == ["eigh", "eigh"]

    def test_ill_conditioned_basis_takes_the_pinv_fallback(self, desk_weights, solver_calls):
        weights = _route_weights(desk_weights, "lstsq")
        latent = M.LatentCache(kv=M.random_tokens(9, 32, 5), k_rope=np.zeros((9, 8)))
        expanded = M.cache_expand(latent, weights)
        compressed, residuals = M.cache_compress(expanded, weights)
        assert solver_calls == ["eigh", "pinv"]
        _assert_lstsq_latents(compressed.kv, expanded, weights)
        assert np.max(residuals) <= 1e-9

    def test_zero_basis_columns_keep_the_gram_route(self, desk_weights, solver_calls):
        # latent dims a converter leaves empty are zero up-projection columns:
        # the Gram solve runs over the others and gives those latents 0
        live = np.arange(32) < 20
        weights = dataclasses.replace(desk_weights, k_up=desk_weights.k_up * live,
                                      v_up=desk_weights.v_up * live)
        latent = M.LatentCache(kv=M.random_tokens(9, 32, 5), k_rope=np.zeros((9, 8)))
        expanded = M.cache_expand(latent, weights)
        compressed, residuals = M.cache_compress(expanded, weights)
        assert solver_calls == ["eigh"]
        _assert_lstsq_latents(compressed.kv, expanded, weights)
        assert np.all(compressed.kv[:, 20:] == 0.0) and np.max(residuals) <= 1e-9

    def test_wide_basis_gives_the_minimum_norm_latents(self, solver_calls):
        # kv_rank 24 > g*(d+dv) = 16: many latents give the cache, pinv gives the
        # shortest; the singular Gram matrix sends the solve to the pinv fallback
        config = M.GqlaConfig(model_dim=32, num_heads=4, num_groups=1, head_dim=8,
                              value_head_dim=8, rope_head_dim=4, kv_rank=24, q_rank=16)
        weights = M.init_random(config, 3)
        _, expanded = M.forward_gqa_path(weights, config, M.random_tokens(12, 32, 8), 1)
        compressed, residuals = M.cache_compress(expanded, weights)
        assert solver_calls == ["eigh", "pinv"]
        _assert_lstsq_latents(compressed.kv, expanded, weights)
        assert np.max(residuals) <= 1e-9

    @pytest.mark.parametrize("route", ["gram", "lstsq"])
    def test_second_compress_reuses_the_solve(self, desk_weights, solver_calls, route):
        weights = _route_weights(desk_weights, route)
        latent = M.LatentCache(kv=M.random_tokens(5, 32, 6), k_rope=np.zeros((5, 8)))
        expanded = M.cache_expand(latent, weights)
        first, _ = M.cache_compress(expanded, weights)
        solve = list(solver_calls)
        solver_calls.clear()
        second, _ = M.cache_compress(expanded, weights)
        assert not solver_calls and np.array_equal(first.kv, second.kv)
        # weights made by dataclasses.replace solve afresh
        scaled = dataclasses.replace(weights, k_up=2 * weights.k_up)
        third, residuals = M.cache_compress(M.cache_expand(latent, scaled), scaled)
        assert solver_calls == solve
        assert np.max(np.abs(third.kv - latent.kv)) <= 1e-9 * np.max(np.abs(latent.kv))
        assert np.max(residuals) <= 1e-9

    def test_stale_solve_after_an_in_place_write_is_rejected(self, desk_weights):
        # the write that would leave the kept solve stale is itself refused
        weights = dataclasses.replace(desk_weights, k_up=desk_weights.k_up.copy())
        latent = M.LatentCache(kv=M.random_tokens(5, 32, 6), k_rope=np.zeros((5, 8)))
        first, _ = M.cache_compress(M.cache_expand(latent, weights), weights)
        with pytest.raises(ValueError, match="read-only"):
            weights.k_up[:] *= 2
        again, _ = M.cache_compress(M.cache_expand(latent, weights), weights)
        assert np.array_equal(again.kv, first.kv)

    @pytest.mark.parametrize("route", ["gram", "lstsq"])
    def test_zero_cache_compresses_to_zero(self, desk_weights, route):
        weights = _route_weights(desk_weights, route)
        expanded = M.ExpandedCache(k_nope=np.zeros((2, 32)), v=np.zeros((2, 32)),
                                   k_rope=np.zeros((2, 8)))
        latent, residuals = M.cache_compress(expanded, weights)
        assert np.all(latent.kv == 0) and np.max(residuals) == 0

    @pytest.mark.parametrize("route", ["gram", "lstsq"])
    def test_out_of_subspace_rejected(self, desk_weights, route):
        weights = _route_weights(desk_weights, route)
        latent = M.LatentCache(kv=M.random_tokens(6, 32, 16), k_rope=np.zeros((6, 8)))
        expanded = M.cache_expand(latent, weights)
        basis = np.vstack([weights.k_up, weights.v_up])
        outside = np.linalg.svd(basis)[0][:, 32]  # orthogonal to the basis's columns
        polluted = np.hstack([expanded.k_nope, expanded.v]) + 1e-3 * outside
        bad = M.ExpandedCache(k_nope=polluted[:, :32], v=polluted[:, 32:],
                              k_rope=expanded.k_rope)
        with pytest.raises(OutOfSubspaceError):
            M.cache_compress(bad, weights)

    def test_overflowing_residual_raises_numeric_error(self, desk_weights):
        # finite entries whose squared norms overflow: no silent NaN residual
        latent = M.LatentCache(kv=1e300 * M.random_tokens(2, 32, 3), k_rope=np.zeros((2, 8)))
        expanded = M.cache_expand(latent, desk_weights)
        assert np.all(np.isfinite(expanded.k_nope)) and np.all(np.isfinite(expanded.v))
        with pytest.raises(NumericError):
            M.cache_compress(expanded, desk_weights)

    @pytest.mark.parametrize("route, solver", [("gram", "eigh"), ("lstsq", "pinv")])
    def test_failed_solve_raises_numeric_error(self, desk_weights, monkeypatch, route, solver):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        weights = dataclasses.replace(_route_weights(desk_weights, route))  # holds no solve
        expanded = M.cache_expand(M.LatentCache(kv=M.random_tokens(3, 32, 2),
                                                k_rope=np.zeros((3, 8))), weights)
        real = getattr(np.linalg, solver)
        monkeypatch.setattr(np.linalg, solver, fail)
        with pytest.raises(NumericError):
            M.cache_compress(expanded, weights)
        assert "_compress_map" not in vars(weights)
        monkeypatch.setattr(np.linalg, solver, real)
        _, residuals = M.cache_compress(expanded, weights)
        assert np.max(residuals) <= 1e-9


class TestOracle:
    def test_single_token_agreement(self, desk_config, desk_weights):
        x = M.random_tokens(1, 64, 17)
        o = M.oracle_mha(desk_weights, desk_config, x, 1)
        a, _ = M.forward_gqa_path(desk_weights, desk_config, x, 1)
        b, _ = M.forward_absorb_path(desk_weights, desk_config, x, 1)
        assert np.max(np.abs(o - a)) <= 1e-12 * (1 + np.max(np.abs(a)))
        assert np.max(np.abs(o - b)) <= 1e-12 * (1 + np.max(np.abs(b)))

    def test_group_permutation_symmetry(self, desk_config, desk_weights):
        # swapping the two K/V groups together with their head blocks and the
        # matching output columns leaves the combined output unchanged
        c = desk_config
        hpg, d, dv, dr = c.heads_per_group, c.head_dim, c.value_head_dim, c.rope_head_dim
        tokens = M.random_tokens(7, 64, 18)

        def swap_rows(arr, block):
            out = arr.copy()
            out[:block], out[block:2 * block] = arr[block:2 * block], arr[:block].copy()
            return out

        w = desk_weights
        permuted = dataclasses.replace(
            w,
            q_up=swap_rows(w.q_up, hpg * d),
            q_rope=swap_rows(w.q_rope, hpg * dr),
            k_up=swap_rows(w.k_up, d),
            v_up=swap_rows(w.v_up, dv),
            out_proj=swap_rows(w.out_proj.T, hpg * dv).T,
        )
        base = M.oracle_mha(w, c, tokens, 1)
        swapped = M.oracle_mha(permuted, c, tokens, 1)
        assert np.max(np.abs(base - swapped)) <= 1e-12 * (1 + np.max(np.abs(base)))


class TestConfigValidation:
    def test_head_group_divisibility(self):
        with pytest.raises(ParameterError):
            M.GqlaConfig(model_dim=8, num_heads=6, num_groups=4, head_dim=2,
                         value_head_dim=2, rope_head_dim=2, kv_rank=4, q_rank=4)

    def test_rope_dim_must_be_even(self):
        with pytest.raises(ParameterError):
            M.GqlaConfig(model_dim=8, num_heads=4, num_groups=2, head_dim=2,
                         value_head_dim=2, rope_head_dim=3, kv_rank=4, q_rank=4)

    def test_canonical_shape(self):
        c = M.canonical_config()
        assert (c.num_heads, c.num_groups, c.head_dim, c.rope_head_dim, c.kv_rank) == \
            (128, 8, 128, 64, 512)
        assert c.latent_elements_per_token == 576
        assert c.expanded_elements_per_token == 2 * 8 * 128 + 64
