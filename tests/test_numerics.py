import numpy as np
import pytest

from gqla import convert_gqa as CG
from gqla import numerics as N
from gqla.errors import GqlaError, ParameterError, ShapeError
from gqla.model import GqlaConfig, random_tokens
from gqla.numerics import (CovarianceAccumulator, accumulate, pca_factor, root_eig, sym_eig,
                           weighted_error)


def random_symmetric(n, seed):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return (a + a.T) / 2.0


class TestSymEig:
    def test_identity(self):
        res = sym_eig(np.eye(3))
        assert np.array_equal(res.eigenvalues, np.ones(3))
        assert np.array_equal(res.eigenvectors, np.eye(3))

    def test_diagonal_sorting(self):
        res = sym_eig(np.diag([2.0, 5.0, 1.0]))
        assert np.allclose(res.eigenvalues, [5.0, 2.0, 1.0])
        expect = np.zeros((3, 3))
        expect[1, 0] = expect[0, 1] = expect[2, 2] = 1.0
        assert np.allclose(res.eigenvectors, expect, atol=1e-14)

    def test_reconstruction_is_its_own_oracle(self):
        m = random_symmetric(8, seed=7)
        res = sym_eig(m)
        rebuilt = res.eigenvectors @ np.diag(res.eigenvalues) @ res.eigenvectors.T
        assert np.max(np.abs(rebuilt - m)) <= 1e-10

    def test_orthonormal_and_sorted(self):
        for seed in range(5):
            m = random_symmetric(12, seed)
            res = sym_eig(m)
            assert np.max(np.abs(res.eigenvectors.T @ res.eigenvectors - np.eye(12))) <= 1e-10
            assert np.all(np.diff(res.eigenvalues) <= 1e-12)
            norm = np.abs(m).max()
            assert np.max(np.abs(m @ res.eigenvectors -
                                 res.eigenvectors * res.eigenvalues)) <= 1e-8 * norm

    def test_sign_convention(self):
        for seed in range(5):
            v = sym_eig(random_symmetric(9, seed)).eigenvectors
            lead = np.argmax(np.abs(v), axis=0)
            assert np.all(v[lead, np.arange(9)] > 0)

    def test_deterministic(self):
        m = random_symmetric(10, seed=3)
        a, b = sym_eig(m), sym_eig(m.copy())
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            sym_eig(np.zeros((3, 4)))

    def test_rejects_asymmetric(self):
        m = np.eye(4)
        m[0, 1] = 1e-3
        with pytest.raises(ShapeError):
            sym_eig(m)

    def test_rejects_non_finite(self):
        m = np.eye(3)
        m[1, 1] = np.nan
        with pytest.raises(ShapeError):
            sym_eig(m)


def argmax_signs(v):
    """The sign rule as first written, the referee: argmax over the magnitudes."""
    lead = np.take_along_axis(v, np.argmax(np.abs(v), axis=-2)[..., None, :], axis=-2)
    lead = np.where(lead == 0, 1.0, lead)
    return np.ascontiguousarray(v * np.conj(lead / np.abs(lead)))


class TestCanonicalSigns:
    def cases(self):
        rng = np.random.default_rng(40)
        real = rng.standard_normal((3, 7, 5))
        real[0, :, 1] = 0.0                         # a zero column
        real[1, :, 2] = [0.5, -2.0, 2.0, 1.0, -2.0, 0.0, 0.25]  # ties of either sign
        real[2, :, 0] = [2.0, -2.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        complex_ = real + 1j * rng.standard_normal((3, 7, 5))
        complex_[0, :, 1] = 0.0
        complex_[1, :, 3] = [1j, -1.0, 0.6 + 0.8j, 0.0, -1j, 0.5, 0.0]  # magnitude ties
        return [real[0], complex_[0], real, complex_, np.zeros((4, 3)),
                np.array([[-1.0], [1.0]]), rng.standard_normal((2, 3, 6, 4))]

    def test_bitwise_equal_to_the_argmax_rule(self):
        for v in self.cases():
            got, want = N._canonical_signs(v), argmax_signs(v)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_first_largest_entry_wins_ties(self):
        assert np.array_equal(N._canonical_signs(np.array([[-1.0], [1.0], [0.5]])),
                              [[1.0], [-1.0], [-0.5]])
        phased = N._canonical_signs(np.array([[1j], [-1.0]]))
        assert np.array_equal(phased, [[1.0], [1j]])
        assert np.array_equal(N._canonical_signs(np.zeros((3, 2))), np.zeros((3, 2)))


class TestAccumulate:
    def test_single_sample_outer_product(self):
        v = np.arange(1.0, 5.0)
        acc = accumulate(CovarianceAccumulator.empty(4), v[None, :])
        assert acc.sample_count == 1
        assert np.allclose(acc.second_moment, np.outer(v, v), atol=1e-15)

    def test_additivity_matches_concatenation(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((7, 5)), rng.standard_normal((9, 5))
        split = accumulate(accumulate(CovarianceAccumulator.empty(5), a), b)
        joined = accumulate(CovarianceAccumulator.empty(5), np.vstack([a, b]))
        assert split.sample_count == joined.sample_count == 16
        assert np.max(np.abs(split.second_moment - joined.second_moment)) <= 1e-12

    def test_known_rank_two_generator(self):
        rng = np.random.default_rng(3)
        basis = rng.standard_normal((2, 12))
        samples = rng.standard_normal((1000, 2)) @ basis
        acc = accumulate(CovarianceAccumulator.empty(12), samples)
        lam = sym_eig(acc.normalized()).eigenvalues
        assert int(np.sum(lam > 1e-6 * lam[0])) == 2

    def test_order_independence(self):
        rng = np.random.default_rng(4)
        batches = [rng.standard_normal((rng.integers(1, 20), 6)) for _ in range(8)]
        fwd = CovarianceAccumulator.empty(6)
        rev = CovarianceAccumulator.empty(6)
        for b in batches:
            fwd = accumulate(fwd, b)
        for b in reversed(batches):
            rev = accumulate(rev, b)
        scale = np.abs(fwd.second_moment).max()
        assert np.max(np.abs(fwd.second_moment - rev.second_moment)) <= 1e-9 * scale

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(5)
        acc = accumulate(CovarianceAccumulator.empty(8), rng.standard_normal((40, 8)))
        m = acc.second_moment
        assert np.max(np.abs(m - m.T)) <= 1e-12 * np.abs(m).max()
        lam = sym_eig(acc.normalized()).eigenvalues
        assert np.all(lam >= -1e-9 * np.trace(acc.normalized()))

    def test_root_squares_to_the_moment(self):
        rng = np.random.default_rng(6)
        acc = accumulate(CovarianceAccumulator.empty(12), rng.standard_normal((30, 12)))
        r = acc.root()
        assert np.max(np.abs(r.T @ r - acc.normalized())) <= 1e-12

    def test_root_rank_is_the_sample_rank(self):
        rng = np.random.default_rng(7)
        acc = accumulate(CovarianceAccumulator.empty(64), rng.standard_normal((16, 64)))
        r = acc.root()
        assert np.count_nonzero(np.any(r != 0.0, axis=1)) == 16
        assert np.max(np.abs(r.T @ r - acc.normalized())) <= 1e-12
        assert np.array_equal(CovarianceAccumulator.empty(3).root(), np.zeros((3, 3)))

    @pytest.mark.parametrize("tokens", [30, 8])  # Cholesky root; eigh root
    def test_root_is_made_once_and_read_only(self, monkeypatch, tokens):
        rng = np.random.default_rng(6)
        acc = accumulate(CovarianceAccumulator.empty(12), rng.standard_normal((tokens, 12)))
        cholesky, eigh, calls = np.linalg.cholesky, np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(1) or cholesky(m))
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(1) or eigh(m))
        r = acc.root()
        assert acc.root() is r and len(calls) == 1
        with pytest.raises(ValueError):
            r[0, 0] = 1.0
        grown = accumulate(acc, rng.standard_normal((1, 12)))
        assert grown.root() is not r and len(calls) == 2

    @pytest.mark.parametrize("tokens", [30, 8])  # Cholesky root; eigh root
    def test_moment_and_root_refuse_in_place_writes(self, tokens):
        rng = np.random.default_rng(6)
        moment = np.eye(12)  # the caller's array: frozen in place, not copied
        made = [CovarianceAccumulator.empty(12), CovarianceAccumulator(12, moment, 1),
                accumulate(CovarianceAccumulator.empty(12), rng.standard_normal((tokens, 12)))]
        assert made[1].second_moment is moment
        for acc in made:
            for arr in (acc.second_moment, acc.root()):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0, 0] = 1.0
                with pytest.raises(ValueError, match="read-only"):
                    arr *= 2

    @pytest.mark.parametrize("dim", [9, 600])
    def test_moment_is_bitwise_the_out_of_place_formula(self, dim):
        rng = np.random.default_rng(8)
        acc = CovarianceAccumulator.empty(dim)
        expect = acc.second_moment
        for rows in (1, 4, 30, 7):
            batch = rng.standard_normal((dim, rows)).T  # column-major too
            update = batch.T @ batch
            expect = expect + (update + update.T) / 2.0
            acc = accumulate(acc, batch)
            assert np.array_equal(acc.second_moment, expect)

    @pytest.mark.parametrize("layout", ["C", "F", "column-strided", "reversed", "one-row"])
    def test_moment_is_exactly_symmetric(self, layout):
        # numpy's product of a strided batch with itself need not be symmetric
        base = np.random.default_rng(9).standard_normal((37, 513))
        batch = {"C": base, "F": np.asfortranarray(base), "column-strided": base[:, ::2],
                 "reversed": base[:, ::-1], "one-row": base[:1]}[layout]
        m = accumulate(CovarianceAccumulator.empty(batch.shape[1]), batch).second_moment
        assert np.array_equal(m, m.T)

    def test_input_not_mutated(self):
        acc = CovarianceAccumulator.empty(3)
        accumulate(acc, np.ones((2, 3)))
        assert acc.sample_count == 0 and np.all(acc.second_moment == 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            accumulate(CovarianceAccumulator.empty(3), np.ones((2, 4)))


def eigh_root(acc):
    """The eigendecomposition root √Λ·E^T of the normalized moment, eigenvalues
    at rounding level as 0: its nonzero rows are the moment's numerical rank."""
    eig = sym_eig(acc.normalized())
    lam = eig.eigenvalues
    lam = np.where(lam > acc.dim * np.finfo(np.float64).eps * lam[0], lam, 0.0)
    return np.sqrt(lam)[:, None] * eig.eigenvectors.T


def boundary_calibrations(dim):
    """Calibration tokens around the Cholesky/eigh boundary of a dim-wide Gram
    matrix: N in {dim-2, dim-1, dim, dim+1, 4·dim} random tokens, ten seeds
    each, then N in {dim, dim+1, 4·dim} tokens whose last column repeats an
    earlier one, repeats it up to 1e-12, or mixes two earlier ones."""
    for n in (dim - 2, dim - 1, dim, dim + 1, 4 * dim):
        for seed in range(10):
            yield f"random N={n} seed={seed}", random_tokens(n, dim, seed)
    for n in (dim, dim + 1, 4 * dim):
        for seed in range(10):
            tokens = random_tokens(n, dim, seed)
            i, j = np.random.default_rng(seed).choice(dim - 1, 2, replace=False)
            for kind, last in (("repeated", tokens[:, i]),
                               ("perturbed", tokens[:, i] + 1e-12 * tokens[:, j]),
                               ("mixed", 0.6 * tokens[:, i] - 0.8 * tokens[:, j])):
                dependent = tokens.copy()
                dependent[:, -1] = last
                yield f"{kind} N={n} seed={seed}", dependent


def nonzero_rows(r):
    return int(np.count_nonzero(np.any(r != 0.0, axis=1)))


class TestRootRoutes:
    @pytest.mark.parametrize("dim", [8, 16, 32])
    def test_root_squares_to_the_moment_with_the_eigh_roots_rank(self, dim):
        for name, tokens in boundary_calibrations(dim):
            acc = accumulate(CovarianceAccumulator.empty(dim), tokens)
            r = acc.root()
            assert np.max(np.abs(r.T @ r - acc.normalized())) <= 1e-12, name
            assert nonzero_rows(r) == nonzero_rows(eigh_root(acc)), name
            # the Cholesky factor, triangular, exactly where the moment has full rank
            full_rank = name.startswith("random") and len(tokens) >= dim
            assert np.all(np.tril(r, -1) == 0.0) == full_rank, name

    @pytest.mark.parametrize("dim", [8, 16])
    def test_gqa_conversion_has_the_eigh_roots_latent_rank_and_dead_dims(self, dim,
                                                                         monkeypatch):
        # kv_rank 20 exceeds model_dim, so the latent rank is the calibration rank
        src = CG.init_random_gqa(4, 2, 8, dim, seed=dim)
        target = GqlaConfig(model_dim=dim, num_heads=4, num_groups=2, head_dim=8,
                            value_head_dim=8, rope_head_dim=4, kv_rank=20, q_rank=dim)

        def outcome(acc):
            try:
                weights, report = CG.convert(src, acc, target)
            except GqlaError as exc:
                return type(exc)
            dead_columns = ~np.any(np.vstack([weights.k_up, weights.v_up]), axis=0)
            dead_rows = ~np.any(weights.kv_down, axis=1)
            return report.latent_rank, dead_columns.tolist(), dead_rows.tolist()

        grams = [(name, accumulate(CovarianceAccumulator.empty(dim), tokens))
                 for name, tokens in boundary_calibrations(dim)]
        routed = [outcome(acc) for _, acc in grams]
        monkeypatch.setattr(CovarianceAccumulator, "root", eigh_root)
        for (name, acc), got in zip(grams, routed):
            assert got == outcome(acc), name


def activation_sigma(w, n_samples, rng):
    """Second moment of activations a = w @ c, the way the converters build it."""
    acts = rng.standard_normal((n_samples, w.shape[1])) @ w.T
    return accumulate(CovarianceAccumulator.empty(w.shape[0]), acts)


class TestPcaFactor:
    def test_full_rank_reconstructs(self):
        rng = np.random.default_rng(9)
        w = rng.standard_normal((6, 10))
        sigma = activation_sigma(w, 64, rng)
        u, v = pca_factor(w, sigma, 6)
        assert np.max(np.abs(u @ v - w)) <= 1e-10
        assert np.max(np.abs(u.T @ u - np.eye(6))) <= 1e-10

    def test_planted_subspace_recovered_exactly(self):
        rng = np.random.default_rng(10)
        basis, _ = np.linalg.qr(rng.standard_normal((16, 4)))
        w = basis @ rng.standard_normal((4, 8))  # columns live in a 4-dim subspace
        sigma = activation_sigma(w, 200, rng)
        u, v = pca_factor(w, sigma, 4)
        assert weighted_error(w, u, v, sigma) < 1e-8

    def test_monte_carlo_optimality_spec_example(self):
        # 16x8, rank 4, seed 11, independently drawn PSD sigma; frozen instance
        rng = np.random.default_rng(11)
        w = rng.standard_normal((16, 8))
        a = rng.standard_normal((16, 16))
        sigma = CovarianceAccumulator(16, a @ a.T, 1)
        u, v = pca_factor(w, sigma, 4)
        err = weighted_error(w, u, v, sigma)
        for _ in range(100):
            b, _ = np.linalg.qr(rng.standard_normal((16, 4)))
            assert err <= weighted_error(w, b, b.T @ w, sigma) + 1e-9

    def test_monte_carlo_optimality_activation_sigma(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            w = rng.standard_normal((16, 8))
            sigma = activation_sigma(w, 256, rng)
            u, v = pca_factor(w, sigma, 4)
            err = weighted_error(w, u, v, sigma)
            for _ in range(100):
                b, _ = np.linalg.qr(rng.standard_normal((16, 4)))
                assert err <= weighted_error(w, b, b.T @ w, sigma) + 1e-9

    def test_rank_bounds(self):
        rng = np.random.default_rng(13)
        w = rng.standard_normal((5, 3))
        sigma = activation_sigma(w, 20, rng)
        with pytest.raises(ParameterError):
            pca_factor(w, sigma, 6)
        with pytest.raises(ParameterError):
            pca_factor(w, sigma, 0)

    def test_sigma_dim_mismatch(self):
        with pytest.raises(ShapeError):
            pca_factor(np.ones((4, 2)), CovarianceAccumulator.empty(5), 2)


def projector_gap(a, b):
    return np.max(np.abs(a @ a.T - b @ b.T))


class TestRootEig:
    def test_matches_sym_eig_of_the_moment(self):
        rng = np.random.default_rng(20)
        b = rng.standard_normal((12, 30)) * np.linspace(3.0, 0.5, 12)[:, None]
        dense = sym_eig(b.T @ b)
        res = root_eig(b, 12)
        scale = dense.eigenvalues[0]
        assert np.max(np.abs(res.eigenvalues - dense.eigenvalues[:12])) <= 1e-12 * scale
        # distinct eigenvalues: the same canonical columns, not only the subspace
        assert np.max(np.abs(res.eigenvectors - dense.eigenvectors[:, :12])) <= 1e-8
        for k in (1, 5, 12):
            assert projector_gap(root_eig(b, k).eigenvectors, dense.eigenvectors[:, :k]) <= 1e-9

    def test_sign_convention(self):
        u = root_eig(np.random.default_rng(21).standard_normal((6, 15)), 9).eigenvectors
        live = u[:, :6]  # 6 rows give the moment rank 6
        lead = np.argmax(np.abs(live), axis=0)
        assert np.all(live[lead, np.arange(6)] > 0)

    def test_columns_past_numerical_rank_are_zero(self):
        rng = np.random.default_rng(22)
        b = rng.standard_normal((4, 16)) @ rng.standard_normal((16, 40))  # rank 4 of 40
        res = root_eig(np.vstack([b, np.zeros((3, 40))]), 25)
        u = res.eigenvectors
        assert np.max(np.abs(u[:, :4].T @ u[:, :4] - np.eye(4))) <= 1e-12
        assert np.all(u[:, 4:] == 0.0) and np.all(res.eigenvalues[4:] == 0.0)
        assert np.all(res.eigenvalues[:4] > 0)
        assert projector_gap(u[:, :4], sym_eig(b.T @ b).eigenvectors[:, :4]) <= 1e-10
        zero = root_eig(np.zeros((2, 5)), 3)
        assert np.array_equal(zero.eigenvectors, np.zeros((5, 3)))
        assert np.array_equal(zero.eigenvalues, np.zeros(3))

    def test_rank_bounds(self):
        with pytest.raises(ParameterError):
            root_eig(np.ones((2, 4)), 5)
        with pytest.raises(ParameterError):
            root_eig(np.ones((2, 4)), 0)
        with pytest.raises(ShapeError):
            root_eig(np.ones(4), 1)


def with_singular_values(s, rows, width, seed):
    """A (rows x width) matrix with singular values s and random singular vectors."""
    rng = np.random.default_rng(seed)
    left, _ = np.linalg.qr(rng.standard_normal((rows, len(s))))
    right, _ = np.linalg.qr(rng.standard_normal((width, len(s))))
    return (left * s) @ right.T


def svd_rule_count(b, rank):
    """root_eig's numerical rank rule applied to b's singular values."""
    s = np.linalg.svd(b, compute_uv=False)
    tol = max(b.shape) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    return min(rank, int(np.count_nonzero(s > tol)))


class TestRootEigRoutes:
    def test_comoment_route_matches_the_moment_and_the_thin_svd(self):
        # wide roots take the co-moment, square and tall ones the moment itself
        for m, width, seed in ((12, 30, 30), (64, 200, 31), (40, 40, 32), (50, 20, 36)):
            n = min(m, width)
            b = with_singular_values(np.linspace(3.0, 0.5, n), m, width, seed)
            dense = sym_eig(b.T @ b)
            for k in (1, n // 2, n):
                assert N._gram_pairs(b, k)[2]  # the co-moment or moment route serves b
                res = root_eig(b, k)
                lam, u = N._svd_pairs(b, k)
                assert projector_gap(res.eigenvectors, dense.eigenvectors[:, :k]) <= 1e-12
                assert projector_gap(res.eigenvectors, u) <= 1e-12
                assert np.max(np.abs(res.eigenvalues - lam)) <= 1e-12 * lam[0]

    def test_ill_conditioned_root_takes_the_thin_svd(self):
        # the two trailing eigenvalues sit below the threshold: the co-moment
        # route serves the leading six alone, the thin SVD all eight
        s = np.array([1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 1e-5, 5e-6])
        assert (s[-1] / s[0]) ** 2 < N._GRAM_MIN_RATIO < (s[5] / s[0]) ** 2
        b = with_singular_values(s, 8, 24, 33)
        assert N._gram_pairs(b, 6)[2]
        assert not N._gram_pairs(b, 8)[2]
        res = root_eig(b, 8)
        lam, u = N._svd_pairs(b, 8)
        assert np.array_equal(res.eigenvalues, lam)
        assert np.array_equal(res.eigenvectors, N._canonical_signs(u))
        dense = sym_eig(b.T @ b)
        assert np.max(np.abs(res.eigenvalues - dense.eigenvalues[:8])) <= 1e-12
        assert projector_gap(res.eigenvectors[:, :6], dense.eigenvectors[:, :6]) <= 1e-12
        assert np.max(np.abs(res.eigenvectors.T @ res.eigenvectors - np.eye(8))) <= 1e-12

    def test_numerical_rank_count_is_the_svd_rule(self, monkeypatch):
        from gqla import convert_gqa as CG
        from gqla import convert_mla as CM
        from gqla.model import GqlaConfig, init_random, random_tokens

        from conftest import plant_bandrank1_gqa, plant_group_structured_mla

        calls = []

        def recording(b, rank):  # one call per item of a stack
            calls.extend((item, rank) for item in np.array(b).reshape((-1,) + np.shape(b)[-2:]))
            return root_eig(b, rank)

        monkeypatch.setattr(CG, "root_eig", recording)
        monkeypatch.setattr(CM, "root_eig", recording)
        calib = random_tokens(512, 64, 3)
        desk = dict(model_dim=64, num_heads=8, num_groups=2, head_dim=16, value_head_dim=16)
        for src, kv_rank, rope in ((CG.init_random_gqa(8, 2, 16, 64, seed=5), 14, 4),
                                   (CG.init_random_gqa(8, 2, 16, 64, seed=5), 48, 16),
                                   (plant_bandrank1_gqa(8, 2, 16, 64, seed=7), 48, 16)):
            CG.convert(src, calib, GqlaConfig(rope_head_dim=rope, kv_rank=kv_rank, q_rank=64,
                                              **desk))
        merged = CG.merge_heads(CG.init_random_gqa(8, 2, 16, 64, seed=5))
        CG.balance_and_joint_pca(merged, calib, 64, CG.freqfold_compress(merged, calib, 64, 0))
        mla = GqlaConfig(model_dim=64, num_heads=8, num_groups=8, head_dim=16,
                         value_head_dim=16, rope_head_dim=8, kv_rank=32, q_rank=48)
        for source in (init_random(mla, 21), plant_group_structured_mla(mla, groups=2, seed=5)):
            for groups in (1, 2, 4, 8):
                for tokens in (calib, calib[:1]):
                    CM.factor(source, mla, CM.calibrate(source, mla, tokens, groups))
        rng = np.random.default_rng(22)
        low = rng.standard_normal((4, 16)) @ rng.standard_normal((16, 40))
        calls += [(np.vstack([low, np.zeros((3, 40))]), 25), (np.zeros((2, 5)), 3),
                  (np.random.default_rng(20).standard_normal((12, 30)), 12),
                  (np.random.default_rng(21).standard_normal((6, 15)), 9)]
        assert len(calls) > 40
        for b, rank in calls:
            assert np.count_nonzero(root_eig(b, rank).eigenvalues) == svd_rule_count(b, rank)

    def test_repeated_calls_are_bitwise_equal(self):
        # one root per route: the co-moment, then the thin SVD and its zero columns
        for b, rank, comoment in (
                (with_singular_values(np.linspace(3.0, 0.5, 64), 64, 200, 34), 20, True),
                (with_singular_values(np.array([1.0, 0.5, 1e-7]), 3, 9, 35), 5, False)):
            assert N._gram_pairs(b, min(rank, len(b)))[2] == comoment
            first, again = root_eig(b, rank), root_eig(b.copy(), rank)
            assert np.array_equal(first.eigenvalues, again.eigenvalues)
            assert np.array_equal(first.eigenvectors, again.eigenvectors)


class TestStacks:
    """sym_eig and root_eig on a stack: each item bitwise as alone."""

    def stack(self, m, width, seed):
        # one item per route: well-conditioned (co-moment for m < width, the
        # moment otherwise), ill-conditioned (thin SVD), rank-deficient, zero
        rng = np.random.default_rng(seed)
        n = min(m, width)
        items = [with_singular_values(np.linspace(3.0, 0.5, n), m, width, seed),
                 with_singular_values(np.r_[np.linspace(1.0, 0.3, n - 2), 1e-5, 5e-6],
                                      m, width, seed + 1),
                 rng.standard_normal((m, 3)) @ rng.standard_normal((3, width)),
                 np.zeros((m, width))]
        return np.stack(items)

    @pytest.mark.parametrize("m, width", [(12, 30), (30, 12), (16, 16)])
    def test_root_eig_items_are_bitwise_the_unstacked_calls(self, m, width):
        b = self.stack(m, width, 40)
        n = min(m, width)
        served = [bool(N._gram_pairs(item, n)[2]) for item in b]
        assert served == [True, False, False, False]  # both routes in one stack
        for rank in (1, n // 2, n, width):
            stacked = root_eig(b, rank)
            nested = root_eig(b.reshape((2, 2) + b.shape[1:]), rank)
            assert stacked.eigenvectors.shape == (4, width, rank)
            for i, item in enumerate(b):
                alone = root_eig(item, rank)
                for res in (stacked, nested):
                    assert np.array_equal(res.eigenvalues.reshape(4, rank)[i], alone.eigenvalues)
                    assert np.array_equal(res.eigenvectors.reshape(4, width, rank)[i],
                                          alone.eigenvectors)

    def test_root_eig_reads_strided_stacks(self):
        # the MLA converter's roots are views into one (model_dim, groups*rows) product
        whole = np.random.default_rng(41).standard_normal((24, 4 * 40))
        roots = whole.reshape(24, 4, 40).transpose(1, 0, 2)
        stacked = root_eig(roots, 10)
        for j in range(4):
            alone = root_eig(np.ascontiguousarray(roots[j]), 10)
            assert np.array_equal(stacked.eigenvalues[j], alone.eigenvalues)
            assert np.array_equal(stacked.eigenvectors[j], alone.eigenvectors)

    def test_sym_eig_items_are_bitwise_the_unstacked_calls(self):
        ms = np.stack([random_symmetric(9, seed) for seed in range(5)]
                      + [np.eye(9), np.zeros((9, 9))])
        stacked = sym_eig(ms)
        for i, m in enumerate(ms):
            alone = sym_eig(m)
            assert np.array_equal(stacked.eigenvalues[i], alone.eigenvalues)
            assert np.array_equal(stacked.eigenvectors[i], alone.eigenvectors)

    def test_stack_checks_every_item(self):
        ms = np.stack([np.eye(4), np.eye(4)])
        ms[1, 0, 1] = 1e-3
        with pytest.raises(ShapeError):
            sym_eig(ms)
        ms[1, 0, 1] = np.nan
        with pytest.raises(ShapeError):
            sym_eig(ms)
        with pytest.raises(ShapeError):
            sym_eig(np.zeros((2, 3, 4)))
        with pytest.raises(ParameterError):
            root_eig(np.ones((3, 2, 4)), 5)
