import numpy as np
import pytest

from gqla.errors import ShapeError
from gqla.rope import RopeSpec, apply_folded_rope, apply_rope

SPEC = RopeSpec(dim=8)


def test_position_zero_is_identity():
    v = np.random.default_rng(0).standard_normal(8)
    assert np.array_equal(apply_rope(SPEC, v, 0), v)


def test_norm_preserved():
    rng = np.random.default_rng(1)
    for t in (1, 3, 17, 250):
        v = rng.standard_normal(8)
        assert abs(np.linalg.norm(apply_rope(SPEC, v, t)) - np.linalg.norm(v)) <= 1e-12


def test_inner_product_depends_only_on_relative_position():
    rng = np.random.default_rng(2)
    q, k = rng.standard_normal(8), rng.standard_normal(8)
    a = np.dot(apply_rope(SPEC, q, 5), apply_rope(SPEC, k, 3))
    b = np.dot(apply_rope(SPEC, q, 9), apply_rope(SPEC, k, 7))
    assert abs(a - b) <= 1e-10


def test_rejects_odd_length():
    with pytest.raises(ShapeError):
        apply_rope(SPEC, np.zeros(7), 1)
    with pytest.raises(ShapeError):
        RopeSpec(dim=7)


def test_pair_angles_follow_the_ladder():
    # pair k rotates by t * base**(-2k/dim): probe with one-hot pairs
    t = 4
    for k in range(SPEC.dim // 2):
        v = np.zeros(SPEC.dim)
        v[2 * k] = 1.0
        out = apply_rope(SPEC, v, t)
        angle = t * SPEC.base ** (-2.0 * k / SPEC.dim)
        assert abs(out[2 * k] - np.cos(angle)) <= 1e-12
        assert abs(out[2 * k + 1] - np.sin(angle)) <= 1e-12


class TestFolded:
    def test_single_block_matches_plain(self):
        v = np.random.default_rng(3).standard_normal(8)
        assert np.array_equal(apply_folded_rope(SPEC, v, 6), apply_rope(SPEC, v, 6))

    def test_matches_per_block_application(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(16)  # two blocks
        got = apply_folded_rope(SPEC, v, 9)
        expect = np.concatenate([apply_rope(SPEC, v[:8], 9), apply_rope(SPEC, v[8:], 9)])
        assert np.array_equal(got, expect)

    def test_block_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(24).reshape(3, 8)
        perm = [2, 0, 1]
        before = apply_folded_rope(SPEC, v[perm].reshape(-1), 11)
        after = apply_folded_rope(SPEC, v.reshape(-1), 11).reshape(3, 8)[perm].reshape(-1)
        assert np.array_equal(before, after)

    def test_rejects_indivisible_length(self):
        with pytest.raises(ShapeError):
            apply_folded_rope(SPEC, np.zeros(12), 1)


@pytest.mark.parametrize("rope,shape", [
    (apply_rope, (40, 8)),          # one vector per position
    (apply_rope, (40, 3, 8)),       # several vectors per position
    (apply_folded_rope, (40, 24)),  # three folded blocks per position
])
def test_position_vector_matches_per_position_loop(rope, shape):
    v = np.random.default_rng(7).standard_normal(shape)
    positions = np.arange(shape[0]) * 37 % 101
    expect = np.stack([rope(SPEC, v[i], int(t)) for i, t in enumerate(positions)])
    assert np.array_equal(rope(SPEC, v, positions), expect)


def test_position_vector_must_align_with_leading_axis():
    with pytest.raises(ShapeError):
        apply_rope(SPEC, np.zeros((4, 8)), np.arange(3))
    with pytest.raises(ShapeError):
        apply_rope(SPEC, np.zeros(8), np.arange(1))
    with pytest.raises(ShapeError):
        apply_folded_rope(SPEC, np.zeros(16), np.arange(2))


def test_per_pair_rotations_commute_with_rope():
    # a block-diagonal rotation acting within each frequency pair commutes
    # with the rotary map; this underpins the converter's score preservation
    rng = np.random.default_rng(6)
    v = rng.standard_normal(8)
    rot = np.zeros((8, 8))
    for k in range(4):
        theta = rng.uniform(0, 2 * np.pi)
        c, s = np.cos(theta), np.sin(theta)
        rot[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[c, -s], [s, c]]
    for t in (1, 5, 40):
        a = apply_rope(SPEC, rot @ v, t)
        b = rot @ apply_rope(SPEC, v, t)
        assert np.max(np.abs(a - b)) <= 1e-12
