import dataclasses

import numpy as np
import pytest

from gqla import roofline as R
from gqla.errors import ParameterError
from gqla.model import canonical_config

CFG = canonical_config()

# gpu, path, g, s_q, cache B/tok, intensity, mem us, cmp us, tok/s (thousands)
REFERENCE_ROWS = [
    ("H100", R.MQA_ABSORB, 1, 1, 1152, 241.78, 2.82, 2.31, 354),
    ("H100", R.MQA_ABSORB, 1, 2, 1152, 483.56, 2.82, 4.61, 434),
    ("H20", R.MQA_ABSORB, 1, 1, 1152, 241.78, 2.36, 15.42, 65),
    ("H20", R.MQA_ABSORB, 1, 2, 1152, 483.56, 2.36, 30.84, 65),
    ("H20", R.GQA, 8, 1, 4224, 19.39, 8.65, 4.53, 116),
    ("H20", R.GQA, 8, 2, 4224, 38.79, 8.65, 9.06, 221),
    ("H20", R.GQA, 4, 1, 2176, 37.65, 4.45, 4.53, 221),
    ("H20", R.GQA, 4, 2, 2176, 75.29, 4.45, 9.06, 221),
]


class TestRidge:
    def test_h100(self):
        assert abs(R.ridge(R.H100) - 295.2) <= 0.1

    def test_h20_exact(self):
        assert R.ridge(R.H20) == 37.0

    def test_balanced_hardware(self):
        assert R.ridge(R.HardwareSpec("flat", 1e12, 1e12)) == 1.0


class TestBytesPerToken:
    def test_latent(self):
        assert R.bytes_per_token(CFG, R.MQA_ABSORB) == 1152

    def test_expanded(self):
        assert R.bytes_per_token(CFG, R.GQA, 8) == 4224
        assert R.bytes_per_token(CFG, R.GQA, 4) == 2176

    def test_asymmetric_value_dim(self):
        cfg = dataclasses.replace(CFG, value_head_dim=256)
        assert R.bytes_per_token(cfg, R.GQA, 8) == 2 * (8 * (128 + 256) + 64)

    @pytest.mark.parametrize("g", [0, -1, 3])
    def test_expanded_groups_that_do_not_divide_the_heads_rejected(self, g):
        for count in (lambda: R.elements_per_token(CFG, R.GQA, g),
                      lambda: R.bytes_per_token(CFG, R.GQA, g),
                      lambda: R.step_time(R.H20, CFG, R.GQA, g=g)):
            with pytest.raises(ParameterError, match="g must divide"):
                count()

    def test_unknown_path(self):
        with pytest.raises(ParameterError):
            R.bytes_per_token(CFG, "MHA")


def intensity_of(config, path, g=None, s_q=1):
    return R.step_time(R.H20, config, path, g=g, s_q=s_q).intensity


class TestIntensity:
    def test_latent_single_query(self):
        assert intensity_of(CFG, R.MQA_ABSORB, s_q=1) == pytest.approx(241.78, abs=0.01)

    def test_expanded_points(self):
        assert intensity_of(CFG, R.GQA, 8, 2) == pytest.approx(38.79, abs=0.01)
        assert intensity_of(CFG, R.GQA, 4, 1) == pytest.approx(37.65, abs=0.01)

    def test_linear_in_s_q(self):
        for path, g in [(R.MQA_ABSORB, None), (R.GQA, 8)]:
            base = intensity_of(CFG, path, g, 1)
            for s_q in (2, 3, 7):
                assert intensity_of(CFG, path, g, s_q) == pytest.approx(s_q * base, rel=1e-12)

    def test_halving_heads_halves_intensity(self):
        half = dataclasses.replace(CFG, num_heads=64)
        for path, g in [(R.MQA_ABSORB, None), (R.GQA, 8), (R.GQA, 4)]:
            assert intensity_of(half, path, g, 1) == \
                pytest.approx(intensity_of(CFG, path, g, 1) / 2, rel=1e-12)

    def test_matches_flops_over_bytes_exactly(self):
        for path, g in [(R.MQA_ABSORB, None), (R.GQA, 8), (R.GQA, 4), (R.GQA, 2)]:
            for s_q in (1, 2):
                closed = intensity_of(CFG, path, g, s_q)
                ratio = R.flops_per_step(CFG, path, s_q, 8192) / \
                    (8192 * R.bytes_per_token(CFG, path, g))
                assert closed == pytest.approx(ratio, rel=1e-12)


class TestStepTime:
    @pytest.mark.parametrize("row", REFERENCE_ROWS)
    def test_reference_rows(self, row):
        gpu, path, g, s_q, cache, intensity, mem_us, cmp_us, ktok = row
        hw = R.H100 if gpu == "H100" else R.H20
        p = R.step_time(hw, CFG, path, g=g, s_q=s_q, length=8192)
        assert p.cache_bytes_per_token == cache
        assert abs(p.intensity - intensity) <= 0.5
        assert abs(p.mem_time * 1e6 - mem_us) <= 0.02
        assert abs(p.cmp_time * 1e6 - cmp_us) <= 0.02
        assert abs(p.throughput / 1e3 - ktok) <= 1.0
        assert p.step_time == max(p.mem_time, p.cmp_time)
        assert p.throughput == pytest.approx(p.s_q / p.step_time, rel=1e-12)

    def test_latent_bytes_independent_of_s_q(self):
        one = R.step_time(R.H100, CFG, R.MQA_ABSORB, s_q=1)
        two = R.step_time(R.H100, CFG, R.MQA_ABSORB, s_q=2)
        assert one.cache_bytes_per_token == two.cache_bytes_per_token
        assert one.mem_time == two.mem_time

    def test_times_linear_in_length(self):
        a = R.step_time(R.H20, CFG, R.GQA, g=8, s_q=2, length=8192)
        b = R.step_time(R.H20, CFG, R.GQA, g=8, s_q=2, length=16384)
        assert b.mem_time == pytest.approx(2 * a.mem_time, rel=1e-12)
        assert b.cmp_time == pytest.approx(2 * a.cmp_time, rel=1e-12)
        assert b.intensity == pytest.approx(a.intensity, rel=1e-12)

    def test_expanded_groups_must_divide_the_heads(self):
        for g in (3, 256, 0, -8):
            with pytest.raises(ParameterError):
                R.step_time(R.H20, CFG, R.GQA, g=g)
        assert R.step_time(R.H20, CFG, R.GQA, g=128).g == 128
        assert R.step_time(R.H20, CFG, R.MQA_ABSORB, g=3).g == 1  # one latent group

    @pytest.mark.parametrize("counts", [dict(length=10 ** 400), dict(s_q=10 ** 400),
                                        dict(length=10 ** 200, s_q=10 ** 200)],
                             ids=["length", "s_q", "product"])
    def test_counts_past_the_float_range_rejected(self, counts):
        with pytest.raises(ParameterError, match="too large"):
            R.step_time(R.H20, CFG, R.GQA, g=8, **counts)

    def test_memory_bound_iff_under_ridge(self):
        for hw in (R.H100, R.H20):
            top = R.ridge(hw)
            for path, g in [(R.MQA_ABSORB, None), (R.GQA, 8), (R.GQA, 4), (R.GQA, 1)]:
                for s_q in (1, 2, 4):
                    p = R.step_time(hw, CFG, path, g=g, s_q=s_q)
                    memory_bound = p.step_time == p.mem_time
                    if abs(p.intensity - top) > 1e-9 * top:
                        assert memory_bound == (p.intensity <= top)


class TestOperatingTable:
    def test_default_reproduces_all_reference_rows(self):
        points = R.operating_table([R.H100, R.H20], CFG)
        assert len(points) == 8
        for p, row in zip(points, REFERENCE_ROWS):
            assert (p.gpu, p.path, p.g, p.s_q) == row[:4]

    def test_only_the_h100_preset_gets_the_latent_rows_alone(self):
        assert R.default_rows(R.H100) == R._LATENT_ROWS
        assert len(R.default_rows(R.HardwareSpec("H100", 1e15, 1e12))) == 6

    def test_explicit_rows_cross_product(self):
        points = R.operating_table([R.H100, R.H20], CFG, rows=[(R.GQA, 8, 2)])
        assert [(p.gpu, p.g) for p in points] == [("H100", 8), ("H20", 8)]


class TestRecommend:
    def test_h100_prefers_the_latent_path(self):
        rec = R.recommend(R.H100, CFG, allow_mtp=False)
        assert (rec.path, rec.s_q) == (R.MQA_ABSORB, 1)
        assert rec.step_seconds == pytest.approx(2.82e-6, abs=0.02e-6)

    def test_h20_with_mtp_pins_the_ridge(self):
        rec = R.recommend(R.H20, CFG, allow_mtp=True)
        assert rec.path == R.GQA
        assert (rec.g, rec.s_q) == (8, 2)
        assert abs(rec.throughput / 1e3 - 221) <= 1.0

    def test_h20_without_mtp_picks_the_light_point(self):
        rec = R.recommend(R.H20, CFG, allow_mtp=False)
        assert (rec.path, rec.g, rec.s_q) == (R.GQA, 4, 1)
        assert "kv_rank <= 256" in rec.note

    def test_max_g_caps_the_group_axis(self):
        rec = R.recommend(R.H20, CFG, allow_mtp=True, max_g=4)
        assert rec.g <= 4
