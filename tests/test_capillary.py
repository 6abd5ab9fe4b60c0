"""Displacement pressure law and two-anchor drainage curves.

The curve oracle solves the exponent from the two anchor conditions in
closed form and evaluates the power law directly, independent of PcCurve.
"""

import json
import math

import numpy as np
import pytest

from drt import (
    BadOrdering,
    BadParams,
    InsufficientSamples,
    NonPositiveInput,
    PFunction,
    PcCurve,
    SaturationOutOfRange,
    build_pc_curve,
    evaluate_pc,
    export_pc_csv,
    fit_pfunction,
    load_pc_curve_json,
    pc_shape_features,
    pcd_from_permeability,
    save_pc_curve_json,
)


def curve_reference(p_cd, p_cu, s_wi, s_w_anchor, s_w):
    """Direct evaluation of the anchored power law."""
    s_we_anchor = (s_w_anchor - s_wi) / (1.0 - s_wi)
    if p_cu == p_cd:
        return p_cd
    inv_lam = math.log(p_cu / p_cd) / -math.log(s_we_anchor)
    s_we = (s_w - s_wi) / (1.0 - s_wi)
    return p_cd * s_we ** -inv_lam


class TestPFunction:
    def test_known_value(self):
        assert pcd_from_permeability(100.0, 0.25, PFunction(12.0, 0.5)) == \
            pytest.approx(0.6)

    def test_default_exponent_is_half(self):
        assert PFunction(3.0).e == 0.5

    def test_accepts_plain_tuple(self):
        assert pcd_from_permeability(100.0, 0.25, (12.0, 0.5)) == \
            pytest.approx(0.6)

    def test_higher_permeability_lowers_pressure(self):
        pfn = PFunction(10.0, 0.5)
        assert pcd_from_permeability(500.0, 0.2, pfn) < \
            pcd_from_permeability(5.0, 0.2, pfn)

    def test_rejects_nonpositive_inputs(self):
        pfn = PFunction(10.0, 0.5)
        with pytest.raises(NonPositiveInput):
            pcd_from_permeability(0.0, 0.2, pfn)
        with pytest.raises(NonPositiveInput):
            pcd_from_permeability(10.0, 0.0, pfn)
        with pytest.raises(NonPositiveInput):
            pcd_from_permeability(10.0, 1.0, pfn)
        with pytest.raises(NonPositiveInput):
            pcd_from_permeability(10.0, 0.2, PFunction(0.0, 0.5))


class TestFitPFunction:
    def test_inverts_noiseless_data(self):
        true = PFunction(12.0, 0.5)
        samples = [(k, phi, pcd_from_permeability(k, phi, true))
                   for k, phi in [(1.0, 0.1), (10.0, 0.2), (100.0, 0.25),
                                  (500.0, 0.3)]]
        fit = fit_pfunction(samples)
        assert fit.c == pytest.approx(12.0, rel=1e-9)
        assert fit.e == pytest.approx(0.5, rel=1e-9)

    def test_two_samples_suffice(self):
        true = PFunction(7.0, 0.4)
        samples = [(k, phi, pcd_from_permeability(k, phi, true))
                   for k, phi in [(2.0, 0.15), (80.0, 0.22)]]
        fit = fit_pfunction(samples)
        assert fit.c == pytest.approx(7.0, rel=1e-9)
        assert fit.e == pytest.approx(0.4, rel=1e-9)

    def test_single_ratio_constant_pressure_degenerates_to_flat(self):
        fit = fit_pfunction([(10.0, 0.2, 3.0), (20.0, 0.4, 3.0)])
        assert fit.e == 0.0
        assert fit.c == pytest.approx(3.0)

    def test_single_ratio_varying_pressure_is_unfittable(self):
        with pytest.raises(InsufficientSamples):
            fit_pfunction([(10.0, 0.2, 3.0), (20.0, 0.4, 5.0)])

    def test_needs_two_samples(self):
        with pytest.raises(InsufficientSamples):
            fit_pfunction([(10.0, 0.2, 3.0)])

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(NonPositiveInput):
            fit_pfunction([(10.0, 0.2, 3.0), (20.0, -0.4, 5.0)])

    def test_rejects_malformed_rows(self):
        with pytest.raises(BadParams):
            fit_pfunction([(10.0, 0.2), (20.0, 0.4)])


class TestBuildPcCurve:
    def test_known_exponent(self):
        curve = build_pc_curve(50.0, 400.0, 0.10, 0.19)
        assert 1.0 / curve.lam == pytest.approx(0.9030899869919434)
        assert curve.evaluate(1.0) == pytest.approx(50.0)
        assert curve.evaluate(0.19) == pytest.approx(400.0)

    def test_anchors_hold_on_random_quadruples(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            p_cd = float(rng.uniform(0.1, 200.0))
            p_cu = p_cd * float(rng.uniform(1.0 + 1e-9, 50.0))
            s_wi = float(rng.uniform(0.01, 0.6))
            anchor = float(rng.uniform(s_wi + 1e-6, 0.99))
            curve = build_pc_curve(p_cd, p_cu, s_wi, anchor)
            assert abs(curve.evaluate(1.0) - p_cd) / p_cd < 1e-9
            assert abs(curve.evaluate(anchor) - p_cu) / p_cu < 1e-9

    def test_matches_closed_form_reference(self):
        rng = np.random.default_rng(1)
        for trial in range(50):
            p_cd = float(rng.uniform(1.0, 100.0))
            p_cu = p_cd * float(rng.uniform(1.5, 20.0))
            s_wi = float(rng.uniform(0.05, 0.4))
            anchor = float(rng.uniform(s_wi + 0.01, 0.9))
            curve = build_pc_curve(p_cd, p_cu, s_wi, anchor)
            for s_w in np.linspace(s_wi + 1e-3, 1.0, 17):
                want = curve_reference(p_cd, p_cu, s_wi, anchor, s_w)
                assert curve.evaluate(float(s_w)) == pytest.approx(want, rel=1e-12)

    def test_strictly_decreasing(self):
        curve = build_pc_curve(50.0, 400.0, 0.10, 0.19)
        s = np.linspace(0.11, 1.0, 500)
        pc = curve.evaluate(s)
        assert (np.diff(pc) < 0).all()

    def test_flat_curve_when_pressures_equal(self):
        curve = build_pc_curve(75.0, 75.0, 0.2, 0.4)
        assert math.isinf(curve.lam)
        assert curve.evaluate(0.5) == 75.0
        assert curve.evaluate(1.0) == 75.0

    def test_rejects_nonpositive_entry_pressure(self):
        with pytest.raises(NonPositiveInput):
            build_pc_curve(0.0, 10.0, 0.1, 0.2)

    # an infinite p_cu gave lam = 0, which evaluate divides by; NaN gave a
    # NaN lam, which to_json_dict wrote as NaN
    @pytest.mark.parametrize("p_cd, p_cu", [
        (0.44, math.inf), (0.44, math.nan), (math.inf, math.inf),
        (math.nan, 10.0)])
    def test_rejects_non_finite_pressures(self, p_cd, p_cu):
        with pytest.raises(NonPositiveInput, match="must be finite"):
            build_pc_curve(p_cd, p_cu, 0.1)

    def test_rejects_bad_saturation_ordering(self):
        with pytest.raises(BadOrdering):
            build_pc_curve(10.0, 20.0, 0.3, 0.2)
        with pytest.raises(BadOrdering):
            build_pc_curve(10.0, 20.0, 0.0, 0.2)
        with pytest.raises(BadOrdering):
            build_pc_curve(10.0, 20.0, 0.3, 1.0)

    def test_rejects_inverted_pressures(self):
        with pytest.raises(BadOrdering):
            build_pc_curve(30.0, 20.0, 0.1, 0.2)


class TestEvaluate:
    def test_function_and_method_agree(self):
        curve = build_pc_curve(50.0, 400.0, 0.10, 0.19)
        assert evaluate_pc(curve, 0.5) == curve.evaluate(0.5)

    def test_scalar_in_scalar_out(self):
        curve = build_pc_curve(50.0, 400.0, 0.10, 0.19)
        assert isinstance(curve.evaluate(0.5), float)

    def test_array_in_array_out(self):
        curve = build_pc_curve(50.0, 400.0, 0.10, 0.19)
        out = curve.evaluate(np.array([0.5, 0.7]))
        assert out.shape == (2,)

    def test_rejects_saturation_at_or_below_irreducible(self):
        curve = build_pc_curve(50.0, 400.0, 0.10, 0.19)
        with pytest.raises(SaturationOutOfRange):
            curve.evaluate(0.10)
        with pytest.raises(SaturationOutOfRange):
            curve.evaluate(0.05)

    def test_rejects_saturation_above_one(self):
        curve = build_pc_curve(50.0, 400.0, 0.10, 0.19)
        with pytest.raises(SaturationOutOfRange):
            curve.evaluate(1.01)

    def test_shape_features(self):
        curve = build_pc_curve(50.0, 400.0, 0.10, 0.19)
        assert pc_shape_features(curve) == (50.0, 400.0, 0.10)


class TestCurveJson:
    def test_round_trip_preserves_evaluation(self, tmp_path):
        curve = build_pc_curve(50.0, 400.0, 0.10, 0.19)
        save_pc_curve_json(curve, tmp_path / "pc.json")
        again = load_pc_curve_json(tmp_path / "pc.json")
        for s in (0.15, 0.3, 0.77, 1.0):
            assert again.evaluate(s) == pytest.approx(curve.evaluate(s), rel=1e-12)
        assert again.s_w_anchor == pytest.approx(curve.s_w_anchor, rel=1e-12)

    def test_json_keys_and_flat_lambda(self, tmp_path):
        curve = build_pc_curve(75.0, 75.0, 0.2, 0.4)
        save_pc_curve_json(curve, tmp_path / "pc.json")
        doc = json.loads((tmp_path / "pc.json").read_text())
        assert set(doc) == {"p_cd", "p_cu", "s_wi", "lambda"}
        assert doc["lambda"] is None
        again = load_pc_curve_json(tmp_path / "pc.json")
        assert math.isinf(again.lam)
        assert again.evaluate(0.9) == 75.0

    def test_rejects_malformed_document(self):
        with pytest.raises(BadParams):
            PcCurve.from_json_dict({"p_cd": 1.0})


class TestCsvExport:
    def test_layout(self, tmp_path):
        curve = build_pc_curve(50.0, 400.0, 0.10, 0.19)
        export_pc_csv(curve, tmp_path / "pc.csv")
        lines = (tmp_path / "pc.csv").read_text().splitlines()
        assert lines[0] == "s_w,pc_psi"
        assert len(lines) == 102

    def test_rows_span_valid_range_and_decrease(self, tmp_path):
        curve = build_pc_curve(50.0, 400.0, 0.10, 0.19)
        export_pc_csv(curve, tmp_path / "pc.csv")
        rows = [tuple(map(float, ln.split(",")))
                for ln in (tmp_path / "pc.csv").read_text().splitlines()[1:]]
        s = [r[0] for r in rows]
        pc = [r[1] for r in rows]
        assert s[0] == pytest.approx(0.101)
        assert s[-1] == 1.0
        assert pc[-1] == pytest.approx(50.0)
        assert all(a > b for a, b in zip(pc, pc[1:]))

    def test_custom_point_count(self, tmp_path):
        curve = build_pc_curve(10.0, 20.0, 0.2, 0.5)
        export_pc_csv(curve, tmp_path / "pc.csv", n_points=11)
        assert len((tmp_path / "pc.csv").read_text().splitlines()) == 12

    def test_deterministic_bytes(self, tmp_path):
        curve = build_pc_curve(50.0, 400.0, 0.10, 0.19)
        export_pc_csv(curve, tmp_path / "a.csv")
        export_pc_csv(curve, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
