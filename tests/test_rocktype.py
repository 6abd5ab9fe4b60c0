"""Rock-type catalog engine, code decoding, consistency check, chart."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drt import (
    BadParams,
    CamoCoefficients,
    CamoRelation,
    CatalogRule,
    ChartSample,
    DEFAULT_CAMO,
    MalformedCode,
    NonPositiveInput,
    NonPositiveValue,
    PERM_CLASS_BOUNDS,
    PFunction,
    SWI_CLASS_BOUNDS,
    camo_check,
    classify,
    decode_code,
    default_catalog,
    emit_camo_chart,
    fit_camo,
    load_catalog,
    pcd_from_permeability,
    save_catalog,
)
from drt.rocktype import _geomspace


def sample_for(rule):
    """A (k, p_cd, p_cu, s_wi) quadruple satisfying every rule predicate."""
    if rule.code == "LD5":
        return 0.05, 50.0, 300.0, 0.10
    k_hi = rule.k_max if rule.k_max is not None else 4.0 * rule.k_min
    k = 0.5 * (rule.k_min + k_hi)

    def pressure(pred):
        op, bound = pred
        return 0.75 * bound if op == "lt" else 1.25 * bound

    return k, pressure(rule.p_cd), pressure(rule.p_cu), \
        0.5 * (rule.swi_min + rule.swi_max)


class TestCatalogTable:
    def test_row_count_and_order(self):
        codes = [r.code for r in default_catalog()]
        assert codes == ["L111", "L121", "L231", "L241", "L242", "L351",
                         "L352", "L361", "L372", "L373", "L374", "L382",
                         "L461", "L492", "LD5"]

    def test_duplicate_row_pair(self):
        rules = {r.code: r for r in default_catalog()}
        a, b = rules["L372"], rules["L382"]
        assert (a.k_min, a.k_max, a.p_cu, a.p_cd, a.swi_min, a.swi_max) == \
            (b.k_min, b.k_max, b.p_cu, b.p_cd, b.swi_min, b.swi_max)

    def test_perm_digit_matches_bounds(self):
        for rule in default_catalog():
            if rule.code == "LD5":
                continue
            lo, hi = PERM_CLASS_BOUNDS[rule.code[1]]
            assert rule.k_min == lo
            assert rule.k_max == (None if math.isinf(hi) else hi)

    def test_swi_digit_matches_bounds(self):
        for rule in default_catalog():
            if rule.code == "LD5":
                continue
            lo, hi = SWI_CLASS_BOUNDS[rule.code[3]]
            assert (rule.swi_min, rule.swi_max) == (lo, hi)


class TestClassify:
    def test_reachable_rows_round_trip(self):
        # L382 sits behind an identical earlier row, so it can never win
        rules = default_catalog()
        for idx, rule in enumerate(rules):
            if rule.code == "L382":
                continue
            k, p_cd, p_cu, s_wi = sample_for(rule)
            res = classify(k, (p_cd, p_cu, s_wi))
            assert res.code == rule.code
            assert res.rule_id == idx
            assert res.classified

    def test_known_examples(self):
        res = classify(80.0, (50.0, 300.0, 0.10))
        assert res.code == "L111" and res.rule_id == 0
        assert classify(30.0, (90.0, 600.0, 0.10)).code == "L231"

    def test_low_permeability_short_circuits(self):
        res = classify(0.05, (50.0, 300.0, 0.10))
        assert res.code == "LD5"
        assert res.rule_id == 14
        assert res.classified

    def test_first_match_wins(self):
        k, p_cd, p_cu, s_wi = sample_for(default_catalog()[8])  # L372's box
        assert classify(k, (p_cd, p_cu, s_wi)).code == "L372"

    def test_perm_boundary_moves_only_the_perm_digit(self):
        below = classify(50.0, (90.0, 300.0, 0.10))
        above = classify(65.0, (90.0, 300.0, 0.10))
        assert below.code == "L231"
        assert above.code == "L111"
        assert below.code[3] == above.code[3]

    def test_unclassified_reports_nearest_rule(self):
        res = classify(80.0, (50.0, 300.0, 0.50))
        assert res.code == "UNCLASSIFIED"
        assert not res.classified
        assert res.rule_id is None
        assert res.nearest_code == "L111"
        assert res.nearest_rule_id == 0
        assert res.violations == ("s_wi=0.5 not below 0.135",)

    def test_nearest_rule_prefers_fewest_violations(self):
        # k in class 2 with L241-style pressures but an s_wi digit of 3:
        # L241/L242 each fail once (s_wi), L231 fails pressure tests too
        res = classify(30.0, (20.0, 800.0, 0.22))
        assert res.code == "UNCLASSIFIED"
        assert res.nearest_code == "L241"
        assert len(res.violations) == 1

    def test_custom_catalog(self):
        rules = [CatalogRule(code="X1", k_min=10.0)]
        res = classify(50.0, (5.0, 6.0, 0.10), rules)
        assert res.code == "X1" and res.rule_id == 0
        miss = classify(5.0, (5.0, 6.0, 0.10), rules)
        assert miss.code == "UNCLASSIFIED"
        assert miss.nearest_code == "X1"

    def test_low_permeability_without_ld5_row(self):
        rules = [CatalogRule(code="X1", k_min=10.0)]
        res = classify(0.05, (5.0, 6.0, 0.10), rules)
        assert res.code == "LD5"
        assert res.rule_id is None

    def test_empty_catalog_is_rejected(self):
        with pytest.raises(BadParams):
            classify(1.0, (10.0, 100.0, 0.1), [])

    def test_validation(self):
        with pytest.raises(NonPositiveValue):
            classify(0.0, (50.0, 300.0, 0.10))
        with pytest.raises(NonPositiveValue):
            classify(10.0, (0.0, 300.0, 0.10))
        with pytest.raises(NonPositiveValue):
            classify(10.0, (50.0, -1.0, 0.10))
        with pytest.raises(BadParams):
            classify(10.0, (50.0, 300.0, 1.0))
        with pytest.raises(BadParams):
            classify(10.0, (50.0, 300.0, -0.1))

    def test_result_json_classified(self):
        doc = classify(80.0, (50.0, 300.0, 0.10), phi=0.21, modality="Dual",
                       camo_consistent=True,
                       camo_deviation_decades=0.12).to_json_dict()
        assert doc["code"] == "L111"
        assert doc["rule_id"] == 0
        assert doc["inputs"] == {"k_md": 80.0, "p_cd_psi": 50.0,
                                 "p_cu_psi": 300.0, "s_wi": 0.10,
                                 "phi": 0.21, "modality": "Dual"}
        assert doc["camo"] == {"deviation": 0.12, "consistent": True}
        assert doc["violations"] == []
        assert "nearest_code" not in doc

    def test_result_json_unclassified(self):
        doc = classify(80.0, (50.0, 300.0, 0.50)).to_json_dict()
        assert doc["code"] == "UNCLASSIFIED"
        assert doc["rule_id"] is None
        assert doc["camo"] is None
        assert doc["nearest_code"] == "L111"
        assert doc["nearest_rule_id"] == 0
        assert doc["violations"] == ["s_wi=0.5 not below 0.135"]


class TestDecodeCode:
    def test_full_code(self):
        d = decode_code("L492")
        assert d.reservoir is True
        assert d.perm_class == "4"
        assert d.perm_range_md == (0.1, 1.0)
        assert d.pc_shape_class == 9
        assert d.swi_class == 2
        assert d.swi_range == (0.135, 0.205)

    def test_open_ended_perm_class(self):
        d = decode_code("L111")
        assert d.perm_range_md == (60.0, math.inf)

    def test_non_reservoir_code(self):
        d = decode_code("LD5")
        assert d.reservoir is False
        assert d.perm_class == "D5"
        assert d.perm_range_md == (0.0, 0.1)
        assert d.pc_shape_class is None
        assert d.swi_class is None

    def test_swi_digit_without_tabulated_range(self):
        d = decode_code("L119")
        assert d.swi_class == 9
        assert d.swi_range is None

    def test_malformed_codes(self):
        for bad in ("", "L", "X111", "L011", "L511", "L1111", "l111",
                    "L10", "LD4", "L1a1"):
            with pytest.raises(MalformedCode):
                decode_code(bad)

    def test_json_uses_null_for_infinite_bound(self):
        doc = decode_code("L111").to_json_dict()
        assert doc["perm_range_md"] == [60.0, None]


class TestCamoCheck:
    def test_on_curve_is_consistent(self):
        k = DEFAULT_CAMO["connected"].permeability(0.2)
        res = camo_check(DEFAULT_CAMO, 0.2, k, "connected")
        assert res.consistent is True
        assert res.deviation_decades == pytest.approx(0.0, abs=1e-12)

    def test_decade_off_is_inconsistent(self):
        k = DEFAULT_CAMO["connected"].permeability(0.2) * 10.0
        res = camo_check(DEFAULT_CAMO, 0.2, k, "connected")
        assert res.consistent is False
        assert res.deviation_decades == pytest.approx(1.0)

    def test_custom_tolerance(self):
        k = DEFAULT_CAMO["connected"].permeability(0.2) * 10.0
        res = camo_check(DEFAULT_CAMO, 0.2, k, "connected", tol_decades=1.5)
        assert res.consistent is True

    def test_boundary_deviation_counts_as_consistent(self):
        k = DEFAULT_CAMO["connected"].permeability(0.2) * 10.0 ** 0.5
        res = camo_check(DEFAULT_CAMO, 0.2, k, "connected")
        assert res.consistent is True
        assert res.deviation_decades == pytest.approx(0.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveValue):
            camo_check(DEFAULT_CAMO, 0.0, 1.0, "connected")
        with pytest.raises(NonPositiveValue):
            camo_check(DEFAULT_CAMO, 0.2, 0.0, "connected")


class TestCatalogIo:
    def test_round_trip(self, tmp_path):
        rules = default_catalog()
        save_catalog(rules, tmp_path / "catalog.json")
        again = load_catalog(tmp_path / "catalog.json")
        assert again == rules

    def test_rule_json_round_trip(self):
        for rule in default_catalog():
            assert CatalogRule.from_json_dict(rule.to_json_dict()) == rule

    def test_rejects_bad_pressure_op(self, tmp_path):
        doc = [{"code": "X1", "p_cu": {"op": "le", "psi": 5.0}}]
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(BadParams):
            load_catalog(path)

    def test_rejects_empty_code(self):
        with pytest.raises(BadParams):
            CatalogRule.from_json_dict({"code": ""})

    @pytest.mark.parametrize("rule, match", [
        ({"code": "X1", "p_cu": 3}, "p_cu must be a JSON object"),
        ({"code": "X1", "p_cd": ["lt", 5.0]}, "p_cd must be a JSON object"),
        ({"code": "X1", "p_cu": {"op": ["lt"], "psi": 5.0}},
         "p_cu.op must be a JSON string"),
        ({"code": 7}, "code must be a JSON string"),
        (5, "catalog rule must be a JSON object"),
    ])
    def test_rejects_fields_of_the_wrong_json_type(self, tmp_path, rule, match):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([rule]))
        with pytest.raises(BadParams, match=match):
            load_catalog(path)


class TestCamoChart:
    def samples(self):
        return [
            ChartSample(phi=0.2, k_md=4.0, camo_class="connected", code="L111"),
            ChartSample(phi=0.1, k_md=0.05, camo_class="micropore", code="LD5"),
            ChartSample(phi=0.15, k_md=0.7, camo_class="non_connected"),
        ]

    def test_svg_structure(self, tmp_path):
        svg = tmp_path / "chart.svg"
        emit_camo_chart(DEFAULT_CAMO, self.samples(), svg)
        text = svg.read_text()
        assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg" '
                               'viewBox="0 0 640 480"')
        assert text.endswith("</svg>\n")
        assert text.count("<polyline") == 3
        assert text.count("<circle") == 3

    def test_labels_only_for_coded_samples(self, tmp_path):
        svg = tmp_path / "chart.svg"
        emit_camo_chart(DEFAULT_CAMO, self.samples(), svg)
        text = svg.read_text()
        assert ">L111</text>" in text
        assert ">LD5</text>" in text

    def test_fixed_palette(self, tmp_path):
        svg = tmp_path / "chart.svg"
        emit_camo_chart(DEFAULT_CAMO, self.samples(), svg)
        text = svg.read_text()
        assert "#2266aa" in text
        assert "#cc7722" in text
        assert "#338844" in text

    def test_legend_lists_classes(self, tmp_path):
        svg = tmp_path / "chart.svg"
        emit_camo_chart(DEFAULT_CAMO, [], svg)
        text = svg.read_text()
        for name in ("connected", "non_connected", "micropore"):
            assert f">{name}</text>" in text

    def test_byte_identical_reruns(self, tmp_path):
        emit_camo_chart(DEFAULT_CAMO, self.samples(), tmp_path / "a.svg",
                        tmp_path / "a.csv")
        emit_camo_chart(DEFAULT_CAMO, self.samples(), tmp_path / "b.svg",
                        tmp_path / "b.csv")
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_csv_companion(self, tmp_path):
        emit_camo_chart(DEFAULT_CAMO, self.samples(), tmp_path / "c.svg",
                        tmp_path / "c.csv")
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert lines[0] == "phi,k_md,camo_class,code,k_camo_md"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0.2" and first[2] == "connected" and first[3] == "L111"
        assert float(first[4]) == pytest.approx(4.0)

    def test_unknown_class_gets_fallback_color(self, tmp_path):
        rel = CamoRelation(coefficients={
            "vuggy": DEFAULT_CAMO["connected"],
        })
        sample = [ChartSample(phi=0.2, k_md=4.0, camo_class="vuggy", code="V1")]
        emit_camo_chart(rel, sample, tmp_path / "v.svg")
        text = (tmp_path / "v.svg").read_text()
        assert "#884499" in text

    def test_class_outside_the_relation_is_drawn_neutral(self, tmp_path):
        sample = [ChartSample(phi=0.2, k_md=10.0, camo_class="vuggy", code="L111")]
        emit_camo_chart(DEFAULT_CAMO, sample, tmp_path / "v.svg", tmp_path / "v.csv")
        text = (tmp_path / "v.svg").read_text()
        [marker] = [line for line in text.splitlines() if line.startswith("<circle")]
        assert 'fill="#888888"' in marker
        assert ">L111</text>" in text
        # the legend lists only the relation's classes
        assert ">vuggy</text>" not in text
        assert text.count("<polyline") == 3
        assert (tmp_path / "v.csv").read_text().splitlines()[1] == "0.2,10,vuggy,L111,"

    def test_rejects_nonpositive_sample(self, tmp_path):
        bad = [ChartSample(phi=0.0, k_md=1.0, camo_class="connected")]
        with pytest.raises(NonPositiveValue):
            emit_camo_chart(DEFAULT_CAMO, bad, tmp_path / "x.svg")


class TestChartSpacing:
    """The chart's 64 porosities per class come from math, not numpy."""

    @settings(max_examples=300, deadline=None)
    @given(ends=st.lists(st.floats(0.0, 1.0, exclude_min=True),
                         min_size=2, max_size=2).map(sorted))
    def test_matches_numpy_geomspace(self, ends):
        lo, hi = ends
        got = np.array(_geomspace(lo, hi, 64))
        want = np.geomspace(lo, hi, 64)
        assert got[0] == lo and got[-1] == hi
        # both take 10 ** (i * step + log10(lo)); an ulp apart in log10 or
        # pow moves the power by up to |log10(lo)| ulp
        ulps = np.abs(got - want) / np.spacing(want)
        assert ulps.max() <= 16 * max(1.0, -math.log10(lo))

    @settings(max_examples=100, deadline=None)
    @given(coeffs=st.lists(st.tuples(
        st.floats(1e-3, 1e6), st.floats(0.5, 8.0),
        st.floats(1e-4, 1.0), st.floats(1e-4, 1.0)), min_size=1, max_size=3))
    def test_svg_bytes_equal_numpy_spacing(self, coeffs, tmp_path_factory):
        rel = CamoRelation(coefficients={
            name: CamoCoefficients(a=a, b=b, phi_min=min(p, q), phi_max=max(p, q))
            for name, (a, b, p, q) in zip(("connected", "micropore", "vuggy"),
                                          coeffs)})
        out = tmp_path_factory.mktemp("spacing")
        emit_camo_chart(rel, [], out / "math.svg")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("drt.rocktype._geomspace", np.geomspace)
            emit_camo_chart(rel, [], out / "numpy.svg")
        assert (out / "math.svg").read_bytes() == (out / "numpy.svg").read_bytes()

    @pytest.mark.parametrize("with_samples, sha256", [
        (True, "177b1eebdff8f436f4fa519a6643de7c77767885d156593f5130e5d2918561e1"),
        (False, "dae3a70337fbe2854d26b1446aeed1bef60a283ff86219dc511554e5610a3abb"),
    ])
    def test_default_chart_bytes_are_pinned(self, tmp_path, with_samples,
                                            sha256):
        # digests of the chart as drawn through np.geomspace
        samples = TestCamoChart().samples() if with_samples else []
        emit_camo_chart(DEFAULT_CAMO, samples, tmp_path / "chart.svg")
        digest = hashlib.sha256((tmp_path / "chart.svg").read_bytes())
        assert digest.hexdigest() == sha256


def _chart(phi, k_md):
    def call(tmp_path):
        emit_camo_chart(DEFAULT_CAMO, [ChartSample(phi, k_md, "connected")],
                        tmp_path / "chart.svg")
    return call


NAN = math.nan


# every comparison with NaN is false, so a guard written as x <= 0 lets
# NaN through; each entry point must refuse it as a non-positive value
@pytest.mark.parametrize("call, error", [
    (lambda _: classify(NAN, (50, 300, 0.1)), NonPositiveValue),
    (lambda _: classify(80, (NAN, 300, 0.1)), NonPositiveValue),
    (lambda _: classify(80, (50, NAN, 0.1)), NonPositiveValue),
    (lambda _: camo_check(DEFAULT_CAMO, NAN, 4.0, "connected"),
     NonPositiveValue),
    (lambda _: camo_check(DEFAULT_CAMO, 0.2, NAN, "connected"),
     NonPositiveValue),
    (lambda _: pcd_from_permeability(NAN, 0.2, PFunction(1.0)),
     NonPositiveInput),
    (lambda _: pcd_from_permeability(80, 0.2, PFunction(NAN)),
     NonPositiveInput),
    (lambda _: DEFAULT_CAMO["connected"].permeability(NAN), NonPositiveValue),
    (_chart(NAN, 4.0), NonPositiveValue),
    (_chart(0.2, NAN), NonPositiveValue),
    (lambda _: fit_camo([(NAN, 1.0, "x"), (0.2, 2.0, "x")]), NonPositiveValue),
    (lambda _: fit_camo([(0.1, NAN, "x"), (0.2, 2.0, "x")]), NonPositiveValue),
    (lambda _: fit_camo([(0.1, math.inf, "x"), (0.2, 2.0, "x")]),
     NonPositiveValue),
], ids=["classify-k", "classify-p_cd", "classify-p_cu", "camo_check-phi",
        "camo_check-k", "pcd_from_permeability-k", "pcd_from_permeability-c",
        "permeability-phi", "chart-phi", "chart-k", "fit_camo-phi",
        "fit_camo-k", "fit_camo-k-inf"])
def test_nan_is_refused(tmp_path, call, error):
    with pytest.raises(error):
        call(tmp_path)
    assert not (tmp_path / "chart.svg").exists()
