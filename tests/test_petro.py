"""Porosity, modality archetypes, and porosity-permeability relations."""

import math
import re

import numpy as np
import pytest

from drt import (
    BadParams,
    CamoCoefficients,
    CamoRelation,
    DEFAULT_CAMO,
    InsufficientSamples,
    MODALITY_ARCHETYPES,
    MissingClassCoefficients,
    NonPositiveValue,
    PoreThroatDistribution,
    UnknownClassId,
    Volume,
    VolumeHeader,
    classify_modality,
    connected_components,
    estimate_permeability,
    fit_camo,
    load_camo,
    load_camo_samples_csv,
    porosity_from_labels,
    save_camo,
    select_camo_class,
)


def label_volume(data):
    nz, ny, nx = np.asarray(data).shape
    header = VolumeHeader(dims=(nx, ny, nz), voxel_size_um=1.0,
                          value_kind="label", element_encoding="u8")
    return Volume(header=header, data=np.asarray(data, dtype=np.uint8))


def dist_with(f_micro, f_meso, f_macro):
    """A minimal throat distribution carrying the given band fractions."""
    return PoreThroatDistribution(
        bin_edges_um=np.array([1.0, 10.0]), counts=np.array([1]), n_values=1,
        f_micro=f_micro, f_meso=f_meso, f_macro=f_macro,
        t_micro_um=10.0, t_macro_um=100.0, peaks_um=[])


class TestPorosity:
    def test_matches_direct_count(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            data = rng.integers(0, 4, (6, 6, 6))
            phi = porosity_from_labels(label_volume(data), {0})
            assert phi == pytest.approx((data == 0).mean())

    def test_micropore_weighting(self):
        data = np.array([[[0, 1], [2, 3]]])  # one voxel per class
        vol = label_volume(data)
        assert porosity_from_labels(vol, {0}, {2}, micro_weight=0.5) == \
            pytest.approx((1 + 0.5) / 4)
        assert porosity_from_labels(vol, {0}, {2}, micro_weight=0.0) == \
            pytest.approx(0.25)
        assert porosity_from_labels(vol, {0}, {2}, micro_weight=1.0) == \
            pytest.approx(0.5)

    def test_multiple_pore_classes(self):
        data = np.array([[[0, 1], [2, 3]]])
        assert porosity_from_labels(label_volume(data), {0, 3}) == \
            pytest.approx(0.5)

    def test_accepts_plain_int(self):
        data = np.zeros((2, 2, 2))
        assert porosity_from_labels(label_volume(data), (0,)) == 1.0

    def test_rejects_empty_pore_set(self):
        with pytest.raises(BadParams):
            porosity_from_labels(label_volume(np.zeros((2, 2, 2))), set())

    @pytest.mark.parametrize("pore, micro", [
        ({-1}, ()), ({0}, {-1}), ({0.7}, ()), ({"0"}, ()), ({0}, {1.0})])
    def test_rejects_class_ids_binary_mask_refuses(self, pore, micro):
        # binary_mask is the one reader of a class set: a negative id no
        # longer counts as an empty class, nor 0.7 or "0" as class 0
        vol = label_volume(np.zeros((2, 2, 2)))
        with pytest.raises(BadParams, match="class ids must be"):
            porosity_from_labels(vol, pore, micro)

    def test_rejects_overlapping_sets(self):
        with pytest.raises(BadParams):
            porosity_from_labels(label_volume(np.zeros((2, 2, 2))), {0}, {0, 1})

    def test_rejects_bad_weight(self):
        vol = label_volume(np.zeros((2, 2, 2)))
        with pytest.raises(BadParams):
            porosity_from_labels(vol, {0}, {1}, micro_weight=1.5)
        with pytest.raises(BadParams):
            porosity_from_labels(vol, {0}, {1}, micro_weight=-0.1)

    def test_unknown_class_checks_are_opt_in(self):
        data = np.array([[[0, 7]]])
        vol = label_volume(data)
        # without n_classes nothing is validated
        assert porosity_from_labels(vol, {0}) == pytest.approx(0.5)
        with pytest.raises(UnknownClassId):
            porosity_from_labels(vol, {0}, n_classes=4)

    @pytest.mark.parametrize("value", [np.nan, -1.0, 0.5, 2.0, 300.0])
    def test_label_values_must_be_class_ids(self, value):
        # binary_mask decides which label values are class ids: NaN, negative
        # and fractional labels fail as too large ones do, and the error
        # names the first voxel's value that is none, not an extreme
        header = VolumeHeader(dims=(4, 3, 2), voxel_size_um=1.0,
                              value_kind="label", element_encoding="f32")

        def porosity(first, second):
            data = np.ones((2, 3, 4), dtype=np.float32)
            data[0, 0, 0] = 0.0
            data[1, 0, 2], data[1, 2, 3] = first, second
            return porosity_from_labels(Volume(header=header, data=data), {0},
                                        n_classes=2)

        with pytest.raises(UnknownClassId) as info:
            porosity(value, 7.0)
        assert str(info.value) == (
            f"label {np.float32(value)} is not a class id in [0, 2)")
        with pytest.raises(UnknownClassId, match="label 7.0 is not a class id"):
            porosity(1.0, 7.0)
        assert porosity(1.0, 1.0) == 1 / 24

    def test_requested_class_outside_declared_range(self):
        vol = label_volume(np.zeros((2, 2, 2)))
        with pytest.raises(UnknownClassId):
            porosity_from_labels(vol, {0, 9}, n_classes=2)


class TestArchetypeTable:
    def test_size_and_modality_split(self):
        assert len(MODALITY_ARCHETYPES) == 14
        by_modality = {}
        for a in MODALITY_ARCHETYPES:
            by_modality.setdefault(a.modality, []).append(a)
        assert len(by_modality["Triple"]) == 2
        assert len(by_modality["Dual"]) == 9
        assert len(by_modality["Singular"]) == 3

    def test_fractions_sum_to_one(self):
        for a in MODALITY_ARCHETYPES:
            assert sum(a.fractions) == pytest.approx(1.0)
            assert all(f >= 0 for f in a.fractions)

    def test_known_entries(self):
        by_name = {a.name: a for a in MODALITY_ARCHETYPES}
        assert by_name["micro 20% / meso 50% / macro 30%"].fractions == \
            (0.20, 0.50, 0.30)
        assert by_name["meso 100%"].fractions == (0.0, 1.0, 0.0)
        assert by_name["micro 25% / meso 75%"].fractions == (0.25, 0.75, 0.0)
        assert by_name["meso 50% / macro 50%"].fractions == (0.0, 0.50, 0.50)

    def test_names_are_unique(self):
        names = [a.name for a in MODALITY_ARCHETYPES]
        assert len(set(names)) == len(names)


class TestClassifyModality:
    def test_each_archetype_classifies_to_itself(self):
        for a in MODALITY_ARCHETYPES:
            profile = classify_modality(dist_with(*a.fractions))
            assert profile.archetype == a.name
            assert profile.distance == pytest.approx(0.0, abs=1e-12)
            assert profile.modality == a.modality

    def test_nearest_neighbor_on_perturbed_sample(self):
        profile = classify_modality(dist_with(0.22, 0.48, 0.30))
        assert profile.archetype == "micro 20% / meso 50% / macro 30%"
        assert profile.modality == "Triple"
        assert profile.distance == pytest.approx(math.dist((0.22, 0.48, 0.30),
                                                           (0.20, 0.50, 0.30)))

    def test_presence_gates_candidates(self):
        # micro band below epsilon: only micro-absent archetypes compete
        profile = classify_modality(dist_with(0.05, 0.55, 0.40))
        assert profile.present == (False, True, True)
        assert profile.modality == "Dual"
        assert profile.archetype == "meso 50% / macro 50%"

    def test_singular_sample(self):
        profile = classify_modality(dist_with(0.04, 0.92, 0.04))
        assert profile.modality == "Singular"
        assert profile.archetype == "meso 100%"

    def test_custom_epsilon_changes_presence(self):
        d = dist_with(0.12, 0.58, 0.30)
        assert classify_modality(d, epsilon=0.10).modality == "Triple"
        assert classify_modality(d, epsilon=0.15).modality == "Dual"

    def test_pattern_without_archetype_falls_back_to_all(self):
        # at epsilon 0.25 no Triple archetype has all three bands present,
        # so every archetype competes
        assert all(a.present(0.25) != (True, True, True)
                   for a in MODALITY_ARCHETYPES)
        profile = classify_modality(dist_with(0.3, 0.3, 0.4), epsilon=0.25)
        assert profile.present == (True, True, True)
        assert profile.modality == "Triple"
        assert profile.archetype == "micro 20% / meso 30% / macro 50%"
        assert profile.distance == pytest.approx(math.sqrt(0.02))

    def test_rejects_bad_epsilon(self):
        with pytest.raises(BadParams):
            classify_modality(dist_with(0.2, 0.5, 0.3), epsilon=0.0)
        with pytest.raises(BadParams):
            classify_modality(dist_with(0.2, 0.5, 0.3), epsilon=0.34)

    def test_rejects_non_normalized_fractions(self):
        with pytest.raises(BadParams):
            classify_modality(dist_with(0.5, 0.5, 0.5))
        with pytest.raises(BadParams):
            classify_modality(dist_with(-0.1, 0.6, 0.5))

    def test_profile_json(self):
        doc = classify_modality(dist_with(0.2, 0.5, 0.3)).to_json_dict()
        assert doc["modality"] == "Triple"
        assert doc["archetype"] == "micro 20% / meso 50% / macro 30%"
        assert doc["present_bands"] == ["micro", "meso", "macro"]


class TestCamoCoefficients:
    def test_power_law(self):
        c = CamoCoefficients(a=500.0, b=3.0, phi_min=0.05, phi_max=0.40)
        assert c.permeability(0.2) == pytest.approx(4.0)

    def test_zero_porosity_gives_zero(self):
        c = CamoCoefficients(a=500.0, b=3.0, phi_min=0.05, phi_max=0.40)
        assert c.permeability(0.0) == 0.0

    def test_zero_porosity_invalid_for_nonpositive_exponent(self):
        c = CamoCoefficients(a=500.0, b=-1.0, phi_min=0.05, phi_max=0.40)
        with pytest.raises(NonPositiveValue):
            c.permeability(0.0)

    def test_negative_porosity_rejected(self):
        c = CamoCoefficients(a=500.0, b=3.0, phi_min=0.05, phi_max=0.40)
        with pytest.raises(NonPositiveValue):
            c.permeability(-0.1)

    def test_contains(self):
        c = CamoCoefficients(a=1.0, b=1.0, phi_min=0.05, phi_max=0.40)
        assert c.contains(0.05) and c.contains(0.40) and c.contains(0.2)
        assert not c.contains(0.041) and not c.contains(0.401)


class TestCamoRelation:
    def test_default_relation(self):
        assert DEFAULT_CAMO["connected"].a == 500.0
        assert DEFAULT_CAMO["non_connected"].a == 50.0
        assert DEFAULT_CAMO["micropore"].a == 5.0
        assert all(DEFAULT_CAMO[c].b == 3.0 for c in DEFAULT_CAMO.classes())

    def test_missing_class(self):
        with pytest.raises(MissingClassCoefficients):
            DEFAULT_CAMO["vuggy"]
        assert "vuggy" not in DEFAULT_CAMO
        assert "connected" in DEFAULT_CAMO

    def test_json_round_trip(self):
        again = CamoRelation.from_json_dict(DEFAULT_CAMO.to_json_dict())
        assert again == DEFAULT_CAMO

    def test_file_round_trip(self, tmp_path):
        save_camo(DEFAULT_CAMO, tmp_path / "camo.json")
        assert load_camo(tmp_path / "camo.json") == DEFAULT_CAMO


class TestFitCamo:
    def test_recovers_exact_power_law(self):
        a_true, b_true = 321.5, 2.75
        phis = [0.08, 0.15, 0.22, 0.31]
        samples = [(p, a_true * p ** b_true, "connected") for p in phis]
        rel = fit_camo(samples)
        c = rel["connected"]
        assert c.a == pytest.approx(a_true, rel=1e-6)
        assert c.b == pytest.approx(b_true, rel=1e-6)
        assert c.phi_min == 0.08 and c.phi_max == 0.31

    def test_two_points_fit_exactly(self):
        samples = [(0.1, 2.0, "x"), (0.3, 54.0, "x")]
        c = fit_camo(samples)["x"]
        for phi, k, _ in samples:
            assert c.permeability(phi) == pytest.approx(k, rel=1e-9)

    def test_fits_each_class_separately(self):
        samples = [(0.1, 0.5, "a"), (0.2, 4.0, "a"),
                   (0.1, 5.0, "b"), (0.2, 40.0, "b")]
        rel = fit_camo(samples)
        assert set(rel.classes()) == {"a", "b"}
        assert rel["b"].a == pytest.approx(10 * rel["a"].a, rel=1e-9)

    def test_rejects_no_samples(self):
        with pytest.raises(InsufficientSamples):
            fit_camo([])

    def test_rejects_single_distinct_porosity(self):
        with pytest.raises(InsufficientSamples):
            fit_camo([(0.1, 1.0, "x"), (0.1, 2.0, "x")])

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(NonPositiveValue):
            fit_camo([(0.0, 1.0, "x"), (0.2, 2.0, "x")])
        with pytest.raises(NonPositiveValue):
            fit_camo([(0.1, 0.0, "x"), (0.2, 2.0, "x")])

    def test_rejects_porosity_of_one_or_more(self):
        with pytest.raises(BadParams):
            fit_camo([(1.0, 1.0, "x"), (0.2, 2.0, "x")])


class TestCamoSamplesCsv:
    def test_reads_headed_file(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("phi,k_mD,class\n0.2,4.0,connected\n0.1,0.5,micropore\n")
        rows = load_camo_samples_csv(path)
        assert rows == [(0.2, 4.0, "connected"), (0.1, 0.5, "micropore")]

    def test_reads_headerless_file(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("0.2,4.0,connected\n")
        assert load_camo_samples_csv(path) == [(0.2, 4.0, "connected")]

    def test_rejects_wrong_field_count(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("0.2,4.0\n")
        with pytest.raises(BadParams):
            load_camo_samples_csv(path)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("0.2,4.0,connected\nx,4.0,connected\n")
        with pytest.raises(BadParams, match="2"):
            load_camo_samples_csv(path)

    @pytest.mark.parametrize("text", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_rejects_non_finite_numbers(self, tmp_path, text, column):
        # fit_camo would fail inside numpy's least squares on them, or fit
        # a law that no JSON file can hold
        fields = ["0.2", "4.0", "connected"]
        fields[column] = text
        path = tmp_path / "samples.csv"
        path.write_text("phi,k_mD,class\n0.1,0.5,connected\n"
                        + ",".join(fields) + "\n")
        name = ("phi", "k_mD")[column]
        with pytest.raises(BadParams, match=re.escape(
                f"{path}:3: {name} must be a JSON number that fits a float")):
            load_camo_samples_csv(path)


class TestSelectCamoClass:
    def percolating_components(self):
        data = np.ones((5, 5, 5), dtype=np.uint8)
        data[2, 2, :] = 0
        return connected_components(label_volume(data == 0), 26)

    def isolated_components(self):
        data = np.ones((5, 5, 5), dtype=np.uint8)
        data[2, 2, 2] = 0
        return connected_components(label_volume(data == 0), 26)

    def test_percolating_dominant_is_connected(self):
        profile = classify_modality(dist_with(0.6, 0.3, 0.1))
        assert select_camo_class(profile, self.percolating_components()) == \
            "connected"

    def test_micro_heavy_isolated_is_micropore(self):
        profile = classify_modality(dist_with(0.6, 0.3, 0.1))
        assert select_camo_class(profile, self.isolated_components()) == \
            "micropore"

    def test_otherwise_non_connected(self):
        profile = classify_modality(dist_with(0.2, 0.5, 0.3))
        assert select_camo_class(profile, self.isolated_components()) == \
            "non_connected"

    def test_micro_tie_is_not_micropore(self):
        profile = classify_modality(dist_with(0.5, 0.5, 0.0))
        assert select_camo_class(profile, self.isolated_components()) == \
            "non_connected"

    def test_no_components_falls_back_to_fractions(self):
        data = np.ones((5, 5, 5), dtype=np.uint8)  # no pore voxels at all
        comps = connected_components(label_volume(data == 0), 26)
        profile = classify_modality(dist_with(0.7, 0.2, 0.1))
        assert select_camo_class(profile, comps) == "micropore"


class TestEstimatePermeability:
    def test_combines_class_selection_and_law(self):
        data = np.ones((5, 5, 5), dtype=np.uint8)
        data[2, 2, :] = 0
        comps = connected_components(label_volume(data == 0), 26)
        profile = classify_modality(dist_with(0.2, 0.5, 0.3))
        est = estimate_permeability(DEFAULT_CAMO, 0.2, profile, comps)
        assert est.camo_class == "connected"
        assert est.k_md == pytest.approx(4.0)
        assert est.phi == 0.2
        assert est.phi_in_range is True

    def test_out_of_range_porosity_is_flagged(self):
        data = np.ones((5, 5, 5), dtype=np.uint8)
        data[2, 2, :] = 0
        comps = connected_components(label_volume(data == 0), 26)
        profile = classify_modality(dist_with(0.2, 0.5, 0.3))
        est = estimate_permeability(DEFAULT_CAMO, 0.45, profile, comps)
        assert est.phi_in_range is False

    def test_json_dict(self):
        data = np.ones((5, 5, 5), dtype=np.uint8)
        data[2, 2, 2] = 0
        comps = connected_components(label_volume(data == 0), 26)
        profile = classify_modality(dist_with(0.2, 0.5, 0.3))
        doc = estimate_permeability(DEFAULT_CAMO, 0.1, profile, comps).to_json_dict()
        assert set(doc) == {"k_md", "camo_class", "phi", "phi_in_range"}
