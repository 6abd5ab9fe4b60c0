"""Random forest training, inference, and model serialization."""

import json
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from drt import (
    BadHyperparameters,
    BadModelFile,
    BadParams,
    DimensionMismatch,
    EmptyClass,
    FeatureBankConfig,
    ForestHyperparameters,
    ForestModel,
    SigmaTooLarge,
    SplitMix64,
    TrainingSet,
    VersionMismatch,
    Volume,
    VolumeHeader,
    build_feature_stack,
    load_labels_csv,
    load_model,
    make_phantom,
    save_model,
    segment_volume,
    train_forest,
)
from drt.filters import map_slabs, sample_features, slab_bounds
from drt.forest import _best_split, _bin, _distinct, _Tree

from conftest import PIECES


def bank_for(n_features):
    """A feature bank config whose feature count equals n_features."""
    if n_features % 2 == 0:
        k = n_features // 2
        include_raw = True
    else:
        k = (n_features + 1) // 2
        include_raw = False
    sigmas = tuple(float(2 ** i) for i in range(k))
    return FeatureBankConfig(sigmas_vox=sigmas, include_raw=include_raw)


def two_blob_training(n_per_class=40, n_features=2, seed=0, gap=10.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, (n_per_class, n_features))
    b = rng.normal(gap, 1.0, (n_per_class, n_features))
    features = np.vstack([a, b])
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return TrainingSet(features=features, labels=labels,
                       class_names=["pore", "matrix"])


class TestHyperparameters:
    def test_defaults_valid(self):
        hp = ForestHyperparameters()
        assert hp.n_trees == 100
        assert hp.bag_fraction == 1.0

    def test_validation(self):
        with pytest.raises(BadHyperparameters):
            ForestHyperparameters(n_trees=0)
        with pytest.raises(BadHyperparameters):
            ForestHyperparameters(max_depth=0)
        with pytest.raises(BadHyperparameters):
            ForestHyperparameters(min_samples_split=1)
        with pytest.raises(BadHyperparameters):
            ForestHyperparameters(features_per_split=0)
        with pytest.raises(BadHyperparameters):
            ForestHyperparameters(bag_fraction=0.0)
        with pytest.raises(BadHyperparameters):
            ForestHyperparameters(bag_fraction=1.5)

    def test_default_features_per_split_is_ceil_sqrt(self):
        hp = ForestHyperparameters()
        assert hp.resolved_features_per_split(8) == 3
        assert hp.resolved_features_per_split(9) == 3
        assert hp.resolved_features_per_split(10) == 4
        assert hp.resolved_features_per_split(1) == 1

    def test_explicit_features_per_split(self):
        hp = ForestHyperparameters(features_per_split=5)
        assert hp.resolved_features_per_split(8) == 5
        with pytest.raises(BadHyperparameters):
            hp.resolved_features_per_split(4)

    def test_json_round_trip(self):
        hp = ForestHyperparameters(n_trees=7, max_depth=3, min_samples_split=4,
                                   features_per_split=2, bag_fraction=0.8)
        assert ForestHyperparameters.from_json_dict(hp.to_json_dict()) == hp


class TestTrainingSet:
    def test_valid(self):
        ts = two_blob_training()
        assert ts.n_samples == 80
        assert ts.n_features == 2

    def test_rejects_1d_features(self):
        with pytest.raises(BadParams):
            TrainingSet(features=np.zeros(4), labels=np.zeros(4, dtype=int),
                        class_names=["a"])

    def test_rejects_label_shape_mismatch(self):
        with pytest.raises(BadParams):
            TrainingSet(features=np.zeros((4, 2)), labels=np.zeros(3, dtype=int),
                        class_names=["a"])

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(BadParams):
            TrainingSet(features=np.zeros((4, 2)), labels=np.array([0, 0, 2, 2]),
                        class_names=["a", "b"])
        with pytest.raises(BadParams):
            TrainingSet(features=np.zeros((4, 2)), labels=np.array([0, 0, -1, 0]),
                        class_names=["a", "b"])

    def test_rejects_nonfinite_features(self):
        feats = np.zeros((4, 2))
        feats[1, 1] = np.nan
        with pytest.raises(BadParams):
            TrainingSet(features=feats, labels=np.array([0, 0, 1, 1]),
                        class_names=["a", "b"])

    def test_empty_set_raises_empty_class(self):
        with pytest.raises(EmptyClass):
            TrainingSet(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int),
                        class_names=["a"])

    def test_class_with_no_samples(self):
        with pytest.raises(EmptyClass):
            TrainingSet(features=np.zeros((4, 2)), labels=np.array([0, 0, 0, 0]),
                        class_names=["a", "b"])

    def test_class_with_one_sample(self):
        with pytest.raises(BadParams):
            TrainingSet(features=np.zeros((3, 2)), labels=np.array([0, 0, 1]),
                        class_names=["a", "b"])

    def test_single_class_is_allowed(self):
        ts = TrainingSet(features=np.zeros((3, 2)), labels=np.zeros(3, dtype=int),
                         class_names=["only"])
        assert ts.n_samples == 3


class TestTraining:
    def test_separable_data_fits_perfectly(self):
        ts = two_blob_training()
        model = train_forest(ts, ForestHyperparameters(n_trees=15), bank_for(2),
                             seed=0)
        labels, probs = model.predict_batch(ts.features)
        assert (labels == ts.labels).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_oob_accuracy_reported(self):
        ts = two_blob_training()
        model = train_forest(ts, ForestHyperparameters(n_trees=15), bank_for(2),
                             seed=0)
        assert model.oob_accuracy is not None
        assert 0.9 <= model.oob_accuracy <= 1.0

    def test_deterministic_for_seed(self):
        ts = two_blob_training()
        hp = ForestHyperparameters(n_trees=5)
        a = train_forest(ts, hp, bank_for(2), seed=3)
        b = train_forest(ts, hp, bank_for(2), seed=3)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == \
            json.dumps(b.to_json_dict(), sort_keys=True)

    def test_seed_changes_model(self):
        ts = two_blob_training()
        hp = ForestHyperparameters(n_trees=5)
        a = train_forest(ts, hp, bank_for(2), seed=3)
        b = train_forest(ts, hp, bank_for(2), seed=4)
        assert json.dumps(a.to_json_dict()) != json.dumps(b.to_json_dict())

    def test_more_trees_extend_smaller_forest(self):
        # per-tree generators depend only on (seed, tree index)
        ts = two_blob_training()
        small = train_forest(ts, ForestHyperparameters(n_trees=3), bank_for(2),
                             seed=9)
        big = train_forest(ts, ForestHyperparameters(n_trees=6), bank_for(2),
                           seed=9)
        for t_small, t_big in zip(small.trees, big.trees):
            assert t_small.to_json_dict() == t_big.to_json_dict()

    def test_feature_count_mismatch(self):
        ts = two_blob_training(n_features=2)
        with pytest.raises(DimensionMismatch):
            train_forest(ts, ForestHyperparameters(n_trees=2), bank_for(3), seed=0)

    def test_single_class_predicts_itself(self):
        ts = TrainingSet(features=np.random.default_rng(0).random((10, 2)),
                         labels=np.zeros(10, dtype=int), class_names=["only"])
        model = train_forest(ts, ForestHyperparameters(n_trees=3), bank_for(2),
                             seed=0)
        [cid], [probs] = model.predict_batch(np.array([0.5, 0.5])[None, :])
        assert cid == 0
        np.testing.assert_allclose(probs, [1.0])

    def test_root_split_is_midpoint(self):
        # one binary feature: the only candidate cut is halfway between values
        features = np.array([[0.0], [0.0], [0.0], [0.0],
                             [1.0], [1.0], [1.0], [1.0]] * 4)
        labels = np.array(([0] * 4 + [1] * 4) * 4)
        ts = TrainingSet(features=features, labels=labels, class_names=["a", "b"])
        model = train_forest(ts, ForestHyperparameters(n_trees=11, max_depth=2),
                             bank_for(1), seed=1)
        for tree in model.trees:
            root_feature = tree.feature[0]
            if root_feature >= 0:
                assert tree.threshold[0] == 0.5

    def test_max_depth_bounds_tree(self):
        ts = two_blob_training(n_per_class=60, seed=2, gap=2.0)
        model = train_forest(ts, ForestHyperparameters(n_trees=3, max_depth=1),
                             bank_for(2), seed=0)
        for tree in model.trees:
            # depth-1 trees have at most one split and two leaves
            assert len(tree.feature) <= 3


def scan_feature(x, y, n_classes, idx, f):
    """The Gini-best (score, threshold) of column f over rows idx, one
    feature at a time: the split search that _best_split replaced, kept as
    its reference."""
    values = x[idx, f]
    order = np.argsort(values, kind="stable")
    v = values[order]
    y = y[idx][order]
    boundaries = np.nonzero(v[1:] > v[:-1])[0]
    if boundaries.size == 0:
        return None
    n = v.size
    onehot = np.zeros((n, n_classes), dtype=np.float64)
    onehot[np.arange(n), y] = 1.0
    prefix = np.cumsum(onehot, axis=0)
    left_counts = prefix[boundaries]
    total = prefix[-1]
    right_counts = total[None, :] - left_counts
    n_left = boundaries + 1.0
    n_right = n - n_left
    gini_left = 1.0 - ((left_counts / n_left[:, None]) ** 2).sum(axis=1)
    gini_right = 1.0 - ((right_counts / n_right[:, None]) ** 2).sum(axis=1)
    weighted = (n_left * gini_left + n_right * gini_right) / n
    best = int(np.argmin(weighted))  # argmin takes first -> lowest threshold
    b = boundaries[best]
    thr = 0.5 * (v[b] + v[b + 1])
    return float(weighted[best]), float(thr)


def reference_split(x, y, n_classes, chosen):
    """The best (feature, threshold) over the chosen features, by
    scan_feature and a strict < across them."""
    idx = np.arange(x.shape[0])
    best = None
    for f in sorted(chosen):
        found = scan_feature(x, y, n_classes, idx, f)
        if found is None:
            continue
        score, thr = found
        # strict < keeps the lowest feature index, lowest threshold on ties
        if best is None or score < best[0]:
            best = (score, f, thr)
    if best is None:
        return None
    return best[1], best[2]


@st.composite
def split_nodes(draw):
    """A node's rows (n, m) and class ids. Each column is small integers
    (tied values), normal floats, one value throughout, or a copy of an
    earlier column (scores tied across columns)."""
    n = draw(st.one_of(st.just(2), st.integers(2, 50)))
    n_classes = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["ints", "floats", "constant",
                                                "copy"]), min_size=1,
                              max_size=6)):
        if kind == "copy" and columns:
            columns.append(columns[rng.integers(len(columns))])
        elif kind == "floats":
            columns.append(rng.normal(size=n))
        elif kind == "constant":
            columns.append(np.full(n, rng.normal()))
        else:
            columns.append(rng.integers(0, 3, n).astype(np.float64))
    return np.stack(columns, axis=1), rng.integers(0, n_classes, n), n_classes


class TestSplitSearch:
    @settings(max_examples=300, deadline=None)
    @given(node=split_nodes())
    # no column with two distinct values; a constant column, then two equal
    # ones that tie
    @example(node=(np.array([[1.0, 2.0], [1.0, 2.0]]), np.array([0, 1]), 2))
    @example(node=(np.array([[5.0, 0.0, 0.0], [5.0, 1.0, 1.0]]),
                   np.array([0, 1]), 2))
    def test_equals_the_per_feature_scan(self, node):
        x, y, n_classes = node
        want = reference_split(x, y, n_classes, range(x.shape[1]))
        got = _best_split(x, y, n_classes)
        assert got == want
        if got is not None:
            assert type(got[0]) is int and type(got[1]) is float


class TestPrediction:
    def test_predict_single_vector(self):
        ts = two_blob_training()
        model = train_forest(ts, ForestHyperparameters(n_trees=9), bank_for(2),
                             seed=0)
        [cid], [probs] = model.predict_batch(np.array([0.0, 0.0])[None, :])
        assert cid == 0
        assert probs.shape == (2,)
        assert probs[0] > probs[1]

    def test_predict_batch_rejects_wrong_width(self):
        ts = two_blob_training()
        model = train_forest(ts, ForestHyperparameters(n_trees=2), bank_for(2),
                             seed=0)
        with pytest.raises(DimensionMismatch):
            model.predict_batch(np.zeros((3, 5)))

    def test_probabilities_bounded(self):
        ts = two_blob_training(gap=1.5, seed=5)
        model = train_forest(ts, ForestHyperparameters(n_trees=7), bank_for(2),
                             seed=0)
        _, probs = model.predict_batch(np.random.default_rng(1).random((50, 2)) * 3)
        assert (probs >= 0).all() and (probs <= 1).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)


    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_float32_rows_predict_as_float64(self, seed):
        # rows at the float32 roundings of the thresholds decide the split
        # only if the comparison is made in float64
        rng = np.random.default_rng(seed)
        ts = TrainingSet(features=rng.normal(size=(60, 3)).astype(np.float32),
                         labels=rng.integers(0, 3, 60),
                         class_names=["a", "b", "c"])
        model = train_forest(ts, ForestHyperparameters(n_trees=4), bank_for(3),
                             seed=seed)
        thresholds = np.concatenate([t.threshold[t.feature >= 0]
                                     for t in model.trees])
        near = rng.choice(thresholds, size=(200, 3)).astype(np.float32)
        x32 = np.vstack([near, rng.normal(size=(200, 3)).astype(np.float32)])
        labels32, probs32 = model.predict_batch(x32)
        labels64, probs64 = model.predict_batch(x32.astype(np.float64))
        np.testing.assert_array_equal(labels32, labels64)
        np.testing.assert_array_equal(probs32, probs64)


def chain_tree(f, thresholds):
    """A two-class tree splitting feature f at each threshold in turn.

    Interior node 2i tests thresholds[i]; its left child 2i + 1 is a leaf
    and its right child is the next interior node, or the last leaf.
    """
    k = len(thresholds)
    n = 2 * k + 1
    feature = np.full(n, -1, dtype=np.int32)
    threshold = np.zeros(n)
    left = np.full(n, -1, dtype=np.int32)
    right = np.full(n, -1, dtype=np.int32)
    for i, t in enumerate(thresholds):
        feature[2 * i], threshold[2 * i] = f, t
        left[2 * i], right[2 * i] = 2 * i + 1, 2 * i + 2
    p = (np.arange(n) + 1.0) / (n + 1.0)
    return _Tree(feature=feature, threshold=threshold, left=left, right=right,
                 probs=np.column_stack([p, 1.0 - p]))


def bin_groups(model, x):
    """The first row of each distinct bin code and each row's index among
    them, from the forest's bins stacked into one row per input row."""
    bins = np.stack([np.searchsorted(u, x[:, f].astype(np.float64), "left")
                     for f, u in enumerate(model._edges())], axis=1)
    _, first, inverse = np.unique(bins, axis=0, return_index=True,
                                  return_inverse=True)
    return first, inverse.ravel()


def predict_distinct(model, x):
    """_predict_bins on the bins of x's columns, gathered back to the rows,
    its index, and the widest tree's leaves and the bin codes that its
    debug line reports."""
    edges = model._edges()
    bins = [_bin(u, x[:, f]) for f, u in enumerate(edges)]
    messages = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("drt.forest")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        labels, probs, inverse = model._predict_bins(bins, edges)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    [message] = messages
    widest, n_codes = re.fullmatch(
        r"forest predict: \d+ trees, \d+ nodes, (\d+) leaves in the widest "
        r"tree, \d+ rows, (\d+) bin codes", message).groups()
    assert int(widest) == max(leaf_count(t) for t in model.trees)
    assert int(n_codes) == labels.size
    return labels[inverse], probs[inverse], inverse, int(widest), int(n_codes)


def leaf_count(tree):
    return int(np.count_nonzero(tree.feature < 0))


class TestBinnedPrediction:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(1, 5),
           n_features=st.integers(1, 3), n_trees=st.integers(1, 5),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_equals_direct_walk(self, seed, n_classes, n_features, n_trees,
                                dtype):
        # rows at, just beside and at the float32 roundings of thresholds,
        # plus NaN and the infinities, drawn from a small pool so that rows
        # share bin codes
        rng = np.random.default_rng(seed)
        n = 12 * n_classes
        ts = TrainingSet(features=rng.normal(size=(n, n_features)),
                         labels=np.arange(n) % n_classes,
                         class_names=[f"c{i}" for i in range(n_classes)])
        model = train_forest(ts, ForestHyperparameters(n_trees=n_trees),
                             bank_for(n_features), seed=seed)
        thresholds = np.concatenate([t.threshold[t.feature >= 0]
                                     for t in model.trees])
        pool = np.concatenate([
            thresholds, np.nextafter(thresholds, np.inf),
            np.nextafter(thresholds, -np.inf), thresholds.astype(np.float32),
            [np.nan, np.inf, -np.inf], rng.normal(size=4)])
        x = rng.choice(pool, size=(300, n_features)).astype(dtype)
        assert np.array_equal(predict_distinct(model, x)[2], bin_groups(model, x)[1])
        labels, probs = model.predict_batch(x)
        direct_labels, direct_probs = model._walk(x)
        assert np.array_equal(labels, direct_labels)
        assert np.array_equal(probs, direct_probs)

    def test_integer_rows_and_lists_equal_float64(self):
        # integer thresholds, so that rows fall on them as well as between
        model = ForestModel(
            hyperparameters=ForestHyperparameters(n_trees=2),
            feature_bank=bank_for(2), class_names=["a", "b"], rng_seed=0,
            trees=[chain_tree(0, [-2.0, 0.0, 3.0, 7.0]), spine_tree([1, 0], [1.0, 5.0])])
        x = np.random.default_rng(2).integers(-4, 10, size=(200, 2))
        want_labels, want_probs = model.predict_batch(x.astype(np.float64))
        direct_labels, direct_probs = model._walk(x.astype(np.float64))
        assert np.array_equal(want_labels, direct_labels)
        assert np.array_equal(want_probs, direct_probs)
        for rows in (x, x.tolist()):
            labels, probs = model.predict_batch(rows)
            assert np.array_equal(labels, want_labels)
            assert np.array_equal(probs, want_probs)

    @pytest.mark.parametrize("n_features, per_feature, overflow", [
        (63, 1, False),  # 2**63 codes: the largest is int64 max
        (64, 1, True),
        (64, 2, True),
    ])
    def test_code_space_beyond_int64_groups_rows(self, n_features, per_feature,
                                                 overflow):
        rng = np.random.default_rng(n_features + per_feature)
        cuts = rng.normal(size=(n_features, per_feature))
        cuts.sort(axis=1)
        model = ForestModel(
            hyperparameters=ForestHyperparameters(n_trees=n_features),
            feature_bank=bank_for(n_features), class_names=["a", "b"],
            rng_seed=0, trees=[chain_tree(f, c) for f, c in enumerate(cuts)])
        pool = np.concatenate([cuts.ravel(), np.nextafter(cuts.ravel(), np.inf),
                               [np.nan, np.inf, -np.inf]])
        x = np.vstack([rng.choice(pool, size=(200, n_features)),
                       np.full((1, n_features), np.inf)])
        assert (math.prod(u.size + 1 for u in model._edges()) > 2 ** 63) == overflow
        labels, probs, inverse, _, n_codes = predict_distinct(model, x)
        assert n_codes <= 201
        assert np.array_equal(inverse, bin_groups(model, x)[1])
        direct_labels, direct_probs = model._walk(x)
        assert np.array_equal(labels, direct_labels)
        assert np.array_equal(probs, direct_probs)

    @pytest.mark.parametrize("n_classes", [1, 3])
    def test_zero_rows_predict_empty(self, n_classes):
        rng = np.random.default_rng(n_classes)
        ts = TrainingSet(features=rng.normal(size=(30, 2)),
                         labels=np.arange(30) % n_classes,
                         class_names=[f"c{i}" for i in range(n_classes)])
        model = train_forest(ts, ForestHyperparameters(n_trees=3), bank_for(2),
                             seed=0)
        x = np.empty((0, 2))
        labels, probs, inverse, _, n_codes = predict_distinct(model, x)
        assert n_codes == 0 and inverse.shape == (0,)
        labels, probs = model.predict_batch(x)
        assert labels.dtype == np.int64 and labels.shape == (0,)
        assert probs.dtype == np.float64 and probs.shape == (0, n_classes)
        direct_labels, direct_probs = model._walk(x)
        assert np.array_equal(labels, direct_labels)
        assert np.array_equal(probs, direct_probs)

    def test_logs_one_debug_line_per_batch(self, caplog):
        ts = two_blob_training()
        model = train_forest(ts, ForestHyperparameters(n_trees=3), bank_for(2),
                             seed=0)
        x = np.vstack([ts.features, ts.features])
        with caplog.at_level(logging.DEBUG, logger="drt.forest"):
            model.predict_batch(x)
        n_codes = bin_groups(model, x)[0].size
        nodes = sum(t.feature.size for t in model.trees)
        widest = max(leaf_count(t) for t in model.trees)
        assert [r.getMessage() for r in caplog.records] == [
            f"forest predict: 3 trees, {nodes} nodes, {widest} leaves in the "
            f"widest tree, 160 rows, {n_codes} bin codes"]


class TestDistinct:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(0, 60),
           radices=st.lists(st.one_of(st.just(1), st.integers(2, 5),
                                      st.integers(2 ** 31, 2 ** 32)),
                            min_size=1, max_size=8))
    def test_equals_unique_rows(self, seed, n_rows, radices):
        # radices up to 2**32 make more rows than an int64 code can number
        # after two or three columns
        rng = np.random.default_rng(seed)
        # few values per column, so that rows repeat
        bins = [rng.choice(rng.integers(0, r, size=3, dtype=np.uint64), n_rows)
                .astype(np.min_scalar_type(r - 1)) for r in radices]
        first, inverse = _distinct(bins)
        _, want_first, want_inverse = np.unique(
            np.stack(bins, axis=1), axis=0, return_index=True, return_inverse=True)
        assert np.array_equal(first, want_first)
        assert np.array_equal(inverse, want_inverse.ravel())

    @pytest.mark.parametrize("n_codes, dtype", [
        (0, np.int8), (1, np.int8), (128, np.int8), (129, np.int16),
        (32768, np.int16), (32769, np.int32)])
    def test_index_is_the_narrowest_signed_type(self, n_codes, dtype):
        # ranks 0 .. n_codes - 1, each code on two rows
        codes = np.random.default_rng(n_codes).permutation(n_codes)
        bins = [np.concatenate([codes, codes]).astype(np.uint16)]
        first, inverse = _distinct(bins)
        assert inverse.dtype == dtype
        assert np.array_equal(first, np.argsort(codes))
        assert np.array_equal(inverse, bins[0])


def spine_tree(features, thresholds):
    """chain_tree with interior node 2i splitting features[i] at thresholds[i]."""
    tree = chain_tree(0, thresholds)
    tree.feature[0:-1:2] = features
    return tree


def threshold_rows(trees, n_rows, n_features, rng):
    """Rows at, one ulp beside and at the float32 roundings of the thresholds,
    plus NaN and the infinities."""
    t = np.concatenate([t.threshold[t.feature >= 0] for t in trees])
    pool = np.concatenate([t, np.nextafter(t, np.inf), np.nextafter(t, -np.inf),
                           t.astype(np.float32), [np.nan, np.inf, -np.inf]])
    return rng.choice(pool, size=(n_rows, n_features))


class TestRowPieces:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_edges=st.integers(0, 300),
           n_values=st.integers(0, 60),
           dtype=st.sampled_from([np.float32, np.float64]),
           piece=st.sampled_from(PIECES))
    def test_bins_do_not_depend_on_the_piece(self, seed, n_edges, n_values,
                                             dtype, piece):
        # over 255 edges the bins are uint16
        rng = np.random.default_rng(seed)
        edges = np.unique(rng.normal(size=n_edges))
        pool = np.concatenate([edges, np.nextafter(edges, np.inf),
                               np.nextafter(edges, -np.inf), edges.astype(np.float32),
                               [np.nan, np.inf, -np.inf], rng.normal(size=4)])
        values = rng.choice(pool, n_values).astype(dtype)
        want = (np.searchsorted(edges, values.astype(np.float64), "left")
                .astype(np.min_scalar_type(edges.size)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("drt.volume.PIECE", piece)
            got = _bin(edges, values)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), piece=st.sampled_from(PIECES))
    def test_prediction_does_not_depend_on_the_piece(self, seed, piece):
        # 71 and 81 leaves: every tree's masks span two words
        rng = np.random.default_rng(seed)
        trees = [chain_tree(0, np.sort(rng.normal(size=70))),
                 spine_tree(rng.integers(0, 2, 80), rng.normal(size=80))]
        model = ForestModel(
            hyperparameters=ForestHyperparameters(n_trees=2),
            feature_bank=bank_for(2), class_names=["a", "b"], rng_seed=0,
            trees=trees)
        x = threshold_rows(trees, 300, 2, rng)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("drt.volume.PIECE", piece)
            labels, probs, _, widest, _ = predict_distinct(model, x)
        assert widest == 81
        direct_labels, direct_probs = model._walk(x)
        assert np.array_equal(labels, direct_labels)
        assert np.array_equal(probs, direct_probs)


class TestLeafBitvectors:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(1, 5),
           n_features=st.integers(1, 3), n_trees=st.integers(1, 5),
           n_rows=st.integers(1, 400),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_bitvectors_equal_direct_walk(self, seed, n_classes, n_features,
                                          n_trees, n_rows, dtype):
        rng = np.random.default_rng(seed)
        n = 12 * n_classes
        ts = TrainingSet(features=rng.normal(size=(n, n_features)),
                         labels=np.arange(n) % n_classes,
                         class_names=[f"c{i}" for i in range(n_classes)])
        model = train_forest(ts, ForestHyperparameters(n_trees=n_trees),
                             bank_for(n_features), seed=seed)
        x = threshold_rows(model.trees, n_rows, n_features, rng).astype(dtype)
        labels, probs, inverse, _, _ = predict_distinct(model, x)
        assert np.array_equal(inverse, bin_groups(model, x)[1])
        direct_labels, direct_probs = model._walk(x)
        assert np.array_equal(labels, direct_labels)
        assert np.array_equal(probs, direct_probs)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @pytest.mark.parametrize("n_thresholds", [0, 62, 63, 64, 127])
    def test_leaf_counts_across_word_boundaries(self, n_thresholds, seed):
        # 1, 63, 64, 65 and 128 leaves: one word, a full word, one bit into
        # the second, and two full words; thresholds in random order, so
        # that deep nodes are cut off by earlier ones
        rng = np.random.default_rng(seed)
        cuts = rng.normal(size=(2, n_thresholds))
        trees = [chain_tree(0, cuts[0]),
                 spine_tree(rng.integers(0, 2, n_thresholds), cuts[1])]
        model = ForestModel(
            hyperparameters=ForestHyperparameters(n_trees=2),
            feature_bank=bank_for(2), class_names=["a", "b"], rng_seed=0,
            trees=trees)
        x = threshold_rows(trees, 600, 2, rng)
        labels, probs, _, widest, _ = predict_distinct(model, x)
        assert widest == n_thresholds + 1
        direct_labels, direct_probs = model._walk(x)
        assert np.array_equal(labels, direct_labels)
        assert np.array_equal(probs, direct_probs)

    def test_deep_trees_span_three_words(self):
        # 16 features with 9 thresholds each: 145 leaves per tree
        rng = np.random.default_rng(16)
        cuts = np.sort(rng.normal(size=(16, 9)), axis=1)
        trees = [spine_tree(np.repeat(np.arange(16), 9)[order], cuts.ravel()[order])
                 for order in (np.arange(144), rng.permutation(144))]
        model = ForestModel(
            hyperparameters=ForestHyperparameters(n_trees=2),
            feature_bank=bank_for(16), class_names=["a", "b"], rng_seed=0,
            trees=trees)
        x = threshold_rows(trees, 3000, 16, rng)
        labels, probs, _, widest, _ = predict_distinct(model, x)
        assert widest == 145
        direct_labels, direct_probs = model._walk(x)
        assert np.array_equal(labels, direct_labels)
        assert np.array_equal(probs, direct_probs)

    def test_narrow_bins_hold_the_last_bin(self):
        # 256 thresholds make 257 bins, one more than uint8 holds
        rng = np.random.default_rng(256)
        cuts = np.sort(rng.normal(size=256))
        tree = chain_tree(0, cuts)
        model = ForestModel(
            hyperparameters=ForestHyperparameters(n_trees=1),
            feature_bank=bank_for(1), class_names=["a", "b"], rng_seed=0,
            trees=[tree])
        # one row in each of the 257 bins: bin j at threshold j, the last
        # bin at +inf and at NaN
        x = np.concatenate([cuts, [np.inf, np.nan]])[:, None]
        labels, probs, _, widest, n_codes = predict_distinct(model, x)
        assert (widest, n_codes) == (257, 257)
        direct_labels, direct_probs = model._walk(x)
        assert np.array_equal(labels, direct_labels)
        assert np.array_equal(probs, direct_probs)

    def test_code_space_beyond_int64_predicts_distinct_rows(self, caplog):
        # 64 one-split trees make more bin rows than int64 can number; a
        # 301-leaf tree spans five words
        rng = np.random.default_rng(64)
        cuts = rng.normal(size=64)
        trees = [chain_tree(f, [c]) for f, c in enumerate(cuts)]
        trees.append(chain_tree(0, np.sort(rng.normal(size=300))))
        model = ForestModel(
            hyperparameters=ForestHyperparameters(n_trees=65),
            feature_bank=bank_for(64), class_names=["a", "b"], rng_seed=0,
            trees=trees)
        x = np.vstack([threshold_rows(trees, 200, 64, rng), np.full((1, 64), np.inf)])
        assert math.prod(u.size + 1 for u in model._edges()) > 2 ** 63
        with caplog.at_level(logging.DEBUG, logger="drt.forest"):
            labels, probs = model.predict_batch(x)
        message = caplog.records[0].getMessage()
        assert message.startswith("forest predict: 65 trees, ")
        n_codes = bin_groups(model, x)[0].size
        assert n_codes <= 201
        assert message.endswith(f" 301 leaves in the widest tree, 201 rows, "
                                f"{n_codes} bin codes")
        direct_labels, direct_probs = model._walk(x)
        assert np.array_equal(labels, direct_labels)
        assert np.array_equal(probs, direct_probs)


class TestSegmentVolume:
    def _model_on_intensity(self):
        # train on the raw intensity channel of a two-level volume
        rng = np.random.default_rng(0)
        gray = np.where(rng.random((12, 12, 12)) < 0.5, 50.0, 200.0)
        gray += rng.normal(0, 4, gray.shape)
        header = VolumeHeader(dims=(12, 12, 12), voxel_size_um=1.0)
        vol = Volume(header=header, data=gray.astype(np.float32))
        truth = (gray > 125).astype(np.int64)

        bank = FeatureBankConfig(sigmas_vox=(1.0, 2.0))
        coords = np.argwhere(np.ones((12, 12, 12), dtype=bool))[:, ::-1][:200]
        feats = sample_features(vol, bank, coords)
        labels = truth.reshape(12, 12, 12)[coords[:, 2], coords[:, 1], coords[:, 0]]
        ts = TrainingSet(features=feats, labels=labels,
                         class_names=["dark", "bright"])
        model = train_forest(ts, ForestHyperparameters(n_trees=9), bank, seed=0)
        return model, vol, truth

    def test_outputs_are_label_and_confidence(self):
        model, vol, truth = self._model_on_intensity()
        seg, conf = segment_volume(model, vol)
        assert seg.header.value_kind == "label"
        assert seg.data.dtype == np.uint8
        assert conf.header.value_kind == "grayscale"
        assert seg.dims == vol.dims and conf.dims == vol.dims

    def test_confidence_bounds(self):
        model, vol, _ = self._model_on_intensity()
        _, conf = segment_volume(model, vol)
        assert conf.data.min() >= 1.0 / model.n_classes - 1e-12
        assert conf.data.max() <= 1.0 + 1e-12

    def test_accuracy_on_clean_contrast(self):
        model, vol, truth = self._model_on_intensity()
        seg, _ = segment_volume(model, vol)
        acc = float((seg.data.reshape(-1) == truth.reshape(-1)).mean())
        assert acc > 0.98

    @pytest.mark.parametrize("sigmas, slab_voxels, threads, heights", [
        ((0.2, 0.3), 144, 1, [1] * 14),
        ((0.2, 0.3), 144, 2, [1] * 14),
        ((0.2, 0.3), 7 * 144, 1, [7, 7]),
        ((1.0, 2.0), 144, 2, [7, 7]),  # 14 slabs cut to the halo of 6 planes
        ((1.0, 2.0), 1 << 18, 1, [14]),
    ])
    def test_slab_height_does_not_change_result(self, monkeypatch, sigmas,
                                                slab_voxels, threads, heights):
        rng = np.random.default_rng(1)
        gray = np.where(rng.random((14, 12, 12)) < 0.5, 50.0, 200.0)
        gray += rng.normal(0, 40, gray.shape)
        vol = Volume(header=VolumeHeader(dims=(12, 12, 14), voxel_size_um=1.0),
                     data=gray.astype(np.float32))
        bank = FeatureBankConfig(sigmas_vox=sigmas)
        x = build_feature_stack(vol, bank).reshape(-1, bank.feature_count)
        pick = rng.choice(x.shape[0], 300, replace=False)
        ts = TrainingSet(features=x[pick], labels=(gray.ravel()[pick] > 125),
                         class_names=["dark", "bright"])
        model = train_forest(ts, ForestHyperparameters(n_trees=9), bank, seed=0)
        monkeypatch.setattr("drt.filters.SLAB_VOXELS", slab_voxels)
        assert [b - a for a, b in slab_bounds(vol.dims, bank, threads)] == heights
        ids, probs = model.predict_batch(x)
        seg, conf = segment_volume(model, vol, threads=threads)
        np.testing.assert_array_equal(seg.data.ravel(), ids.astype(np.uint8))
        np.testing.assert_array_equal(conf.data.ravel(),
                                      probs.max(axis=1).astype(np.float32))

    def test_sigma_above_min_dims_half_is_rejected(self):
        model, vol, _ = self._model_on_intensity()
        thin = Volume(header=VolumeHeader(dims=(12, 12, 3), voxel_size_um=1.0),
                      data=vol.data[:3])
        for threads in (1, 4):
            with pytest.raises(SigmaTooLarge):
                segment_volume(model, thin, threads=threads)

    @pytest.mark.parametrize("n_classes, rejected", [(256, False), (300, True)])
    def test_class_ids_above_uint8_are_rejected(self, monkeypatch, n_classes,
                                                rejected):
        model = leaf_model(n_classes, FeatureBankConfig(sigmas_vox=(1.0,)))
        vol = Volume(header=VolumeHeader(dims=(4, 4, 4), voxel_size_um=1.0),
                     data=np.zeros((4, 4, 4), dtype=np.float32))
        if not rejected:
            seg, _ = segment_volume(model, vol)
            assert (seg.data == n_classes - 1).all()
            return
        monkeypatch.setattr("drt.forest.map_slabs",
                            lambda *args, **kwargs: pytest.fail("a slab ran"))
        with pytest.raises(BadParams, match=f"{n_classes} classes"):
            segment_volume(model, vol)


def sphere_pack_model(dims, n_spheres, flip=0.0):
    """A noisy 96³-style sphere pack and a default forest trained on 500
    labelled voxels per class, the labels of a `flip` fraction swapped."""
    gray, truth = make_phantom("sphere_pack", dims, seed=1, n_spheres=n_spheres,
                               radius_range=(4.0, 9.0), noise_sigma=60.0)
    rng = np.random.default_rng(5)
    zyx = np.concatenate([rng.choice(np.argwhere(truth.data == c), 500,
                                     replace=False) for c in (0, 1)])
    labels = truth.data[tuple(zyx.T)].astype(np.int64)
    swap = rng.random(labels.size) < flip
    labels[swap] = 1 - labels[swap]
    bank = FeatureBankConfig()
    ts = TrainingSet(sample_features(gray, bank, zyx[:, ::-1]), labels,
                     ["pore", "matrix"])
    return gray, train_forest(ts, ForestHyperparameters(), bank, seed=0)


class TestStreamedSegment:
    def test_deep_noisy_forest_predicts_bins_like_rows(self):
        # 8% of the labels swapped grow trees of depth 16, some with more
        # leaves than one word holds
        gray, model = sphere_pack_model((48, 48, 48), 10, flip=0.08)
        assert sum(t.feature.size for t in model.trees) > 10000
        assert max(leaf_count(t) for t in model.trees) > 64
        rng = np.random.default_rng(0)
        x = build_feature_stack(gray, model.feature_bank)
        x = x.reshape(-1, model.n_features)[rng.choice(48 ** 3, 3000, replace=False)]
        # and rows at, beside and at the float32 roundings of thresholds,
        # NaN and the infinities
        x = np.vstack([x, threshold_rows(model.trees, 1000, model.n_features, rng)
                       .astype(np.float32)])
        labels, probs, _, _, _ = predict_distinct(model, x)
        direct_labels, direct_probs = model._walk(x)
        assert np.array_equal(labels, direct_labels)
        assert np.array_equal(probs, direct_probs)

    def test_slab_working_set_per_voxel(self, monkeypatch):
        # one 24-plane slab of a 96³ volume, featured and predicted: its
        # bins, one Gaussian's z pass over the slab and its halo, and the
        # grouping of the bin codes. Building the float32 feature stack and
        # grouping with np.unique took about 98 B/voxel here
        gray, model = sphere_pack_model((96, 96, 96), 84)
        assert (48, 72) in slab_bounds(gray.dims, model.feature_bank, 1)

        def one_slab(volume, cfg, fn, *, threads):
            map_slabs(volume, cfg, fn, threads=threads, planes=np.array([48]))

        monkeypatch.setattr("drt.forest.map_slabs", one_slab)
        tracemalloc.start()
        try:
            seg, conf = segment_volume(model, gray)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # less the whole volume's label and confidence outputs
        peak -= seg.data.nbytes + conf.data.nbytes
        assert peak <= 60 * 24 * 96 * 96

    def test_slab_working_set_in_pieces(self, monkeypatch):
        # the same slab with every pass, the binning and the prediction in
        # pieces: its bins, the lexsort and ranks of its 47k bin codes, one
        # Gaussian's float64 buffer of the slab beside its float32 channel.
        # 27.8 B/voxel measured; 46.1 before the pieces
        gray, model = sphere_pack_model((96, 96, 96), 84)
        assert slab_peak(monkeypatch, gray, model) <= 30

    def test_noisy_forest_slab_working_set(self, monkeypatch):
        # 8% of the labels swapped: about every voxel of the slab is its own
        # bin code, and the widest trees need two words. The codes' bins,
        # probabilities and labels, and the pieces of the leaf search: 65.7
        # B/voxel measured; 144.6 before the pieces
        gray, model = sphere_pack_model((96, 96, 96), 84, flip=0.08)
        assert max(leaf_count(t) for t in model.trees) > 64
        assert slab_peak(monkeypatch, gray, model) <= 90


def slab_peak(monkeypatch, gray, model):
    """The traced peak of segmenting planes 48-72 of a 96³ volume, less the
    whole volume's outputs, in bytes per slab voxel."""
    assert (48, 72) in slab_bounds(gray.dims, model.feature_bank, 1)

    def one_slab(volume, cfg, fn, *, threads):
        map_slabs(volume, cfg, fn, threads=threads, planes=np.array([48]))

    monkeypatch.setattr("drt.forest.map_slabs", one_slab)
    tracemalloc.start()
    try:
        seg, conf = segment_volume(model, gray)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - seg.data.nbytes - conf.data.nbytes) / (24 * 96 * 96)


def leaf_model(n_classes, bank):
    """A one-tree model whose single leaf says the last class."""
    probs = np.zeros((1, n_classes))
    probs[0, -1] = 1.0
    tree = _Tree(feature=np.array([-1], dtype=np.int32), threshold=np.zeros(1),
                 left=np.array([-1], dtype=np.int32),
                 right=np.array([-1], dtype=np.int32), probs=probs)
    return ForestModel(hyperparameters=ForestHyperparameters(n_trees=1),
                       feature_bank=bank,
                       class_names=[f"c{i}" for i in range(n_classes)],
                       rng_seed=0, trees=[tree])


def stump_record(left, right, n_nodes=3):
    """A tree record whose root splits feature 0 with children left and
    right, and whose other nodes are leaves."""
    rest = n_nodes - 1
    return {"feature": [0] + [-1] * rest, "threshold": [0.5] + [0.0] * rest,
            "left": [left] + [-1] * rest, "right": [right] + [-1] * rest,
            "probs": [[0.5, 0.5]] * n_nodes}


class TestModelIo:
    def test_round_trip_preserves_predictions(self, tmp_path):
        ts = two_blob_training()
        model = train_forest(ts, ForestHyperparameters(n_trees=5), bank_for(2),
                             seed=0)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        a_labels, a_probs = model.predict_batch(ts.features)
        b_labels, b_probs = loaded.predict_batch(ts.features)
        np.testing.assert_array_equal(a_labels, b_labels)
        np.testing.assert_array_equal(a_probs, b_probs)

    def test_save_is_byte_stable(self, tmp_path):
        ts = two_blob_training()
        model = train_forest(ts, ForestHyperparameters(n_trees=4), bank_for(2),
                             seed=0)
        save_model(model, tmp_path / "a.json")
        save_model(load_model(tmp_path / "a.json"), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_retraining_is_byte_identical(self, tmp_path):
        hp = ForestHyperparameters(n_trees=4)
        a = train_forest(two_blob_training(), hp, bank_for(2), seed=6)
        b = train_forest(two_blob_training(), hp, bank_for(2), seed=6)
        save_model(a, tmp_path / "a.json")
        save_model(b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_version_check(self, tmp_path):
        ts = two_blob_training()
        model = train_forest(ts, ForestHyperparameters(n_trees=2), bank_for(2),
                             seed=0)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatch):
            load_model(path)

    @pytest.mark.parametrize("key, value, match", [
        ("version", True, "version must be a JSON integer"),
        ("version", 1.0, "version must be a JSON integer"),
        ("version", "1", "version must be a JSON integer"),
        ("version", None, "version must be a JSON integer"),
        ("feature_bank", {"sigmas_vox": [1.0, 2.0], "include_raw": True,
                          "boundary_mode": ["mirror"]},
         "boundary_mode must be a JSON string"),
    ])
    def test_fields_of_the_wrong_json_type_are_malformed(self, tmp_path, key,
                                                         value, match):
        model = train_forest(two_blob_training(),
                             ForestHyperparameters(n_trees=2), bank_for(2),
                             seed=0)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(BadModelFile, match=match):
            load_model(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{broken")
        with pytest.raises(BadModelFile):
            load_model(path)

    def test_rejects_missing_trees(self, tmp_path):
        ts = two_blob_training()
        model = train_forest(ts, ForestHyperparameters(n_trees=2), bank_for(2),
                             seed=0)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["trees"] = []
        path.write_text(json.dumps(doc))
        with pytest.raises(BadModelFile):
            load_model(path)

    @pytest.mark.parametrize("field, node, value", [
        ("left", "root", 0),           # the root is its own child: a cycle
        ("right", "root", 10**6),      # child beyond the last node
        ("right", "root", 2**40),      # child beyond int32
        ("feature", "root", 2),        # the bank has 2 features
        ("feature", "root", -2),
        ("left", "leaf", 0),           # a leaf with a child
        ("threshold", "root", float("nan")),
        ("probs", "leaf", [float("inf"), 0.0]),
        # whole trees whose leaf order is not left to right
        pytest.param("tree", None, stump_record(2, 1), id="right-first"),
        pytest.param("tree", None, stump_record(1, 1, 2), id="shared-child"),
        pytest.param("tree", None, stump_record(1, 2, 4), id="unreachable"),
    ])
    def test_rejects_malformed_tree(self, tmp_path, field, node, value):
        model = train_forest(two_blob_training(), ForestHyperparameters(n_trees=2),
                             bank_for(2), seed=0)
        tree = model.to_json_dict()["trees"][0]
        if field == "tree":
            tree = value
        else:
            i = 0 if node == "root" else tree["feature"].index(-1)
            tree[field][i] = value
        doc = model.to_json_dict() | {"trees": [tree]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(BadModelFile):
            load_model(path)

    @pytest.mark.parametrize("field, value", [
        ("feature", 1.7),
        ("feature", True),
        ("left", 1.9),
        ("right", "2"),
    ])
    def test_rejects_non_integer_node_id(self, tmp_path, field, value):
        # each value would load as a valid id for its field: feature 1, or
        # the root's own left child 1 or right child 2
        model = train_forest(two_blob_training(), ForestHyperparameters(n_trees=2),
                             bank_for(2), seed=0)
        tree = model.to_json_dict()["trees"][0]
        assert tree["left"][0] == 1 and tree["right"][0] == 2
        tree[field][0] = int(float(value))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model.to_json_dict() | {"trees": [tree]}))
        load_model(path)
        tree[field][0] = value
        path.write_text(json.dumps(model.to_json_dict() | {"trees": [tree]}))
        with pytest.raises(BadModelFile):
            load_model(path)

    @pytest.mark.parametrize("section, key, value", [
        ("hyperparameters", "n_trees", 2.0),
        ("hyperparameters", "max_depth", True),
        ("hyperparameters", "features_per_split", "1"),
        ("feature_bank", "include_raw", 1),
    ])
    def test_rejects_settings_of_the_wrong_json_type(self, tmp_path, section,
                                                     key, value):
        model = train_forest(two_blob_training(), ForestHyperparameters(n_trees=2),
                             bank_for(2), seed=0)
        doc = model.to_json_dict()
        doc[section][key] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(BadModelFile, match=f"{key} must be a JSON"):
            load_model(path)

    @pytest.mark.parametrize("section, key", [
        ("hyperparameters", "bag_fraction"),
        (None, "oob_accuracy"),
    ])
    def test_rejects_a_number_too_large_for_a_float(self, tmp_path, section,
                                                    key):
        model = train_forest(two_blob_training(), ForestHyperparameters(n_trees=2),
                             bank_for(2), seed=0)
        doc = model.to_json_dict()
        (doc if section is None else doc[section])[key] = 10**400
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(BadModelFile, match=f"{key} must be a JSON number "
                                               "that fits a float"):
            load_model(path)

    @pytest.mark.parametrize("key, value, kind", [
        ("rng_seed", 1.7, "integer"),
        ("class_names", [0, True], "string"),
    ])
    def test_rejects_metadata_of_the_wrong_type(self, tmp_path, key, value,
                                                kind):
        # int() and str() would load these as seed 1 and ['0', 'True']
        model = train_forest(two_blob_training(), ForestHyperparameters(n_trees=2),
                             bank_for(2), seed=0)
        doc = model.to_json_dict()
        doc[key] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(BadModelFile, match=f"{key}.* must be a JSON {kind}"):
            load_model(path)

    def test_model_json_shape(self):
        ts = two_blob_training()
        model = train_forest(ts, ForestHyperparameters(n_trees=2), bank_for(2),
                             seed=0)
        doc = model.to_json_dict()
        assert doc["version"] == 1
        assert set(doc) == {"version", "hyperparameters", "feature_bank",
                            "class_names", "rng_seed", "oob_accuracy", "trees"}
        assert len(doc["trees"]) == 2
        leaf_features = [f for t in doc["trees"] for f in t["feature"] if f < 0]
        assert all(f == -1 for f in leaf_features)


class TestLabelsCsv:
    def test_round_trip_with_header(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("x,y,z,class_id\n1,2,3,0\n4,5,6,1\n")
        coords, labels = load_labels_csv(path, dims=(8, 8, 8))
        np.testing.assert_array_equal(coords, [[1, 2, 3], [4, 5, 6]])
        np.testing.assert_array_equal(labels, [0, 1])

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("0,0,0,1\n")
        coords, labels = load_labels_csv(path)
        assert coords.shape == (1, 3)
        assert labels.tolist() == [1]

    def test_empty_file_gives_empty_arrays(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("")
        coords, labels = load_labels_csv(path)
        assert coords.shape == (0, 3)
        assert labels.shape == (0,)

    def test_rejects_wrong_field_count(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(BadParams):
            load_labels_csv(path)

    def test_rejects_non_integer(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("1,2,3,x\n")
        with pytest.raises(BadParams):
            load_labels_csv(path)

    def test_rejects_negative_class(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("1,2,3,-1\n")
        with pytest.raises(BadParams):
            load_labels_csv(path)

    def test_rejects_out_of_bounds_voxel(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("9,0,0,0\n")
        with pytest.raises(BadParams):
            load_labels_csv(path, dims=(8, 8, 8))

    def test_in_bounds_when_dims_omitted(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("999,0,0,0\n")
        coords, _ = load_labels_csv(path)
        assert coords[0, 0] == 999
