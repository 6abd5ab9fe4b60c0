"""From-scratch random-forest classifier for voxel feature vectors.

Deterministic by construction: all randomness flows from one SplitMix64
seed, each tree draws from its own spawned stream keyed by tree index, and
split ties resolve to the lowest feature index then the lowest threshold.
Training the same data with the same seed yields a byte-identical model
file.

Trees are stored as flat parallel arrays (feature, threshold, left, right,
class-probability rows); interior nodes route x[feature] <= threshold to
the left child, and leaves carry feature == -1. The nodes are in preorder,
left subtree first, so the leaves in array order run from left to right.

Prediction is exact through threshold bins: rows whose features fall in the
same bin between the sorted distinct thresholds of the forest meet every
split alike. Each feature is binned once per batch, the rows are grouped by
their bins, and each group is predicted once. Each tree finds the group's
leaf by leaf bitvectors (QuickScorer; Lucchese et al., SIGIR 2015): one
table lookup per split feature, ANDed, and the lowest set bit. Binning and
the leaf search run in pieces of rows (``volume.pieces``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .config import FeatureBankConfig, ForestHyperparameters
from .errors import (BadModelFile, BadParams, DimensionMismatch,
                     EmptyClass, VersionMismatch)
from .fileio import json_array, json_typed, read_csv, read_json, write_json
from .filters import map_slabs
from .rng import SplitMix64
from .volume import Volume, pieces

MODEL_FORMAT_VERSION = 1

log = logging.getLogger(__name__)


@dataclass
class TrainingSet:
    """Labeled feature vectors: features (N, F) and class ids (N,)."""

    features: np.ndarray
    labels: np.ndarray
    class_names: list[str]

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise BadParams(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise BadParams(
                f"labels shape {self.labels.shape} does not match "
                f"{self.features.shape[0]} samples")
        n_classes = len(self.class_names)
        if n_classes < 1:
            raise BadParams("need at least 1 class name")
        if not np.isfinite(self.features).all():
            raise BadParams("features must be finite")
        if self.features.shape[0] == 0:
            raise EmptyClass("training set has no samples")
        if self.labels.min() < 0 or self.labels.max() >= n_classes:
            raise BadParams(
                f"labels must lie in [0, {n_classes}), got range "
                f"[{self.labels.min()}, {self.labels.max()}]")
        counts = np.bincount(self.labels, minlength=n_classes)
        missing = [self.class_names[i] for i in range(n_classes) if counts[i] == 0]
        if missing:
            raise EmptyClass(f"classes with no samples: {missing}")
        thin = [self.class_names[i] for i in range(n_classes) if counts[i] == 1]
        if thin:
            raise BadParams(f"classes need >= 2 samples each, got 1 in: {thin}")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass
class _Tree:
    """One tree in preorder: each inner node's left child is the next node,
    and its right child the first node after the left subtree."""

    feature: np.ndarray    # (n_nodes,) int32, -1 at leaves
    threshold: np.ndarray  # (n_nodes,) float64, 0.0 at leaves
    left: np.ndarray       # (n_nodes,) int32, -1 at leaves
    right: np.ndarray      # (n_nodes,) int32, -1 at leaves
    probs: np.ndarray      # (n_nodes, n_classes) float64

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Leaf index for each row of x, via level-synchronous descent."""
        node = np.zeros(x.shape[0], dtype=np.int32)
        active = np.nonzero(self.feature[node] >= 0)[0]
        while active.size:
            cur = node[active]
            go_left = x[active, self.feature[cur]] <= self.threshold[cur]
            node[active] = np.where(go_left, self.left[cur], self.right[cur])
            active = active[self.feature[node[active]] >= 0]
        return node

    def depth(self) -> int:
        """Edges from the root to the deepest leaf; 0 for a lone leaf."""
        level, nodes = 0, np.zeros(1, dtype=np.int32)
        while True:
            inner = nodes[self.feature[nodes] >= 0]
            if not inner.size:
                return level
            nodes = np.concatenate([self.left[inner], self.right[inner]])
            level += 1

    def to_json_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "probs": self.probs.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict, n_classes: int, n_features: int) -> "_Tree":
        try:
            ids = {key: np.asarray(json_array(d[key], int, key), dtype=np.int32)
                   for key in ("feature", "left", "right")}
            threshold = json_array(d["threshold"], float, "threshold")
            probs = [json_array(row, float, "probs row") for row in d["probs"]]
            tree = cls(threshold=np.asarray(threshold, dtype=np.float64),
                       probs=np.asarray(probs, dtype=np.float64), **ids)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise BadModelFile(f"malformed tree record: {exc}") from exc
        n = tree.feature.size
        flat = (tree.feature, tree.threshold, tree.left, tree.right)
        if (n == 0 or any(a.shape != (n,) for a in flat)
                or tree.probs.shape != (n, n_classes)):
            raise BadModelFile("tree arrays have inconsistent lengths")
        if ((tree.feature < -1) | (tree.feature >= n_features)).any():
            raise BadModelFile(
                f"tree feature index outside [-1, {n_features})")
        leaf = tree.feature < 0
        if ((tree.left[leaf] != -1) | (tree.right[leaf] != -1)).any():
            raise BadModelFile("tree leaf carries a child index")
        # end[v] is one past the last node of v's subtree; the leaf bits of
        # _predict_bins hold only on this layout
        feature, left, right = (a.tolist()
                                for a in (tree.feature, tree.left, tree.right))
        end = list(range(1, n + 1))
        for v in reversed(range(n)):
            if feature[v] < 0:
                continue
            if not (left[v] == v + 1 < n and right[v] == end[v + 1] < n):
                raise BadModelFile(f"tree node {v} is not stored in preorder, "
                                   f"left subtree first")
            end[v] = end[right[v]]
        if end[0] != n:
            raise BadModelFile(f"tree root reaches {end[0]} of its {n} nodes")
        return tree


class _TreeBuilder:
    """Grows one CART tree on a bootstrap sample with Gini splits."""

    def __init__(self, x, y, n_classes, hp, mtry, rng):
        self.x = x
        self.y = y
        self.n_classes = n_classes
        self.hp = hp
        self.mtry = mtry
        self.rng = rng
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.probs: list[np.ndarray] = []

    def build(self) -> _Tree:
        self._grow(np.arange(self.x.shape[0]), depth=0)
        return _Tree(
            feature=np.asarray(self.feature, dtype=np.int32),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int32),
            right=np.asarray(self.right, dtype=np.int32),
            probs=np.asarray(self.probs, dtype=np.float64),
        )

    def _add_node(self, counts: np.ndarray) -> int:
        idx = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.probs.append(counts / counts.sum())
        return idx

    def _grow(self, idx: np.ndarray, depth: int) -> int:
        counts = np.bincount(self.y[idx], minlength=self.n_classes).astype(np.float64)
        node = self._add_node(counts)
        n = idx.size
        if (depth >= self.hp.max_depth or n < self.hp.min_samples_split
                or np.count_nonzero(counts) <= 1):
            return node
        split = self._best_split(idx)
        if split is None:
            return node
        f, t = split
        go_left = self.x[idx, f] <= t
        # children are appended after this node, left subtree first
        self.feature[node] = f
        self.threshold[node] = t
        self.left[node] = self._grow(idx[go_left], depth + 1)
        self.right[node] = self._grow(idx[~go_left], depth + 1)
        return node

    def _best_split(self, idx: np.ndarray) -> tuple[int, float] | None:
        n_features = self.x.shape[1]
        chosen = self.rng.sample_without_replacement(n_features, self.mtry)
        best: tuple[float, int, float] | None = None
        for f in sorted(chosen):
            found = self._scan_feature(idx, f)
            if found is None:
                continue
            score, thr = found
            # strict < keeps the lowest feature index, lowest threshold on ties
            if best is None or score < best[0]:
                best = (score, f, thr)
        if best is None:
            return None
        return best[1], best[2]

    def _scan_feature(self, idx: np.ndarray, f: int) -> tuple[float, float] | None:
        values = self.x[idx, f]
        order = np.argsort(values, kind="stable")
        v = values[order]
        y = self.y[idx][order]
        boundaries = np.nonzero(v[1:] > v[:-1])[0]
        if boundaries.size == 0:
            return None
        n = v.size
        onehot = np.zeros((n, self.n_classes), dtype=np.float64)
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


@dataclass
class ForestModel:
    """Trained forest plus everything needed to reproduce its features."""

    hyperparameters: ForestHyperparameters
    feature_bank: FeatureBankConfig
    class_names: list[str]
    rng_seed: int
    trees: list[_Tree] = field(repr=False)
    oob_accuracy: float | None = None

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def n_features(self) -> int:
        return self.feature_bank.feature_count

    def predict_batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Class ids and mean leaf probabilities for a feature matrix.

        Ids are the argmax of the averaged probability rows; ties break to
        the lowest class id. Each column is binned against the forest's
        thresholds (_bin), only the distinct bin codes are predicted
        (_predict_bins), and the results are gathered back to every row.
        The output is bit-identical to walking every row through every tree.
        """
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise DimensionMismatch(
                f"expected feature matrix (N, {self.n_features}), got {x.shape}")
        edges = self._edges()
        labels, probs, inverse = self._predict_bins(
            [_bin(u, x[:, f]) for f, u in enumerate(edges)], edges)
        return labels[inverse], probs[inverse]

    def _predict_bins(self, bins: list[np.ndarray], edges: list[np.ndarray]
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Class ids and mean leaf probabilities of the distinct bin codes,
        and each row's index into them.

        bins[f] holds every row's bin on feature f (_bin against edges[f],
        from _edges): the number of the forest's distinct thresholds on f
        that lie below x[f] (NaN counts all of them, and goes right like a
        value above them all). Rows with equal bins on every feature meet
        every split alike; _distinct groups them.

        Each tree finds each group's leaf by leaf bitvectors (QuickScorer).
        Its L leaves, numbered in array order, are left to right (_Tree),
        and a set of them is a mask of ceil(L / 64) uint64 words. A group
        that goes right at node v cannot reach a leaf of v's left subtree,
        whose leaves are numbered from before[left[v]] up to before[right[v]].
        Node v goes right exactly when its threshold's position j among
        edges[f] lies below the group's bin b, as x <= edges[f][j] exactly
        when b <= j. So the tree's table for feature f holds, for each bin
        b, the AND of the masks "every leaf but v's left subtree" over its
        nodes v on f with j < b. The AND of the group's rows of these
        tables keeps its own leaf, and clears every leaf to the left of
        it, at the node where the two part. The leaf is thus the lowest set
        bit, isolated as m & -m, an exact power of two in float64, whose
        index np.frexp gives. Only one tree's tables live at a time, built
        once; the groups then walk them in pieces of rows, so the masks, the
        gathered table rows and the leaf search are piece-sized (the 12-15k
        groups of a 96^3 slab under the benchmark's forest are one piece).

        The probabilities are summed in tree order, as in _walk, so the sums
        are bit-identical. bins is consumed: its entries are replaced by the
        groups' bins, so that the rows' bins are freed while the groups are
        predicted. The index is _distinct's, in a narrow signed type.
        """
        first, inverse = _distinct(bins)
        n = first.size
        # the caller's list too, so that the rows' bins are freed
        bins[:] = [b[first] for b in bins]
        del first
        probs = np.zeros((self.n_classes, n), dtype=np.float64)
        widest = 0
        for tree in self.trees:
            leaf = tree.feature < 0
            n_leaves = np.count_nonzero(leaf)
            widest = max(widest, n_leaves)
            before = np.cumsum(leaf) - leaf
            inner = np.flatnonzero(~leaf)
            bit = np.arange(-(-n_leaves // 64) * 64)
            keep = ((bit < before[tree.left[inner]][:, None])
                    | (bit >= before[tree.right[inner]][:, None]))
            # word-major, (W, n): each word of every row in one run
            masks = np.packbits(keep, axis=1, bitorder="little").view("<u8").T
            ones = np.full((masks.shape[0], 1), ~np.uint64(0), dtype=np.uint64)
            split = tree.feature[inner]
            tables = []
            for f in _sorted_distinct(split):
                node = np.flatnonzero(split == f)
                position = np.searchsorted(edges[f], tree.threshold[inner[node]])
                order = np.argsort(position)
                cleared = np.bitwise_and.accumulate(
                    np.concatenate([ones, masks[:, node[order]]], axis=1), axis=1)
                below = np.searchsorted(position[order], np.arange(edges[f].size + 1))
                tables.append((bins[f], cleared[:, below]))
            leaf_probs = tree.probs[leaf].T
            for a, b in pieces(n):
                mask = np.repeat(ones, b - a, axis=1)
                for codes, table in tables:
                    # np.take gathers by the narrow bins faster than indexing does
                    mask &= np.take(table, codes[a:b], axis=1)
                # each row's lowest nonzero word, written last, sets its leaf
                index = np.empty(b - a, dtype=np.intp)
                for w in reversed(range(mask.shape[0])):
                    m = mask[w]
                    low = (m & (~m + np.uint64(1))).astype(np.float64)
                    _, exponent = np.frexp(low)
                    np.copyto(index, exponent + (64 * w - 1), where=m != 0)
                for k, row in enumerate(leaf_probs):
                    probs[k, a:b] += row[index]
        probs = probs.T
        probs /= len(self.trees)
        labels = np.argmax(probs, axis=1).astype(np.int64, copy=False)
        log.debug("forest predict: %d trees, %d nodes, %d leaves in the widest "
                  "tree, %d rows, %d bin codes", len(self.trees),
                  sum(t.feature.size for t in self.trees), widest,
                  inverse.size, n)
        return labels, probs, inverse

    def _edges(self) -> list[np.ndarray]:
        """Per feature, the sorted distinct thresholds of all trees."""
        feature = np.concatenate([t.feature for t in self.trees])
        threshold = np.concatenate([t.threshold for t in self.trees])
        return [_sorted_distinct(threshold[feature == f])
                for f in range(self.n_features)]

    def _walk(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Class ids and mean leaf probabilities by walking every row.

        The reference that the tests hold predict_batch to.
        """
        probs = np.zeros((x.shape[0], self.n_classes), dtype=np.float64)
        for tree in self.trees:
            probs += tree.probs[tree.apply(x)]
        probs /= len(self.trees)
        labels = np.argmax(probs, axis=1).astype(np.int64)
        return labels, probs

    def to_json_dict(self) -> dict:
        return {
            "version": MODEL_FORMAT_VERSION,
            "hyperparameters": self.hyperparameters.to_json_dict(),
            "feature_bank": self.feature_bank.to_json_dict(),
            "class_names": list(self.class_names),
            "rng_seed": self.rng_seed,
            "oob_accuracy": self.oob_accuracy,
            "trees": [t.to_json_dict() for t in self.trees],
        }


def train_forest(training: TrainingSet, hp: ForestHyperparameters,
                 feature_bank: FeatureBankConfig, *, seed: int = 0) -> ForestModel:
    """Fit a forest of Gini CART trees on bootstrap samples.

    Each tree t uses the stream spawn(t) of the root SplitMix64 generator,
    so models with more trees extend, rather than reshuffle, smaller ones.
    Out-of-bag accuracy is evaluated on samples left out of each bootstrap;
    it is None when every sample landed in every bag.
    """
    if feature_bank.feature_count != training.n_features:
        raise DimensionMismatch(
            f"feature bank yields {feature_bank.feature_count} features but "
            f"training set has {training.n_features}")
    root = SplitMix64(seed)
    n = training.n_samples
    n_classes = len(training.class_names)
    mtry = hp.resolved_features_per_split(training.n_features)
    draws = max(1, round(hp.bag_fraction * n))

    trees: list[_Tree] = []
    oob_probs = np.zeros((n, n_classes), dtype=np.float64)
    oob_votes = np.zeros(n, dtype=np.int64)
    for t in range(hp.n_trees):
        rng = root.spawn(t)
        bag = rng.bootstrap_indices(n, draws)
        builder = _TreeBuilder(training.features[bag], training.labels[bag],
                               n_classes, hp, mtry, rng)
        tree = builder.build()
        trees.append(tree)
        in_bag = np.zeros(n, dtype=bool)
        in_bag[bag] = True
        out = np.nonzero(~in_bag)[0]
        if out.size:
            oob_probs[out] += tree.probs[tree.apply(training.features[out])]
            oob_votes[out] += 1

    voted = oob_votes > 0
    if voted.any():
        pred = np.argmax(oob_probs[voted] / oob_votes[voted, None], axis=1)
        oob_accuracy = float(np.mean(pred == training.labels[voted]))
    else:
        oob_accuracy = None
    return ForestModel(hyperparameters=hp, feature_bank=feature_bank,
                       class_names=list(training.class_names), rng_seed=seed,
                       trees=trees, oob_accuracy=oob_accuracy)


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a, as np.unique(a) gives them.

    np.unique without a return flag loads numpy.ma to test for a mask.
    """
    a = np.sort(a)
    new = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return a[new]


def _bin(edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The bin of each value among sorted edges: the number of edges below
    it, all of them for NaN, in the narrowest unsigned type that holds it.

    Binned in pieces, so the float64 copy of the values and the intp
    result of searchsorted are piece-sized."""
    out = np.empty(values.shape, dtype=np.min_scalar_type(edges.size))
    for a, b in pieces(values.size):
        out[a:b] = np.searchsorted(edges, values[a:b].astype(np.float64), "left")
    return out


def _distinct(bins: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct row of bins, and each row's index
    among the distinct rows, in lexicographic order.

    bins[f] holds column f of every row. One stable lexsort orders the rows
    with bins[0] as the primary key and keeps equal rows in index order, so
    the first of each run is its first row; the runs are numbered by a
    cumulative sum of where any column of the sorted rows changes. The
    index is in the narrowest signed type that holds the count of distinct
    rows: indexing by it casts to intp in buffered pieces, where np.take or
    an intp index would hold a copy of intp per row.
    """
    order = np.lexsort(bins[::-1])
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for b in bins:
        ordered = b[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    # new[0] is set, so a row's rank is the count of changes after row 0
    rank = np.zeros(order.size, np.min_scalar_type(-max(1, np.count_nonzero(new))))
    np.cumsum(new[1:], dtype=rank.dtype, out=rank[1:])
    inverse = np.empty_like(rank)
    inverse[order] = rank
    return order[new], inverse


def segment_volume(model: ForestModel, volume: Volume, *, threads: int = 1
                   ) -> tuple[Volume, Volume]:
    """Per-voxel classification of a grayscale volume.

    Returns the label volume and a confidence volume holding each voxel's
    maximum class probability. The features are streamed in z-slabs on
    `threads` threads (map_slabs), one channel at a time: each channel is
    binned as it arrives, so a slab holds its bins, never its features.
    Each slab predicts its distinct bin codes once (_predict_bins) and
    gathers only the uint8 label and float32 confidence back to its
    voxels, by _distinct's narrow index, which numpy casts to intp in
    buffered pieces. The output does not depend on the thread count, the
    slab height or any piece size. A model with more than 256 classes is
    refused, as its ids do not fit the uint8 labels.
    """
    if model.n_classes > 256:
        raise BadParams(f"the model has {model.n_classes} classes, but a u8 "
                        f"label volume holds at most 256")
    nz, ny, nx = volume.data.shape
    plane = ny * nx
    labels = np.empty(nz * plane, dtype=np.uint8)
    confidence = np.empty(nz * plane, dtype=np.float32)
    edges = model._edges()

    def predict(z0: int, z1: int, channels) -> None:
        bins = [None] * len(edges)
        for f, channel in channels:
            bins[f] = _bin(edges[f], channel.ravel())
            # so that the last channel is not held through the prediction
            del channel
        ids, probs, inverse = model._predict_bins(bins, edges)
        conf = probs.max(axis=1).astype(np.float32)
        labels[z0 * plane:z1 * plane] = ids.astype(np.uint8)[inverse]
        confidence[z0 * plane:z1 * plane] = conf[inverse]

    map_slabs(volume, model.feature_bank, predict, threads=threads)
    label_vol = volume.with_data(labels.reshape(nz, ny, nx), value_kind="label",
                                 element_encoding="u8")
    conf_vol = volume.with_data(confidence.reshape(nz, ny, nx),
                                value_kind="grayscale", element_encoding="f32")
    return label_vol, conf_vol


def save_model(model: ForestModel, path) -> None:
    write_json(path, model.to_json_dict())


def load_model(path) -> ForestModel:
    raw = read_json(path, BadModelFile, dict)
    try:
        version = json_typed(raw.get("version"), int, "version")
        if version != MODEL_FORMAT_VERSION:
            raise VersionMismatch(
                f"model format version {version!r} is not supported "
                f"(expected {MODEL_FORMAT_VERSION})")
        hp = ForestHyperparameters.from_json_dict(raw["hyperparameters"])
        bank = FeatureBankConfig.from_json_dict(raw["feature_bank"])
        class_names = list(json_array(raw["class_names"], str, "class_names"))
        seed = json_typed(raw["rng_seed"], int, "rng_seed")
        oob = raw.get("oob_accuracy")
        oob = None if oob is None else float(json_typed(oob, float,
                                                         "oob_accuracy"))
        trees = [_Tree.from_json_dict(t, len(class_names), bank.feature_count)
                 for t in raw["trees"]]
    except BadModelFile:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise BadModelFile(f"model file {path} is malformed: {exc}") from exc
    if len(class_names) < 1:
        raise BadModelFile("model must declare at least 1 class")
    if not trees:
        raise BadModelFile("model holds no trees")
    return ForestModel(hyperparameters=hp, feature_bank=bank, class_names=class_names,
                       rng_seed=seed, trees=trees, oob_accuracy=oob)


def load_labels_csv(path, dims: tuple[int, int, int] | None = None):
    """Read voxel annotations as (coords (N, 3) x,y,z, class ids (N,)).

    Expects rows of x,y,z,class_id with an optional header. Coordinates are
    checked against dims when given.
    """
    coords: list[tuple[int, int, int]] = []
    labels: list[int] = []
    for where, (x, y, z, c) in read_csv(path, "x,y,z,class_id", (int,) * 4):
        if c < 0:
            raise BadParams(f"{where}: class_id must be >= 0, got {c}")
        if dims is not None:
            nx, ny, nz = dims
            if not (0 <= x < nx and 0 <= y < ny and 0 <= z < nz):
                raise BadParams(
                    f"{where}: voxel ({x},{y},{z}) outside dims {dims}")
        coords.append((x, y, z))
        labels.append(c)
    if not coords:
        # an annotation-free file is legal here; training later rejects it
        # as a set of empty classes
        return (np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.int64))
    return np.asarray(coords, dtype=np.int64), np.asarray(labels, dtype=np.int64)

