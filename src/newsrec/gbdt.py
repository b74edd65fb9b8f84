"""Gradient-boosted regression trees with a logistic link.

Second-order (Newton) boosting on logistic loss: per round, with p the
current prediction, gradient g = p - y and hessian h = p(1-p); a leaf's
weight is -sum(g) / (sum(h) + lambda) and splits maximize the standard
second-order gain

    0.5 * [ GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda) ]

found by exact greedy search over sorted unique feature values (midpoint
thresholds, `x < threshold` routes left). Each node searches all features
at once: its rows, presorted per feature once per ensemble and kept in
order by stable filtering at each split, give one cumulative-sum gain
matrix (`_TreeBuilder`). Ties in gain resolve to the lowest feature index,
then the lowest threshold, so training is fully deterministic. The raw
score is base_score (log-odds of the positive rate) plus learning_rate
times the sum of routed leaf weights; predictions are its sigmoid. A model
validates its trees when it is made and compiles them into one node table
that routes all trees together, one depth level at a time (`_NodeTable`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .corpus import _finite, _finite_number, _integer
from .features import SCHEMA_VERSION


class GbdtError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    n_trees: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    min_child_weight: float = 1.0
    l2_reg: float = 1.0

    def __post_init__(self):
        for name in ("n_trees", "max_depth"):
            _integer(getattr(self, name), name, GbdtError)
        for name in ("learning_rate", "min_child_weight", "l2_reg"):
            if not _finite(getattr(self, name)):
                raise GbdtError(f"{name} must be finite, not {getattr(self, name)!r}")
        if self.n_trees < 1:
            raise GbdtError("n_trees must be >= 1")
        if self.max_depth < 0:
            raise GbdtError("max_depth must be >= 0")
        if not 0.0 < self.learning_rate <= 1.0:
            raise GbdtError("learning_rate must be in (0, 1]")
        if self.l2_reg < 0 or self.min_child_weight < 0:
            raise GbdtError("regularizers must be >= 0")


class Tree:
    """One regression tree in flat-array form (node 0 is the root).

    Leaves keep feature = -1 and carry their weight; internal nodes route
    `x[feature] < threshold` to `left`, else `right`, so NaN goes right.
    The arrays are read-only copies, so a tree cannot change under the node
    table its ensemble scores with. Values must be numbers, and indices
    whole numbers that fit int32; nothing is truncated or wrapped.
    """

    def __init__(self, feature, threshold, left, right, weight):
        self.feature = _readonly("feature", feature, np.int32)
        self.threshold = _readonly("threshold", threshold, np.float64)
        self.left = _readonly("left", left, np.int32)
        self.right = _readonly("right", right, np.int32)
        self.weight = _readonly("weight", weight, np.float64)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "weight": self.weight.tolist(),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Tree":
        return cls(obj["feature"], obj["threshold"], obj["left"], obj["right"],
                   obj["weight"])


def _readonly(name: str, values, dtype) -> np.ndarray:
    raw = np.asarray(values)
    if raw.dtype.kind not in "iuf":
        raise GbdtError(f"{name} holds {raw.dtype} values, not numbers")
    with np.errstate(invalid="ignore"):
        arr = raw.astype(dtype)
    if arr.dtype.kind == "i":
        _first_bad((arr != raw).ravel(), raw.ravel(), f"{name} is not an int32 index:")
    arr.flags.writeable = False
    return arr


def _first_bad(bad: np.ndarray, values: np.ndarray, what: str) -> None:
    if bad.any():
        i = int(np.argmax(bad))
        raise GbdtError(f"node {i}: {what} {values[i]!r}")


def _tree_depth(tree: Tree, n_features: int) -> int:
    """Check one tree's structure and return its depth.

    Internal nodes need a feature in [0, n_features) and both children in
    range; leaves (feature -1) may keep -1 children. Thresholds and weights
    are finite. Walking down one level at a time, every node must be
    reached exactly once from the root, which rules out cycles and shared
    children and bounds the walk by the node count.
    """
    n = tree.n_nodes
    arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.weight)
    if n == 0 or any(a.ndim != 1 or len(a) != n for a in arrays):
        raise GbdtError("node arrays must be non-empty, one-dimensional and of "
                        "equal length")
    internal = tree.feature >= 0
    _first_bad((tree.feature < -1) | (tree.feature >= n_features), tree.feature,
               f"feature outside [0, {n_features}):")
    for name, child in (("left", tree.left), ("right", tree.right)):
        _first_bad(internal & ((child < 0) | (child >= n)), child,
                   f"{name} child outside [0, {n}):")
    _first_bad(~np.isfinite(tree.threshold), tree.threshold, "non-finite threshold")
    _first_bad(~np.isfinite(tree.weight), tree.weight, "non-finite leaf weight")

    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    level = np.zeros(1, dtype=np.int64)
    depth = 0
    while True:
        level = level[internal[level]]
        if not len(level):
            break
        kids = np.concatenate((tree.left[level], tree.right[level]))
        reached = np.bincount(kids, minlength=n)
        again = np.flatnonzero((seen & (reached > 0)) | (reached > 1))
        if len(again):
            raise GbdtError(f"node {again[0]}: reached more than once from the root "
                            "(a cycle or a shared child)")
        seen[kids] = True
        level = kids
        depth += 1
    if not seen.all():
        raise GbdtError(f"node {int(np.argmin(seen))}: not reachable from the root")
    return depth


class _NodeTable:
    """Every tree of an ensemble in one validated node table.

    Tree k's nodes sit at [roots[k], roots[k] + n_nodes) with child indices
    shifted to match. A leaf's children point to the leaf itself, so routing
    all trees together `depth` times (the deepest tree's depth) leaves each
    row on its leaf in every tree. A leaf's `value` is learning_rate times
    its weight, and the values are summed in tree order, so scores equal the
    per-tree loop `out += learning_rate * leaf_weight` bit for bit.
    """

    def __init__(self, trees: Sequence[Tree], n_features: int, learning_rate: float):
        self.depth = 0
        for k, tree in enumerate(trees):
            try:
                self.depth = max(self.depth, _tree_depth(tree, n_features))
            except GbdtError as exc:
                raise GbdtError(f"tree {k} {exc}") from None

        sizes = [t.n_nodes for t in trees]
        self.roots = np.cumsum([0] + sizes, dtype=np.int64)[:-1]

        def cat(name: str, dtype) -> np.ndarray:
            parts = [getattr(t, name) for t in trees]
            return np.concatenate(parts).astype(dtype) if parts else np.empty(0, dtype)

        own = np.arange(sum(sizes), dtype=np.int64)
        shift = np.repeat(self.roots, sizes)
        feature = cat("feature", np.int64)
        leaf = feature < 0
        self.feature = np.where(leaf, 0, feature)
        self.threshold = cat("threshold", np.float64)
        left = np.where(leaf, own, cat("left", np.int64) + shift)
        right = np.where(leaf, own, cat("right", np.int64) + shift)
        # child[2 * node + go_left]: one gather takes the step for both branches
        self.child = np.stack((right, left), axis=1).ravel()
        self.value = learning_rate * cat("weight", np.float64)

    def raw_scores(self, X: np.ndarray, base_score: float) -> np.ndarray:
        n = len(X)
        idx = np.broadcast_to(self.roots[:, None], (len(self.roots), n))
        if self.depth:
            flat = np.ascontiguousarray(X, dtype=np.float64).ravel()
            row_start = np.arange(n, dtype=np.int64) * X.shape[1]
            for _ in range(self.depth):
                go_left = flat[row_start + self.feature[idx]] < self.threshold[idx]
                idx = self.child[2 * idx + go_left]
        terms = np.empty((len(self.roots) + 1, n))
        terms[0] = base_score
        terms[1:] = self.value[idx]
        return np.add.accumulate(terms, axis=0)[-1]


@dataclass(frozen=True)
class TreeEnsemble:
    """An immutable model. Making one (by training, `load` or by hand)
    validates its trees and scalars and compiles the node table that scores
    it; `schema_version` is the feature schema it was trained under."""

    trees: tuple[Tree, ...]
    learning_rate: float
    base_score: float
    schema_version: int
    n_features: int
    train_losses: tuple[float, ...] = ()
    _table: _NodeTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and math.isfinite(self.base_score)):
            raise GbdtError("learning_rate and base_score must be finite")
        object.__setattr__(self, "trees", tuple(self.trees))
        object.__setattr__(self, "train_losses", tuple(self.train_losses))
        object.__setattr__(self, "_table",
                           _NodeTable(self.trees, self.n_features, self.learning_rate))

    def schema_error(self, width: int) -> Optional[str]:
        """Why this model may not serve under the running feature schema,
        whose rows are `width` features wide."""
        if self.schema_version != SCHEMA_VERSION:
            return (f"model uses feature schema version {self.schema_version}, "
                    f"but the running schema is version {SCHEMA_VERSION}")
        if self.n_features != width:
            return (f"model expects {self.n_features} features, but the running "
                    f"feature schema has {width}")
        return None

    def raw_scores(self, X: np.ndarray) -> np.ndarray:
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise GbdtError(f"feature width {X.shape} does not match model "
                            f"({self.n_features})")
        return self._table.raw_scores(X, self.base_score)

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.raw_scores(X))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def _logloss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, 1e-12, 1 - 1e-12)
    return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())


class _TreeBuilder:
    """Grows one tree by exact greedy search, one split search per node.

    A node is its m rows as two (F, m) arrays: `rows[f]` lists the rows in
    ascending order of feature f and `vals[f]` their values of feature f
    (the root is the ensemble's presorted `order_T` and `sorted_T`). A
    split filters both stably, so each child keeps every feature's order
    and a node costs O(F * m).
    """

    def __init__(self, order_T: np.ndarray, sorted_T: np.ndarray, cfg: TrainConfig):
        self.order_T = order_T
        self.sorted_T = sorted_T
        self.cfg = cfg
        self.goes_left = np.empty(order_T.shape[1], dtype=bool)
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.weight: list[float] = []

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.weight.append(0.0)
        return len(self.feature) - 1

    def _best_split(self, rows: np.ndarray, vals: np.ndarray, g: np.ndarray,
                    h: np.ndarray, g_tot: float, h_tot: float):
        """(gain, feature, threshold) of the node's best split, or feature -1.

        Column j of feature f sends rows[f, :j+1] left; the last column,
        which sends every row left, is never valid. Each feature keeps its
        first best column (lowest threshold), and the lowest feature with
        the highest gain wins; a feature whose best gain is NaN never does.
        The gain is computed in place, one operation at a time in the order
        of 0.5 * (GL^2/(HL+lam) + GR^2/(HR+lam) - G^2/(H+lam)).
        """
        F, m = rows.shape
        if m < 2:
            return 0.0, -1, 0.0
        lam = self.cfg.l2_reg
        mcw = self.cfg.min_child_weight
        parent = g_tot * g_tot / (h_tot + lam)
        valid = np.zeros((F, m), dtype=bool)
        np.less(vals[:, :-1], vals[:, 1:], out=valid[:, :-1])
        gain = g[rows]
        np.cumsum(gain, axis=1, out=gain)  # GL
        hl = h[rows]
        np.cumsum(hl, axis=1, out=hl)
        with np.errstate(all="ignore"):  # masked columns may divide by zero
            hr = h_tot - hl
            valid &= hl >= mcw
            valid &= hr >= mcw
            hl += lam
            hr += lam
            gr = g_tot - gain
            gr *= gr
            gr /= hr
            gain *= gain
            gain /= hl
            gain += gr
            gain -= parent
            gain *= 0.5
        np.logical_not(valid, out=valid)
        np.copyto(gain, -np.inf, where=valid)
        at = gain.argmax(axis=1)  # first max: lowest threshold wins ties
        best = gain[np.arange(F), at]
        best[np.isnan(best)] = -np.inf
        f = int(best.argmax())  # first max: lowest feature wins ties
        if not best[f] > 0.0:
            return 0.0, -1, 0.0
        j = at[f]
        return float(best[f]), f, float((vals[f, j] + vals[f, j + 1]) / 2.0)

    def _partition(self, rows: np.ndarray, vals: np.ndarray):
        """Filter a node's arrays stably by `goes_left`: (left, right), each
        a (rows, vals) pair. Every row of `rows` holds the same row set, so
        each side keeps the same count per feature."""
        keep = self.goes_left[rows]
        # flatnonzero + take is several times faster than boolean indexing
        return [(rows.take(at).reshape(len(rows), -1), vals.take(at).reshape(len(rows), -1))
                for at in (np.flatnonzero(keep), np.flatnonzero(~keep))]

    def build(self, g: np.ndarray, h: np.ndarray) -> tuple[Tree, np.ndarray]:
        """Grow one tree; returns it plus per-row leaf weights."""
        contrib = np.zeros(len(g))
        stack = [(self._new_node(), self.order_T, self.sorted_T, 0)]
        while stack:
            node, rows, vals, depth = stack.pop()
            # the node's rows in index order: the same sums as g[mask].sum()
            # over a boolean row mask
            members = np.sort(rows[0])
            g_tot = g[members].sum()
            h_tot = h[members].sum()
            if depth < self.cfg.max_depth:
                gain, f, thr = self._best_split(rows, vals, g, h, g_tot, h_tot)
                if f >= 0 and gain > 0.0:
                    self.feature[node] = f
                    self.threshold[node] = thr
                    self.goes_left[rows[f]] = vals[f] < thr
                    if depth + 1 == self.cfg.max_depth:
                        # the children are leaves, which need only their rows
                        rows, vals = rows[:1], vals[:1]
                    (lr, lv), (rr, rv) = self._partition(rows, vals)
                    self.left[node] = self._new_node()
                    self.right[node] = self._new_node()
                    stack.append((self.right[node], rr, rv, depth + 1))
                    stack.append((self.left[node], lr, lv, depth + 1))
                    continue
            w = -g_tot / (h_tot + self.cfg.l2_reg)
            self.weight[node] = w
            contrib[members] = w
        tree = Tree(self.feature, self.threshold, self.left, self.right, self.weight)
        return tree, contrib


def train(X: np.ndarray, y: np.ndarray, cfg: TrainConfig,
          base_score: Optional[float] = None) -> TreeEnsemble:
    """Fit an ensemble on an (n, F) feature matrix with n {0,1} labels,
    under the running feature schema.

    base_score defaults to the log-odds of the positive rate; pass an
    explicit value to pin the starting margin (useful for analytic checks).
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
        raise GbdtError("X must be (n, F) with matching labels")
    if not np.isin(y, (0.0, 1.0)).all():
        raise GbdtError("labels must be 0 or 1")
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == len(y):
        raise GbdtError("training requires at least one positive and one negative")
    if not np.isfinite(X).all():
        raise GbdtError("features contain NaN or infinity")

    rate = n_pos / len(y)
    base = math.log(rate / (1.0 - rate)) if base_score is None else float(base_score)
    margins = np.full(len(y), base)
    order_T = np.argsort(X.T, axis=1, kind="stable")
    sorted_T = np.take_along_axis(X.T, order_T, axis=1)

    trees = []
    prev = _logloss(y, _sigmoid(margins))
    losses = [prev]
    for _ in range(cfg.n_trees):
        p = _sigmoid(margins)
        g = p - y
        h = p * (1.0 - p)
        tree, contrib = _TreeBuilder(order_T, sorted_T, cfg).build(g, h)
        margins += cfg.learning_rate * contrib
        loss = _logloss(y, _sigmoid(margins))
        if loss > prev + 1e-9:
            raise GbdtError(f"training loss increased ({prev} -> {loss})")
        prev = loss
        losses.append(loss)
        trees.append(tree)
    return TreeEnsemble(trees=trees, learning_rate=cfg.learning_rate, base_score=base,
                        schema_version=SCHEMA_VERSION, n_features=X.shape[1],
                        train_losses=losses)


MODEL_FORMAT = 1


def save(model: TreeEnsemble, path: str | Path) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "schema_version": model.schema_version,
        "n_features": model.n_features,
        "learning_rate": model.learning_rate,
        "base_score": model.base_score,
        "trees": [t.to_dict() for t in model.trees],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def load(path: str | Path) -> TreeEnsemble:
    """Load a saved ensemble, which validates every tree (see `_tree_depth`);
    any problem raises GbdtError naming the file, and for a malformed tree
    its index and node, or for a scalar its field. `format`, `schema_version`
    and `n_features` must be JSON integers, `learning_rate` and `base_score`
    finite JSON numbers; nothing is coerced. A model saved under another
    feature schema version still loads; `schema_error` names the mismatch
    and serving refuses it."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if _integer(payload["format"], "format") != MODEL_FORMAT:
            raise GbdtError(f"unsupported model format {payload['format']!r}")
        trees = []
        for k, obj in enumerate(payload["trees"]):
            try:
                trees.append(Tree.from_dict(obj))
            except GbdtError as exc:
                raise GbdtError(f"tree {k} {exc}") from None
        return TreeEnsemble(
            trees=trees,
            learning_rate=_finite_number(payload["learning_rate"], "learning_rate"),
            base_score=_finite_number(payload["base_score"], "base_score"),
            schema_version=_integer(payload["schema_version"], "schema_version"),
            n_features=_integer(payload["n_features"], "n_features"))
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise GbdtError(f"cannot load model from {path}: {exc}") from exc
