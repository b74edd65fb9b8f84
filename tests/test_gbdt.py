import dataclasses
import json
import math
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from newsrec.features import SCHEMA_VERSION
from newsrec.gbdt import (GbdtError, TrainConfig, Tree, TreeEnsemble, _TreeBuilder,
                          load, save, train)


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


def auc_oracle(y, scores):
    """Rank-statistic AUC: P(score_pos > score_neg) with tie credit 0.5."""
    pos = [s for s, label in zip(scores, y) if label == 1]
    neg = [s for s, label in zip(scores, y) if label == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def separable_dataset(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = (X[:, 0] > 0).astype(int)
    return X, y


class TestTrain:
    def test_constant_model_on_balanced_labels(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 0, 1])
        model = train(X, y, TrainConfig(n_trees=1, max_depth=0))
        assert model.base_score == pytest.approx(0.0)
        for x in ([-5.0], [0.5], [100.0]):
            assert model.predict_matrix(np.array([x]))[0] == pytest.approx(0.5)

    def test_base_score_is_log_odds(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        model = train(X, y, TrainConfig(n_trees=1, max_depth=0))
        assert model.base_score == pytest.approx(math.log(0.3 / 0.7))

    def test_depth0_leaf_matches_newton_step(self):
        # base pinned to 0 so p_hat = 0.5 for every example
        X = np.arange(40, dtype=float).reshape(-1, 1)
        y = np.array([1] * 30 + [0] * 10)
        lam = 1.0
        cfg = TrainConfig(n_trees=1, max_depth=0, learning_rate=1.0, l2_reg=lam)
        model = train(X, y, cfg, base_score=0.0)
        g = 0.5 - y
        expected = -g.sum() / (0.25 * len(y) + lam)  # analytic oracle
        leaf = model.trees[0].weight[0]
        assert leaf == pytest.approx(expected, abs=1e-9)

    def test_threshold_separable_perfect_accuracy(self):
        rng = np.random.default_rng(1)
        x = np.concatenate([rng.uniform(-2, -0.1, 50), rng.uniform(0.1, 2, 50)])
        y = (x > 0).astype(int)
        X = x.reshape(-1, 1)
        model = train(X, y, TrainConfig(n_trees=5, max_depth=1, learning_rate=0.5))
        pred = (model.predict_matrix(X) >= 0.5).astype(int)
        assert (pred == y).all()

    def test_monotone_training_loss(self):
        X, y = separable_dataset(seed=3)
        model = train(X, y, TrainConfig(n_trees=40, max_depth=3))
        losses = model.train_losses
        assert all(losses[i + 1] <= losses[i] + 1e-9 for i in range(len(losses) - 1))

    def test_separable_auc(self):
        X, y = separable_dataset(n=200, seed=5)
        model = train(X, y, TrainConfig(n_trees=30, max_depth=3))
        scores = model.predict_matrix(X)
        assert auc_oracle(y, scores) >= 0.95

    def test_determinism(self):
        X, y = separable_dataset(n=80, seed=7)
        m1 = train(X, y, TrainConfig(n_trees=10, max_depth=2))
        m2 = train(X, y, TrainConfig(n_trees=10, max_depth=2))
        assert json.dumps([t.to_dict() for t in m1.trees]) == \
               json.dumps([t.to_dict() for t in m2.trees])

    def test_tie_break_prefers_lowest_feature(self):
        x = np.array([-1.0, -0.5, 0.5, 1.0])
        X = np.column_stack([x, x])  # identical columns, identical gains
        y = (x > 0).astype(int)
        model = train(X, y, TrainConfig(n_trees=1, max_depth=1,
                                        min_child_weight=0.0))
        assert model.trees[0].feature[0] == 0

    def test_single_class_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(GbdtError, match="positive"):
            train(X, np.ones(4), TrainConfig())

    @pytest.mark.parametrize("X, y, match", [
        (np.array([0.0, 1.0, 2.0]), np.array([0, 1, 0]), "must be"),
        (np.zeros((3, 2)), np.array([0, 1]), "matching labels"),
        (np.zeros((3, 2)), np.array([[0], [1], [0]]), "matching labels"),
        (np.zeros((3, 2)), np.array([0, 2, 1]), "labels must be 0 or 1"),
        (np.zeros((3, 2)), np.array([0.5, 1.0, 0.0]), "labels must be 0 or 1"),
        (np.array([[0.0, math.nan], [1.0, 0.0]]), np.array([0, 1]), "NaN or infinity"),
        (np.array([[0.0, 1.0], [-math.inf, 0.0]]), np.array([0, 1]), "NaN or infinity"),
    ], ids=["1d_X", "short_y", "2d_y", "label_2", "label_half", "nan", "inf"])
    def test_malformed_input_refused(self, X, y, match):
        with pytest.raises(GbdtError, match=match):
            train(X, y, TrainConfig(n_trees=1))

    def test_config_validation(self):
        with pytest.raises(GbdtError):
            TrainConfig(n_trees=0)
        with pytest.raises(GbdtError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(GbdtError):
            TrainConfig(max_depth=-1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["learning_rate", "min_child_weight", "l2_reg"])
    def test_non_finite_config_value_refused(self, field, bad):
        # a NaN min_child_weight or an infinite l2_reg trained trees that never split
        with pytest.raises(GbdtError, match=f"{field} must be finite, not {bad!r}"):
            TrainConfig(**{field: bad})

    def test_model_records_schema_and_width(self):
        X, y = separable_dataset(n=60, seed=11)
        model = train(X, y, TrainConfig(n_trees=5, max_depth=2))
        assert model.schema_version == SCHEMA_VERSION
        assert model.n_features == 3


class TestPredict:
    def test_empty_tree_list_is_sigmoid_base(self):
        model = TreeEnsemble(trees=[], learning_rate=0.1, base_score=0.7,
                             schema_version=1, n_features=2)
        assert model.predict_matrix(np.zeros((1, 2)))[0] == pytest.approx(sigmoid(0.7))

    def test_single_leaf_closed_form(self):
        tree = Tree([-1], [0.0], [-1], [-1], [1.3])
        model = TreeEnsemble(trees=[tree], learning_rate=1.0, base_score=0.0,
                             schema_version=1, n_features=2)
        assert model.predict_matrix(np.zeros((1, 2)))[0] == pytest.approx(sigmoid(1.3))

    def test_output_strictly_inside_unit_interval(self):
        X, y = separable_dataset(n=100, seed=13)
        model = train(X, y, TrainConfig(n_trees=60, max_depth=3, learning_rate=1.0))
        p = model.predict_matrix(X)
        assert (p > 0.0).all() and (p < 1.0).all()

    def test_width_checked(self):
        model = TreeEnsemble(trees=[], learning_rate=0.1, base_score=0.0,
                             schema_version=1, n_features=3)
        with pytest.raises(GbdtError, match="width"):
            model.predict_matrix(np.zeros((1, 2)))


class TestSaveLoad:
    def test_roundtrip_bit_identical_scores(self, tmp_path):
        X, y = separable_dataset(n=120, seed=17)
        model = train(X, y, TrainConfig(n_trees=12, max_depth=3))
        save(model, tmp_path / "m.json")
        again = load(tmp_path / "m.json")
        probe = np.random.default_rng(0).normal(size=(100, 3))
        assert np.array_equal(model.predict_matrix(probe), again.predict_matrix(probe))
        assert again.schema_error(3) is None

    def test_corrupted_file_structured_error(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(GbdtError, match="cannot load"):
            load(tmp_path / "bad.json")
        (tmp_path / "partial.json").write_text('{"format": 1}', encoding="utf-8")
        with pytest.raises(GbdtError, match="cannot load"):
            load(tmp_path / "partial.json")

    def test_other_schema_version_loads_and_is_named(self, tmp_path):
        X, y = separable_dataset(n=40, seed=19)
        model = train(X, y, TrainConfig(n_trees=2, max_depth=1))
        assert model.schema_version == SCHEMA_VERSION
        save(model, tmp_path / "m.json")
        payload = json.loads((tmp_path / "m.json").read_text())
        payload["schema_version"] = 99
        (tmp_path / "m.json").write_text(json.dumps(payload), encoding="utf-8")
        again = load(tmp_path / "m.json")
        assert again.schema_version == 99
        assert again.schema_error(3) == (
            f"model uses feature schema version 99, but the running schema is "
            f"version {SCHEMA_VERSION}")


# ---------------------------------------------------------------------------
# Compiled scoring against the per-tree oracle, and model validation
# ---------------------------------------------------------------------------

def route_oracle(tree, X):
    """Leaf weight per row, routing one tree at a time (the pre-compiled path)."""
    idx = np.zeros(len(X), dtype=np.int32)
    while True:
        internal = tree.feature[idx] >= 0
        if not internal.any():
            return tree.weight[idx]
        rows = np.nonzero(internal)[0]
        f = tree.feature[idx[rows]]
        go_left = X[rows, f] < tree.threshold[idx[rows]]
        idx[rows] = np.where(go_left, tree.left[idx[rows]], tree.right[idx[rows]])


def raw_scores_oracle(model, X):
    out = np.full(len(X), model.base_score)
    for tree in model.trees:
        out += model.learning_rate * route_oracle(tree, X)
    return out


# A small value grid makes rows hit thresholds exactly (x == threshold goes right).
GRID = [-1.5, -0.5, 0.0, 0.25, 0.5, 2.0]
finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def random_trees(draw, n_features):
    """A valid tree of depth 0-6, grown unbalanced, with its non-root nodes
    stored in a random order."""
    max_depth = draw(st.integers(0, 6))
    feature, threshold, children, weight = [], [], [], []

    def grow(depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        children.append((-1, -1))
        weight.append(draw(finite))
        if depth < max_depth and draw(st.booleans()):
            feature[node] = draw(st.integers(0, n_features - 1))
            threshold[node] = draw(st.sampled_from(GRID) | finite)
            children[node] = (grow(depth + 1), grow(depth + 1))
        return node

    grow(0)
    n = len(feature)
    order = [0] + draw(st.permutations(range(1, n)))  # order[new] = old
    new_of = {old: new for new, old in enumerate(order)}
    remap = lambda c: new_of[c] if c >= 0 else -1
    return Tree([feature[o] for o in order], [threshold[o] for o in order],
                [remap(children[o][0]) for o in order],
                [remap(children[o][1]) for o in order],
                [weight[o] for o in order])


@st.composite
def ensembles_and_rows(draw):
    n_features = draw(st.integers(1, 4))
    trees = draw(st.lists(random_trees(n_features), max_size=50))
    model = TreeEnsemble(trees=trees,
                         learning_rate=draw(st.floats(0.01, 1.0)),
                         base_score=draw(finite), schema_version=1,
                         n_features=n_features)
    cell = st.sampled_from(GRID + [math.nan]) | finite
    X = np.array(draw(st.lists(st.lists(cell, min_size=n_features,
                                        max_size=n_features), max_size=12)),
                 dtype=np.float64).reshape(-1, n_features)
    return model, X


class TestCompiledScoring:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(ensembles_and_rows())
    def test_bit_identical_to_per_tree_oracle(self, case):
        model, X = case
        assert np.array_equal(model.raw_scores(X), raw_scores_oracle(model, X))

    def test_nan_routes_right(self):
        tree = Tree([0, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1],
                    [0.0, -1.0, 1.0])
        model = TreeEnsemble(trees=[tree], learning_rate=1.0, base_score=0.0,
                             schema_version=1, n_features=1)
        X = np.array([[0.0], [math.nan], [0.5]])
        assert model.raw_scores(X).tolist() == [-1.0, 1.0, 1.0]

    def test_trained_model_matches_oracle(self):
        X, y = separable_dataset(n=300, seed=23)
        model = train(X, y, TrainConfig(n_trees=25, max_depth=4))
        probe = np.random.default_rng(1).normal(size=(200, 3))
        assert np.array_equal(model.raw_scores(probe), raw_scores_oracle(model, probe))

    def test_model_is_immutable(self):
        X, y = separable_dataset(n=120, seed=29)
        model = train(X, y, TrainConfig(n_trees=3, max_depth=2))
        for name, value in (("trees", ()), ("learning_rate", 0.5),
                            ("schema_version", 99), ("n_features", 2)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(model, name, value)
        assert not hasattr(model.trees, "append")
        assert not hasattr(model.train_losses, "append")
        hand_built = TreeEnsemble(trees=list(model.trees), learning_rate=0.1,
                                  base_score=0.0, schema_version=1, n_features=3)
        assert isinstance(hand_built.trees, tuple)

    def test_tree_arrays_are_read_only(self):
        tree = Tree([-1], [0.0], [-1], [-1], [1.0])
        with pytest.raises(ValueError):
            tree.weight[0] = 2.0


def valid_tree():
    """Depth 2: node 0 splits on feature 1, node 2 on feature 0."""
    return {"feature": [1, -1, 0, -1, -1], "threshold": [0.5, 0.0, -0.5, 0.0, 0.0],
            "left": [1, -1, 3, -1, -1], "right": [2, -1, 4, -1, -1],
            "weight": [0.0, 0.3, 0.0, -0.2, 0.1]}


def tree_with(**changes):
    tree = valid_tree()
    for key, (node, value) in changes.items():
        tree[key][node] = value
    return tree


MALFORMED = {
    "internal_left_minus_one": (tree_with(left=(2, -1)), "node 2: left child"),
    "nan_threshold": (tree_with(threshold=(0, math.nan)), "node 0: non-finite threshold"),
    "child_out_of_range": (tree_with(right=(2, 9)), "node 2: right child"),
    "self_loop": (tree_with(left=(0, 0)), "node 0: reached more than once"),
    "cycle_to_ancestor": (tree_with(right=(2, 0)), "node 0: reached more than once"),
    "shared_child": (tree_with(right=(0, 1)), "node 1: reached more than once"),
    "unreachable_node": (tree_with(feature=(2, -1)), "node 3: not reachable"),
    "feature_too_large": (tree_with(feature=(2, 2)), "node 2: feature outside [0, 2)"),
    "feature_below_minus_one": (tree_with(feature=(1, -2)), "node 1: feature outside"),
    "nan_leaf_weight": (tree_with(weight=(4, math.inf)), "node 4: non-finite leaf weight"),
    "unequal_lengths": ({**valid_tree(), "weight": [0.0]}, "equal length"),
    "fractional_index": (tree_with(right=(2, 2.7)), "node 2: right is not an int32"),
    "index_wraps_int32": (tree_with(left=(0, 2**32 + 1)), "node 0: left is not an int32"),
    "string_feature": (tree_with(feature=(0, "1")), "feature holds"),
}


class TestModelValidation:
    def write_model(self, path, bad_tree):
        payload = {"format": 1, "schema_version": 1, "n_features": 2,
                   "learning_rate": 0.1, "base_score": 0.0,
                   "trees": [valid_tree(), bad_tree]}
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_valid_model_loads(self, tmp_path):
        path = self.write_model(tmp_path / "m.json", valid_tree())
        model = load(path)
        X = np.array([[0.0, 0.0], [-1.0, 1.0], [1.0, 1.0]])
        assert np.array_equal(model.raw_scores(X), raw_scores_oracle(model, X))

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_rejected_at_load(self, tmp_path, case):
        bad_tree, detail = MALFORMED[case]
        path = self.write_model(tmp_path / f"{case}.json", bad_tree)
        outcome = []
        worker = threading.Thread(target=lambda: outcome.append(_raised(load, path)),
                                  daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "load hung"
        exc = outcome[0]
        assert isinstance(exc, GbdtError)
        assert str(path) in str(exc) and "tree 1" in str(exc) and detail in str(exc)

    def test_non_finite_scalars_rejected(self, tmp_path):
        path = self.write_model(tmp_path / "m.json", valid_tree())
        payload = json.loads(path.read_text())
        payload["learning_rate"] = math.nan
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(GbdtError, match="finite"):
            load(path)

    @pytest.mark.parametrize("key, value", [
        ("schema_version", 1.9), ("schema_version", True), ("schema_version", "1"),
        ("n_features", "3"), ("n_features", 3.7), ("learning_rate", "0.1"),
        ("learning_rate", True), ("base_score", "-0.2"), ("format", True), ("format", 1.0),
    ], ids=["version-float", "version-bool", "version-string", "width-string",
            "width-float", "rate-string", "rate-bool", "base-string", "format-bool",
            "format-float"])
    def test_scalar_of_wrong_kind_rejected(self, tmp_path, key, value):
        path = self.write_model(tmp_path / "m.json", valid_tree())
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(GbdtError) as exc:
            load(path)
        assert str(path) in str(exc.value) and f"{key} must be" in str(exc.value)

    def test_hand_built_self_loop_rejected_at_construction(self):
        tree = Tree(**tree_with(left=(0, 0)))
        with pytest.raises(GbdtError, match="tree 0 node 0"):
            TreeEnsemble(trees=[tree], learning_rate=0.1, base_score=0.0,
                         schema_version=1, n_features=2)


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the caller inspects what was raised
        return exc
    return None


# ---------------------------------------------------------------------------
# Vectorized split search against the per-feature oracle
# ---------------------------------------------------------------------------

def split_oracle(X, order, mask, g, h, cfg):
    """(gain, feature, threshold) of a node's best split, searching one
    feature at a time over the presorted `order` (the pre-vectorized path)."""
    lam = cfg.l2_reg
    g_tot = g[mask].sum()
    h_tot = h[mask].sum()
    parent = g_tot * g_tot / (h_tot + lam)
    best = (0.0, -1, 0.0)  # (gain, feature, threshold); strict > keeps ties low
    for f in range(X.shape[1]):
        rows = order[:, f]
        rows = rows[mask[rows]]
        vals = X[rows, f]
        if vals[0] == vals[-1]:
            continue
        gl = np.cumsum(g[rows])[:-1]
        hl = np.cumsum(h[rows])[:-1]
        boundary = vals[:-1] < vals[1:]
        valid = (boundary
                 & (hl >= cfg.min_child_weight)
                 & (h_tot - hl >= cfg.min_child_weight))
        if not valid.any():
            continue
        gr = g_tot - gl
        hr = h_tot - hl
        with np.errstate(all="ignore"):
            gain = np.where(
                valid,
                0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent),
                -np.inf,
            )
        i = int(np.argmax(gain))  # first max: lowest threshold wins ties
        if gain[i] > best[0]:
            best = (float(gain[i]), f, float((vals[i] + vals[i + 1]) / 2.0))
    return best


def vectorized_split(X, mask, g, h, cfg):
    """The builder's search on the node `mask`, its (F, m) arrays made here."""
    order_T = np.argsort(X.T, axis=1, kind="stable")
    rows = np.stack([o[mask[o]] for o in order_T])
    vals = np.take_along_axis(X.T, rows, axis=1)
    builder = _TreeBuilder(order_T, np.take_along_axis(X.T, order_T, axis=1), cfg)
    return builder._best_split(rows, vals, g, h, g[mask].sum(), h[mask].sum())


def tree_oracle(X, g, h, cfg):
    """One tree grown with boolean row masks and `split_oracle` (the
    pre-vectorized builder): its node arrays and per-row leaf weights."""
    order = np.argsort(X, axis=0, kind="stable")
    nodes = {"feature": [], "threshold": [], "left": [], "right": [], "weight": []}

    def new_node():
        for name, default in (("feature", -1), ("threshold", 0.0), ("left", -1),
                              ("right", -1), ("weight", 0.0)):
            nodes[name].append(default)
        return len(nodes["feature"]) - 1

    contrib = np.zeros(len(g))
    stack = [(new_node(), np.ones(len(g), dtype=bool), 0)]
    while stack:
        node, mask, depth = stack.pop()
        if depth < cfg.max_depth:
            gain, f, thr = split_oracle(X, order, mask, g, h, cfg)
            if f >= 0 and gain > 0.0:
                nodes["feature"][node] = f
                nodes["threshold"][node] = thr
                left_mask = mask & (X[:, f] < thr)
                nodes["left"][node] = new_node()
                nodes["right"][node] = new_node()
                stack.append((nodes["right"][node], mask & ~left_mask, depth + 1))
                stack.append((nodes["left"][node], left_mask, depth + 1))
                continue
        w = -g[mask].sum() / (h[mask].sum() + cfg.l2_reg)
        nodes["weight"][node] = w
        contrib[mask] = w
    return nodes, contrib


# Few distinct values, so columns repeat values and features tie exactly.
SPLIT_GRID = [-1.0, 0.0, 0.5, 2.0]


@st.composite
def split_nodes(draw, cell=st.sampled_from(SPLIT_GRID) | finite):
    n = draw(st.integers(1, 24))
    n_features = draw(st.integers(1, 5))
    X = np.array(draw(st.lists(cell, min_size=n * n_features,
                               max_size=n * n_features)),
                 dtype=np.float64).reshape(n, n_features)
    for f in range(1, n_features):
        kind = draw(st.sampled_from(["own", "copy", "constant"]))
        if kind == "copy":  # an exact gain tie with a lower feature
            X[:, f] = X[:, draw(st.integers(0, f - 1))]
        elif kind == "constant":
            X[:, f] = X[0, f]
    # 1e-20 vanishes in a sum with 0.25, so with l2_reg = 0 a right-hand
    # side can be exactly x / 0
    grad = st.sampled_from([-0.5, -0.25, 1e-20, 0.25, 0.5]) | st.floats(-1.0, 1.0)
    hess = st.sampled_from([0.25, 0.1875, 1e-20]) | st.floats(1e-6, 0.25)
    g = np.array(draw(st.lists(grad, min_size=n, max_size=n)))
    h = np.array(draw(st.lists(hess, min_size=n, max_size=n)))
    if draw(st.integers(0, 4)) == 0:  # a single-row node
        mask = np.zeros(n, dtype=bool)
        mask[draw(st.integers(0, n - 1))] = True
    else:
        mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        mask[draw(st.integers(0, n - 1))] = True
    cfg = TrainConfig(min_child_weight=draw(st.sampled_from([0.0, 0.1, 0.5, 1e9])),
                      l2_reg=draw(st.sampled_from([0.0, 0.5, 1.0])))
    return X, g, h, mask, cfg


class TestSplitSearch:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(split_nodes())
    def test_equals_per_feature_oracle(self, case):
        X, g, h, mask, cfg = case
        order = np.argsort(X, axis=0, kind="stable")
        assert vectorized_split(X, mask, g, h, cfg) == \
            split_oracle(X, order, mask, g, h, cfg)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    # Eighths, not any floats: no two values are adjacent doubles, whose
    # midpoint threshold could round onto one of them and empty a child.
    @given(split_nodes(cell=st.sampled_from(SPLIT_GRID)
                       | st.integers(-64, 64).map(lambda k: k / 8)),
           st.integers(0, 4))
    def test_tree_equals_mask_builder(self, case, max_depth):
        X, g, h, _, cfg = case
        cfg = TrainConfig(max_depth=max_depth, min_child_weight=cfg.min_child_weight,
                          l2_reg=cfg.l2_reg)
        order_T = np.argsort(X.T, axis=1, kind="stable")
        builder = _TreeBuilder(order_T, np.take_along_axis(X.T, order_T, axis=1), cfg)
        tree, contrib = builder.build(g, h)
        nodes, contrib_oracle = tree_oracle(X, g, h, cfg)
        assert tree.to_dict() == nodes
        assert np.array_equal(contrib, contrib_oracle)

    def test_equal_gains_pick_lowest_feature_then_threshold(self):
        # feature 0 is constant, feature 2 mirrors feature 1, and the first and
        # last boundaries of x have one gain
        x = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.column_stack([np.zeros(4), x, x])
        g = np.array([-0.5, 0.5, 0.5, -0.5])
        h = np.full(4, 0.25)
        cfg = TrainConfig(min_child_weight=0.0, l2_reg=0.0)
        mask = np.ones(4, dtype=bool)
        gain, f, thr = vectorized_split(X, mask, g, h, cfg)
        assert (f, thr) == (1, 0.5)
        assert (gain, f, thr) == split_oracle(X, np.argsort(X, axis=0, kind="stable"),
                                              mask, g, h, cfg)


    def test_feature_with_nan_gain_is_skipped(self):
        # With l2_reg = 0, feature 0's second boundary leaves HR = 0 and
        # GR = 0 (1e-20 vanishes in the sums): its gain is NaN, so feature 0
        # is skipped although its first boundary has the same gain, 1.0, as
        # feature 1's.
        X = np.array([[0.0, 0.0], [2.0, 1.0], [1.0, 2.0]])
        g = np.array([0.5, 1e-20, -0.5])
        h = np.array([0.25, 1e-20, 0.25])
        cfg = TrainConfig(min_child_weight=0.0, l2_reg=0.0)
        mask = np.ones(3, dtype=bool)
        result = vectorized_split(X, mask, g, h, cfg)
        assert result == (1.0, 1, 0.5)
        assert result == split_oracle(X, np.argsort(X, axis=0, kind="stable"),
                                      mask, g, h, cfg)
