"""Model: grid enumeration, sparse layers vs dense oracles, checkpoints."""

import numpy as np
import pytest

import layers_reference as ref
from qtp import autodiff as ad
from qtp.dag import FEATURE_DIM, GraphData, featurize_circuit
from qtp.model import (
    ATTENTION_SLOPE,
    BLOCK_CHOICES,
    CHECKPOINT_MAGIC,
    FFNN_FIRST,
    FFNN_FLOOR,
    GAT_HEADS,
    GAT_HIDDEN,
    GCN_HIDDEN,
    CheckpointError,
    LEAKY_SLOPE,
    ModelConfig,
    ModelError,
    _ffnn_tuples,
    batch_graphs,
    bind_params,
    gat_forward,
    gcn_forward,
    global_mean_pool,
    init_weights,
    iter_grid,
    load_checkpoint,
    model_forward,
    normalize_adjacency,
    param_shapes,
    predict_proba,
    residual_gcn,
    save_checkpoint,
)
from qtp.training import evaluate, weighted_cross_entropy

# --- oracles -------------------------------------------------------------------


def _dense(adj):
    out = np.zeros((adj.num_nodes, adj.num_nodes))
    out[adj.rows, adj.cols] = adj.vals[:, 0]
    return out


def _dense_normalized(edges, n):
    a = np.eye(n)
    for s, d in np.asarray(edges).reshape(-1, 2):
        a[s, d] = 1.0
        a[d, s] = 1.0
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return a * inv_sqrt[:, None] * inv_sqrt[None, :]


def _leaky(x, alpha):
    return np.where(x > 0, x, alpha * x)


def _gcn_oracle(x, edges, n, w, b):
    return _leaky(_dense_normalized(edges, n) @ x @ w + b, 0.01)


def _gat_oracle(x, edges, n, heads):
    """Per-node attention over in-neighbors plus self, heads concatenated."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    src = list(edges[:, 0]) + list(range(n))
    dst = list(edges[:, 1]) + list(range(n))
    outs = []
    for w, a_dst, a_src in heads:
        wh = x @ w
        s_dst = (wh @ a_dst)[:, 0]
        s_src = (wh @ a_src)[:, 0]
        out = np.zeros_like(wh)
        for i in range(n):
            js = [s for s, d in zip(src, dst) if d == i]
            logits = _leaky(np.array([s_dst[i] + s_src[j] for j in js]), 0.2)
            e = np.exp(logits - logits.max())
            alpha = e / e.sum()
            out[i] = sum(a * wh[j] for a, j in zip(alpha, js))
        outs.append(out)
    return np.concatenate(outs, axis=1)


def _random_edges(rng, n, m):
    """m distinct directed edges, no self-loops.

    Index k of the n(n-1) ordered pairs, row by row without the diagonal, is
    the pair (i, j) with i, r = divmod(k, n - 1) and j = r + (r >= i).
    """
    take = min(m, n * (n - 1))
    idx = rng.choice(n * (n - 1), size=take, replace=False) if take else np.zeros(0, np.int64)
    i, r = np.divmod(idx, max(n - 1, 1))
    return np.stack([i, r + (r >= i)], axis=1)


def _in_grid(cfg: ModelConfig) -> bool:
    """The paper's search space, stated rule by rule: the oracle for iter_grid."""
    if cfg.blocks not in BLOCK_CHOICES:
        return False
    if cfg.first_layer == "gat":
        if cfg.hidden not in GAT_HIDDEN or cfg.heads not in GAT_HEADS:
            return False
    elif cfg.hidden not in GCN_HIDDEN:
        return False
    if len(cfg.ffnn) not in (2, 3) or cfg.ffnn[0] not in FFNN_FIRST:
        return False
    for prev, cur in zip(cfg.ffnn, cfg.ffnn[1:]):
        if cur & (cur - 1) or not FFNN_FLOOR <= cur <= prev:  # a power of two
            return False
    return True


def _random_graph(rng, dim=FEATURE_DIM, label=None):
    n = int(rng.integers(1, 9))
    edges = _random_edges(rng, n, int(rng.integers(0, 2 * n + 1)))
    return GraphData(
        name=f"g{n}",
        num_qubits=int(rng.integers(2, 28)),
        features=rng.standard_normal((n, dim)),
        edges=edges,
        label=label,
    )


def _hub_edges():
    """12 nodes: node 0 has 10 in-edges and an Â row of 10 entries, node 9 a
    duplicated edge and its reverse, nodes 10 and 11 no edges at all."""
    edges = [(i, 0) for i in range(1, 9)] + [(9, 0), (0, 9), (0, 9), (9, 0), (2, 3), (3, 2)]
    return 12, np.array(edges, dtype=np.int64)


def _table_cases(rng):
    """(n, edges) pairs whose row degrees reach past 7 and down to 0."""
    complete = np.array([(i, j) for i in range(9) for j in range(9) if i != j], dtype=np.int64)
    cases = [_hub_edges(), (1, np.zeros((0, 2), np.int64)), (9, complete),
             (3, np.array([[0, 1], [0, 1], [1, 0], [2, 1]]))]
    for _ in range(6):
        n = int(rng.integers(2, 14))
        cases.append((n, rng.integers(0, n, size=(int(rng.integers(0, 4 * n)), 2))))
    return [(n, e[e[:, 0] != e[:, 1]]) for n, e in cases]


def _scatter_spmm(adj, x):
    """The COO scatter-add form of Â @ X."""
    out = np.zeros_like(x)
    np.add.at(out, adj.rows, x[adj.cols] * adj.vals)
    return out


def _scatter_gat(x, edges, n, heads):
    """GAT as gathers, scatter-max and scatter-adds over the edge list plus self-loops."""
    src = np.concatenate([edges[:, 0], np.arange(n)])
    dst = np.concatenate([edges[:, 1], np.arange(n)])
    outs = []
    for w, a_dst, a_src in heads:
        wh = x @ w
        logit = _leaky((wh @ a_dst)[dst] + (wh @ a_src)[src], 0.2)
        peak = np.full((n, 1), -np.inf)
        np.maximum.at(peak, dst, logit)
        e = np.exp(logit - peak[dst])
        denom = np.zeros((n, 1))
        np.add.at(denom, dst, e)
        out = np.zeros_like(wh)
        np.add.at(out, dst, wh[src] * (e / denom[dst]))
        outs.append(out)
    return np.concatenate(outs, axis=1)


def _into_table(n, edges):
    """The GAT layer's table: each node's in-neighbors in edge order, then itself."""
    loops = np.arange(n)
    return ad.NeighborTable(np.r_[edges[:, 1], loops], np.r_[edges[:, 0], loops], n)


def _head_arrays(rng, in_dim, hidden, count):
    return [
        (rng.standard_normal((in_dim, hidden)), rng.standard_normal((hidden, 1)),
         rng.standard_normal((hidden, 1)))
        for _ in range(count)
    ]


# --- grid ----------------------------------------------------------------------


class TestGrid:
    def test_ffnn_tuple_census(self):
        tuples = _ffnn_tuples()
        assert len(tuples) == 154
        assert sum(1 for t in tuples if len(t) == 2) == 35
        assert sum(1 for t in tuples if len(t) == 3) == 119
        assert tuples == sorted(tuples)
        assert tuples[0] == (32, 16)
        assert tuples[-1] == (2048, 2048, 2048)

    def test_grid_size_and_membership(self):
        configs = list(iter_grid())
        assert len(configs) == 2156
        assert all(_in_grid(c) for c in configs)
        gat = [c for c in configs if c.first_layer == "gat"]
        gcn = [c for c in configs if c.first_layer == "gcn"]
        assert len(gat) == 2 * 2 * 2 * 154
        assert len(gcn) == 3 * 2 * 154

    def test_names_unique(self):
        names = [c.name for c in iter_grid()]
        assert len(set(names)) == 2156

    def test_canonical_order_endpoints(self):
        configs = list(iter_grid())
        assert configs[0].name == "GAT_1GCN_1FFNN_32_4_32_16"
        assert configs[-1].name == "GCN_2GCN_2FFNN_128_2048_2048_2048"

    def test_blocks_cover_choices(self):
        assert {c.blocks for c in iter_grid()} == set(BLOCK_CHOICES)


class TestConfig:
    def test_reference_name(self):
        cfg = ModelConfig("gat", 32, 1, (2048, 2048, 32), heads=4)
        assert cfg.name == "GAT_1GCN_2FFNN_32_4_2048_2048_32"
        assert _in_grid(cfg)

    def test_gcn_name(self):
        assert ModelConfig("gcn", 64, 2, (128, 32)).name == "GCN_2GCN_1FFNN_64_128_32"

    def test_width(self):
        assert ModelConfig("gat", 32, 1, (64,), heads=4).width == 128
        assert ModelConfig("gcn", 64, 1, (64,)).width == 64

    def test_off_grid_config_is_usable(self):
        small = ModelConfig("gat", 4, 1, (8, 4), heads=2)
        assert not _in_grid(small)
        assert param_shapes(small, in_dim=5)["first.h0.w"] == (5, 4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(first_layer="mlp", hidden=32, blocks=1, ffnn=(32,)),
            dict(first_layer="gcn", hidden=0, blocks=1, ffnn=(32,)),
            dict(first_layer="gat", hidden=32, blocks=1, ffnn=(32,), heads=0),
            dict(first_layer="gcn", hidden=32, blocks=1, ffnn=(32,), heads=4),
            dict(first_layer="gcn", hidden=32, blocks=-1, ffnn=(32,)),
            dict(first_layer="gcn", hidden=32, blocks=1, ffnn=()),
            dict(first_layer="gcn", hidden=32, blocks=1, ffnn=(32, 0)),
        ],
    )
    def test_structural_rejects(self, kwargs):
        with pytest.raises(ModelError):
            ModelConfig(**kwargs)

    @pytest.mark.parametrize(
        "cfg",
        [
            ModelConfig("gat", 16, 1, (32, 16), heads=4),  # hidden off-grid
            ModelConfig("gat", 32, 1, (32, 16), heads=3),  # heads off-grid
            ModelConfig("gcn", 96, 1, (32, 16)),  # hidden off-grid
            ModelConfig("gcn", 32, 3, (32, 16)),  # blocks off-grid
            ModelConfig("gcn", 32, 1, (32,)),  # ffnn too short
            ModelConfig("gcn", 32, 1, (32, 16, 16, 16)),  # ffnn too long
            ModelConfig("gcn", 32, 1, (24, 16)),  # first width off-menu
            ModelConfig("gcn", 32, 1, (32, 64)),  # non-increasing violated
            ModelConfig("gcn", 32, 1, (64, 48)),  # not a power of two
            ModelConfig("gcn", 32, 1, (32, 8)),  # below the floor
        ],
    )
    def test_in_grid_rejects(self, cfg):
        assert not _in_grid(cfg)

    def test_json_round_trip(self):
        for cfg in [
            ModelConfig("gat", 64, 2, (256, 64, 16), heads=8),
            ModelConfig("gcn", 128, 1, (512, 32)),
        ]:
            assert ModelConfig.from_json(cfg.to_json()) == cfg

    def test_json_missing_field(self):
        with pytest.raises(ModelError, match="missing"):
            ModelConfig.from_json({"first_layer": "gcn"})


# --- adjacency -------------------------------------------------------------------


class TestAdjacency:
    def test_single_node(self):
        adj = normalize_adjacency(np.zeros((0, 2), np.int64), 1)
        assert np.array_equal(_dense(adj), [[1.0]])

    def test_two_nodes_one_edge(self):
        adj = normalize_adjacency(np.array([[0, 1]]), 2)
        assert np.allclose(_dense(adj), 0.5)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            edges = _random_edges(rng, n, int(rng.integers(0, 2 * n + 1)))
            got = _dense(normalize_adjacency(edges, n))
            assert np.max(np.abs(got - _dense_normalized(edges, n))) < 1e-12

    def test_duplicate_edges_collapse(self):
        once = normalize_adjacency(np.array([[0, 1]]), 3)
        thrice = normalize_adjacency(np.array([[0, 1], [0, 1], [1, 0]]), 3)
        assert np.array_equal(_dense(once), _dense(thrice))

    def test_entries_match_the_unique_oracle_bitwise(self):
        # duplicate edges, edges in both directions and input self-loops: the
        # keys are deduplicated as np.unique does, so every entry keeps its bits
        rng = np.random.default_rng(17)
        cases = [(np.array([[0, 1], [0, 1], [1, 0], [2, 2], [1, 1], [3, 0], [0, 3]]), 4)]
        for _ in range(40):
            n = int(rng.integers(1, 40))
            cases.append((rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2)), n))
        for edges, n in cases:
            loops = np.arange(n)
            rows = np.concatenate([edges[:, 0], edges[:, 1], loops])
            cols = np.concatenate([edges[:, 1], edges[:, 0], loops])
            want_rows, want_cols = np.divmod(np.unique(rows * n + cols), n)
            inv_sqrt = 1.0 / np.sqrt(np.bincount(want_rows, minlength=n).astype(np.float64))
            want_vals = (inv_sqrt[want_rows] * inv_sqrt[want_cols]).reshape(-1, 1)
            adj = normalize_adjacency(edges, n)
            assert np.array_equal(adj.rows, want_rows) and adj.rows.dtype == want_rows.dtype
            assert np.array_equal(adj.cols, want_cols) and adj.cols.dtype == want_cols.dtype
            assert adj.vals.tobytes() == want_vals.tobytes()

    def test_row_normalization(self):
        # symmetric operator with unit spectral radius: rows of D^1/2 Â D^-1/2
        # sum to 1; equivalently Â v = v for v = sqrt(deg)
        edges = np.array([[0, 1], [1, 2], [0, 3]])
        dense = _dense(normalize_adjacency(edges, 4))
        deg = np.array([3.0, 3.0, 2.0, 2.0])
        v = np.sqrt(deg)
        assert np.allclose(dense @ v, v, atol=1e-12)


# --- layers ----------------------------------------------------------------------


class TestLayers:
    def test_spmm_matches_dense(self):
        rng = np.random.default_rng(11)
        cases = [(n, _random_edges(rng, n, int(rng.integers(0, 2 * n + 1))))
                 for n in rng.integers(1, 9, size=20).tolist()]
        for n, edges in cases + _table_cases(rng):
            x = rng.standard_normal((n, 4))
            adj = normalize_adjacency(edges, n)
            # one slot per entry of the fullest row, however full it is
            assert len(adj.table.slots) == np.bincount(adj.rows).max()
            got = adj.table.gather_sum(x, adj.table.vals)
            assert np.max(np.abs(got - _dense_normalized(edges, n) @ x)) < 1e-12
        assert len(normalize_adjacency(_hub_edges()[1], 12).table.slots) == 10

    def test_gcn_forward_matches_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            edges = _random_edges(rng, n, int(rng.integers(0, 2 * n + 1)))
            x = rng.standard_normal((n, 5))
            w = rng.standard_normal((5, 3))
            b = rng.standard_normal(3)
            tape = ad.Tape()
            got = gcn_forward(
                tape.const(x), normalize_adjacency(edges, n), tape.const(w), tape.const(b)
            ).data
            assert np.max(np.abs(got - _gcn_oracle(x, edges, n, w, b))) < 1e-10

    def test_residual_gcn_matches_oracle(self):
        rng = np.random.default_rng(17)
        n, d = 6, 4
        edges = _random_edges(rng, n, 7)
        x = rng.standard_normal((n, d))
        w = rng.standard_normal((d, d))
        b = rng.standard_normal(d)
        tape = ad.Tape()
        got = residual_gcn(
            tape.const(x), normalize_adjacency(edges, n), tape.const(w), tape.const(b)
        ).data
        assert np.max(np.abs(got - (x + _gcn_oracle(x, edges, n, w, b)))) < 1e-10

    def test_gat_matches_oracle(self):
        rng = np.random.default_rng(19)
        cases = [(n, _random_edges(rng, n, int(rng.integers(0, 2 * n + 1))))
                 for n in rng.integers(1, 9, size=20).tolist()]
        for n, edges in cases + _table_cases(rng):
            x = rng.standard_normal((n, 5))
            heads_np = [
                (
                    rng.standard_normal((5, 3)),
                    rng.standard_normal((3, 1)),
                    rng.standard_normal((3, 1)),
                )
                for _ in range(2)
            ]
            tape = ad.Tape()
            heads = [tuple(tape.const(p) for p in head) for head in heads_np]
            got = gat_forward(tape.const(x), edges, n, heads).data
            assert got.shape == (n, 6)
            assert np.max(np.abs(got - _gat_oracle(x, edges, n, heads_np))) < 1e-10

    def test_gat_isolated_node_keeps_projection(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((1, 4))
        w = rng.standard_normal((4, 3))
        tape = ad.Tape()
        head = (tape.const(w), tape.const(rng.standard_normal((3, 1))),
                tape.const(rng.standard_normal((3, 1))))
        got = gat_forward(tape.const(x), np.zeros((0, 2), np.int64), 1, [head]).data
        assert np.array_equal(got, x @ w)

    def test_gat_zero_attention_is_mean(self):
        rng = np.random.default_rng(29)
        n = 5
        edges = np.array([[0, 2], [1, 2], [3, 2]])
        x = rng.standard_normal((n, 4))
        w = rng.standard_normal((4, 3))
        tape = ad.Tape()
        head = (tape.const(w), tape.const(np.zeros((3, 1))), tape.const(np.zeros((3, 1))))
        got = gat_forward(tape.const(x), edges, n, [head]).data
        wh = x @ w
        assert np.allclose(got[2], wh[[0, 1, 3, 2]].mean(axis=0), atol=1e-12)
        assert np.allclose(got[4], wh[4], atol=1e-15)

    def test_gat_attention_rows_normalized(self):
        # identical embeddings make the output expose sum(alpha) directly
        rng = np.random.default_rng(31)
        n = 6
        edges = _random_edges(rng, n, 9)
        x = np.ones((n, 4))
        w = rng.standard_normal((4, 3))
        tape = ad.Tape()
        head = (tape.const(w), tape.const(rng.standard_normal((3, 1))),
                tape.const(rng.standard_normal((3, 1))))
        got = gat_forward(tape.const(x), edges, n, [head]).data
        assert np.allclose(got, (x @ w), atol=1e-12)

    def test_forward_bit_identical_to_scatter_reference(self):
        rng = np.random.default_rng(67)
        for n, edges in _table_cases(rng):
            x = rng.standard_normal((n, 6))
            adj = normalize_adjacency(edges, n)
            tape = ad.Tape()
            w, b = rng.standard_normal((6, 6)), rng.standard_normal(6)
            want = _leaky(_scatter_spmm(adj, x) @ w + b, LEAKY_SLOPE)
            got = gcn_forward(tape.const(x), adj, tape.const(w), tape.const(b)).data
            assert np.max(np.abs(got - want)) == 0.0
            got = residual_gcn(tape.const(x), adj, tape.const(w), tape.const(b)).data
            assert np.max(np.abs(got - (x + want))) == 0.0
            heads_np = _head_arrays(rng, 6, 5, 3)
            heads = [tuple(tape.const(a) for a in head) for head in heads_np]
            got = gat_forward(tape.const(x), edges, n, heads).data
            assert np.max(np.abs(got - _scatter_gat(x, edges, n, heads_np))) == 0.0
            ids = np.sort(rng.integers(0, 3, size=n))
            ids = np.unique(ids, return_inverse=True)[1]
            sums = np.zeros((ids.max() + 1, 6))
            np.add.at(sums, ids, x)
            want = sums / np.bincount(ids)[:, None]
            got = global_mean_pool(tape.const(x), ids, ids.max() + 1).data
            assert np.max(np.abs(got - want)) == 0.0

    def test_table_ops_gradients(self):
        rng = np.random.default_rng(71)
        n, edges = _hub_edges()
        adj = normalize_adjacency(edges, n)
        weight = rng.standard_normal((n, 3))

        for residual in (False, True):
            def gcn_loss(ts, residual=residual):
                out = ad.gcn_layer(ts["x"], adj.table, ts["w"], ts["b"], LEAKY_SLOPE, residual)
                return ad.mean_all(ad.mul(out, ts["x"].tape.const(weight)))

            params = {"x": rng.standard_normal((n, 3)), "w": rng.standard_normal((3, 3)),
                      "b": rng.standard_normal(3)}
            assert ad.finite_diff_check(gcn_loss, params) <= 1e-4

        into = _into_table(n, edges)
        a_dst = [rng.standard_normal((2, 1)) for _ in range(3)]
        weight = rng.standard_normal((n, 6))

        def gat_loss(ts):
            # a_dst shifts a whole softmax row, so its gradient is near zero and
            # a relative check on it measures rounding; it stays fixed here
            tape = ts["x"].tape
            heads = [(ts[f"w{k}"], tape.const(a_dst[k]), ts[f"a_src{k}"]) for k in range(3)]
            out = ad.gat_layer(ts["x"], heads, into, ATTENTION_SLOPE)
            return ad.mean_all(ad.mul(out, tape.const(weight)))

        params = {"x": rng.standard_normal((n, 4))}
        for k in range(3):
            params[f"w{k}"] = rng.standard_normal((4, 2))
            params[f"a_src{k}"] = rng.standard_normal((2, 1))
        assert ad.finite_diff_check(gat_loss, params) <= 1e-4

    def test_global_mean_pool(self):
        tape = ad.Tape()
        h = tape.const(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        out = global_mean_pool(h, np.array([0, 0, 1]), 2).data
        assert np.array_equal(out, [[2.0, 3.0], [5.0, 6.0]])


# --- fused layers against the unfused reference -----------------------------------


_REFERENCE_CONFIGS = [
    ModelConfig("gat", 32, 1, (256, 32), heads=4),  # the acceptance config
    ModelConfig("gat", 8, 2, (16,), heads=1),
    ModelConfig("gcn", 16, 0, (16,)),
    ModelConfig("gcn", 16, 2, (32, 16)),
    ModelConfig("gat", 64, 2, (32,), heads=8),  # width 512: 64-row table blocks
]


@pytest.fixture(scope="module")
def reference_batches(corpus200):
    """Two 32-graph batches of the acceptance corpus and one of the table cases."""
    graphs = [featurize_circuit(c, label=i % 2) for i, c in enumerate(corpus200[:64])]
    rng = np.random.default_rng(73)
    cases = [GraphData(f"t{k}", 3, rng.standard_normal((n, FEATURE_DIM)), edges, label=k % 2)
             for k, (n, edges) in enumerate(_table_cases(rng))]
    return [batch_graphs(graphs[:32]), batch_graphs(graphs[32:]), batch_graphs(cases)]


def _loss_and_grads(forward, config, weights, batch):
    tape = ad.Tape()
    probs = forward(config, bind_params(tape, weights), batch)
    loss = weighted_cross_entropy(probs, batch.labels, np.array([1.25, 0.8]))
    return probs.data, loss.data, tape.backward(loss)


def _block_edges(width):
    """Row counts around the table-block edges at `width` columns."""
    rows = ad.block_rows(width)
    return [1, rows - 1, rows, rows + 1, 3 * rows + 17]


def _edge_widths(num_rows, full, width):
    """Slot widths that end on block edges (B, 2 B) and inside a block, B rows at `width`."""
    rows = ad.block_rows(width)
    first = num_rows if full else num_rows - 1
    widths = [first, 2 * rows, rows + 1, rows, rows - 1, 7, 7, 1]
    return sorted((w for w in widths if 0 < w <= first), reverse=True)


def _gather_table(rng, num_rows, widths):
    """Entries (rows, cols, vals) whose table has slot widths `widths`, in shuffled order."""
    counts = (np.asarray(widths)[None, :] > np.arange(num_rows)[:, None]).sum(axis=1)
    ids = rng.permutation(num_rows)
    rows = rng.permutation(np.repeat(ids, counts))
    cols = rng.integers(0, num_rows, size=rows.size)
    vals = rng.standard_normal(rows.size)
    return rows, cols, vals


class TestFusedLayers:
    @pytest.mark.parametrize("config", _REFERENCE_CONFIGS, ids=lambda c: c.name)
    def test_model_bit_identical_to_reference(self, config, reference_batches):
        weights = init_weights(config, seed=5)
        for batch in reference_batches:
            probs, loss, grads = _loss_and_grads(model_forward, config, weights, batch)
            want_probs, want_loss, want_grads = _loss_and_grads(
                ref.model_forward, config, weights, batch
            )
            assert np.array_equal(probs, want_probs)
            assert np.array_equal(loss, want_loss)
            assert list(grads) == list(want_grads)
            for name, grad in grads.items():
                assert np.array_equal(grad, want_grads[name]), name

    def test_layers_bit_identical_with_input_gradient(self):
        rng = np.random.default_rng(79)
        # spans three blocks at width 6
        big = 3 * ad.block_rows(6) + 17
        edges = rng.integers(0, big, size=(2 * big, 2))
        cases = _table_cases(rng) + [(big, edges[edges[:, 0] != edges[:, 1]])]
        layers = [
            (gcn_forward, ref.gcn_forward, False),
            (residual_gcn, ref.residual_gcn, False),
            (gat_forward, ref.gat_forward, True),
        ]
        for n, edges in cases:
            adj = normalize_adjacency(edges, n)
            arrays = {"x": rng.standard_normal((n, 6)), "w": rng.standard_normal((6, 6)),
                      "b": rng.standard_normal(6)}
            for k in range(3):
                arrays[f"w{k}"] = rng.standard_normal((6, 2))
                arrays[f"d{k}"] = rng.standard_normal((2, 1))
                arrays[f"s{k}"] = rng.standard_normal((2, 1))
            weight = rng.standard_normal((n, 6))
            for fused, unfused, attention in layers:
                seen = []
                for layer in (fused, unfused):
                    tape = ad.Tape()
                    t = {name: tape.param(name, a) for name, a in arrays.items()}
                    if attention:
                        heads = [(t[f"w{k}"], t[f"d{k}"], t[f"s{k}"]) for k in range(3)]
                        out = layer(t["x"], edges, n, heads)
                    else:
                        out = layer(t["x"], adj, t["w"], t["b"])
                    grads = tape.backward(ad.mean_all(ad.mul(out, tape.const(weight))))
                    seen.append((out.data, grads))
                (got, got_grads), (want, want_grads) = seen
                assert np.array_equal(got, want), fused.__name__
                for name in arrays:
                    assert np.array_equal(got_grads[name], want_grads[name]), (fused.__name__, name)

    def test_block_rows_by_width(self):
        # about BLOCK_ELEMENTS elements a block, so width 128 keeps its 256 rows
        assert [ad.block_rows(w) for w in (512, 256, 128, 64)] == [64, 128, 256, 512]
        assert ad.block_rows(1 << 16) == 1

    @pytest.mark.parametrize("width", [1, 2, 3, 5])
    def test_narrow_heads_bit_identical(self, width):
        # four heads side by side; narrow ones meet BLAS's small-matrix kernels
        rng = np.random.default_rng(101 + width)
        for n, edges in _table_cases(rng):
            arrays = {"x": rng.standard_normal((n, 6))}
            for k in range(4):
                arrays[f"w{k}"] = rng.standard_normal((6, width))
                arrays[f"d{k}"] = rng.standard_normal((width, 1))
                arrays[f"s{k}"] = rng.standard_normal((width, 1))
            weight = rng.standard_normal((n, 4 * width))
            seen = []
            for layer in (gat_forward, ref.gat_forward):
                tape = ad.Tape()
                t = {name: tape.param(name, a) for name, a in arrays.items()}
                heads = [(t[f"w{k}"], t[f"d{k}"], t[f"s{k}"]) for k in range(4)]
                out = layer(t["x"], edges, n, heads)
                grads = tape.backward(ad.mean_all(ad.mul(out, tape.const(weight))))
                seen.append((out.data, grads))
            (got, got_grads), (want, want_grads) = seen
            assert np.array_equal(got, want)
            for name in arrays:
                assert np.array_equal(got_grads[name], want_grads[name]), name

    @pytest.mark.parametrize("full", [True, False], ids=["every-row", "empty-rows"])
    @pytest.mark.parametrize("num_rows", _block_edges(128))
    def test_gather_sum_across_block_edges(self, num_rows, full):
        # slots that end on a block edge (B, 2 B) and inside one, at width 128
        rng = np.random.default_rng(num_rows)
        rows, cols, vals = _gather_table(rng, num_rows, _edge_widths(num_rows, full, 128))
        table = ad.NeighborTable(rows, cols, num_rows, vals)
        assert [hi - lo for lo, hi in table.slots] == _edge_widths(num_rows, full, 128)
        x = rng.standard_normal((num_rows, 128))
        want = np.zeros((num_rows, 128))
        np.add.at(want, rows, x[cols] * vals[:, None])
        assert np.array_equal(table.gather_sum(x, table.vals), want)

    @pytest.mark.parametrize("full", [True, False], ids=["every-row", "empty-rows"])
    @pytest.mark.parametrize(
        "width,num_rows",
        [(w, n) for w in (32, 128, 512) for n in _block_edges(w)],
    )
    def test_gather_sum_heads_match_per_head_calls(self, width, num_rows, full):
        # (positions, heads) weights scale equal column groups, one head per group
        rng = np.random.default_rng(width + num_rows)
        widths = _edge_widths(num_rows, full, width)
        rows, cols, _ = _gather_table(rng, num_rows, widths)
        table = ad.NeighborTable(rows, cols, num_rows)
        assert [hi - lo for lo, hi in table.slots] == widths
        x = rng.standard_normal((num_rows, width))
        for heads in (1, 4, 8):
            weights = rng.standard_normal((rows.size, heads))
            got = table.gather_sum(x, weights)
            part = width // heads
            for k in range(heads):
                cut = np.ascontiguousarray(x[:, k * part : (k + 1) * part])
                want = table.gather_sum(cut, weights[:, k].copy())
                assert np.array_equal(got[:, k * part : (k + 1) * part], want), (heads, k)
                assert np.array_equal(want, ref.gather_sum(table, cut, weights[:, k].copy()))

    def test_reduce_per_column_matches_one_dimensional(self):
        rng = np.random.default_rng(89)
        for n, edges in _table_cases(rng):
            table = _into_table(n, edges)
            x = rng.standard_normal((table.cols.size, 5))
            for op, start in ((np.add, 0.0), (np.maximum, -np.inf)):
                got = table.reduce(x, op, start)
                assert got.shape == (n, 5)
                for k in range(5):
                    want = ref.reduce(table, x[:, k].copy(), op, start)
                    assert np.array_equal(table.reduce(x[:, k].copy(), op, start), want)
                    assert np.array_equal(got[:, k], want)

    @pytest.mark.parametrize("heads,part", [(1, 7), (4, 32), (8, 64)])
    def test_pair_dots_per_head_match_one_dimensional(self, heads, part):
        rng = np.random.default_rng(97 + heads)
        tables = [_into_table(n, edges) for n, edges in _table_cases(rng)]
        for num_rows in _block_edges(heads * part):
            widths = _edge_widths(num_rows, True, heads * part)
            rows, cols, _ = _gather_table(rng, num_rows, widths)
            tables.append(ad.NeighborTable(rows, cols, num_rows))
        for table in tables:
            left = rng.standard_normal((table.num_rows, heads * part))
            right = rng.standard_normal((table.num_rows, heads * part))
            got = table.pair_dots(left, right, heads)
            assert got.shape == (table.cols.size, heads)
            for k in range(heads):
                cut = slice(k * part, (k + 1) * part)
                want = ref.pair_dots(table, left[:, cut], np.ascontiguousarray(right[:, cut]))
                assert np.array_equal(got[:, k], want), (table.num_rows, heads, k)

    def test_slopes_are_exact(self):
        rng = np.random.default_rng(83)
        x = np.r_[rng.standard_normal(64), -0.0, 0.0, 5e-324, -5e-324]
        for alpha in (LEAKY_SLOPE, ATTENTION_SLOPE):
            assert (1.0 - alpha) + alpha == 1.0
            g = rng.standard_normal(x.size)
            seen = []
            for leaky_relu in (ad.leaky_relu, ref.leaky_relu):
                tape = ad.Tape()
                t = tape.param("x", x)
                out = leaky_relu(t, alpha)
                seen.append((out.data, tape.backward(ad.mean_all(ad.mul(out, tape.const(g))))))
            (got, got_grads), (want, want_grads) = seen
            assert np.array_equal(got, want)
            assert np.array_equal(got_grads["x"], want_grads["x"])

    def test_overflow_inside_fused_layers_raises(self):
        n, edges = _hub_edges()
        adj = normalize_adjacency(edges, n)
        tape = ad.Tape()
        x = tape.const(np.full((n, 3), 1e200))
        w = tape.const(np.full((3, 3), 1e200))  # ÂH is finite, ÂHW is not
        b = tape.const(np.zeros(3))
        heads = [(w, tape.const(np.ones((3, 1))), tape.const(np.ones((3, 1))))]
        with np.errstate(over="ignore", invalid="ignore"):
            for residual in (False, True):
                with pytest.raises(FloatingPointError):
                    ad.gcn_layer(x, adj.table, w, b, LEAKY_SLOPE, residual)
            with pytest.raises(FloatingPointError):
                gat_forward(x, edges, n, heads)
            # HW stays finite, but node 0's source score overflows to -inf
            x = tape.const(np.array([[1.0], [1e-300], [1e-300]]))
            head = (tape.const(np.full((1, 2), 1e300)), tape.const(np.zeros((2, 1))),
                    tape.const(np.full((2, 1), -1e10)))
            with pytest.raises(FloatingPointError, match="attention score"):
                gat_forward(x, np.array([[1, 0], [0, 1], [2, 1], [0, 2]]), 3, [head])


# --- batching ---------------------------------------------------------------------


class TestBatch:
    def test_offsets_and_ids(self):
        g1 = GraphData("a", 2, np.ones((2, 3)), np.array([[0, 1]]), label=0)
        g2 = GraphData("b", 3, np.zeros((3, 3)), np.array([[1, 2]]), label=1)
        batch = batch_graphs([g1, g2])
        assert np.array_equal(batch.edges, [[0, 1], [3, 4]])
        assert np.array_equal(batch.graph_ids, [0, 0, 1, 1, 1])
        assert batch.num_graphs == 2
        assert np.array_equal(batch.labels, [0, 1])

    def test_missing_label_drops_labels(self):
        g1 = GraphData("a", 2, np.ones((1, 3)), np.zeros((0, 2), np.int64), label=0)
        g2 = GraphData("b", 2, np.ones((1, 3)), np.zeros((0, 2), np.int64))
        assert batch_graphs([g1, g2]).labels is None


# --- forward ---------------------------------------------------------------------


def _small_configs():
    return [
        ModelConfig("gat", 3, 1, (6, 4), heads=2),
        ModelConfig("gcn", 5, 2, (6,)),
    ]


class TestForward:
    @pytest.mark.parametrize("config", _small_configs(), ids=lambda c: c.first_layer)
    def test_rows_are_probabilities(self, config):
        rng = np.random.default_rng(37)
        graphs = [_random_graph(rng, dim=7) for _ in range(5)]
        weights = init_weights(config, seed=1, in_dim=7)
        probs = predict_proba(config, weights, graphs)
        assert probs.shape == (5, 2)
        assert np.all(probs > 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("config", _small_configs(), ids=lambda c: c.first_layer)
    def test_batch_of_one_matches_joint(self, config):
        rng = np.random.default_rng(41)
        graphs = [_random_graph(rng, dim=7) for _ in range(4)]
        # hubs, duplicate edges and isolated nodes shuffle each table's row order
        for n, edges in _table_cases(rng)[:4]:
            graphs.append(GraphData(f"t{n}", 3, rng.standard_normal((n, 7)), edges))
        weights = init_weights(config, seed=2, in_dim=7)
        joint = predict_proba(config, weights, graphs)
        for i, g in enumerate(graphs):
            solo = predict_proba(config, weights, [g])
            assert np.max(np.abs(joint[i] - solo[0])) < 1e-12

    @pytest.mark.parametrize(
        "config,forward,step", [(_small_configs()[0], 2, 3), (_small_configs()[1], 1, 1)],
        ids=lambda v: v.first_layer if isinstance(v, ModelConfig) else str(v),
    )
    def test_tables_built_per_call(self, config, forward, step, monkeypatch):
        # the transposed attention table is built only by the GAT backward
        built = []
        init = ad.NeighborTable.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ad.NeighborTable, "__init__", counted)
        rng = np.random.default_rng(47)
        graphs = [_random_graph(rng, dim=7, label=k % 2) for k in range(3)]
        weights = init_weights(config, seed=4, in_dim=7)
        predict_proba(config, weights, graphs)
        assert len(built) == forward
        built.clear()
        tape = ad.Tape()
        batch = batch_graphs(graphs)
        probs = model_forward(config, bind_params(tape, weights), batch)
        tape.backward(weighted_cross_entropy(probs, batch.labels, np.array([1.0, 1.0])))
        assert len(built) == step

    def test_gat_without_blocks_builds_no_adjacency(self, monkeypatch):
        # only a GCN first layer and the residual blocks read the normalized adjacency
        config = ModelConfig("gat", 3, 0, (6, 4), heads=2)
        self.test_tables_built_per_call(config, 1, 2, monkeypatch)

    @pytest.mark.parametrize("config", _small_configs(), ids=lambda c: c.first_layer)
    def test_node_permutation_invariance(self, config):
        rng = np.random.default_rng(43)
        g = _random_graph(rng, dim=7)
        n = g.num_nodes
        perm = rng.permutation(n)
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n)
        permuted = GraphData(
            g.name, g.num_qubits, g.features[perm],
            inv[g.edges] if g.edges.size else g.edges, g.label,
        )
        weights = init_weights(config, seed=3, in_dim=7)
        a = predict_proba(config, weights, [g])
        b = predict_proba(config, weights, [permuted])
        assert np.max(np.abs(a - b)) < 1e-10

    @pytest.mark.parametrize("config", [
        ModelConfig("gat", 4, 0, (8,), heads=2),
        ModelConfig("gat", 3, 1, (6, 4), heads=2),
        ModelConfig("gat", 8, 2, (16, 8), heads=3),
        ModelConfig("gcn", 5, 0, (6,)),
        ModelConfig("gcn", 5, 1, (6, 4)),
        ModelConfig("gcn", 16, 2, (32, 16)),
    ], ids=lambda c: c.name)
    def test_inference_gives_the_tape_forward_bits(self, config, monkeypatch):
        rng = np.random.default_rng(59)
        graphs = [_random_graph(rng, dim=7, label=k % 2) for k in range(5)]
        # hubs, duplicate edges and isolated nodes shuffle each table's row order
        graphs += [GraphData(f"t{k}", 3, rng.standard_normal((n, 7)), edges, label=k % 2)
                   for k, (n, edges) in enumerate(_table_cases(rng))]
        weights = init_weights(config, seed=6, in_dim=7)
        want = []
        for batch in ([graphs[0]], graphs):
            tape = ad.Tape()
            want.append(model_forward(config, bind_params(tape, weights), batch_graphs(batch)).data)

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"inference built a {type(self).__name__}")

        monkeypatch.setattr(ad.Tape, "__init__", refuse)
        monkeypatch.setattr(ad.Tensor, "__init__", refuse)
        assert np.array_equal(predict_proba(config, weights, [graphs[0]]), want[0])
        assert np.array_equal(predict_proba(config, weights, graphs), want[1])
        _, preds = evaluate(config, weights, graphs)
        assert np.array_equal(preds, want[1].argmax(axis=1))

    @pytest.mark.parametrize("name", ["res1.w", "ffnn1.w"])
    @pytest.mark.parametrize("config", _small_configs(), ids=lambda c: c.first_layer)
    def test_overflow_after_the_first_layer_raises(self, config, name):
        # only the stage's output is checked: the overflowed product must carry
        # through the bias and slope to it, as the tape's first failing op shows
        rng = np.random.default_rng(61)
        graphs = [_random_graph(rng, dim=7) for _ in range(3)]
        weights = init_weights(config, seed=7, in_dim=7)
        weights[name] = np.full_like(weights[name], 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite value"):
                model_forward(config, bind_params(ad.Tape(), weights), batch_graphs(graphs))
            with pytest.raises(FloatingPointError, match="non-finite value"):
                predict_proba(config, weights, graphs)


# --- init ------------------------------------------------------------------------


class TestInit:
    def test_param_order_gat(self):
        config = ModelConfig("gat", 8, 2, (16, 4), heads=2)
        assert list(param_shapes(config, in_dim=6)) == [
            "first.h0.w", "first.h0.a_dst", "first.h0.a_src",
            "first.h1.w", "first.h1.a_dst", "first.h1.a_src",
            "res1.w", "res1.b", "res2.w", "res2.b",
            "ffnn1.w", "ffnn1.b", "ffnn2.w", "ffnn2.b",
            "out.w", "out.b",
        ]

    def test_shapes_gat(self):
        config = ModelConfig("gat", 8, 1, (16,), heads=2)
        shapes = param_shapes(config, in_dim=6)
        assert shapes["first.h0.w"] == (6, 8)
        assert shapes["first.h1.a_src"] == (8, 1)
        assert shapes["res1.w"] == (16, 16)  # heads concatenate before the block
        assert shapes["ffnn1.w"] == (16, 16)
        assert shapes["out.w"] == (16, 2)
        assert shapes["out.b"] == (2,)

    def test_default_in_dim_is_feature_dim(self):
        shapes = param_shapes(ModelConfig("gcn", 32, 1, (32,)))
        assert shapes["first.w"] == (FEATURE_DIM, 32)

    def test_zero_biases_and_bounds(self):
        config = ModelConfig("gat", 8, 1, (16,), heads=2)
        weights = init_weights(config, seed=5, in_dim=6)
        assert np.array_equal(weights["first.b"], np.zeros(8)) if "first.b" in weights else True
        for name, arr in weights.items():
            if name.endswith(".b"):
                assert np.array_equal(arr, np.zeros_like(arr))
            elif name.endswith((".a_dst", ".a_src")):
                assert np.max(np.abs(arr)) <= np.sqrt(6.0 / (2 * 8 + 1))
            else:
                fan_in, fan_out = param_shapes(config, in_dim=6)[name]
                assert np.max(np.abs(arr)) <= np.sqrt(6.0 / (fan_in + fan_out))

    def test_deterministic_per_seed(self):
        config = ModelConfig("gcn", 8, 1, (16,))
        a = init_weights(config, seed=6, in_dim=6)
        b = init_weights(config, seed=6, in_dim=6)
        c = init_weights(config, seed=7, in_dim=6)
        assert all(np.array_equal(a[k], b[k]) for k in a)
        assert any(not np.array_equal(a[k], c[k]) for k in a)

    def test_seed_sequences(self):
        config = ModelConfig("gcn", 8, 1, (16,))
        a = init_weights(config, seed=[3, 0], in_dim=6)
        b = init_weights(config, seed=[3, 1], in_dim=6)
        assert any(not np.array_equal(a[k], b[k]) for k in a)


# --- checkpoints -------------------------------------------------------------------


class TestCheckpoint:
    def _roundtrip(self, tmp_path, config, in_dim=9):
        weights = init_weights(config, seed=8, in_dim=in_dim)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, config, weights, seed=8, metadata={"fold": 2})
        return path, weights

    def test_round_trip(self, tmp_path):
        config = ModelConfig("gat", 8, 1, (16, 4), heads=2)
        path, weights = self._roundtrip(tmp_path, config)
        got_config, got_weights, seed, meta = load_checkpoint(path)
        assert got_config == config
        assert seed == 8
        assert meta == {"fold": 2}
        assert set(got_weights) == set(weights)
        for name in weights:
            assert np.array_equal(got_weights[name], weights[name])

    def test_save_is_byte_stable(self, tmp_path):
        config = ModelConfig("gcn", 8, 2, (16,))
        weights = init_weights(config, seed=9, in_dim=9)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, config, weights, seed=9)
        save_checkpoint(b, config, weights, seed=9)
        assert a.read_bytes() == b.read_bytes()

    def test_load_save_round_trip_is_identity(self, tmp_path):
        config = ModelConfig("gat", 8, 1, (16,), heads=2)
        path, _ = self._roundtrip(tmp_path, config)
        cfg, weights, seed, meta = load_checkpoint(path)
        again = tmp_path / "again.ckpt"
        save_checkpoint(again, cfg, weights, seed, meta)
        assert again.read_bytes() == path.read_bytes()

    def test_magic_is_stable(self, tmp_path):
        config = ModelConfig("gcn", 8, 1, (16,))
        path, _ = self._roundtrip(tmp_path, config)
        assert path.read_bytes()[:8] == CHECKPOINT_MAGIC == b"QTPCKPT1"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTCKPT0" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + b"\x00\x00")
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_corrupt_header_json(self, tmp_path):
        import struct

        path = tmp_path / "badjson.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 4) + b"xxxx")
        with pytest.raises(CheckpointError, match="badjson.ckpt: invalid JSON"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        config = ModelConfig("gcn", 8, 1, (16,))
        path, _ = self._roundtrip(tmp_path, config)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(CheckpointError, match="payload"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weight(self, tmp_path, value):
        config = ModelConfig("gcn", 8, 1, (16,))
        weights = init_weights(config, seed=13, in_dim=9)
        weights["res1.b"][0] = value
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, config, weights, seed=13)
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(path)

    def test_non_finite_names_the_first_parameter_in_layout_order(self, tmp_path):
        config = ModelConfig("gcn", 8, 1, (16,))
        weights = init_weights(config, seed=13, in_dim=9)
        weights["out.w"][0, 0] = np.nan
        weights["res1.b"][-1] = np.inf
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, config, weights, seed=13)
        with pytest.raises(CheckpointError, match=r"x\.ckpt: parameter res1\.b holds a non-finite"):
            load_checkpoint(path)

    def test_loaded_weights_are_views_of_one_buffer(self, tmp_path):
        config = ModelConfig("gat", 8, 1, (16, 4), heads=2)
        path, weights = self._roundtrip(tmp_path, config)
        _, got, _, _ = load_checkpoint(path)
        flat = got["first.h0.w"].base
        assert flat.size == sum(w.size for w in weights.values())
        assert all(w.base is flat for w in got.values())
        assert np.array_equal(flat, np.concatenate(list(weights.values()), axis=None))

    def test_in_dim_inferred_from_weights(self, tmp_path):
        config = ModelConfig("gcn", 8, 1, (16,))
        path, _ = self._roundtrip(tmp_path, config, in_dim=7)
        _, weights, _, _ = load_checkpoint(path)
        assert weights["first.w"].shape == (7, 8)
