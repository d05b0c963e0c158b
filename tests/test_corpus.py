"""Corpus generator: determinism, family mix, parameter validation."""

import math
import re

import pytest

from qtp.circuit import circuit_depth
from qtp.corpus import FAMILIES, CorpusError, CorpusParams, gen_corpus
from qtp.gates import GateKind
from qtp.qasm import parse_qasm, serialize_qasm

_NAME_RE = re.compile(r"^(ghz|layered|rotations|random)_q(\d{2})_(\d{4})$")


def _fingerprint(circuits):
    return [
        (c.name, c.num_qubits, tuple((op.kind, op.qubits, op.params) for op in c.ops))
        for c in circuits
    ]


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        a = gen_corpus(40, seed=3)
        b = gen_corpus(40, seed=3)
        assert _fingerprint(a) == _fingerprint(b)

    def test_different_seed_differs(self):
        a = gen_corpus(40, seed=3)
        b = gen_corpus(40, seed=4)
        assert _fingerprint(a) != _fingerprint(b)

    def test_params_change_output(self):
        a = gen_corpus(20, seed=7)
        b = gen_corpus(20, seed=7, params=CorpusParams(qubit_range=(2, 5)))
        assert _fingerprint(a) != _fingerprint(b)

    def test_prefix_stability(self):
        # corpus generation is sequential: the first k circuits only depend
        # on the seed, not on n
        long = gen_corpus(30, seed=9)
        short = gen_corpus(10, seed=9)
        assert _fingerprint(long[:10]) == _fingerprint(short)


class TestShape:
    def test_size_and_names(self):
        circuits = gen_corpus(60, seed=0)
        assert len(circuits) == 60
        for i, circ in enumerate(circuits):
            m = _NAME_RE.match(circ.name)
            assert m is not None, circ.name
            assert m.group(1) in FAMILIES
            assert int(m.group(2)) == circ.num_qubits
            assert int(m.group(3)) == i

    def test_zero_size(self):
        assert gen_corpus(0, seed=1) == []

    def test_negative_size_rejected(self):
        with pytest.raises(CorpusError, match="non-negative"):
            gen_corpus(-1, seed=1)

    def test_qubit_range_respected(self):
        params = CorpusParams(qubit_range=(3, 5))
        for circ in gen_corpus(50, seed=2, params=params):
            assert 3 <= circ.num_qubits <= 5
            for op in circ.ops:
                assert all(q < circ.num_qubits for q in op.qubits)

    def test_circuits_nonempty_with_bounded_angles(self):
        for circ in gen_corpus(50, seed=5):
            assert len(circ.ops) >= 1
            assert circuit_depth(circ) >= 1
            for op in circ.ops:
                assert len(op.params) == op.kind.param_count
                for theta in op.params:
                    assert 0.0 <= theta <= 2.0 * math.pi

    def test_rotation_depth_scales_op_count(self):
        shallow = CorpusParams(
            qubit_range=(4, 4), depth_range=(1, 1), mix=(("rotations", 1.0),)
        )
        deep = CorpusParams(
            qubit_range=(4, 4), depth_range=(30, 30), mix=(("rotations", 1.0),)
        )
        a = gen_corpus(1, seed=6, params=shallow)[0]
        b = gen_corpus(1, seed=6, params=deep)[0]
        assert len(a.ops) == 4
        assert len(b.ops) == 120


class TestMix:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_single_family_mix(self, family):
        params = CorpusParams(mix=((family, 1.0),))
        circuits = gen_corpus(25, seed=8, params=params)
        assert all(c.name.startswith(family + "_") for c in circuits)

    def test_zero_weight_family_absent(self):
        params = CorpusParams(mix=(("ghz", 1.0), ("random", 0.0)))
        circuits = gen_corpus(40, seed=8, params=params)
        assert all(c.name.startswith("ghz_") for c in circuits)

    def test_default_mix_hits_every_family(self):
        seen = {c.name.split("_")[0] for c in gen_corpus(200, seed=11)}
        assert seen == set(FAMILIES)

    def test_ghz_family_structure(self):
        params = CorpusParams(mix=(("ghz", 1.0),))
        for circ in gen_corpus(10, seed=13, params=params):
            nq = circ.num_qubits
            assert circ.ops[0].kind is GateKind.H
            assert circ.ops[0].qubits == (0,)
            chain = circ.ops[1:nq]
            assert [op.kind for op in chain] == [GateKind.CX] * (nq - 1)
            assert [op.qubits for op in chain] == [(q, q + 1) for q in range(nq - 1)]


class TestParamsValidation:
    @pytest.mark.parametrize(
        "qubit_range", [(1, 5), (5, 3), (2, 28), (0, 0)]
    )
    def test_bad_qubit_range(self, qubit_range):
        with pytest.raises(CorpusError, match="qubit_range"):
            CorpusParams(qubit_range=qubit_range)

    @pytest.mark.parametrize("depth_range", [(0, 5), (6, 2)])
    def test_bad_depth_range(self, depth_range):
        with pytest.raises(CorpusError, match="depth_range"):
            CorpusParams(depth_range=depth_range)

    def test_unknown_family(self):
        with pytest.raises(CorpusError, match="unknown family"):
            CorpusParams(mix=(("qft", 1.0),))

    def test_negative_weight(self):
        with pytest.raises(CorpusError, match="negative"):
            CorpusParams(mix=(("ghz", -0.5), ("random", 1.0)))

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_weight(self, weight):
        # normalized, a NaN or infinite weight would make every weight NaN
        with pytest.raises(CorpusError, match="finite"):
            CorpusParams(mix=(("ghz", weight), ("random", 1.0)))

    def test_empty_mix(self):
        with pytest.raises(CorpusError, match="empty"):
            CorpusParams(mix=())

    def test_zero_sum_weights(self):
        with pytest.raises(CorpusError, match="sum to zero"):
            CorpusParams(mix=(("ghz", 0.0), ("random", 0.0)))

    def test_weights_summing_past_the_largest_float(self):
        # each weight is finite, but normalized by an infinite sum all would be 0
        with pytest.raises(CorpusError, match="overflow"):
            CorpusParams(mix=(("ghz", 1e308), ("random", 1e308)))


def test_serialization_round_trip():
    for circ in gen_corpus(30, seed=17):
        back = parse_qasm(serialize_qasm(circ))
        assert back.num_qubits == circ.num_qubits
        assert [op.kind for op in back.ops] == [op.kind for op in circ.ops]
        assert [op.qubits for op in back.ops] == [op.qubits for op in circ.ops]
        assert [op.params for op in back.ops] == [op.params for op in circ.ops]
