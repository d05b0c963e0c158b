import dataclasses
import math

import numpy as np
import pytest

from qtp.circuit import Circuit, GateInstance, circuit_depth
from qtp.devices import load_profile
from qtp.gates import GateKind, VOCABULARY
from qtp.transpile import (
    CompiledCircuit,
    RouteError,
    compile_for,
    compiled_from_circuit,
    lower_to_canonical,
    rebase,
    route,
)
from unitary import circuit_unitary, gate_matrix, phase_aligned_distance
from util import compiled_distance, ops_unitary, random_circuit

SQ2 = 1 / math.sqrt(2)


def _sc_profile(name, num_qubits, coupling):
    return load_profile(
        {
            "name": name,
            "technology": "superconducting",
            "num_qubits": num_qubits,
            "basis_gates": ["ecr", "id", "rz", "sx", "x"],
            "coupling": coupling,
            "fidelity_1q": {"id": 0.9999, "rz": 1.0, "sx": 0.9999, "x": 0.9999},
            "fidelity_2q": 0.99,
        }
    )


class TestUnitary:
    def test_h_matrix(self):
        h = gate_matrix(GateInstance(GateKind.H, (0,)))
        assert np.allclose(h, SQ2 * np.array([[1, 1], [1, -1]]))

    def test_cx_big_endian_first_qubit_controls(self):
        # |10> -> |11>: control is qubit 0, the most significant bit
        u = circuit_unitary([GateInstance(GateKind.CX, (0, 1))], 2)
        state = np.zeros(4)
        state[0b10] = 1.0
        assert np.allclose(u @ state, np.eye(4)[:, 0b11])

    def test_cx_reversed_operands(self):
        u = circuit_unitary([GateInstance(GateKind.CX, (1, 0))], 2)
        state = np.zeros(4)
        state[0b01] = 1.0
        assert np.allclose(u @ state, np.eye(4)[:, 0b11])

    def test_composition_order(self):
        # x then h on one qubit: matrix product is H @ X
        u = circuit_unitary(
            [GateInstance(GateKind.X, (0,)), GateInstance(GateKind.H, (0,))], 1
        )
        hx = gate_matrix(GateInstance(GateKind.H, (0,))) @ gate_matrix(
            GateInstance(GateKind.X, (0,))
        )
        assert np.allclose(u, hx)

    def test_all_gates_unitary(self, rng):
        for kind in VOCABULARY:
            params = tuple(rng.uniform(-np.pi, np.pi, kind.param_count))
            op = GateInstance(kind, tuple(range(kind.arity)), params)
            u = gate_matrix(op)
            assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-12), kind

    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            circuit_unitary(Circuit(4))

    def test_phase_alignment_ignores_global_phase_only(self):
        u = circuit_unitary([GateInstance(GateKind.H, (0,))], 1)
        assert phase_aligned_distance(u, np.exp(1j * 0.73) * u) <= 1e-15
        # a magnitude change is a real difference, not a phase
        assert phase_aligned_distance(u, 2.0 * u) > 0.5


class TestLower:
    @pytest.mark.parametrize("kind", VOCABULARY, ids=lambda k: k.value)
    def test_every_gate_equivalent(self, kind, rng):
        params = tuple(rng.uniform(-2 * np.pi, 2 * np.pi, kind.param_count))
        op = GateInstance(kind, tuple(range(kind.arity)), params)
        circ = Circuit(kind.arity)
        circ.append(op)
        lowered = lower_to_canonical(circ)
        assert {o.kind for o in lowered.ops} <= {GateKind.U3, GateKind.CX}
        err = phase_aligned_distance(circuit_unitary(lowered), circuit_unitary(circ))
        assert err <= 1e-12, (kind, err)

    def test_random_circuits(self, rng):
        for _ in range(25):
            circ = random_circuit(rng, int(rng.integers(1, 4)), 8)
            lowered = lower_to_canonical(circ)
            err = phase_aligned_distance(circuit_unitary(lowered), circuit_unitary(circ))
            assert err <= 1e-11


class TestRebase:
    def test_sc_output_in_basis(self, sc_line3, rng):
        circ = random_circuit(rng, 3, 10)
        out = rebase(lower_to_canonical(circ), sc_line3)
        assert {o.kind.value for o in out.ops} <= set(sc_line3.basis_gates)

    def test_ion_output_in_basis(self, ion_aa3, rng):
        circ = random_circuit(rng, 3, 10)
        out = rebase(lower_to_canonical(circ), ion_aa3)
        assert {o.kind.value for o in out.ops} <= set(ion_aa3.basis_gates)

    @pytest.mark.parametrize("profile_name", ["sc_line3", "ion_aa3"])
    def test_unitary_preserved(self, profile_name, request, rng):
        profile = request.getfixturevalue(profile_name)
        for _ in range(20):
            circ = random_circuit(rng, int(rng.integers(1, 4)), 8)
            out = rebase(lower_to_canonical(circ), profile)
            err = phase_aligned_distance(circuit_unitary(out), circuit_unitary(circ))
            assert err <= 1e-9, err

    def test_h_rebases_short(self, sc_line3):
        circ = Circuit(1)
        circ.add(GateKind.H, (0,))
        out = rebase(lower_to_canonical(circ), sc_line3)
        # the identity-angle rz drops out of the 5-gate general form
        assert out.gate_count == 3
        err = phase_aligned_distance(circuit_unitary(out), circuit_unitary(circ))
        assert err <= 1e-12

    def test_native_gate_passthrough(self, sc_line3):
        circ = Circuit(1)
        circ.add(GateKind.X, (0,))
        out = rebase(lower_to_canonical(circ), sc_line3)
        assert [o.kind for o in out.ops] == [GateKind.X]

    def test_identity_angles_elided(self, sc_line3):
        circ = Circuit(1)
        circ.add(GateKind.RZ, (0,), (0.0,))
        out = rebase(lower_to_canonical(circ), sc_line3)
        assert out.gate_count == 0


class TestRoute:
    def test_all_to_all_inserts_nothing(self, ion_aa3, rng):
        circ = random_circuit(rng, 3, 8, gate_pool=[GateKind.RX, GateKind.RXX])
        routed, layout = route(circ, ion_aa3)
        assert routed.gate_count == circ.gate_count
        assert layout == [0, 1, 2]

    def test_line_far_pair_needs_swap(self, sc_line3):
        circ = Circuit(3)
        circ.add(GateKind.ECR, (0, 2))
        routed, layout = route(circ, sc_line3)
        assert routed.gate_count > 1
        assert sorted(layout) == [0, 1, 2] and layout != [0, 1, 2]
        for op in routed.ops:
            if len(op.qubits) == 2:
                assert sc_line3.is_coupled(*op.qubits)

    def test_routed_ops_in_basis(self, sc_line3, rng):
        circ = rebase(lower_to_canonical(random_circuit(rng, 3, 10)), sc_line3)
        routed, _ = route(circ, sc_line3)
        assert {o.kind.value for o in routed.ops} <= set(sc_line3.basis_gates)

    def test_tie_breaks_toward_smallest_next_hop(self):
        # on the 4-cycle 0-1-2-3-0, qubit 0 reaches 2 through 1 or through 3
        ring = _sc_profile("sc-ring4", 4, [[0, 1], [1, 2], [2, 3], [3, 0]])
        circ = Circuit(4)
        circ.add(GateKind.ECR, (0, 2))
        routed, layout = route(circ, ring)
        two_qubit = [op.qubits for op in routed.ops if len(op.qubits) == 2]
        assert {tuple(sorted(q)) for q in two_qubit[:-1]} == {(0, 1)}
        assert two_qubit[-1] == (1, 2)
        assert layout == [1, 0, 2, 3]

    def test_disconnected_pair_raises(self):
        split = _sc_profile("sc-split4", 4, [[0, 1], [2, 3]])
        circ = Circuit(4)
        circ.add(GateKind.ECR, (0, 3))
        with pytest.raises(RouteError):
            route(circ, split)

    def test_deterministic(self, sc_line3, rng):
        circ = rebase(lower_to_canonical(random_circuit(rng, 3, 10)), sc_line3)
        a = route(circ, sc_line3)
        b = route(circ, sc_line3)
        assert a[0].ops == b[0].ops and a[1] == b[1]


def _swap_template(profile):
    """The device-native SWAP on (0, 1), from lower and rebase alone."""
    swap = Circuit(2, [GateInstance(GateKind.SWAP, (0, 1))])
    return rebase(lower_to_canonical(swap), profile).ops


def _unroute(ops, profile, expected):
    """Walk routed ops against the rebased input; returns the final layout.

    Each op must be either the next input op mapped through the running
    layout, or the start of a native SWAP on a coupled pair, which updates
    the layout.  No routing rule is assumed beyond that.
    """
    template = _swap_template(profile)
    n = profile.num_qubits
    l2p, p2l = list(range(n)), list(range(n))
    i = j = 0
    while j < len(ops):
        op = ops[j]
        if len(op.qubits) == 2:
            assert profile.is_coupled(*op.qubits), op
        if i < len(expected):
            want = expected[i]
            if op == GateInstance(want.kind, tuple(l2p[q] for q in want.qubits), want.params):
                i += 1
                j += 1
                continue
        window = ops[j:j + len(template)]
        pairs = [o.qubits for o in window if len(o.qubits) == 2]
        assert pairs, f"op {j} ({op}) is neither the next input op nor a SWAP"
        u, v = pairs[0]
        relabelled = [[GateInstance(o.kind, tuple(pair[q] for q in o.qubits), o.params)
                       for o in template] for pair in ((u, v), (v, u))]
        assert window in relabelled, f"op {j} ({op}) is neither the next input op nor a SWAP"
        lu, lv = p2l[u], p2l[v]
        p2l[u], p2l[v] = lv, lu
        l2p[lu], l2p[lv] = v, u
        j += len(template)
    assert i == len(expected), f"{len(expected) - i} input ops never emitted"
    return l2p


class TestCorpusSoundness:
    """corpus200 on the bundled profiles, checked against independent recomputation."""

    def test_heavy_hex_routing_is_a_relabelled_input(self, corpus200, sc_profile):
        assert sc_profile.coupling != "all-to-all"
        swaps = 0
        for circ in corpus200:
            rebased = rebase(lower_to_canonical(circ), sc_profile)
            routed, layout = route(rebased, sc_profile)
            final = _unroute(list(routed.ops), sc_profile, rebased.ops)
            assert list(layout) == final[: circ.num_qubits]
            swaps += final != list(range(sc_profile.num_qubits))
        assert swaps > 0  # the corpus does exercise SWAP insertion

    @pytest.mark.parametrize("profile_name", ["ion_profile", "sc_profile"])
    def test_depth_and_fidelities_recomputed(self, corpus200, profile_name, request):
        profile = request.getfixturevalue(profile_name)
        for circ in corpus200:
            cc = compile_for(circ, profile)
            assert cc.depth == circuit_depth(list(cc.ops)), circ.name
            assert cc.fidelities == tuple(profile.gate_fidelity(op) for op in cc.ops), circ.name

    def test_replaced_profile_costs_use_its_own_fidelities(self, sc_line3):
        circ = Circuit(3)
        circ.add(GateKind.H, (0,))
        circ.add(GateKind.CX, (0, 2))
        before = compile_for(circ, sc_line3)
        for changes in ({"fidelity_2q": 0.9},
                        {"fidelity_1q": {"id": 0.99, "rz": 1.0, "sx": 0.98, "x": 0.97}}):
            other = dataclasses.replace(sc_line3, **changes)
            cc = compile_for(circ, other)
            assert cc.ops == before.ops
            assert cc.fidelities == tuple(other.gate_fidelity(op) for op in cc.ops)
            assert cc.fidelities != before.fidelities
        assert compile_for(circ, sc_line3).fidelities == before.fidelities


class TestCompileFor:
    @pytest.mark.parametrize("profile_name", ["sc_line3", "ion_aa3"])
    def test_semantics_preserved(self, profile_name, request, rng):
        profile = request.getfixturevalue(profile_name)
        for _ in range(15):
            circ = random_circuit(rng, int(rng.integers(1, 4)), 6)
            cc = compile_for(circ, profile)
            assert compiled_distance(circ, cc) <= 1e-9
            for op in cc.ops:
                assert op.kind.value in profile.basis_gates
                if len(op.qubits) == 2:
                    assert profile.is_coupled(*op.qubits)

    def test_records_fidelities_and_depth(self, sc_line3):
        circ = Circuit(2)
        circ.add(GateKind.H, (0,))
        circ.add(GateKind.CX, (0, 1))
        cc = compile_for(circ, sc_line3)
        assert len(cc.fidelities) == cc.gate_count
        assert all(0 < f <= 1 for f in cc.fidelities)
        assert cc.depth >= 1
        assert cc.device_name == "sc-line3"

    def test_empty_circuit(self, sc_line3):
        cc = compile_for(Circuit(2), sc_line3)
        assert cc.gate_count == 0 and cc.depth == 0


class TestPrecompiled:
    def test_accepts_native_circuit(self, sc_line3):
        circ = Circuit(2)
        circ.add(GateKind.ECR, (0, 1))
        circ.add(GateKind.RZ, (0,), (0.3,))
        cc = compiled_from_circuit(circ, sc_line3)
        assert cc.layout == (0, 1)
        assert len(cc.fidelities) == 2

    def test_rejects_off_basis(self, sc_line3):
        circ = Circuit(1)
        circ.add(GateKind.H, (0,))
        with pytest.raises(ValueError):
            compiled_from_circuit(circ, sc_line3)

    def test_rejects_uncoupled(self, sc_line3):
        circ = Circuit(3)
        circ.add(GateKind.ECR, (0, 2))
        with pytest.raises(ValueError):
            compiled_from_circuit(circ, sc_line3)

    def test_rejects_too_wide(self, sc_line3):
        with pytest.raises(ValueError):
            compiled_from_circuit(Circuit(4), sc_line3)
