import dataclasses
import importlib
import math
import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qtp.circuit
import qtp.devices
import rebase_reference as reference
import route_reference
from qtp.circuit import Circuit, GateInstance, check_gate, circuit_depth
from qtp.devices import load_profile
from qtp.gates import GateKind, VOCABULARY
from qtp.transpile import (
    CompiledCircuit,
    RebaseError,
    RouteError,
    compile_each,
    compile_for,
    compiled_from_circuit,
    lower_to_canonical,
    rebase,
    route,
)
from unitary import circuit_unitary, gate_matrix, phase_aligned_distance
from util import add, compiled_distance, ops_unitary, random_circuit

rebase_module = importlib.import_module("qtp.transpile.rebase")  # the package exports the function
route_module = importlib.import_module("qtp.transpile.route")
pipeline_module = importlib.import_module("qtp.transpile.pipeline")

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
        add(circ, GateKind.H, (0,))
        out = rebase(lower_to_canonical(circ), sc_line3)
        # the identity-angle rz drops out of the 5-gate general form
        assert out.gate_count == 3
        err = phase_aligned_distance(circuit_unitary(out), circuit_unitary(circ))
        assert err <= 1e-12

    def test_native_gate_passthrough(self, sc_line3):
        circ = Circuit(1)
        add(circ, GateKind.X, (0,))
        out = rebase(lower_to_canonical(circ), sc_line3)
        assert [o.kind for o in out.ops] == [GateKind.X]

    def test_identity_angles_elided(self, sc_line3):
        circ = Circuit(1)
        add(circ, GateKind.RZ, (0,), (0.0,))
        out = rebase(lower_to_canonical(circ), sc_line3)
        assert out.gate_count == 0

    @pytest.mark.parametrize("profile_name", ["sc_line3", "ion_aa3"])
    def test_only_cx_memo_entries_checked(self, profile_name, request, rng, monkeypatch):
        # a fresh copy, so every cx expansion is made (and checked) in this test
        profile = dataclasses.replace(request.getfixturevalue(profile_name))
        checked = Counter()

        def counting_check(op, num_qubits):
            checked[id(op)] += 1
            check_gate(op, num_qubits)

        circ = lower_to_canonical(random_circuit(rng, 3, 40, gate_pool=[
            GateKind.H, GateKind.T, GateKind.CX, GateKind.CZ, GateKind.SWAP, GateKind.CCX]))
        circ.ops.insert(0, GateInstance(GateKind.CX, (0, 1)))
        for module in (qtp.circuit, qtp.devices, rebase_module, route_module):
            # neither pass imports check_gate; a call one gained would be counted here
            monkeypatch.setattr(module, "check_gate", counting_check, raising=False)
        out = rebase(circ, profile).ops
        cx_records = {id(op) for ops, _, _ in profile._cxs.values() for op in ops}
        # cx expansions come from the profile memo, checked once when it is filled;
        # u3 expansions are built by templates from checked input and not checked
        assert set(checked) == cx_records
        assert set(checked.values()) == {1}
        emitted = {id(op) for op in out}
        assert cx_records <= emitted and emitted - cx_records  # both kinds were emitted
        assert len(emitted) < len(out) / 2  # records are shared
        checked.clear()
        again = rebase(circ, profile).ops
        assert not checked  # a filled memo is not checked again
        assert again == out
        # route checks only the cx entries of the pairs that routing moved to
        before = set(profile._cxs)
        route(circ, profile)
        added = {id(op) for pair in set(profile._cxs) - before for op in profile._cxs[pair][0]}
        assert set(checked) == added and set(checked.values()) <= {1}

    def test_cx_memo_empty_on_a_replace_copy(self, sc_line3):
        profile = dataclasses.replace(sc_line3)
        circ = Circuit(3, [GateInstance(GateKind.CX, pair) for pair in ((0, 2), (2, 0), (0, 2))])
        ecr = rebase(circ, profile).ops
        assert set(profile._cxs) == {(0, 1), (0, 2), (2, 0)}  # the template, then one per pair
        copy = dataclasses.replace(profile, fidelity_2q=0.9)
        assert copy._cxs == {}
        assert rebase(circ, copy).ops == ecr
        cx_native = dataclasses.replace(
            profile, basis_gates=("cx", "rz", "sx"), fidelity_1q={"rz": 1.0, "sx": 0.9999})
        assert cx_native._cxs == {}
        assert [op.kind for op in rebase(circ, cx_native).ops] == [GateKind.CX] * 3
        assert GateKind.ECR in {op.kind for op in rebase(circ, profile).ops}


# Canonical circuits for the differential check against tests/rebase_reference.py:
# a few (qubit, angles) keys used again and again, angles at the identity tests'
# edges (within 1e-12 of multiples of pi/2 and 2 pi), signed zeros, the int 0
# of lowering templates, and finite angles whose sums overflow.
_ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, 0, math.pi, -math.pi, math.pi / 2, -math.pi / 2, 2 * math.pi,
                     1e308, -1e308, sys.float_info.max, -sys.float_info.max, 5e-324]),
    st.builds(lambda k, d: k * math.pi / 2 + d, st.integers(-8, 8), st.floats(-2e-12, 2e-12)),
    st.builds(lambda k, d: k * 2 * math.pi + d, st.integers(-10**6, 10**6),
              st.floats(-2e-12, 2e-12)),
    st.floats(-10, 10),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def canonical_circuits(draw):
    n = draw(st.integers(2, 3))
    keys = draw(st.lists(st.tuples(st.integers(0, n - 1), st.tuples(_ANGLES, _ANGLES, _ANGLES)),
                         min_size=1, max_size=6))
    circ = Circuit(n, name="canonical")
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.booleans()):
            q, angles = draw(st.sampled_from(keys))
            circ.append(GateInstance(GateKind.U3, (q,), angles))
        else:
            pair = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            circ.append(GateInstance(GateKind.CX, tuple(pair)))
    return circ


def _rebased(rebase_fn, circ, profile):
    """Ops with params compared by repr (bit patterns and types), or the error."""
    try:
        out = rebase_fn(circ, profile)
    except ValueError as exc:
        return "error", type(exc), str(exc)
    return "ops", out.num_qubits, out.name, [
        (op.kind, op.qubits, tuple(map(repr, op.params))) for op in out.ops
    ]


@pytest.fixture(scope="module")
def sc_cx3():
    """cx native with {rz, sx} and no x: the zxzxz branches the bundled profiles skip."""
    return load_profile(
        {
            "name": "sc-cx3",
            "technology": "superconducting",
            "num_qubits": 3,
            "basis_gates": ["cx", "rz", "sx"],
            "coupling": [[0, 1], [1, 2]],
            "fidelity_1q": {"rz": 1.0, "sx": 0.9999},
            "fidelity_2q": 0.99,
        }
    )


_PROFILES = ["sc_line3", "ion_aa3", "sc_cx3", "sc_profile", "ion_profile"]


class TestAgainstReference:
    """rebase against the expand-every-op oracle in tests/rebase_reference.py."""

    @pytest.mark.parametrize("profile_name", _PROFILES)
    @settings(max_examples=150, deadline=None)
    @given(circ=canonical_circuits())
    def test_same_ops_or_same_error(self, profile_name, request, circ):
        profile = request.getfixturevalue(profile_name)
        assert _rebased(rebase, circ, profile) == _rebased(reference.rebase, circ, profile)

    @pytest.mark.parametrize("profile_name", ["sc_profile", "ion_profile"])
    def test_corpus_rebases_the_same(self, corpus200, profile_name, request):
        profile = request.getfixturevalue(profile_name)
        for circ in corpus200[::10]:
            lowered = lower_to_canonical(circ)
            assert _rebased(rebase, lowered, profile) == _rebased(reference.rebase, lowered, profile)

    @pytest.mark.parametrize("basis, message", [
        (("rz", "sx", "cz"), "no supported 2q native"),
        (("rz", "x", "cx"), "lacks universal 1q coverage"),
        (("rz", "sx", "cx"), "expects canonical {u3, cx} input, got h"),
    ])
    def test_same_rebase_error(self, sc_cx3, basis, message):
        profile = dataclasses.replace(sc_cx3, basis_gates=basis, fidelity_1q={
            g: 0.999 for g in basis if g in ("rz", "sx", "x")})
        circ = Circuit(2, [GateInstance(GateKind.U3, (0,), (1.0, 2.0, 3.0)),
                           GateInstance(GateKind.H, (1,))])
        with pytest.raises(RebaseError, match=re.escape(message)):
            rebase(circ, profile)
        assert _rebased(rebase, circ, profile) == _rebased(reference.rebase, circ, profile)

    @pytest.mark.parametrize("profile_name", _PROFILES)
    @pytest.mark.parametrize("first, second", [
        ((1.0, 0.0, 2.0), (1.0, -0.0, 2.0)),
        ((0.0, 0.5, -0.0), (-0.0, 0.5, 0.0)),
        ((2.0, 0.0, -0.0), (2.0, -0.0, 0.0)),
        ((0.5, -0.0, -0.0), (0.5, 0, 0)),
    ])
    def test_signed_zeros_share_an_expansion(self, profile_name, request, first, second):
        # equal keys, one expansion; the output is still the oracle's, as no zero is emitted
        profile = request.getfixturevalue(profile_name)
        circ = Circuit(1, [GateInstance(GateKind.U3, (0,), first),
                           GateInstance(GateKind.U3, (0,), second)])
        out = rebase(circ, profile).ops
        half = len(out) // 2
        assert all(a is b for a, b in zip(out[:half], out[half:]))
        assert _rebased(rebase, circ, profile) == _rebased(reference.rebase, circ, profile)


def _small_profile(native, coupling):
    """A 5-qubit profile on a line, a ring or all-to-all, in one 2q native's basis."""
    basis, fidelity_1q = {
        "cx": (["cx", "rz", "sx"], {"rz": 1.0, "sx": 0.9995}),
        "ecr": (["ecr", "id", "rz", "sx", "x"], {"id": 0.9999, "rz": 1.0, "sx": 0.9998, "x": 0.9997}),
        "rxx": (["rx", "ry", "rz", "rxx"], {"rx": 0.9996, "ry": 0.9995, "rz": 0.9994}),
    }[native]
    pairs = {
        "line": [[q, q + 1] for q in range(4)],
        "ring": [[q, (q + 1) % 5] for q in range(5)],
        "all-to-all": "all-to-all",
    }[coupling]
    return load_profile({
        "name": f"{native}-{coupling}5",
        "technology": "trapped-ion" if native == "rxx" else "superconducting",
        "num_qubits": 5,
        "basis_gates": basis,
        "coupling": pairs,
        "fidelity_1q": fidelity_1q,
        "fidelity_2q": 0.99,
    })


_SMALL = [(native, coupling) for native in ("cx", "ecr", "rxx")
          for coupling in ("line", "ring", "all-to-all")]


def _routed(circ, profile, reference_pipeline=False):
    """Compiled fields with params and fidelities compared by repr, or the error."""
    try:
        if reference_pipeline:
            compiled, layout = route_reference.route(rebase(circ, profile), profile)
        else:
            compiled, layout = route(circ, profile)
    except ValueError as exc:
        return "error", type(exc), str(exc)
    return ("compiled", compiled.device_name, compiled.num_qubits,
            [(op.kind, op.qubits, tuple(map(repr, op.params))) for op in compiled.ops],
            list(map(repr, compiled.fidelities)), compiled.depth, compiled.layout, layout)


def _swap_heavy(n):
    """cx between far qubits both ways, with u3s on the wires routing moves."""
    circ = Circuit(n, name="swap-heavy")
    for i in range(6):
        a, b = (0, n - 1) if i % 2 == 0 else (n - 1, 1)
        circ.append(GateInstance(GateKind.U3, (a,), (0.3 * i + 0.1, 0.2, -0.7)))
        circ.append(GateInstance(GateKind.CX, (a, b)))
        circ.append(GateInstance(GateKind.U3, (b,), (1.1, -0.4 * i, 0.5)))
        circ.append(GateInstance(GateKind.CX, (b, a)))
    return circ


class TestRouteAgainstReference:
    """route of a lowered circuit against tests/route_reference.py's route of it rebased."""

    @pytest.mark.parametrize("profile_name", ["sc_profile", "ion_profile"])
    def test_corpus_routes_the_same(self, corpus200, profile_name, request):
        profile = request.getfixturevalue(profile_name)
        for circ in corpus200:
            lowered = lower_to_canonical(circ)
            got = _routed(lowered, profile)
            assert got[0] == "compiled", (circ.name, got)
            assert got == _routed(lowered, profile, reference_pipeline=True), circ.name

    @pytest.mark.parametrize("native, coupling", _SMALL)
    def test_small_profiles(self, native, coupling, rng):
        profile = _small_profile(native, coupling)
        circuits = [_swap_heavy(5), _swap_heavy(3)]
        circuits += [random_circuit(rng, int(rng.integers(2, 6)), 12) for _ in range(20)]
        for circ in circuits:
            lowered = lower_to_canonical(circ)
            got = _routed(lowered, profile)
            assert got[0] == "compiled", got
            assert got == _routed(lowered, profile, reference_pipeline=True), circ
        if coupling == "line":
            lowered = lower_to_canonical(_swap_heavy(5))
            assert len(route(lowered, profile)[0].ops) > len(rebase(lowered, profile).ops)

    @pytest.mark.parametrize("native, coupling", _SMALL)
    @settings(max_examples=60, deadline=None)
    @given(circ=canonical_circuits())
    def test_same_ops_or_same_error(self, native, coupling, circ):
        profile = _small_profile(native, coupling)
        assert _routed(circ, profile) == _routed(circ, profile, reference_pipeline=True)


class TestErrorOrder:
    """The walk raises in op order after the width check, where the two-pass
    pipeline raised every rebase error before any routing error."""

    _OVERFLOW = GateInstance(GateKind.U3, (0,), (0.0, 1e308, 1e308))

    def test_width_before_an_overflowed_angle(self, ion_profile):
        circ = Circuit(40, [self._OVERFLOW])
        with pytest.raises(RouteError, match="^circuit needs 40 qubits, device has 36$"):
            route(circ, ion_profile)
        with pytest.raises(ValueError, match="^math domain error$"):  # the two-pass order
            route_reference.route(rebase(circ, ion_profile), ion_profile)

    def test_unroutable_pair_before_a_later_overflow(self):
        split = _sc_profile("sc-split4", 4, [[0, 1], [2, 3]])
        cx = GateInstance(GateKind.CX, (0, 3))
        with pytest.raises(RouteError, match="^no path between physical qubits 0 and 3$"):
            route(Circuit(4, [cx, self._OVERFLOW]), split)
        with pytest.raises(ValueError, match="^math domain error$"):
            route(Circuit(4, [self._OVERFLOW, cx]), split)
        with pytest.raises(ValueError, match="^math domain error$"):  # the two-pass order
            route_reference.route(rebase(Circuit(4, [cx, self._OVERFLOW]), split), split)

    def test_basis_before_width(self, sc_cx3):
        profile = dataclasses.replace(sc_cx3, basis_gates=("rz", "sx", "cz"),
                                      fidelity_1q={"rz": 1.0, "sx": 0.999})
        with pytest.raises(RebaseError, match="no supported 2q native"):
            route(Circuit(4), profile)

    def test_non_canonical_op_in_op_order(self):
        split = _sc_profile("sc-split4", 4, [[0, 1], [2, 3]])
        h = GateInstance(GateKind.H, (1,))
        with pytest.raises(RebaseError, match=re.escape("expects canonical {u3, cx} input, got h")):
            route(Circuit(4, [h, GateInstance(GateKind.CX, (0, 3))]), split)
        with pytest.raises(RouteError, match="no path"):
            route(Circuit(4, [GateInstance(GateKind.CX, (0, 3)), h]), split)


class TestRoute:
    def test_all_to_all_inserts_nothing(self, ion_aa3, rng):
        circ = lower_to_canonical(random_circuit(rng, 3, 8, gate_pool=[GateKind.RX, GateKind.RXX]))
        routed, layout = route(circ, ion_aa3)
        assert list(routed.ops) == rebase(circ, ion_aa3).ops
        assert layout == [0, 1, 2]

    def test_line_far_pair_needs_swap(self, sc_line3):
        circ = Circuit(3)
        add(circ, GateKind.CX, (0, 2))
        routed, layout = route(circ, sc_line3)
        assert routed.gate_count > 1
        assert sorted(layout) == [0, 1, 2] and layout != [0, 1, 2]
        for op in routed.ops:
            if len(op.qubits) == 2:
                assert sc_line3.is_coupled(*op.qubits)

    def test_routed_ops_in_basis(self, sc_line3, rng):
        circ = lower_to_canonical(random_circuit(rng, 3, 10))
        routed, _ = route(circ, sc_line3)
        assert {o.kind.value for o in routed.ops} <= set(sc_line3.basis_gates)

    def test_tie_breaks_toward_smallest_next_hop(self):
        # on the 4-cycle 0-1-2-3-0, qubit 0 reaches 2 through 1 or through 3
        ring = _sc_profile("sc-ring4", 4, [[0, 1], [1, 2], [2, 3], [3, 0]])
        circ = Circuit(4)
        add(circ, GateKind.CX, (0, 2))
        routed, layout = route(circ, ring)
        two_qubit = [op.qubits for op in routed.ops if len(op.qubits) == 2]
        assert {tuple(sorted(q)) for q in two_qubit[:-1]} == {(0, 1)}
        assert two_qubit[-1] == (1, 2)
        assert layout == [1, 0, 2, 3]

    def test_disconnected_pair_raises(self):
        split = _sc_profile("sc-split4", 4, [[0, 1], [2, 3]])
        circ = Circuit(4)
        add(circ, GateKind.CX, (0, 3))
        with pytest.raises(RouteError):
            route(circ, split)

    def test_deterministic(self, sc_line3, rng):
        circ = lower_to_canonical(random_circuit(rng, 3, 10))
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
            lowered = lower_to_canonical(circ)
            rebased = rebase(lowered, sc_profile)
            routed, layout = route(lowered, sc_profile)
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
        add(circ, GateKind.H, (0,))
        add(circ, GateKind.CX, (0, 2))
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
        add(circ, GateKind.H, (0,))
        add(circ, GateKind.CX, (0, 1))
        cc = compile_for(circ, sc_line3)
        assert len(cc.fidelities) == cc.gate_count
        assert all(0 < f <= 1 for f in cc.fidelities)
        assert cc.depth >= 1
        assert cc.device_name == "sc-line3"

    def test_empty_circuit(self, sc_line3):
        cc = compile_for(Circuit(2), sc_line3)
        assert cc.gate_count == 0 and cc.depth == 0

    def test_compile_each_lowers_once(self, sc_line3, ion_aa3, rng, monkeypatch):
        lowered = []

        def counting_lower(circ):
            lowered.append(circ)
            return lower_to_canonical(circ)

        monkeypatch.setattr(pipeline_module, "lower_to_canonical", counting_lower)
        for _ in range(5):
            circ = random_circuit(rng, 3, 12)
            lowered.clear()
            got = list(compile_each(circ, [sc_line3, ion_aa3, sc_line3]))
            assert lowered == [circ]
            assert got == [route(lower_to_canonical(circ), p)[0]
                           for p in (sc_line3, ion_aa3, sc_line3)]

    def test_compile_each_compiles_when_asked(self, ion_profile, sc_line3):
        circ = Circuit(4)
        add(circ, GateKind.CX, (0, 3))
        each = compile_each(circ, [ion_profile, sc_line3])
        assert next(each) == compile_for(circ, ion_profile)
        with pytest.raises(RouteError, match="device has 3"):  # only now is sc_line3 tried
            next(each)


class TestPrecompiled:
    def test_accepts_native_circuit(self, sc_line3):
        circ = Circuit(2)
        add(circ, GateKind.ECR, (0, 1))
        add(circ, GateKind.RZ, (0,), (0.3,))
        cc = compiled_from_circuit(circ, sc_line3)
        assert cc.layout == (0, 1)
        assert len(cc.fidelities) == 2

    def test_rejects_off_basis(self, sc_line3):
        circ = Circuit(1)
        add(circ, GateKind.H, (0,))
        with pytest.raises(ValueError):
            compiled_from_circuit(circ, sc_line3)

    def test_rejects_uncoupled(self, sc_line3):
        circ = Circuit(3)
        add(circ, GateKind.ECR, (0, 2))
        with pytest.raises(ValueError):
            compiled_from_circuit(circ, sc_line3)

    def test_rejects_too_wide(self, sc_line3):
        with pytest.raises(ValueError):
            compiled_from_circuit(Circuit(4), sc_line3)
