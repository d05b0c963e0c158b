import inspect
import math
import subprocess
import sys
from pathlib import Path

import pytest

import qtp.devices
from qtp.circuit import Circuit, GateInstance, circuit_depth
from qtp.devices import (
    DeviceError,
    DeviceProfile,
    TECHNOLOGY_CLASS,
    bundled_profile,
    bundled_profile_names,
    bundled_profiles,
    load_profile,
)
from qtp.gates import GateKind
from qtp.transpile import lower_to_canonical, rebase
from qtp.transpile.rebase import native_gates


def _line3(**overrides):
    spec = {
        "name": "line3",
        "technology": "superconducting",
        "num_qubits": 3,
        "basis_gates": ["ecr", "id", "rz", "sx", "x"],
        "coupling": [[0, 1], [1, 2]],
        "fidelity_1q": {"id": 0.999, "rz": 1.0, "sx": 0.999, "x": 0.999},
        "fidelity_2q": 0.99,
    }
    spec.update(overrides)
    return load_profile(spec)


class TestValidation:
    def test_technology_class_map(self):
        assert TECHNOLOGY_CLASS == {"trapped-ion": 0, "superconducting": 1}

    def test_unknown_technology(self):
        with pytest.raises(DeviceError):
            _line3(technology="photonics")

    def test_basis_outside_vocabulary(self):
        with pytest.raises(DeviceError):
            _line3(basis_gates=["frob"])

    def test_self_coupling(self):
        with pytest.raises(DeviceError):
            _line3(coupling=[[0, 0]])

    def test_coupling_out_of_range(self):
        with pytest.raises(DeviceError):
            _line3(coupling=[[0, 3]])

    def test_fidelity_must_be_probability_like(self):
        # labeling.cost takes every compiled fidelity as in (0, 1], so the
        # profile refuses the rest, in each place a fidelity is given
        for bad in (math.nan, math.inf, -math.inf, 0.0, -0.0, -0.1, -1.0, 1.5, 2.0):
            for field, value in (("fidelity_1q", {"rz": bad, "id": 0.9, "sx": 0.9, "x": 0.9}),
                                 ("fidelity_2q", bad),
                                 ("fidelity_2q", {"0-1": 0.98, "1-2": bad})):
                with pytest.raises(DeviceError, match="fidelity"):
                    _line3(**{field: value})

    @pytest.mark.parametrize("missing", ["id", "rz", "sx", "x"])
    def test_every_one_qubit_basis_gate_needs_a_fidelity(self, missing):
        fidelities = {"id": 0.999, "rz": 1.0, "sx": 0.999, "x": 0.999}
        del fidelities[missing]
        with pytest.raises(DeviceError, match=f"fidelity_1q has no entry for basis gate '{missing}'"):
            _line3(fidelity_1q=fidelities)

    @pytest.mark.parametrize("count", [3.0, 1e7, True, "3"])
    def test_num_qubits_must_be_a_json_integer(self, count):
        with pytest.raises(DeviceError, match="num_qubits must be an integer"):
            _line3(num_qubits=count)


class TestCoupling:
    def test_line_adjacency(self):
        p = _line3()
        assert p.is_coupled(0, 1) and p.is_coupled(1, 0)
        assert not p.is_coupled(0, 2)
        assert not p.is_coupled(1, 1)

    def test_all_to_all(self):
        p = load_profile(
            {
                "name": "aa",
                "technology": "trapped-ion",
                "num_qubits": 4,
                "basis_gates": ["rx", "ry", "rz", "rxx"],
                "coupling": "all-to-all",
                "fidelity_1q": {"rx": 0.999, "ry": 0.999, "rz": 0.999},
                "fidelity_2q": 0.99,
            }
        )
        assert all(p.is_coupled(a, b) for a in range(4) for b in range(4) if a != b)
        assert not p.is_coupled(0, 4) and not p.is_coupled(-1, 0)

    def test_distance_bfs(self):
        # next_hop steps along a shortest path, so hopping counts the distance
        p = _line3(num_qubits=5, coupling=[[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]])
        assert p.next_hop(0, 2) == 1 and p.next_hop(0, 3) == 4
        assert p._hops[2] == [2, 1, 0, 1, 2] and p._hops[3] == [2, 2, 1, 0, 1]

    def test_distance_disconnected(self):
        p = _line3(num_qubits=4, coupling=[[0, 1], [2, 3]])
        with pytest.raises(DeviceError, match="qubits 0 and 3 are not connected on line3"):
            p.next_hop(0, 3)

    def test_hop_rows_built_on_first_use(self):
        # a long line: building every row at load would be 10^10 entries
        n = 100_000
        p = _line3(num_qubits=n, coupling=[[q, q + 1] for q in range(n - 1)])
        assert p._hops == {}
        assert p.next_hop(n - 1, 0) == n - 2
        assert p.next_hop(5, 0) == 4 and p.next_hop(5, n - 1) == 6
        assert sorted(p._hops) == [0, n - 1]

    def test_next_hop_takes_the_smallest_closer_neighbor(self):
        # a 4-cycle: both neighbors of 0 are one hop from 2
        p = _line3(num_qubits=4, coupling=[[0, 3], [3, 2], [2, 1], [1, 0]])
        assert p.next_hop(0, 2) == 1


class TestFidelity:
    def test_one_qubit_lookup(self):
        p = _line3()
        assert p.gate_fidelity(GateInstance(GateKind.RZ, (0,), (0.5,))) == 1.0
        assert p.gate_fidelity(GateInstance(GateKind.X, (2,))) == 0.999

    def test_two_qubit_scalar(self):
        p = _line3()
        assert p.gate_fidelity(GateInstance(GateKind.ECR, (0, 1))) == 0.99

    def test_two_qubit_per_pair(self):
        p = _line3(fidelity_2q={"0-1": 0.98, "1-2": 0.97})
        assert p.gate_fidelity(GateInstance(GateKind.ECR, (0, 1))) == 0.98
        # order-insensitive lookup
        assert p.gate_fidelity(GateInstance(GateKind.ECR, (2, 1))) == 0.97

    def test_uncoupled_pair_rejected(self):
        with pytest.raises(DeviceError):
            _line3().gate_fidelity(GateInstance(GateKind.ECR, (0, 2)))

    def test_gate_outside_basis_rejected(self):
        with pytest.raises(DeviceError):
            _line3().gate_fidelity(GateInstance(GateKind.H, (0,)))


class TestLoad:
    def test_pair_keys_parsed(self):
        p = _line3(fidelity_2q={"0-1": 0.98, "2-1": 0.97})
        assert p.fidelity_2q == {(0, 1): 0.98, (1, 2): 0.97}

    def test_constructor_takes_the_seven_profile_fields(self):
        # the neighbor lists and compiler memos are derived, never passed in
        assert list(inspect.signature(DeviceProfile).parameters) == [
            "name", "technology", "num_qubits", "basis_gates", "coupling", "fidelity_1q",
            "fidelity_2q"]


def _wire_level(ops, wire, k=100):
    """Level of one wire after ops, as circuit_depth counts it: k more ops on the
    wire lift the depth to that level + k once k exceeds every other wire's level."""
    return circuit_depth(list(ops) + [GateInstance(GateKind.X, (wire,))] * k) - k


def test_import_loads_no_transpiler_module():
    # the transpiler imports devices, and devices keeps only a field for the
    # transpiler's memos: a fresh interpreter shows no import back
    src = str(Path(qtp.devices.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qtp.devices; "
            "print(sorted(m for m in sys.modules if m.startswith('qtp.transpile')))")
    proc = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "[]\n"


class TestNativeSwap:
    @staticmethod
    def _check(profile, u, v):
        ops, fidelities, reach = native_gates(profile).native_swap(u, v)
        cx = native_gates(profile).native_cx
        assert ops == cx(u, v)[0] + cx(v, u)[0] + cx(u, v)[0]
        swap = Circuit(max(u, v) + 1, [GateInstance(GateKind.SWAP, (u, v))])
        assert list(ops) == rebase(lower_to_canonical(swap), profile).ops
        assert fidelities == tuple(map(profile.gate_fidelity, ops))
        for lu, lv in ((0, 0), (3, 0), (0, 3), (2, 5), (5, 2)):
            start = [GateInstance(GateKind.X, (u,))] * lu + [GateInstance(GateKind.X, (v,))] * lv
            after = start + list(ops)
            assert _wire_level(after, u) == max(lu + reach[0][0], lv + reach[0][1])
            assert _wire_level(after, v) == max(lu + reach[1][0], lv + reach[1][1])

    def test_every_coupled_pair_of_the_heavy_hex_profile(self):
        profile = bundled_profile("ibm-eagle-like")
        for a, b in profile.coupling:
            self._check(profile, a, b)
            self._check(profile, b, a)

    def test_sample_pairs_of_the_all_to_all_profile(self):
        profile = bundled_profile("ionq-forte-like")
        for u, v in ((0, 1), (1, 0), (0, 35), (35, 34), (17, 4), (4, 17)):
            self._check(profile, u, v)


_BASES = {  # one per 2q native; ecr and rxx put 1q ops before it, cx none
    "cx": (["cx", "rz", "sx"], {"rz": 1.0, "sx": 0.999}),
    "ecr": (["ecr", "id", "rz", "sx", "x"], {"id": 0.999, "rz": 1.0, "sx": 0.999, "x": 0.998}),
    "rxx": (["rx", "ry", "rz", "rxx"], {"rx": 0.999, "ry": 0.998, "rz": 0.997}),
}


class TestNativeCx:
    @pytest.mark.parametrize("native", sorted(_BASES))
    def test_split_and_levels(self, native):
        basis, fidelity_1q = _BASES[native]
        profile = _line3(basis_gates=basis, fidelity_1q=fidelity_1q)
        for a, b in ((0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)):
            ops, fidelities, (split, before, after) = native_gates(profile).native_cx(a, b)
            cx = Circuit(3, [GateInstance(GateKind.CX, (a, b))])
            assert list(ops) == rebase(cx, profile).ops
            assert [len(op.qubits) for op in ops].index(2) == split
            assert (split > 0) == (native != "cx")
            scored = ops if profile.is_coupled(a, b) else ops[:split]
            assert fidelities == tuple(map(profile.gate_fidelity, scored))
            for la, lb in ((0, 0), (3, 0), (0, 3), (2, 5), (5, 2)):
                start = [GateInstance(GateKind.X, (a,))] * la + [GateInstance(GateKind.X, (b,))] * lb
                head = start + list(ops[:split])
                assert _wire_level(head, a) == la + before[0]
                assert _wire_level(head, b) == lb + before[1]
                top = max(la + before[0], lb + before[1])
                assert _wire_level(start + list(ops), a) == top + after[0]
                assert _wire_level(start + list(ops), b) == top + after[1]

    def test_entries_share_their_1q_records(self):
        profile = bundled_profile("ibm-eagle-like")
        gates = native_gates(profile)
        template = gates.template
        entries = {pair: gates.native_cx(*pair)[0] for pair in ((5, 4), (5, 6), (5, 30), (4, 5))}
        for (a, b), ops in entries.items():
            assert ops == tuple(
                GateInstance(op.kind, tuple((a, b)[w] for w in op.qubits), op.params)
                for op in template)
        for i, op in enumerate(template):
            records = [entries[pair][i] for pair in ((5, 4), (5, 6), (5, 30))]
            if op.qubits == (0,):  # on qubit 5 in all three: one record
                assert all(r is records[0] for r in records)
            else:  # on the other qubit, or the 2-qubit op: one record each
                assert len({id(r) for r in records}) == 3
        # one record per (template position, qubit) that a relabelled entry used
        assert set(gates._cx_1q) == {
            (i, (q,)) for (a, b) in entries for i, op in enumerate(template)
            if len(op.qubits) == 1 for q in [(a, b)[op.qubits[0]]]}


class TestBundled:
    def test_names(self):
        assert bundled_profile_names() == ("ibm-eagle-like", "ionq-forte-like")

    def test_ion_profile(self):
        p = bundled_profile("ionq-forte-like")
        assert p.technology == "trapped-ion"
        assert p.coupling == "all-to-all"
        assert set(p.basis_gates) == {"rx", "ry", "rz", "rxx"}

    def test_sc_profile(self):
        p = bundled_profile("ibm-eagle-like")
        assert p.technology == "superconducting"
        assert p.num_qubits == 127
        assert len(p.coupling) == 142
        assert set(p.basis_gates) == {"ecr", "id", "rz", "sx", "x"}
        # every edge must be a usable two-qubit link
        for a, b in p.coupling:
            assert p.gate_fidelity(GateInstance(GateKind.ECR, (a, b))) > 0.9

    def test_unknown_bundled_name(self):
        with pytest.raises(DeviceError):
            bundled_profile("nope")

    def test_bundled_profiles_all_load(self):
        assert len(bundled_profiles()) == 2
