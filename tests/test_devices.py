import pytest

from qtp.circuit import Circuit, GateInstance, circuit_depth
from qtp.devices import (
    DeviceError,
    TECHNOLOGY_CLASS,
    bundled_profile,
    bundled_profile_names,
    bundled_profiles,
    load_profile,
)
from qtp.gates import GateKind
from qtp.transpile import lower_to_canonical, rebase


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
        with pytest.raises(DeviceError):
            _line3(fidelity_2q=0.0)
        with pytest.raises(DeviceError):
            _line3(fidelity_2q=1.5)
        with pytest.raises(DeviceError):
            _line3(fidelity_1q={"rz": -0.1, "id": 0.9, "sx": 0.9, "x": 0.9})

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
        assert p.neighbors(1) == (0, 2)

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
        assert p.qubit_distance(0, 3) == 1

    def test_distance_bfs(self):
        p = _line3()
        assert p.qubit_distance(0, 0) == 0
        assert p.qubit_distance(0, 1) == 1
        assert p.qubit_distance(0, 2) == 2

    def test_distance_disconnected(self):
        p = _line3(num_qubits=4, coupling=[[0, 1], [2, 3]])
        with pytest.raises(DeviceError):
            p.qubit_distance(0, 3)

    def test_hop_rows_built_on_first_use(self):
        # a long line: building every row at load would be 10^10 entries
        n = 100_000
        p = _line3(num_qubits=n, coupling=[[q, q + 1] for q in range(n - 1)])
        assert p._hops == {}
        assert p.qubit_distance(n - 1, 0) == n - 1
        assert p.next_hop(5, 0) == 4 and p.next_hop(5, n - 1) == 6
        assert sorted(p._hops) == [0, n - 1]

    def test_next_hop_takes_the_smallest_closer_neighbor(self):
        # a 4-cycle: both neighbors of 0 are one hop from 2
        p = _line3(num_qubits=4, coupling=[[0, 3], [3, 2], [2, 1], [1, 0]])
        assert p.neighbors(0) == (1, 3)
        assert p.qubit_distance(0, 2) == 2
        assert p.next_hop(0, 2) == 1

    def test_distance_range_check(self):
        with pytest.raises(DeviceError):
            _line3().qubit_distance(0, 5)


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


def _wire_level(ops, wire, k=100):
    """Level of one wire after ops, as circuit_depth counts it: k more ops on the
    wire lift the depth to that level + k once k exceeds every other wire's level."""
    return circuit_depth(list(ops) + [GateInstance(GateKind.X, (wire,))] * k) - k


class TestNativeSwap:
    @staticmethod
    def _check(profile, u, v):
        ops, fidelities, reach = profile.native_swap(u, v)
        cx = profile.native_cx
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
            ops, fidelities, (split, before, after) = profile.native_cx(a, b)
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
