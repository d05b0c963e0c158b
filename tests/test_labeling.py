import functools
import gc
import hashlib
import json
import logging
import math
import operator
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest

from qtp.circuit import Circuit
from qtp.gates import GateKind
from qtp.labeling import (
    LabelError,
    build_manifest,
    cost,
    label_circuit,
    label_from_costs,
    load_manifest,
    resolve_dag_paths,
    score_devices,
    stats_tables,
    write_stats,
)
from qtp.qasm import parse_qasm, serialize_qasm
from qtp.transpile import CompiledCircuit, compile_for, compiled_from_circuit
from qtp.transpile import pipeline as pipeline_module
import qtp.labeling as labeling_module
from util import add, random_circuit


def _left_fold(xs):
    return functools.reduce(operator.add, xs, 0.0)


def _compiled(depth, fidelities, name="dev"):
    return CompiledCircuit(
        device_name=name,
        num_qubits=2,
        ops=(),
        depth=depth,
        fidelities=tuple(fidelities),
        layout=(0, 1),
    )


def _mpmath_cost(depth, fidelities):
    with mpmath.workdps(60):
        k = (mpmath.mpf(max(fidelities)) + mpmath.mpf(min(fidelities))) / 2
        total = -depth * mpmath.log(k)
        for f in fidelities:
            total -= mpmath.log(mpmath.mpf(f))
        return float(total)


class TestCost:
    def test_closed_form(self):
        # one gate at fidelity 1/2, depth 1: K = 1/2, cost = 2 ln 2
        assert abs(cost(_compiled(1, [0.5])) - 2 * math.log(2)) <= 1e-15

    def test_k_uses_extremes(self):
        # K = (0.99 + 0.90) / 2; middle values only enter the sum term
        c = cost(_compiled(3, [0.99, 0.95, 0.90]))
        k = (0.99 + 0.90) / 2
        expect = -3 * math.log(k) - sum(math.log(f) for f in (0.99, 0.95, 0.90))
        assert abs(c - expect) <= 1e-15

    def test_high_precision_oracle(self, rng):
        for _ in range(60):
            depth = int(rng.integers(1, 200))
            fids = rng.uniform(0.5, 1.0, size=int(rng.integers(1, 40)))
            got = cost(_compiled(depth, fids))
            want = _mpmath_cost(depth, list(fids))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_perfect_fidelities_cost_zero(self):
        assert cost(_compiled(4, [1.0, 1.0])) == 0.0

    def test_empty_is_an_error(self):
        with pytest.raises(LabelError):
            cost(_compiled(0, []))

    def test_fidelity_domain_checked(self):
        with pytest.raises(LabelError):
            cost(_compiled(1, [0.0]))
        with pytest.raises(LabelError):
            cost(_compiled(1, [1.2]))

    @pytest.mark.parametrize("fids, named", [
        ((0.9, math.nan, 0.8), "nan"),
        ((math.nan, 0.9, 0.8), "nan"),
        ((0.9, 0.8, math.nan), "nan"),
        ((0.9, math.nan, -1.0), "nan"),
        ((0.9, 1.5, math.nan), "1.5"),
        ((0.9, 0.0, 2.0), "0.0"),
        ((0.9, -0.0), "-0.0"),
        ((0.5, math.inf), "inf"),
        ((0.5, -math.inf, math.nan), "-inf"),
    ])
    def test_first_bad_fidelity_named_at_any_position(self, fids, named):
        with pytest.raises(LabelError, match=re.escape(f"gate fidelity {named} outside (0, 1]")):
            cost(_compiled(2, fids))

    def test_bit_identical_to_the_generator_sum(self, rng):
        # the generator's sum as a left fold: sum() compensates from Python 3.12 on
        for _ in range(200):
            fids = tuple(map(float, rng.uniform(1e-6, 1.0, size=int(rng.integers(1, 300)))))
            depth = int(rng.integers(1, 500))
            k = (max(fids) + min(fids)) / 2.0
            assert cost(_compiled(depth, fids)) == (
                -depth * math.log(k) - _left_fold(math.log(f) for f in fids))

    def test_logs_summed_as_a_left_fold(self):
        # the fold of these logs misses their exactly rounded sum, which
        # math.fsum gives, and a compensated sum() (Python 3.12 on) with it
        fids = (0.1, 0.2, 0.3)
        logs = [math.log(f) for f in fids]
        fold = _left_fold(logs)
        assert fold != math.fsum(logs)
        assert cost(_compiled(4, fids)) == -4 * math.log((0.3 + 0.1) / 2.0) - fold


class TestLabeling:
    def test_lower_cost_wins(self, ion_aa3, sc_line3):
        label, best = label_from_costs(
            {"ion-aa3": 1.0, "sc-line3": 2.0}, [ion_aa3, sc_line3]
        )
        assert (label, best) == (0, "ion-aa3")
        label, best = label_from_costs(
            {"ion-aa3": 3.0, "sc-line3": 2.0}, [ion_aa3, sc_line3]
        )
        assert (label, best) == (1, "sc-line3")

    def test_tie_breaks_lexicographically_and_logs(self, ion_aa3, sc_line3, caplog):
        with caplog.at_level(logging.INFO, logger="qtp.labeling"):
            label, best = label_from_costs(
                {"sc-line3": 1.0, "ion-aa3": 1.0}, [ion_aa3, sc_line3]
            )
        assert best == "ion-aa3" and label == 0
        assert any("tie" in rec.message for rec in caplog.records)

    def test_label_circuit_end_to_end(self, ion_aa3, sc_line3):
        circ = Circuit(2)
        add(circ, GateKind.H, (0,))
        add(circ, GateKind.CX, (0, 1))
        label, best, costs = label_circuit(circ, [ion_aa3, sc_line3])
        assert set(costs) == {"ion-aa3", "sc-line3"}
        assert best in costs
        assert label in (0, 1)
        assert costs[best] == min(costs.values())

    def test_rescaling_costs_keeps_labels(self, ion_aa3, sc_line3, rng):
        # scaling every cost by a positive constant is a log-base change
        for _ in range(20):
            circ = random_circuit(rng, 3, 6)
            _, _, costs = label_circuit(circ, [ion_aa3, sc_line3])
            base, _ = label_from_costs(costs, [ion_aa3, sc_line3])
            for scale in (1e-3, 0.5, 7.0, 1e4):
                scaled = {k: v * scale for k, v in costs.items()}
                lab, _ = label_from_costs(scaled, [ion_aa3, sc_line3])
                assert lab == base


class TestScoreDevices:
    def test_needs_profiles(self):
        with pytest.raises(LabelError):
            score_devices(Circuit(1), [])

    def test_precompiled_variant_can_win(self, sc_line3):
        circ = Circuit(2)
        add(circ, GateKind.H, (0,))
        pipeline_cost = score_devices(circ, [sc_line3])["sc-line3"]
        # a hand-tuned variant with one cheap native gate must beat it
        tuned = Circuit(2)
        add(tuned, GateKind.RZ, (0,), (0.1,))
        variant = compiled_from_circuit(tuned, sc_line3)
        got = score_devices(circ, [sc_line3], {"sc-line3": [variant]})["sc-line3"]
        assert got <= min(pipeline_cost, cost(variant))

    def test_costs_match_one_compile_per_profile(self, corpus200, ion_profile, sc_profile):
        profiles = [ion_profile, sc_profile]
        for circ in corpus200:
            got = score_devices(circ, profiles)
            want = {p.name: cost(compile_for(circ, p)) for p in profiles}
            assert list(map(repr, got.values())) == list(map(repr, want.values())), circ.name
            assert got == want

    def test_lowered_once_for_all_profiles(self, ion_aa3, sc_line3, monkeypatch):
        lowered = []
        original = pipeline_module.lower_to_canonical

        def counting_lower(circ):
            lowered.append(circ.name)
            return original(circ)

        monkeypatch.setattr(pipeline_module, "lower_to_canonical", counting_lower)
        circ = Circuit(2, name="bell")
        add(circ, GateKind.H, (0,))
        add(circ, GateKind.CX, (0, 1))
        score_devices(circ, [ion_aa3, sc_line3])
        assert lowered == ["bell"]


class TestManifest:
    @pytest.fixture()
    def small_manifest(self, tmp_path, ion_aa3, sc_line3, rng):
        circuits = tmp_path / "circuits"
        circuits.mkdir()
        for i in range(6):
            circ = random_circuit(rng, int(rng.integers(2, 4)), 5, name=f"c{i:02d}")
            (circuits / f"{circ.name}.qasm").write_text(serialize_qasm(circ))
        (circuits / "broken.qasm").write_text("qreg q[2];\nfrob q[0];")
        out = tmp_path / "manifest.json"
        manifest = build_manifest(circuits, [ion_aa3, sc_line3], out)
        return out, manifest

    def test_entries_and_skips(self, small_manifest):
        _, manifest = small_manifest
        assert len(manifest.entries) == 6
        assert [s["circuit"] for s in manifest.skipped] == ["broken.qasm"]
        assert sum(manifest.class_counts) == 6

    def test_overflowed_angles_skipped(self, tmp_path, ion_profile, sc_profile):
        # finite angles whose lowering or rebase sums overflow to inf
        circuits = tmp_path / "circuits"
        circuits.mkdir()
        head = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
        (circuits / "cu.qasm").write_text(head + "cu(1e308,1e308,1e308) q[0],q[1];\n")
        (circuits / "u3.qasm").write_text(head + "u3(0,1e308,1e308) q[0];\ncx q[0],q[1];\n")
        manifest = build_manifest(circuits, [ion_profile, sc_profile], tmp_path / "m.json")
        assert not manifest.entries
        assert manifest.skipped == [
            {"circuit": "cu.qasm", "error": "u3 has a non-finite parameter in (0, 0, inf)"},
            {"circuit": "u3.qasm", "error": "math domain error"},
        ]

    def test_width_named_before_an_overflowed_angle(self, tmp_path, ion_profile, sc_profile):
        # routing raises in op order after its width check, so the device that is
        # tried first decides which of the two errors the file is skipped with
        circuits = tmp_path / "circuits"
        circuits.mkdir()
        (circuits / "wide.qasm").write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[40];\nu3(0,1e308,1e308) q[0];\n')
        manifest = build_manifest(circuits, [ion_profile, sc_profile], tmp_path / "m.json")
        assert manifest.skipped == [
            {"circuit": "wide.qasm", "error": "circuit needs 40 qubits, device has 36"},
        ]
        manifest = build_manifest(circuits, [sc_profile, ion_profile], tmp_path / "m.json")
        assert manifest.skipped == [{"circuit": "wide.qasm", "error": "math domain error"}]

    def test_too_wide_for_the_feature_layout_skipped(self, tmp_path, ion_profile, sc_profile):
        circuits = tmp_path / "circuits"
        circuits.mkdir()
        wide = Circuit(28, name="wide")
        add(wide, GateKind.H, (0,))
        for q in range(27):
            add(wide, GateKind.CX, (q, q + 1))
        (circuits / "wide.qasm").write_text(serialize_qasm(wide))
        manifest = build_manifest(circuits, [ion_profile, sc_profile], tmp_path / "m.json")
        assert not manifest.entries
        assert manifest.skipped == [
            {"circuit": "wide.qasm", "error": "28 qubits exceed the 27-qubit feature layout"},
        ]
        assert list((tmp_path / "dags").iterdir()) == []

    @pytest.mark.parametrize(
        "variant, error",
        [
            ("qreg q[2];\nh q[0];\ncx q[0],q[1] $;\n", "line 3, column 14: unexpected character '$'"),
            # parses, but h is not an ion-aa3 basis gate
            ("qreg q[2];\nh q[0];\n", "h is outside the ion-aa3 basis"),
        ],
        ids=["parse", "device"],
    )
    def test_bad_precompiled_variant_named(self, tmp_path, ion_aa3, sc_line3, variant, error):
        circuits, pre = tmp_path / "circuits", tmp_path / "pre"
        circuits.mkdir()
        pre.mkdir()
        bell = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'
        (circuits / "bell.qasm").write_text(bell)
        (circuits / "other.qasm").write_text(bell)
        bad = pre / "bell.ion-aa3.qasm"
        bad.write_text(variant)
        manifest = build_manifest(circuits, [ion_aa3, sc_line3], tmp_path / "m.json",
                                  precompiled_dir=pre)
        assert [e.name for e in manifest.entries] == ["other"]
        assert manifest.skipped == [{"circuit": "bell.qasm", "error": f"{bad}: {error}"}]

    def test_variants_of_a_circuit_named_with_glob_metacharacters(
            self, tmp_path, ion_aa3, sc_line3):
        circuits, pre = tmp_path / "circuits", tmp_path / "pre"
        circuits.mkdir()
        pre.mkdir()
        bell = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'
        (circuits / "qft[3].qasm").write_text(bell)
        # one cheap native gate each: both beat the pipeline's compile of h + cx
        head = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
        (pre / "qft[3].sc-line3.qasm").write_text(head + "sx q[0];\n")
        (pre / "qft[3].sc-line3.v2.qasm").write_text(head + "rz(0.1) q[0];\n")
        (pre / "qft3.sc-line3.qasm").write_text(head + "x q[0];\n")  # what `[3]` would match
        manifest = build_manifest(circuits, [ion_aa3, sc_line3], tmp_path / "m.json",
                                  precompiled_dir=pre)
        [entry] = manifest.entries
        variants = [cost(compiled_from_circuit(parse_qasm(head + g), sc_line3))
                    for g in ("sx q[0];\n", "rz(0.1) q[0];\n")]
        assert min(variants) < cost(compile_for(parse_qasm(bell), sc_line3))
        assert entry.name == "qft[3]"
        assert entry.costs["sc-line3"] == min(variants)

    def test_missing_directory_rejected(self, tmp_path, ion_aa3, sc_line3):
        with pytest.raises(LabelError, match="not a directory"):
            build_manifest(tmp_path / "nowhere", [ion_aa3, sc_line3], tmp_path / "m.json")

    def test_directory_without_circuits_rejected(self, tmp_path, ion_aa3, sc_line3):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(LabelError, match="no .qasm files"):
            build_manifest(empty, [ion_aa3, sc_line3], tmp_path / "m.json")

    def test_class_counts_match_recount(self, small_manifest):
        _, manifest = small_manifest
        recount = [0, 0]
        for e in manifest.entries:
            recount[e.label] += 1
        assert tuple(recount) == manifest.class_counts

    def test_round_trip(self, small_manifest):
        path, manifest = small_manifest
        back = load_manifest(path)
        assert back.class_counts == manifest.class_counts
        assert [e.name for e in back.entries] == [e.name for e in manifest.entries]
        assert back.entries[0].costs == pytest.approx(manifest.entries[0].costs)

    def test_dag_files_resolve(self, small_manifest):
        path, manifest = small_manifest
        for dag_path in resolve_dag_paths(path, manifest):
            assert dag_path.exists()

    def test_paths_outside_the_manifest_directory(self, tmp_path, ion_aa3, sc_line3, rng):
        circuits = tmp_path / "in" / "circuits"
        circuits.mkdir(parents=True)
        for i in range(3):
            circ = random_circuit(rng, 2, 4, name=f"c{i}")
            (circuits / f"{circ.name}.qasm").write_text(serialize_qasm(circ))
        out = tmp_path / "out" / "manifest.json"
        build_manifest(circuits, [ion_aa3, sc_line3], out)
        manifest = load_manifest(out)
        for entry, dag_path in zip(manifest.entries, resolve_dag_paths(out, manifest)):
            assert entry.circuit_path == f"../in/circuits/{entry.name}.qasm"
            assert entry.dag_path == f"dags/{entry.name}.dag.json"
            assert (out.parent / entry.circuit_path).is_file()
            assert dag_path.is_file()

    def test_manifest_bytes_do_not_depend_on_the_tree_location(
        self, tmp_path, ion_aa3, sc_line3, rng
    ):
        texts = [serialize_qasm(random_circuit(rng, 2, 4, name=f"c{i}")) for i in range(3)]
        blobs = []
        for root in (tmp_path / "a", tmp_path / "b" / "deeper"):
            circuits = root / "circuits"
            circuits.mkdir(parents=True)
            for i, text in enumerate(texts):
                (circuits / f"c{i}.qasm").write_text(text)
            out = root / "lab" / "manifest.json"
            build_manifest(circuits, [ion_aa3, sc_line3], out)
            blobs.append(out.read_bytes())
        assert b"../circuits/c0.qasm" in blobs[0]
        assert blobs[0] == blobs[1]

    def test_entry_costs_match_direct_scoring(self, small_manifest, ion_aa3, sc_line3):
        path, manifest = small_manifest
        entry = manifest.entries[0]
        circ = parse_qasm(
            (path.parent / entry.circuit_path).read_text(), name=entry.name
        )
        fresh = score_devices(circ, [ion_aa3, sc_line3])
        assert fresh == pytest.approx(entry.costs)


class TestCollectorPause:
    """build_manifest labels with the cyclic collector off and gives the caller's setting back."""

    @pytest.fixture()
    def circuits(self, tmp_path, rng):
        circuits = tmp_path / "circuits"
        circuits.mkdir()
        for i in range(4):
            circ = random_circuit(rng, 3, 8, name=f"c{i}")
            (circuits / f"{circ.name}.qasm").write_text(serialize_qasm(circ))
        (circuits / "broken.qasm").write_text("qreg q[2];\nfrob q[0];")
        (circuits / "overflow.qasm").write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nu3(0,1e308,1e308) q[0];\n')
        return circuits

    @pytest.fixture()
    def restore_gc(self):
        yield
        gc.enable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_setting_restored(self, circuits, tmp_path, ion_aa3, sc_line3, monkeypatch,
                                     restore_gc, enabled):
        seen = []
        original = labeling_module.label_circuit

        def spying(*args):
            seen.append(gc.isenabled())
            return original(*args)

        monkeypatch.setattr(labeling_module, "label_circuit", spying)
        (gc.enable if enabled else gc.disable)()
        manifest = build_manifest(circuits, [ion_aa3, sc_line3], tmp_path / "m.json")
        assert gc.isenabled() is enabled
        assert len(manifest.entries) == 4 and len(manifest.skipped) == 2
        assert seen == [False] * 5  # every circuit that parsed was labelled with it off

    def test_caller_setting_restored_when_it_raises(self, circuits, tmp_path, ion_aa3, sc_line3,
                                                    monkeypatch, restore_gc):
        def failing(*args):
            raise RuntimeError("disk gone")

        monkeypatch.setattr(labeling_module, "write_graph", failing)
        gc.enable()
        with pytest.raises(RuntimeError, match="disk gone"):
            build_manifest(circuits, [ion_aa3, sc_line3], tmp_path / "m.json")
        assert gc.isenabled()

    def test_pass_leaves_no_cyclic_garbage(self, circuits, tmp_path, ion_profile, sc_profile):
        gc.collect()
        manifest = build_manifest(circuits, [ion_profile, sc_profile], tmp_path / "m.json")
        assert [s["circuit"] for s in manifest.skipped] == ["broken.qasm", "overflow.qasm"]
        assert gc.collect() == 0


class TestStats:
    @pytest.fixture()
    def manifest_for_stats(self, tmp_path, ion_aa3, sc_line3, rng):
        circuits = tmp_path / "c"
        circuits.mkdir()
        for i in range(5):
            circ = random_circuit(rng, 3, 4, name=f"s{i}")
            (circuits / f"{circ.name}.qasm").write_text(serialize_qasm(circ))
        return build_manifest(circuits, [ion_aa3, sc_line3], tmp_path / "m.json")

    def test_histogram_counts(self, manifest_for_stats):
        tables = stats_tables(manifest_for_stats)
        lines = tables["qubit_histogram.csv"].strip().splitlines()
        assert lines[0] == "qubits,class0,class1"
        total = sum(int(a) + int(b) for _, a, b in (ln.split(",") for ln in lines[1:]))
        assert total == len(manifest_for_stats.entries)

    def test_normalized_columns(self, manifest_for_stats):
        tables = stats_tables(manifest_for_stats)
        lines = tables["normalized.csv"].strip().splitlines()
        assert lines[0] == "name,qubits,depth_norm,gates_norm,label"
        assert len(lines) == 1 + len(manifest_for_stats.entries)

    def test_write_stats_files(self, manifest_for_stats, tmp_path):
        paths = write_stats(manifest_for_stats, tmp_path / "stats")
        assert sorted(p.name for p in paths) == [
            "normalized.csv",
            "qubit_histogram.csv",
            "qubits_depth.csv",
        ]
        for p in paths:
            assert p.exists() and p.read_text()


# SHA-256 of manifest.json and of every graph file that labeling corpus200
# against both bundled profiles writes, in name order.  A change that keeps
# the label path's bytes leaves this file as it is; one that moves them on
# purpose rewrites it and says so.
LABEL_PIN = Path(__file__).with_name("label_pin.json")


def _label_digests(manifest_path):
    root = manifest_path.parent
    files = [manifest_path, *sorted((root / "dags").glob("*.dag.json"))]
    return [[p.relative_to(root).as_posix(), hashlib.sha256(p.read_bytes()).hexdigest()]
            for p in files]


def test_label_bytes_pinned(labeled_manifest):
    manifest_path, _ = labeled_manifest
    got = _label_digests(manifest_path)
    want = json.loads(LABEL_PIN.read_text())
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, digest), (_, pinned) in zip(got, want):
        assert digest == pinned, f"{name} differs from the pinned label output"
