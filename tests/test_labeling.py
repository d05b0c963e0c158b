import csv
import errno
import functools
import io
import gc
import hashlib
import json
import logging
import math
import operator
import os
import shutil
from dataclasses import replace
from pathlib import Path

import mpmath
import pytest

from qtp.circuit import Circuit
from qtp.corpus import gen_corpus
from qtp.dag import load_graph
from qtp.devices import bundled_profile, load_profile
from qtp.gates import GateKind
from qtp.jsonio import fmt_float
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
from qtp.transpile.rebase import native_gates
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


def _cost_before(compiled):
    """labeling.cost as it was when it took one log per gate, the oracle for
    inputs off the fast path: ints among fidelities in (0, 1]."""
    fids = compiled.fidelities
    if not fids:
        raise LabelError("cost is undefined for an empty compiled circuit")
    lo, hi = min(fids), max(fids)
    logs = 0.0
    for x in map(math.log, fids):
        logs += x
    return -compiled.depth * math.log((hi + lo) / 2.0) - logs


def _outcome(cost_fn, compiled):
    """The cost's repr, which shows its type and a signed zero, or the error."""
    try:
        return "cost", repr(cost_fn(compiled))
    except Exception as exc:  # compared with the oracle's, whatever it is
        return "error", type(exc), str(exc)


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

    def test_bit_identical_to_the_generator_sum(self, rng):
        # the generator's sum as a left fold: sum() compensates from Python 3.12 on
        for _ in range(200):
            fids = tuple(map(float, rng.uniform(1e-6, 1.0, size=int(rng.integers(1, 300)))))
            depth = int(rng.integers(1, 500))
            k = (max(fids) + min(fids)) / 2.0
            assert cost(_compiled(depth, fids)) == (
                -depth * math.log(k) - _left_fold(math.log(f) for f in fids))

    def test_bit_equal_to_the_left_fold_on_a_routed_tail_circuit(self, corpus200, sc_profile):
        widest = sorted(corpus200, key=lambda c: c.num_qubits)[-10:]
        compiled = max((compile_for(c, sc_profile) for c in widest), key=lambda c: c.gate_count)
        fids = compiled.fidelities
        assert len(fids) > 10_000 and len(set(fids)) > 1
        k = (max(fids) + min(fids)) / 2.0
        assert cost(compiled) == -compiled.depth * math.log(k) - _left_fold(map(math.log, fids))

    # fidelities outside (0, 1] never reach cost: the profile refuses them;
    # (5e-324, 1) keeps the id it had when the table held such values too
    @pytest.mark.parametrize("fids", [
        (1, 1), (1, 0.5, 1), (True, 0.25), (0.5, 1.0, 1),
        pytest.param((5e-324, 1), id="fids16"),
    ])
    def test_ints_nans_and_out_of_range_values_as_before(self, fids):
        for depth in (0, 3):
            compiled = _compiled(depth, fids)
            assert _outcome(cost, compiled) == _outcome(_cost_before, compiled)

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


class TestProfileNames:
    """Costs and labels are keyed on profile names: two profiles of one name are refused."""

    @staticmethod
    def _twins(ion_profile, sc_profile):
        return [ion_profile, replace(sc_profile, name=ion_profile.name)]

    def test_score_devices_names_the_duplicate(self, ion_profile, sc_profile):
        circ = Circuit(2, name="bell")
        add(circ, GateKind.H, (0,))
        add(circ, GateKind.CX, (0, 1))
        with pytest.raises(LabelError, match="^two profiles are named 'ionq-forte-like'$"):
            score_devices(circ, self._twins(ion_profile, sc_profile))

    def test_build_manifest_refuses_before_labelling(self, tmp_path, ion_profile, sc_profile):
        circuits = tmp_path / "circuits"
        circuits.mkdir()
        (circuits / "bell.qasm").write_text("qreg q[2];\nh q[0];\ncx q[0],q[1];\n")
        out = tmp_path / "labels" / "manifest.json"
        with pytest.raises(LabelError, match="^two profiles are named 'ionq-forte-like'$"):
            build_manifest(circuits, self._twins(ion_profile, sc_profile), out)
        assert not out.parent.exists()


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

    def test_graph_file_per_circuit(self, tmp_path, ion_aa3, sc_line3):
        # `x` and `x.dag.json` would both write dags/x.dag.json if the suffix
        # were appended only to a name that lacks it
        circuits = tmp_path / "circuits"
        circuits.mkdir()
        (circuits / "x.qasm").write_text("qreg q[3];\nh q[0];\ncx q[0],q[2];\n")
        (circuits / "x.dag.json.qasm").write_text("qreg q[2];\nh q[0];\ncx q[0],q[1];\n")
        out = tmp_path / "manifest.json"
        manifest = build_manifest(circuits, [ion_aa3, sc_line3], out)
        assert [(e.name, e.dag_path) for e in manifest.entries] == [
            ("x.dag.json", "dags/x.dag.json.dag.json"), ("x", "dags/x.dag.json")]
        for entry, path in zip(manifest.entries, resolve_dag_paths(out, manifest)):
            graph = load_graph(path)
            assert (graph.name, graph.num_qubits) == (entry.name, entry.num_qubits)

    def test_partial_fidelity_map_labels(self, tmp_path, ion_profile):
        # per-pair fidelities for (1, 2) and (2, 3) only: the circuit's cx on
        # (2, 3) is scored, and no (0, 1) fidelity is asked for
        line4 = load_profile({
            "name": "line4", "technology": "superconducting", "num_qubits": 4,
            "basis_gates": ["ecr", "id", "rz", "sx", "x"],
            "coupling": [[0, 1], [1, 2], [2, 3]],
            "fidelity_1q": {"id": 0.9999, "rz": 1.0, "sx": 0.9999, "x": 0.9999},
            "fidelity_2q": {"1-2": 0.98, "2-3": 0.99},
        })
        circuits = tmp_path / "circuits"
        circuits.mkdir()
        (circuits / "c.qasm").write_text("qreg q[4];\nh q[2];\ncx q[2],q[3];\n")
        manifest = build_manifest(circuits, [ion_profile, line4], tmp_path / "m.json")
        assert manifest.skipped == []
        [entry] = manifest.entries
        circ = parse_qasm("qreg q[4];\nh q[2];\ncx q[2],q[3];\n")
        assert entry.costs["line4"] == cost(compile_for(circ, line4))

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

    @pytest.mark.parametrize("error", [ValueError, KeyError])
    @pytest.mark.parametrize("step", ["label_circuit", "write_graph"])
    def test_defect_is_not_skipped(self, small_manifest, tmp_path, ion_aa3, sc_line3,
                                   monkeypatch, step, error):
        # a file is skipped for a DataError only: any other error is a defect and propagates
        def failing(*args):
            raise error("a defect")

        monkeypatch.setattr(labeling_module, step, failing)
        with pytest.raises(error, match="a defect"):
            build_manifest(tmp_path / "circuits", [ion_aa3, sc_line3], tmp_path / "again.json")
        assert not (tmp_path / "again.json").exists()

    def test_undecodable_file_skipped(self, tmp_path, ion_aa3, sc_line3):
        circuits, pre = tmp_path / "circuits", tmp_path / "pre"
        circuits.mkdir()
        pre.mkdir()
        bell = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'
        (circuits / "bad.qasm").write_bytes(b"qreg q[1];\nx q[0];\n\x80\n")
        (circuits / "bell.qasm").write_text(bell)
        (circuits / "other.qasm").write_text(bell)
        variant = pre / "bell.ion-aa3.qasm"
        variant.write_bytes(b"qreg q[2];\n\xff\n")
        manifest = build_manifest(circuits, [ion_aa3, sc_line3], tmp_path / "m.json",
                                  precompiled_dir=pre)
        assert [e.name for e in manifest.entries] == ["other"]
        assert manifest.skipped == [
            {"circuit": "bad.qasm", "error": "'utf-8' codec can't decode byte 0x80 in position"
                                             " 19: invalid start byte"},
            {"circuit": "bell.qasm", "error": "bell.ion-aa3.qasm: 'utf-8' codec can't decode byte"
                                              " 0xff in position 11: invalid start byte"},
        ]

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

    def test_graph_file_name_too_long_skipped(self, tmp_path, ion_aa3, sc_line3):
        # a 248-character stem fits a 255-byte file name as .qasm, not as .dag.json,
        # and it sorts before bell.qasm, which must still be labelled
        circuits = tmp_path / "circuits"
        circuits.mkdir()
        bell = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'
        long = "a" * 248
        (circuits / f"{long}.qasm").write_text(bell)
        (circuits / "bell.qasm").write_text(bell)
        manifest = build_manifest(circuits, [ion_aa3, sc_line3], tmp_path / "m.json")
        assert [e.name for e in manifest.entries] == ["bell"]
        assert manifest.skipped == [
            {"circuit": f"{long}.qasm", "error": f"graph file name {long}.dag.json is too long"},
        ]
        assert load_manifest(tmp_path / "m.json").skipped == manifest.skipped

    def test_graph_path_too_long_ends_the_run(self, tmp_path, ion_aa3, sc_line3):
        # short names under an output directory so deep that dags/bell.dag.json
        # passes the path limit while the directory and m.json stay within it:
        # the directory's fault, so no circuit is skipped for it
        circuits = tmp_path / "circuits"
        circuits.mkdir()
        bell = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'
        (circuits / "bell.qasm").write_text(bell)
        target = os.pathconf(tmp_path, "PC_PATH_MAX") - 16
        out_dir = tmp_path
        while len(str(out_dir)) < target:
            out_dir /= "d" * max(1, min(200, target - len(str(out_dir)) - 1))
        out = out_dir / "m.json"
        with pytest.raises(OSError) as info:
            build_manifest(circuits, [ion_aa3, sc_line3], out)
        assert info.value.errno == errno.ENAMETOOLONG
        assert not out.exists()

    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EACCES])
    def test_other_write_errors_end_the_run(self, small_manifest, tmp_path, ion_aa3, sc_line3,
                                            monkeypatch, code):
        def failing(circ, path, label=None):
            raise OSError(code, os.strerror(code), str(path))

        monkeypatch.setattr(labeling_module, "write_graph", failing)
        out = tmp_path / "again" / "manifest.json"
        with pytest.raises(OSError) as info:
            build_manifest(tmp_path / "circuits", [ion_aa3, sc_line3], out)
        assert info.value.errno == code
        assert not out.exists()
        # the first write failed, so no graph file was left behind
        assert list((out.parent / "dags").iterdir()) == []

    @pytest.mark.parametrize(
        "variant, error",
        [
            ("qreg q[2];\nh q[0];\ncx q[0],q[1] $;\n", "line 3, column 14: unexpected character '$'"),
            # parses, but h is not an ion-aa3 basis gate
            ("qreg q[2];\nh q[0];\n", "h is outside the ion-aa3 basis"),
            # parses, but a compiled circuit with no gates has no cost
            ("qreg q[2];\n", "cost is undefined for an empty compiled circuit"),
        ],
        ids=["parse", "device", "empty"],
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
        assert manifest.skipped == [{"circuit": "bell.qasm", "error": f"{bad.name}: {error}"}]

    def test_precompiled_dir_spelling_leaves_manifest_bytes(
            self, tmp_path, ion_aa3, sc_line3, monkeypatch):
        # a bad variant's skipped error names its file, not the path as the flag spelled it
        circuits, pre = tmp_path / "circuits", tmp_path / "pre"
        circuits.mkdir()
        pre.mkdir()
        bell = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'
        (circuits / "bell.qasm").write_text(bell)
        (circuits / "other.qasm").write_text(bell)
        (pre / "bell.ion-aa3.qasm").write_text("qreg q[2];\nh q[0];\n")
        absolute, relative = tmp_path / "abs" / "m.json", tmp_path / "rel" / "m.json"
        build_manifest(circuits, [ion_aa3, sc_line3], absolute, precompiled_dir=pre)
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        manifest = build_manifest(circuits, [ion_aa3, sc_line3], relative,
                                  precompiled_dir=Path("..") / "pre")
        assert [s["circuit"] for s in manifest.skipped] == ["bell.qasm"]
        assert absolute.read_bytes() == relative.read_bytes()

    def test_variant_naming_no_profile_is_logged(self, tmp_path, ion_aa3, sc_line3, caplog):
        circuits, pre = tmp_path / "circuits", tmp_path / "pre"
        circuits.mkdir()
        pre.mkdir()
        bell = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'
        (circuits / "bell.qasm").write_text(bell)
        stray = pre / "bell.sc-line.qasm"  # the device is sc-line3
        stray.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nsx q[0];\n')
        with caplog.at_level(logging.WARNING, logger="qtp.labeling"):
            with_stray = build_manifest(circuits, [ion_aa3, sc_line3], tmp_path / "a" / "m.json",
                                        precompiled_dir=pre)
        assert [r.getMessage() for r in caplog.records] == [
            f"skipping {stray}: 'sc-line' names no device profile"]
        build_manifest(circuits, [ion_aa3, sc_line3], tmp_path / "b" / "m.json")
        assert with_stray.skipped == []
        assert (tmp_path / "a" / "m.json").read_bytes() == (tmp_path / "b" / "m.json").read_bytes()

    def test_file_name_not_utf8_skipped(self, tmp_path, ion_aa3, sc_line3, caplog):
        circuits = tmp_path / "circuits"
        circuits.mkdir()
        bell = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'
        (circuits / os.fsdecode(b"caf\xe9.qasm")).write_text(bell)  # é in Latin-1
        (circuits / "bell.qasm").write_text(bell)
        with caplog.at_level(logging.WARNING, logger="qtp.labeling"):
            manifest = build_manifest(circuits, [ion_aa3, sc_line3], tmp_path / "m.json")
        assert [e.name for e in manifest.entries] == ["bell"]
        assert manifest.skipped == [
            {"circuit": "caf\\xe9.qasm", "error": "file name is not valid UTF-8"}]
        assert [r.getMessage() for r in caplog.records] == [
            "skipping caf\\xe9.qasm: file name is not valid UTF-8"]
        assert os.listdir(tmp_path / "dags") == ["bell.dag.json"]
        assert load_manifest(tmp_path / "m.json").skipped == manifest.skipped

    def test_circuit_named_by_its_file_name_less_the_last_suffix(self, tmp_path):
        bell = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'
        for name, want in (("bell.v2.qasm", "bell.v2"), ("café.qasm", "café"), ("plain", "plain"),
                           (".qasm", "")):
            (tmp_path / name).write_text(bell)
            assert labeling_module.read_circuit(tmp_path / name).name == want
        latin1 = tmp_path / os.fsdecode(b"caf\xe9.qasm")
        latin1.write_bytes(b"\xff")  # the name is refused before the text is read
        with pytest.raises(LabelError) as info:
            labeling_module.read_circuit(latin1)
        assert str(info.value) == "file name is not valid UTF-8"

    def test_variant_file_name_not_utf8_skips_its_circuit(self, tmp_path, ion_aa3, sc_line3):
        circuits, pre = tmp_path / "circuits", tmp_path / "pre"
        circuits.mkdir()
        pre.mkdir()
        bell = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'
        (circuits / "bell.qasm").write_text(bell)
        (circuits / "other.qasm").write_text(bell)
        (pre / os.fsdecode(b"bell.ion-aa3.\xe9.qasm")).write_text(bell)
        manifest = build_manifest(circuits, [ion_aa3, sc_line3], tmp_path / "m.json",
                                  precompiled_dir=pre)
        assert [e.name for e in manifest.entries] == ["other"]
        assert manifest.skipped == [{
            "circuit": "bell.qasm",
            "error": "bell.ion-aa3.\\xe9.qasm: file name is not valid UTF-8",
        }]

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

    def test_variant_belongs_to_the_longest_profile_name(self, tmp_path, sc_line3):
        # with profiles `line` and `line.b`, bell.line.b.qasm is line.b's variant only
        line, line_b = (replace(sc_line3, name=name) for name in ("line", "line.b"))
        circuits, pre = tmp_path / "circuits", tmp_path / "pre"
        circuits.mkdir()
        pre.mkdir()
        bell = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'
        variant = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nsx q[0];\n'
        (circuits / "bell.qasm").write_text(bell)
        (pre / "bell.line.b.qasm").write_text(variant)
        manifest = build_manifest(circuits, [line, line_b], tmp_path / "m.json",
                                  precompiled_dir=pre)
        [entry] = manifest.entries
        pipeline_cost = cost(compile_for(parse_qasm(bell), line))
        variant_cost = cost(compiled_from_circuit(parse_qasm(variant), line_b))
        assert variant_cost < pipeline_cost
        assert entry.costs == {"line": pipeline_cost, "line.b": variant_cost}

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

    def test_plain_rows_keep_their_bytes(self, manifest_for_stats):
        tables = stats_tables(manifest_for_stats)
        norm, qd = ["name,qubits,depth_norm,gates_norm,label"], ["name,qubits,depth,label"]
        for e in manifest_for_stats.entries:
            norm.append(f"{e.name},{e.num_qubits},{fmt_float(e.depth / e.num_qubits)},"
                        f"{fmt_float(e.gate_count / e.num_qubits)},{e.label}")
            qd.append(f"{e.name},{e.num_qubits},{e.depth},{e.label}")
        assert tables["normalized.csv"] == "\n".join(norm) + "\n"
        assert tables["qubits_depth.csv"] == "\n".join(qd) + "\n"

    def test_name_needing_quotes_is_one_field(self, tmp_path, ion_aa3, sc_line3):
        circuits = tmp_path / "c"
        circuits.mkdir()
        bell = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'
        names = ["a\rb", "a,b", "bell", 'say "hi"', "two\nlines"]  # in file-name order
        for name in names:
            (circuits / f"{name}.qasm").write_text(bell)
        manifest = build_manifest(circuits, [ion_aa3, sc_line3], tmp_path / "m.json")
        tables = stats_tables(manifest)
        for table, width in (("normalized.csv", 5), ("qubits_depth.csv", 4)):
            rows = list(csv.reader(io.StringIO(tables[table], newline="")))
            assert [len(row) for row in rows] == [width] * 6
            assert [row[0] for row in rows[1:]] == names
        # a reader ends a row at a lone "\r", so it is quoted too; a plain name is not
        lines = tables["qubits_depth.csv"].split("\n")
        assert lines[1].startswith('"a\rb",2,') and lines[2].startswith('"a,b",2,')
        assert lines[3].startswith("bell,2,")

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


def test_label_bytes_pinned_with_warm_profiles(labeled_manifest, tmp_path):
    # the profile memos (cx entries, SWAPs, SWAP chains) filled first by another
    # corpus, then by a pass over corpus200 itself, change no output byte
    profiles = [bundled_profile("ionq-forte-like"), bundled_profile("ibm-eagle-like")]
    other = tmp_path / "other"
    other.mkdir()
    for circ in gen_corpus(40, seed=5):
        (other / f"{circ.name}.qasm").write_text(serialize_qasm(circ))
    build_manifest(other, profiles, tmp_path / "other-labels" / "manifest.json")
    assert native_gates(profiles[1])._chains
    want = json.loads(LABEL_PIN.read_text())
    for name in ("after-another-corpus", "after-corpus200"):
        # the pinned layout: the circuits directory next to the manifest
        shutil.copytree(labeled_manifest[0].parent / "circuits", tmp_path / name / "circuits")
        manifest_path = tmp_path / name / "manifest.json"
        build_manifest(tmp_path / name / "circuits", profiles, manifest_path)
        assert _label_digests(manifest_path) == want, name
