"""CLI: end-to-end pipeline, exit codes, output artifacts, determinism."""

import csv
import hashlib
import importlib
import json
import math
import os
import pkgutil
import re
import shutil
import struct
import subprocess
import sys

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qtp
import qtp.devices
import qtp.labeling
from qtp.cli import TABLE_COLUMNS, main
from qtp.dag import load_graph
from qtp.jsonio import path_text
from qtp.labeling import cost, load_manifest, resolve_dag_paths
from qtp.model import ModelConfig, init_weights, load_checkpoint, save_checkpoint
from qtp.qasm import parse_qasm
from qtp.transpile.pipeline import compile_for, compiled_from_circuit

_CONFIG = '{"first_layer": "gcn", "hidden": 8, "blocks": 1, "ffnn": [8]}'
_CONFIG_NAME = "GCN_1GCN_0FFNN_8_8"

_TRAIN_FLAGS = ["--epochs", "2", "--folds", "2", "--batch-size", "8", "--seed", "1"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Corpus generated and labeled once for the whole module."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    assert main([
        "gen-corpus", "--out", str(corpus), "--n", "24", "--seed", "5",
        "--qubits", "4", "20", "--depth", "6", "28",
    ]) == 0
    manifest = root / "manifest.json"
    assert main(["label", "--circuits", str(corpus), "--out", str(manifest)]) == 0
    return root, corpus, manifest


@pytest.fixture(scope="module")
def trained(pipeline):
    root, _, manifest = pipeline
    out = root / "run"
    assert main([
        "train", "--manifest", str(manifest), "--config", _CONFIG,
        "--out", str(out), *_TRAIN_FLAGS,
    ]) == 0
    return out


def _rewrite_checkpoint(src, dst, edit_header=lambda header: None, tail=b""):
    """Copy a checkpoint, editing its JSON header and appending payload bytes."""
    data = src.read_bytes()
    (hlen,) = struct.unpack_from("<I", data, 8)
    header = json.loads(data[12 : 12 + hlen])
    edit_header(header)
    raw = json.dumps(header).encode()
    dst.write_bytes(data[:8] + struct.pack("<I", len(raw)) + raw + data[12 + hlen :] + tail)


def _zero_offsets(header):
    for entry in header["params"]:
        entry["offset"] = 0


def _infinite_offset(header):
    header["params"][1]["offset"] = float("inf")  # written as Infinity, read back as a float


def _permuted_params(src, dst):
    """Copy a checkpoint with every parameter after the first listed, stored and
    offset in reverse order: the same weights in another layout."""
    data = src.read_bytes()
    (hlen,) = struct.unpack_from("<I", data, 8)
    header = json.loads(data[12 : 12 + hlen])
    body = data[12 + hlen :]
    params = header["params"][:1] + header["params"][:0:-1]
    blobs, offset = [], 0
    for entry in params:
        size = 8 * math.prod(entry["shape"])
        blobs.append(body[entry["offset"] : entry["offset"] + size])
        entry["offset"] = offset
        offset += size
    header["params"] = params
    raw = json.dumps(header).encode()
    dst.write_bytes(data[:8] + struct.pack("<I", len(raw)) + raw + b"".join(blobs))


def _scalar_first_param(src, dst):
    """Copy a checkpoint with its first parameter cut down to a shape-[] scalar."""
    data = src.read_bytes()
    (hlen,) = struct.unpack_from("<I", data, 8)
    header = json.loads(data[12 : 12 + hlen])
    first = header["params"][0]
    cut = 8 * (math.prod(first["shape"]) - 1)
    first["shape"] = []
    for entry in header["params"][1:]:
        entry["offset"] -= cut
    body = data[12 + hlen :]
    raw = json.dumps(header).encode()
    dst.write_bytes(data[:8] + struct.pack("<I", len(raw)) + raw + body[:8] + body[8 + cut :])


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestPipeline:
    def test_corpus_and_manifest(self, pipeline):
        _, corpus, manifest = pipeline
        assert len(list(corpus.glob("*.qasm"))) == 24
        m = load_manifest(manifest)
        assert len(m.entries) == 24
        assert not m.skipped
        assert m.class_counts[0] >= 2 and m.class_counts[1] >= 2
        for dag_path in resolve_dag_paths(manifest, m):
            assert dag_path.exists()

    def test_stats_outputs(self, pipeline):
        root, _, manifest = pipeline
        out = root / "stats"
        assert main(["stats", "--manifest", str(manifest), "--out", str(out)]) == 0
        files = sorted(p.name for p in out.glob("*.csv"))
        assert len(files) == 3
        for name in files:
            rows = _read_csv(out / name)
            assert rows, name

    def test_train_outputs(self, pipeline, trained):
        assert (trained / "fold0.ckpt").exists()
        assert (trained / "fold1.ckpt").exists()
        report = json.loads((trained / "run_report.json").read_text())
        assert report["name"] == _CONFIG_NAME
        assert len(report["fold_reports"]) == 2
        assert set(report["aggregate"]) >= {"accuracy", "f1_class0", "f1_class1"}
        rows = _read_csv(trained / "results.csv")
        assert len(rows) == 1
        assert list(rows[0]) == list(TABLE_COLUMNS)
        assert rows[0]["model"] == _CONFIG_NAME
        assert 0.0 <= float(rows[0]["accuracy"]) <= 1.0

    def test_train_deterministic(self, pipeline, trained):
        root, _, manifest = pipeline
        rerun = root / "run2"
        assert main([
            "train", "--manifest", str(manifest), "--config", _CONFIG,
            "--out", str(rerun), *_TRAIN_FLAGS,
        ]) == 0
        for name in ("fold0.ckpt", "fold1.ckpt", "run_report.json", "results.csv"):
            assert (rerun / name).read_bytes() == (trained / name).read_bytes(), name

    def test_evaluate(self, pipeline, trained):
        root, _, manifest = pipeline
        out = root / "eval.json"
        assert main([
            "evaluate", "--checkpoint", str(trained / "fold0.ckpt"),
            "--manifest", str(manifest), "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["model"] == _CONFIG_NAME
        assert payload["num_graphs"] == 24
        assert 0.0 <= payload["metrics"]["accuracy"] <= 1.0

    def test_evaluate_circuits_outside_manifest_directory(self, pipeline, trained, tmp_path):
        _, corpus, _ = pipeline
        manifest = tmp_path / "away" / "manifest.json"
        assert main(["label", "--circuits", str(corpus), "--out", str(manifest)]) == 0
        entry = json.loads(manifest.read_text())["entries"][0]
        assert not os.path.isabs(entry["circuit_path"])
        assert (manifest.parent / entry["circuit_path"]).resolve() == (
            corpus / f"{entry['name']}.qasm"
        ).resolve()
        assert main([
            "evaluate", "--checkpoint", str(trained / "fold0.ckpt"),
            "--manifest", str(manifest), "--out", str(tmp_path / "eval.json"),
        ]) == 0
        assert json.loads((tmp_path / "eval.json").read_text())["num_graphs"] == 24

    def test_evaluate_creates_the_report_directory(self, pipeline, trained, tmp_path):
        # as label, train and stats do for their outputs
        _, _, manifest = pipeline
        out = tmp_path / "new" / "deeper" / "report.json"
        assert main([
            "evaluate", "--checkpoint", str(trained / "fold0.ckpt"),
            "--manifest", str(manifest), "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["num_graphs"] == 24

    def test_predict_line(self, pipeline, trained, capsys):
        _, corpus, _ = pipeline
        circuit = sorted(corpus.glob("*.qasm"))[0]
        assert main([
            "predict", str(circuit), "--checkpoint", str(trained / "fold0.ckpt"),
        ]) == 0
        line = capsys.readouterr().out
        m = re.fullmatch(r"class=([01]) p0=(\S+) p1=(\S+)\n", line)
        assert m, line
        cls, p0, p1 = int(m.group(1)), float(m.group(2)), float(m.group(3))
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)
        assert cls == (1 if p1 > p0 else 0)


class TestGrid:
    def test_budget_run_and_ranking(self, pipeline):
        root, _, manifest = pipeline
        out = root / "grid1"
        assert main([
            "grid", "--manifest", str(manifest), "--out", str(out),
            "--budget", "3", "--epochs", "1", "--folds", "2",
            "--batch-size", "8", "--seed", "3",
        ]) == 0
        rows = _read_csv(out / "grid.csv")
        assert len(rows) == 3
        assert list(rows[0]) == list(TABLE_COLUMNS)
        f1s = [float(r["f1_class0"]) for r in rows]
        assert f1s == sorted(f1s, reverse=True)
        report = json.loads((out / "grid_report.json").read_text())
        assert [r["name"] for r in report["results"]] == [r["model"] for r in rows]

    def test_jobs_do_not_change_results(self, pipeline):
        root, _, manifest = pipeline
        outs = []
        for tag, jobs in (("gridA", "1"), ("gridB", "2")):
            out = root / tag
            assert main([
                "grid", "--manifest", str(manifest), "--out", str(out),
                "--budget", "2", "--jobs", jobs, "--epochs", "1", "--folds", "2",
                "--batch-size", "8", "--seed", "3",
            ]) == 0
            outs.append(out)
        a, b = outs
        assert (a / "grid.csv").read_bytes() == (b / "grid.csv").read_bytes()
        assert (a / "grid_report.json").read_bytes() == (b / "grid_report.json").read_bytes()

    @pytest.mark.parametrize("jobs", [("1", "1"), ("2", "2"), ("1", "2")])
    def test_dataset_read_anew_by_each_call(self, tmp_path, jobs):
        # two corpora labelled in turn at one manifest path: each in-process grid
        # must train on what the path holds then, as a fresh process does
        trees = []
        for seed in ("5", "6"):
            tree = tmp_path / f"tree{seed}"
            assert main(["gen-corpus", "--out", str(tree / "corpus"), "--n", "24", "--seed", seed,
                         "--qubits", "4", "20", "--depth", "6", "28"]) == 0
            assert main(["label", "--circuits", str(tree / "corpus"),
                         "--out", str(tree / "manifest.json")]) == 0
            trees.append(tree)
        shared = tmp_path / "shared"
        flags = ["--budget", "1", "--epochs", "1", "--folds", "2", "--batch-size", "8",
                 "--seed", "3"]
        got, fresh = [], []
        for tree, job in zip(trees, jobs):
            shutil.rmtree(shared, ignore_errors=True)
            shutil.copytree(tree, shared)
            out = tmp_path / f"inproc{len(got)}"
            assert main(["grid", "--manifest", str(shared / "manifest.json"), "--out", str(out),
                         "--jobs", job, *flags]) == 0
            got.append((out / "grid.csv").read_bytes())
            out = tmp_path / f"fresh{len(fresh)}"
            proc = subprocess.run(
                [sys.executable, "-m", "qtp.cli", "grid", "--manifest", str(shared / "manifest.json"),
                 "--out", str(out), *flags],
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            fresh.append((out / "grid.csv").read_bytes())
        assert fresh[0] != fresh[1]  # the two corpora do train differently
        assert got == fresh

    def test_zero_budget_rejected(self, pipeline):
        root, _, manifest = pipeline
        assert main([
            "grid", "--manifest", str(manifest), "--out", str(root / "gz"),
            "--budget", "0",
        ]) == 2


class TestFeaturize:
    def test_directory_with_out(self, pipeline):
        root, corpus, _ = pipeline
        out = root / "feat"
        assert main(["featurize", str(corpus), "--out", str(out)]) == 0
        dags = sorted(out.glob("*.dag.json"))
        assert len(dags) == 24
        graph = load_graph(dags[0])
        assert graph.label is None
        assert graph.features.shape[1] == 66

    def test_single_file_default_location(self, pipeline, tmp_path):
        _, corpus, _ = pipeline
        src = sorted(corpus.glob("*.qasm"))[0]
        local = tmp_path / src.name
        local.write_text(src.read_text())
        assert main(["featurize", str(local)]) == 0
        assert (tmp_path / f"{local.stem}.dag.json").exists()


_BELL = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'


class TestPrecompiled:
    @pytest.fixture()
    def dirs(self, tmp_path):
        circuits, pre = tmp_path / "circuits", tmp_path / "pre"
        circuits.mkdir()
        pre.mkdir()
        (circuits / "bell.qasm").write_text(_BELL)
        (circuits / "other.qasm").write_text(_BELL)
        return circuits, pre, tmp_path / "m.json"

    def test_winning_variant_sets_the_cost(self, dirs):
        circuits, pre, out = dirs
        # one native sx: cheaper than the pipeline's compile of h + cx
        variant = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nsx q[0];\n'
        (pre / "bell.ibm-eagle-like.qasm").write_text(variant)
        assert main(["label", "--circuits", str(circuits), "--out", str(out),
                     "--precompiled-dir", str(pre)]) == 0
        profile = qtp.devices.bundled_profile("ibm-eagle-like")
        expected = cost(compiled_from_circuit(parse_qasm(variant), profile))
        assert expected < cost(compile_for(parse_qasm(_BELL), profile))
        entries = {e.name: e for e in load_manifest(out).entries}
        assert entries["bell"].costs["ibm-eagle-like"] == expected
        # the variant is for bell only; other keeps the pipeline's cost
        assert entries["other"].costs["ibm-eagle-like"] > expected

    def test_malformed_variant_skips_its_circuit(self, dirs):
        circuits, pre, out = dirs
        bad = pre / "bell.ionq-forte-like.qasm"
        bad.write_text("qreg q[2];\nh q[0];\ncx q[0],q[1] $;\n")
        assert main(["label", "--circuits", str(circuits), "--out", str(out),
                     "--precompiled-dir", str(pre)]) == 0
        manifest = load_manifest(out)
        assert [e.name for e in manifest.entries] == ["other"]
        assert manifest.skipped == [{
            "circuit": "bell.qasm",
            "error": f"{bad.name}: line 3, column 14: unexpected character '$'",
        }]


class TestExitCodes:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-corpus", "--out", "x", "--n", "1", "--frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])
        assert exc.value.code == 1

    def test_featurize_missing_input(self):
        assert main(["featurize", "no-such-file.qasm"]) == 2

    def test_featurize_non_finite_angle(self, tmp_path, capsys):
        bad = tmp_path / "inf.qasm"
        bad.write_text("qreg q[1];\nrx(1e999) q[0];\n")
        assert main(["featurize", str(bad)]) == 2
        assert f"{bad}: line 2, column 1: rx has a non-finite parameter" in capsys.readouterr().err

    def test_label_unknown_profile(self, pipeline, tmp_path):
        _, corpus, _ = pipeline
        code = main([
            "label", "--circuits", str(corpus),
            "--profiles", "no-such-device", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "edit",
        [
            {"num_qubits": "many"},
            {"num_qubits": 1e400},
            {"fidelity_1q": [1, 2]},
            {"fidelity_2q": {"0_1": 0.99}},
            {"coupling": [[0]]},
            {"basis_gates": 5},
            {"technology": "quantum-dots"},
            {"fidelity_2q": 1.5},
            None,
            {"fidelity_1q": {"rx": 0.9998, "rz": 0.9998}},
            {"num_qubits": 1e7},
            {"num_qubits": True},
            # refused at load: routing would ask for lists of this length
            {"num_qubits": 10**400},
            {"num_qubits": qtp.devices.MAX_QUBITS + 1},
            # each loaded before, coerced or as written
            {"fidelity_2q": True},
            {"fidelity_1q": {"rx": "0.9998", "ry": 0.9998, "rz": 0.9998}},
            {"coupling": [[0.7, 1]]},
            {"name": 12},
            {"name": "ion\ud800"},
            {"basis_gates": "hx", "fidelity_1q": {"h": 0.99, "x": 0.99}},
            {"fidelity_2q": {"1_0-2": 0.99}},
        ],
        ids=["num-qubits-word", "num-qubits-inf", "fidelity-1q-list", "fidelity-2q-key",
             "coupling-short-pair", "basis-number", "technology", "fidelity-range",
             "not-a-profile-object", "fidelity-1q-missing-gate", "num-qubits-float",
             "num-qubits-bool", "num-qubits-past-float", "num-qubits-past-bound",
             "fidelity-2q-bool", "fidelity-1q-string", "coupling-float-qubit", "number-name",
             "surrogate-name", "basis-string", "fidelity-2q-key-underscore"],
    )
    def test_label_malformed_profile_file(self, pipeline, tmp_path, capsys, edit):
        _, corpus, _ = pipeline
        profile = json.loads(
            (Path(qtp.devices.__file__).parent / "profiles" / "ionq-forte-like.json").read_text()
        )
        bad = tmp_path / "profile.json"
        bad.write_text(json.dumps([profile] if edit is None else {**profile, **edit}))
        code = main([
            "label", "--circuits", str(corpus),
            "--profiles", str(bad), "ibm-eagle-like", "--out", str(tmp_path / "m.json"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert str(bad) in err and "internal error" not in err

    def test_label_duplicate_profile_name(self, pipeline, tmp_path, capsys):
        # the eagle profile under the trapped-ion profile's name: its costs
        # would be labelled with the other's technology
        _, corpus, _ = pipeline
        fake = json.loads(
            (Path(qtp.devices.__file__).parent / "profiles" / "ibm-eagle-like.json").read_text()
        )
        fake["name"] = "ionq-forte-like"
        path = tmp_path / "fake.json"
        path.write_text(json.dumps(fake))
        out = tmp_path / "m.json"
        code = main(["label", "--circuits", str(corpus),
                     "--profiles", "ionq-forte-like", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "two profiles are named 'ionq-forte-like'" in err and "internal error" not in err
        assert not out.exists()

    def test_label_missing_circuit_dir(self, tmp_path):
        code = main([
            "label", "--circuits", str(tmp_path / "nowhere"),
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2

    def test_stats_missing_manifest(self, tmp_path):
        assert main([
            "stats", "--manifest", str(tmp_path / "gone.json"),
            "--out", str(tmp_path / "s"),
        ]) == 2

    def test_train_bad_config(self, pipeline, tmp_path):
        _, _, manifest = pipeline
        code = main([
            "train", "--manifest", str(manifest),
            "--config", '{"first_layer": "mlp", "hidden": 8, "blocks": 1, "ffnn": [8]}',
            "--out", str(tmp_path / "t"),
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "content",
        [b"[1]", b'{"first_layer": "gcn", "hidden": "x", "blocks": 1, "ffnn": [8]}',
         b'{"first_layer": "gcn", "hidden": 8, "blocks": 1, "ffnn": 8}', b"\xff{}",
         # each trained before, on the widths cut to ints
         b'{"first_layer": "gcn", "hidden": 8.9, "blocks": 1, "ffnn": [8]}',
         b'{"first_layer": "gcn", "hidden": true, "blocks": 1, "ffnn": [8]}',
         b'{"first_layer": "gcn", "hidden": 8, "blocks": true, "ffnn": [8]}',
         b'{"first_layer": "gat", "hidden": 8, "heads": 2.0, "blocks": 1, "ffnn": [8]}',
         b'{"first_layer": "gcn", "hidden": 8, "blocks": 1, "ffnn": [8.5]}',
         b'{"first_layer": "gcn", "hidden": 8, "blocks": 1, "ffnn": [true]}'],
        ids=["list", "hidden-word", "ffnn-number", "not-utf8", "hidden-float", "hidden-bool",
             "blocks-bool", "heads-float", "ffnn-float", "ffnn-bool"],
    )
    def test_train_malformed_config_file(self, pipeline, tmp_path, capsys, content):
        _, _, manifest = pipeline
        bad = tmp_path / "config.json"
        bad.write_bytes(content)
        code = main([
            "train", "--manifest", str(manifest), "--config", str(bad),
            "--out", str(tmp_path / "t"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert str(bad) in err and "internal error" not in err

    def test_train_missing_manifest(self, tmp_path):
        assert main([
            "train", "--manifest", str(tmp_path / "gone.json"),
            "--config", _CONFIG, "--out", str(tmp_path / "t"),
        ]) == 2

    def test_evaluate_corrupt_checkpoint(self, pipeline, tmp_path):
        _, _, manifest = pipeline
        bogus = tmp_path / "bogus.ckpt"
        bogus.write_bytes(b"garbage bytes, not a checkpoint")
        assert main([
            "evaluate", "--checkpoint", str(bogus),
            "--manifest", str(manifest), "--out", str(tmp_path / "e.json"),
        ]) == 2

    @pytest.mark.parametrize(
        "edit_header, tail",
        [
            (lambda header: header.pop("config"), b""),
            (lambda header: header.pop("params"), b""),
            (lambda header: None, b"\x00" * 8),
            (_zero_offsets, b""),
            (_infinite_offset, b""),
            # each loaded before, coerced or as written
            (lambda header: header["params"][1].update(offset=float(header["params"][1]["offset"])),
             b""),
            (lambda header: header["params"][0].update(shape=[66.0, 8]), b""),
            (lambda header: header.update(seed="3"), b""),
            (lambda header: header["config"].update(hidden=8.0), b""),
            # exit 3 before: the shape's product wrapped to 0 in int64
            (lambda header: header["params"][0].update(shape=[2**62, 4, 1]), b""),
        ],
        ids=["no-config", "no-params", "trailing-bytes", "zero-offsets", "infinite-offset",
             "float-offset", "float-shape", "string-seed", "float-hidden", "shape-past-int64"],
    )
    def test_evaluate_malformed_checkpoint(self, pipeline, trained, tmp_path, capsys,
                                           edit_header, tail):
        _, _, manifest = pipeline
        bad = tmp_path / "bad.ckpt"
        _rewrite_checkpoint(trained / "fold0.ckpt", bad, edit_header, tail)
        assert main([
            "evaluate", "--checkpoint", str(bad),
            "--manifest", str(manifest), "--out", str(tmp_path / "e.json"),
        ]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "internal error" not in err

    @pytest.mark.parametrize("label", [None, 2], ids=["missing", "out-of-range"])
    def test_stats_bad_entry_label(self, pipeline, tmp_path, label):
        _, _, manifest = pipeline
        blob = json.loads(manifest.read_text())
        if label is None:
            del blob["entries"][0]["label"]
        else:
            blob["entries"][0]["label"] = label
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(blob))
        assert main(["stats", "--manifest", str(bad), "--out", str(tmp_path / "s")]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_qubits", 0),
            ("num_qubits", 2.0),
            ("depth", -1),
            ("gate_count", True),
            ("costs", {"ibm-eagle-like": "1.5"}),
            ("costs", []),
            ("name", 7),
            ("dag_path", None),
            # exit 3 before: math.isfinite overflowed on the int cost, and the
            # stats ratios on the counts
            ("costs", {"ibm-eagle-like": 10**400, "ionq-forte-like": 1.5}),
            ("depth", 10**400),
            ("gate_count", 10**400),
            ("num_qubits", 10**400),
            ("depth", 2**63),
            # what label wrote for café.qasm under an ASCII locale, and stats then exited 3 on
            ("name", "caf\udcc3\udca9"),
            ("circuit_path", "../c/caf\udcc3\udca9.qasm"),
        ],
        ids=["zero-qubits", "float-qubits", "negative-depth", "bool-gates",
             "string-cost", "cost-list", "int-name", "null-path", "cost-past-float",
             "depth-past-float", "gates-past-float", "qubits-past-float", "depth-past-int64",
             "surrogate-name", "surrogate-path"],
    )
    def test_stats_bad_entry_field(self, pipeline, tmp_path, capsys, field, value):
        _, _, manifest = pipeline
        blob = json.loads(manifest.read_text())
        blob["entries"][0][field] = value
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(blob))
        # train and evaluate load a manifest through the same checks as stats
        for args in (["stats", "--out", str(tmp_path / "s")],
                     ["train", "--config", _CONFIG, "--out", str(tmp_path / "t")]):
            assert main([*args, "--manifest", str(bad)]) == 2
            err = capsys.readouterr().err
            assert f"{bad}: entry {blob['entries'][0]['name']!r} has {field}" in err

    @pytest.mark.parametrize(
        "field, value",
        [
            # each exited 0 before: the three were taken as written
            ("class_counts", "ab"),
            ("profiles", 7),
            ("skipped", None),
            ("class_counts", [1, 2, 3]),
            ("class_counts", [-1, 2]),
            ("class_counts", [1.0, 2]),
            ("profiles", [{"name": "x", "technology": "photonic"}]),
            ("profiles", [{"name": 7, "technology": "trapped-ion"}]),
            ("skipped", [{"circuit": "x.qasm"}]),
            ("skipped", [{"circuit": "x.qasm", "error": 7}]),
        ],
        ids=["counts-string", "profiles-number", "skipped-null", "counts-three",
             "counts-negative", "counts-float", "profile-technology", "profile-name-number",
             "skipped-no-error", "skipped-error-number"],
    )
    def test_stats_bad_manifest_field(self, pipeline, tmp_path, capsys, field, value):
        _, _, manifest = pipeline
        blob = json.loads(manifest.read_text())
        blob[field] = value
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(blob))
        assert main(["stats", "--manifest", str(bad), "--out", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err.startswith(f"qtp stats: {bad}: ")

    def test_manifest_without_skipped_loads(self, pipeline, tmp_path):
        _, _, manifest = pipeline
        blob = json.loads(manifest.read_text())
        del blob["skipped"]
        edited = tmp_path / "manifest.json"
        edited.write_text(json.dumps(blob))
        assert load_manifest(edited).skipped == []

    def test_largest_counts_in_entry_accepted(self, pipeline, tmp_path):
        _, _, manifest = pipeline
        blob = json.loads(manifest.read_text())
        blob["entries"][0].update(depth=2**63 - 1, gate_count=2**63 - 1, num_qubits=2**63 - 1)
        edited = tmp_path / "manifest.json"
        edited.write_text(json.dumps(blob))
        assert main(["stats", "--manifest", str(edited), "--out", str(tmp_path / "s")]) == 0

    def test_predict_scalar_first_parameter(self, pipeline, trained, tmp_path):
        _, corpus, _ = pipeline
        bad = tmp_path / "scalar.ckpt"
        _scalar_first_param(trained / "fold0.ckpt", bad)
        circuit = sorted(corpus.glob("*.qasm"))[0]
        assert main(["predict", str(circuit), "--checkpoint", str(bad)]) == 2

    def test_predict_parameters_out_of_layout_order(self, pipeline, trained, tmp_path, capsys):
        # the same weights, listed and stored in another order: loaded before
        _, corpus, _ = pipeline
        bad = tmp_path / "permuted.ckpt"
        _permuted_params(trained / "fold0.ckpt", bad)
        circuit = sorted(corpus.glob("*.qasm"))[0]
        assert main(["predict", str(circuit), "--checkpoint", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"qtp predict: {bad}: parameters differ from the config's layout\n")

    def test_predict_overflowing_weights(self, pipeline, trained, tmp_path):
        _, corpus, _ = pipeline
        config, weights, seed, _ = load_checkpoint(trained / "fold0.ckpt")
        weights["first.b"][0] = 1.7e308
        bad = tmp_path / "huge.ckpt"
        save_checkpoint(bad, config, weights, seed)
        circuit = sorted(corpus.glob("*.qasm"))[0]
        with np.errstate(over="ignore"):
            assert main(["predict", str(circuit), "--checkpoint", str(bad)]) == 2

    @pytest.mark.parametrize("first_layer", ["gcn", "gat"])
    def test_predict_overflow_inside_first_layer(
        self, pipeline, trained, tmp_path, capsys, first_layer
    ):
        # every node has a gate and a qubit feature set to 1, so H W (GAT)
        # and, for some node, Â H W (GCN) exceed the largest double
        _, corpus, _ = pipeline
        config, weights, seed, _ = load_checkpoint(trained / "fold0.ckpt")
        if first_layer == "gat":
            config = ModelConfig("gat", 4, 1, (8,), heads=2)
            weights = init_weights(config, seed)
        for name in weights:
            if name.startswith("first.") and name.endswith(".w"):
                weights[name] = np.full_like(weights[name], 1e308)
        bad = tmp_path / f"{first_layer}-huge.ckpt"
        save_checkpoint(bad, config, weights, seed)
        circuit = sorted(corpus.glob("*.qasm"))[0]
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["predict", str(circuit), "--checkpoint", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(
            f"qtp predict: {bad}: weights give a non-finite forward pass"
        )

    def test_predict_undecodable_circuit(self, trained, tmp_path):
        bad = tmp_path / "bad.qasm"
        bad.write_bytes(b"qreg q[1];\nx q[0];\n\x80\n")
        assert main([
            "predict", str(bad), "--checkpoint", str(trained / "fold0.ckpt"),
        ]) == 2

    def test_predict_bad_circuit(self, trained, tmp_path, capsys):
        bad = tmp_path / "bad.qasm"
        bad.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nfrobnicate q[0];\n'
        )
        assert main([
            "predict", str(bad), "--checkpoint", str(trained / "fold0.ckpt"),
        ]) == 2
        assert capsys.readouterr().err == (
            f"qtp predict: {bad}: line 4, column 1: unknown gate 'frobnicate'\n"
        )

    def test_predict_circuit_too_wide_names_the_file(self, trained, tmp_path, capsys):
        wide = tmp_path / "wide.qasm"
        wide.write_text("OPENQASM 2.0;\nqreg q[28];\nh q[27];\n")
        assert main([
            "predict", str(wide), "--checkpoint", str(trained / "fold0.ckpt"),
        ]) == 2
        assert capsys.readouterr().err == (
            f"qtp predict: {wide}: 28 qubits exceed the 27-qubit feature layout\n")

    def test_gen_corpus_bad_mix(self, tmp_path, capsys):
        # an unknown family, a weight that is no number, and weights that would
        # normalize to NaN or 0 and so pick the last family for every circuit
        for mix in ("qft=1", "ghz=x", "ghz", "ghz=nan,random=1", "ghz=inf,random=1",
                    "ghz=1e308,random=1e308"):
            assert main([
                "gen-corpus", "--out", str(tmp_path / "c"), "--n", "2", "--mix", mix,
            ]) == 2, mix
            assert "internal error" not in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize(
        "command, flags",
        [("train", ["--batch-size", "0"]), ("train", ["--batch-size", "-1"]),
         ("train", ["--epochs", "-2"]), ("grid", ["--jobs", "0", "--budget", "1"])],
        ids=["batch-size-0", "batch-size-negative", "epochs-negative", "grid-jobs-0"],
    )
    def test_unusable_run_flag(self, pipeline, tmp_path, capsys, command, flags):
        _, _, manifest = pipeline
        config = ["--config", _CONFIG] if command == "train" else []
        assert main([
            command, "--manifest", str(manifest), *config, "--out", str(tmp_path / "o"),
            "--folds", "2", "--epochs", "1", *flags,
        ]) == 2
        assert "internal error" not in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("error", [ValueError, KeyError])
    def test_label_defect_is_internal_error(self, pipeline, tmp_path, capsys, monkeypatch,
                                            error):
        # only a DataError is bad input; any other error in labelling a file is
        # a defect, which ends the run instead of skipping the file
        _, corpus, _ = pipeline

        def failing(*args):
            raise error("a defect")

        monkeypatch.setattr(qtp.labeling, "label_circuit", failing)
        assert main([
            "label", "--circuits", str(corpus), "--out", str(tmp_path / "m.json"),
        ]) == 3
        assert "internal error" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


_DEEP = "[" * 100_000  # nested past the JSON decoder's recursion limit


def _deep_manifest(root, corpus, manifest, trained, bad):
    bad.write_text('{"entries": ' + _DEEP)
    return ["stats", "--manifest", str(bad), "--out", str(root / "s")]


def _deep_graph(root, corpus, manifest, trained, bad):
    bad.write_text(_DEEP)
    blob = json.loads(manifest.read_text())
    blob["entries"] = [{**blob["entries"][0], "dag_path": str(bad)}]
    one = root / "one.json"
    one.write_text(json.dumps(blob))
    return ["evaluate", "--checkpoint", str(trained / "fold0.ckpt"),
            "--manifest", str(one), "--out", str(root / "e.json")]


def _deep_profile(root, corpus, manifest, trained, bad):
    bad.write_text(_DEEP)
    return ["label", "--circuits", str(corpus), "--profiles", str(bad),
            "--out", str(root / "m.json")]


def _deep_checkpoint(root, corpus, manifest, trained, bad):
    raw = _DEEP.encode()
    bad.write_bytes(b"QTPCKPT1" + struct.pack("<I", len(raw)) + raw)
    return ["predict", str(sorted(corpus.glob("*.qasm"))[0]), "--checkpoint", str(bad)]


def _deep_config(root, corpus, manifest, trained, bad):
    bad.write_text(_DEEP)
    return ["train", "--manifest", str(manifest), "--config", str(bad),
            "--out", str(root / "t")]


@pytest.mark.parametrize(
    "make_argv",
    [_deep_manifest, _deep_graph, _deep_profile, _deep_checkpoint, _deep_config],
    ids=["manifest", "graph", "profile", "checkpoint", "config"],
)
def test_deeply_nested_json_is_bad_data(pipeline, trained, tmp_path, capsys, make_argv):
    """JSON nested past the decoder's limit exits 2 with the file's name, not 3."""
    _, corpus, manifest = pipeline
    bad = tmp_path / "deep.json"
    assert main(make_argv(tmp_path, corpus, manifest, trained, bad)) == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "internal error" not in err


def _named_featurize_qasm(root, corpus, manifest, trained, d):
    bad = d / os.fsdecode(b"bell\xe9.qasm")  # refused by its name before its text is read
    bad.write_text(_BELL)
    return ["featurize", str(bad), "--out", str(root / "f")], bad


def _named_predict_qasm(root, corpus, manifest, trained, d):
    bad = d / "bell.qasm"
    bad.write_text(f"{_HEAD}frob q[0];\n")
    return ["predict", str(bad), "--checkpoint", str(trained / "fold0.ckpt")], bad


def _named_profile(root, corpus, manifest, trained, d):
    bad = d / "profile.json"
    bad.write_text("[1]")
    return ["label", "--circuits", str(corpus), "--profiles", str(bad),
            "--out", str(root / "m.json")], bad


def _named_config(root, corpus, manifest, trained, d):
    bad = d / "config.json"
    bad.write_text("[1]")
    return ["train", "--manifest", str(manifest), "--config", str(bad),
            "--out", str(root / "t")], bad


def _named_graph(root, corpus, manifest, trained, d):
    bad = d / "bell.dag.json"
    bad.write_text("[1]")
    blob = json.loads(manifest.read_text())
    blob["entries"] = [{**blob["entries"][0], "dag_path": bad.name}]
    one = d / "one.json"  # a manifest's paths are text, so it sits next to the graph
    one.write_text(json.dumps(blob))
    return ["train", "--manifest", str(one), "--config", _CONFIG, "--out", str(root / "t")], bad


def _named_manifest(root, corpus, manifest, trained, d):
    bad = d / "manifest.json"
    bad.write_text("[1]")
    return ["stats", "--manifest", str(bad), "--out", str(root / "s")], bad


def _named_checkpoint(root, corpus, manifest, trained, d):
    bad = d / "fold0.ckpt"
    bad.write_bytes(b"garbage bytes, not a checkpoint")
    return ["predict", str(sorted(corpus.glob("*.qasm"))[0]), "--checkpoint", str(bad)], bad


def _named_variant(root, corpus, manifest, trained, d):
    (root / "c").mkdir()
    for name in ("bell", "other"):
        (root / "c" / f"{name}.qasm").write_text(_BELL)
    bad = d / os.fsdecode(b"bell.ibm-eagle-like.\xe9.qasm")
    bad.write_text(_BELL)
    return ["label", "--circuits", str(root / "c"), "--precompiled-dir", str(d),
            "--out", str(root / "m.json")], bad


def _narrow_checkpoint(d):
    """A well-formed checkpoint whose weights take 7 features a node, not the layout's 66."""
    bad = d / "w7.ckpt"
    config = ModelConfig("gcn", 8, 1, (8,))
    save_checkpoint(bad, config, init_weights(config, seed=0, in_dim=7), seed=0)
    return bad


def _named_narrow_predict(root, corpus, manifest, trained, d):
    bad = _narrow_checkpoint(d)
    return ["predict", str(sorted(corpus.glob("*.qasm"))[0]), "--checkpoint", str(bad)], bad


def _named_narrow_evaluate(root, corpus, manifest, trained, d):
    bad = _narrow_checkpoint(d)
    return ["evaluate", "--checkpoint", str(bad), "--manifest", str(manifest),
            "--out", str(root / "e.json")], bad


def _gone_manifest(root, corpus, manifest, trained, d):
    return ["stats", "--manifest", str(d / "gone.json"), "--out", str(root / "s")], d / "gone.json"


def _gone_checkpoint(root, corpus, manifest, trained, d):
    return (["predict", str(sorted(corpus.glob("*.qasm"))[0]), "--checkpoint",
             str(d / "gone.ckpt")], d / "gone.ckpt")


def _gone_config(root, corpus, manifest, trained, d):
    return (["train", "--manifest", str(manifest), "--config", str(d / "gone.json"),
             "--out", str(root / "t")], d / "gone.json")


def _gone_profile(root, corpus, manifest, trained, d):
    return (["label", "--circuits", str(corpus), "--profiles", str(d / "gone.json"),
             "--out", str(root / "m.json")], d / "gone.json")


def _gone_graph(root, corpus, manifest, trained, d):
    blob = json.loads(manifest.read_text())
    blob["entries"] = [{**blob["entries"][0], "dag_path": "gone.dag.json"}]
    (d / "one.json").write_text(json.dumps(blob))
    return (["evaluate", "--checkpoint", str(trained / "fold0.ckpt"), "--manifest",
             str(d / "one.json"), "--out", str(root / "e.json")], d / "gone.dag.json")


def _gone_circuit(root, corpus, manifest, trained, d):
    return (["predict", str(d / "gone.qasm"), "--checkpoint", str(trained / "fold0.ckpt")],
            d / "gone.qasm")


@pytest.mark.parametrize(
    "make_argv",
    [_named_featurize_qasm, _named_predict_qasm, _named_profile, _named_config, _named_graph,
     _named_manifest, _named_checkpoint, _named_variant, _named_narrow_predict,
     _named_narrow_evaluate, _gone_manifest, _gone_checkpoint, _gone_config, _gone_profile,
     _gone_graph, _gone_circuit],
    ids=["featurize-qasm", "predict-qasm", "profile", "config", "graph", "manifest",
         "checkpoint", "variant", "narrow-checkpoint-predict", "narrow-checkpoint-evaluate",
         "missing-manifest", "missing-checkpoint", "missing-config", "missing-profile",
         "missing-graph", "missing-circuit"],
)
def test_bad_file_is_named_once_as_path_text(pipeline, trained, tmp_path, capsys, make_argv):
    """A bad or missing file in a directory whose name is not UTF-8 is named first
    and once, its bytes as UTF-8 and \\xe9 for the rest; a bad variant skips its
    circuit, named by its file name in the manifest's skipped error."""
    _, corpus, manifest = pipeline
    d = tmp_path / os.fsdecode(b"d\xe9")  # é in Latin-1
    d.mkdir()
    argv, bad = make_argv(tmp_path, corpus, manifest, trained, d)
    code = main(argv)
    err = capsys.readouterr().err
    if "--precompiled-dir" in argv:
        assert code == 0, err
        [skip] = load_manifest(tmp_path / "m.json").skipped
        message, first = skip["error"], path_text(bad.name)
    else:
        assert code == 2, err
        assert err.count("d\\xe9") == 1, err
        message, first = err, f"qtp {argv[0]}: {path_text(bad)}"
    assert "\\xe9" in first
    assert message.startswith(f"{first}: ") and message.count(path_text(bad.name)) == 1


def test_featurize_names_a_circuit_too_wide_and_writes_nothing(tmp_path, capsys):
    """A circuit wider than the feature layout is refused by name while the inputs
    are read, so the graphs of the inputs before it are not written."""
    d = tmp_path / os.fsdecode(b"d\xe9")
    d.mkdir()
    (d / "bell.qasm").write_text(_BELL)
    wide = d / "wide.qasm"
    wide.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[30];\nh q[29];\n')
    out = tmp_path / "fo"
    assert main(["featurize", str(d / "bell.qasm"), str(wide), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"qtp featurize: {path_text(wide)}: 30 qubits exceed the 27-qubit feature layout\n")
    assert not list(out.glob("*"))


_HEAD = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'


@pytest.mark.parametrize(
    "angle", ["(" * 250 + "1" + ")" * 250, "-" * 1000 + "1"], ids=["parentheses", "unary-minus"])
def test_deeply_nested_angle_is_bad_data(pipeline, trained, tmp_path, capsys, angle):
    """An angle nested past the interpreter's recursion limit is a parse error
    with its position: featurize and predict exit 2, and label skips the file."""
    circuits = tmp_path / "c"
    circuits.mkdir()
    bad = circuits / "deep.qasm"
    bad.write_text(f"{_HEAD}h q[0];\nrz({angle}) q[1];\n")
    (circuits / "bell.qasm").write_text(f"{_HEAD}h q[0];\ncx q[0],q[1];\n")
    message = "line 5, column 1: angle expression nested too deeply"
    assert main(["featurize", str(bad), "--out", str(tmp_path / "f")]) == 2
    assert capsys.readouterr().err == f"qtp featurize: {bad}: {message}\n"
    assert main(["predict", str(bad), "--checkpoint", str(trained / "fold0.ckpt")]) == 2
    assert capsys.readouterr().err == f"qtp predict: {bad}: {message}\n"
    assert main(["label", "--circuits", str(circuits), "--out", str(tmp_path / "m.json")]) == 0
    manifest = load_manifest(tmp_path / "m.json")
    assert [e.name for e in manifest.entries] == ["bell"]
    assert manifest.skipped == [{"circuit": "deep.qasm", "error": message}]


_BAD_INPUT_ERRORS = (
    "CircuitError", "QasmError", "FeaturizeError", "DeviceError", "LabelError", "CorpusError",
    "ModelError", "CheckpointError", "TrainingError", "RebaseError", "RouteError",
)


def test_every_bad_input_error_is_a_data_error():
    """The exceptions qtp's modules define are the eleven bad-input errors, each
    under DataError, so that `main` exits 2 on each of them and `build_manifest`
    skips a file for each of them."""
    defined = {}
    for info in pkgutil.walk_packages(qtp.__path__, "qtp."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, Exception)
                    and not issubclass(obj, Warning) and obj.__module__ == module.__name__):
                defined[name] = obj
    assert sorted(defined) == sorted(_BAD_INPUT_ERRORS)
    for name in _BAD_INPUT_ERRORS:
        assert issubclass(defined[name], qtp.DataError), name
    assert issubclass(qtp.DataError, ValueError)


@st.composite
def _mangled(draw, data: bytes) -> bytes:
    """A prefix of data, or data with one to four bytes overwritten."""
    if draw(st.booleans()):
        return data[: draw(st.integers(0, len(data) - 1))]
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
    return bytes(out)


class TestFuzzedInputs:
    """A damaged input file exits 0 or 2 (bad data), never 3 (internal error)."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_qasm(self, pipeline, trained, data):
        root, corpus, _ = pipeline
        src = sorted(corpus.glob("*.qasm"))[0]
        bad = root / "fuzz" / "circuit.qasm"
        bad.parent.mkdir(exist_ok=True)
        bad.write_bytes(data.draw(_mangled(src.read_bytes())))
        assert main(["featurize", str(bad), "--out", str(root / "fuzz")]) in (0, 2)
        assert main(["predict", str(bad), "--checkpoint", str(trained / "fold0.ckpt")]) in (0, 2)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_manifest(self, pipeline, data):
        root, _, manifest = pipeline
        bad = root / "fuzz" / "manifest.json"
        bad.parent.mkdir(exist_ok=True)
        bad.write_bytes(data.draw(_mangled(manifest.read_bytes())))
        assert main(["stats", "--manifest", str(bad), "--out", str(root / "fuzz" / "s")]) in (0, 2)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_checkpoint(self, pipeline, trained, data):
        root, corpus, _ = pipeline
        bad = root / "fuzz" / "model.ckpt"
        bad.parent.mkdir(exist_ok=True)
        bad.write_bytes(data.draw(_mangled((trained / "fold0.ckpt").read_bytes())))
        circuit = sorted(corpus.glob("*.qasm"))[0]
        assert main(["predict", str(circuit), "--checkpoint", str(bad)]) in (0, 2)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_graph(self, pipeline, trained, data):
        root, _, manifest = pipeline
        blob = json.loads(manifest.read_text())
        entry = blob["entries"][0]
        src = manifest.parent / entry["dag_path"]
        bad = root / "fuzz" / "graph.dag.json"
        bad.parent.mkdir(exist_ok=True)
        bad.write_bytes(data.draw(_mangled(src.read_bytes())))
        blob["entries"] = [{**entry, "dag_path": str(bad)}]
        one = root / "fuzz" / "one.json"
        one.write_text(json.dumps(blob))
        assert main([
            "evaluate", "--checkpoint", str(trained / "fold0.ckpt"),
            "--manifest", str(one), "--out", str(root / "fuzz" / "eval.json"),
        ]) in (0, 2)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_profile(self, pipeline, data):
        # the all-to-all profile; a coupled one is mangled in test_coupled_profile,
        # which is cheap at any width since hop rows are built lazily, per source
        root, corpus, _ = pipeline
        src = Path(qtp.devices.__file__).parent / "profiles" / "ionq-forte-like.json"
        one = root / "fuzz" / "one-circuit"
        one.mkdir(parents=True, exist_ok=True)
        circuit = sorted(corpus.glob("*.qasm"))[0]
        (one / circuit.name).write_bytes(circuit.read_bytes())
        bad = root / "fuzz" / "profile.json"
        bad.write_bytes(data.draw(_mangled(src.read_bytes())))
        assert main([
            "label", "--circuits", str(one), "--profiles", str(bad), "ibm-eagle-like",
            "--out", str(root / "fuzz" / "label" / "m.json"),
        ]) in (0, 2)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_coupled_profile(self, pipeline, data):
        root, corpus, _ = pipeline
        src = Path(qtp.devices.__file__).parent / "profiles" / "ibm-eagle-like.json"
        one = root / "fuzz" / "one-circuit"
        one.mkdir(parents=True, exist_ok=True)
        circuit = sorted(corpus.glob("*.qasm"))[0]
        (one / circuit.name).write_bytes(circuit.read_bytes())
        bad = root / "fuzz" / "coupled-profile.json"
        bad.write_bytes(data.draw(_mangled(src.read_bytes())))
        assert main([
            "label", "--circuits", str(one), "--profiles", str(bad), "ionq-forte-like",
            "--out", str(root / "fuzz" / "label-coupled" / "m.json"),
        ]) in (0, 2)


_ACCEPTANCE_GAT = '{"first_layer": "gat", "hidden": 32, "heads": 4, "blocks": 1, "ffnn": [256, 32]}'
_TRAIN_FILES = ["fold0.ckpt", "fold1.ckpt", "results.csv", "run_report.json"]


def _qtp_process(*argv, env):
    return subprocess.run([sys.executable, "-m", "qtp.cli", *map(str, argv)],
                          capture_output=True, text=True, timeout=300, env={**os.environ, **env})


def _train_at(manifest, out, env):
    """`qtp train` of the acceptance GAT, 2 folds and 1 epoch, in a process
    started with `env` over this one's environment."""
    proc = _qtp_process("train", "--manifest", manifest, "--config", _ACCEPTANCE_GAT,
                        "--out", out, "--folds", "2", "--epochs", "1", env=env)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == _TRAIN_FILES
    return out


def _blas_threads(n):
    return {"OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n, "MKL_NUM_THREADS": n}


@pytest.fixture(scope="module")
def one_thread_train(tmp_path_factory):
    """(manifest, train output at one BLAS thread) for gen-corpus --n 40 --seed 11,
    written to c/ and labelled into l/manifest.json."""
    root = tmp_path_factory.mktemp("train40")
    assert main(["gen-corpus", "--out", str(root / "c"), "--n", "40", "--seed", "11"]) == 0
    manifest = root / "l" / "manifest.json"
    assert main(["label", "--circuits", str(root / "c"), "--out", str(manifest)]) == 0
    return manifest, _train_at(manifest, root / "t1", _blas_threads("1"))


@pytest.mark.skipif(
    (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1) < 2,
    reason="one usable core: OpenBLAS caps its thread count at the cores it has, so 1 and 2"
           " threads run the same kernels and the comparison would check nothing",
)
def test_train_bytes_do_not_depend_on_blas_threads(one_thread_train):
    # at 2 threads OpenBLAS splits the node-axis sums of the weight gradients
    # differently; qtp pins one thread before numpy loads, so the bytes match
    manifest, one = one_thread_train
    two = _train_at(manifest, one.parent / "t2", _blas_threads("2"))
    for name in _TRAIN_FILES:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


@pytest.mark.parametrize("command", ["label", "train", "evaluate"])
def test_output_bytes_do_not_depend_on_string_hashing(one_thread_train, tmp_path, command):
    # the iteration order of a set of strings changes with PYTHONHASHSEED; no output file may
    manifest, trained = one_thread_train
    outputs = []
    for seed in ("0", "1"):
        out, env = tmp_path / seed, {"PYTHONHASHSEED": seed}
        if command == "train":
            _train_at(manifest, out, env)
        else:
            out.mkdir()
            argv = (["--circuits", manifest.parents[1] / "c", "--out", out / "manifest.json"]
                    if command == "label" else
                    ["--checkpoint", trained / "fold0.ckpt", "--manifest", manifest,
                     "--out", out / "report.json"])
            proc = _qtp_process(command, *argv, env=env)
            assert proc.returncode == 0, proc.stderr
        outputs.append({path.relative_to(out): path.read_bytes()
                        for path in sorted(out.rglob("*")) if path.is_file()})
    assert list(outputs[0]) == list(outputs[1])
    for rel, data in outputs[0].items():
        assert outputs[1][rel] == data, rel


# SHA-256 of each file the one-thread train run writes, and of what
# tests/blas_probe.py prints on the host that pinned them.  A change that keeps
# the learn path's bytes leaves this file as it is; one that moves them on
# purpose rewrites it and says so.
TRAIN_PIN = Path(__file__).with_name("train_pin.json")
_PROBE = Path(__file__).with_name("blas_probe.py")


def test_train_bytes_pinned(one_thread_train):
    pin = json.loads(TRAIN_PIN.read_text())
    probe = subprocess.run([sys.executable, str(_PROBE)], capture_output=True, text=True,
                           timeout=120, check=True).stdout.strip()
    if probe != pin["probe"]:
        pytest.skip(f"numpy ops give other bits on this host (probe {probe[:12]}, pinned"
                    f" {pin['probe'][:12]}), so train bytes may differ from the pin with no"
                    " change to qtp")
    _, out = one_thread_train
    assert [name for name, _ in pin["files"]] == _TRAIN_FILES
    for name, pinned in pin["files"]:
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == pinned, f"{name} differs from the pinned train output"


class TestProcessEntry:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qtp.cli", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "featurize" in proc.stdout

    def test_log_env_enables_info(self, pipeline, tmp_path):
        _, corpus, _ = pipeline
        proc = subprocess.run(
            [
                sys.executable, "-m", "qtp.cli", "label",
                "--circuits", str(corpus), "--out", str(tmp_path / "m.json"),
            ],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "QTP_LOG": "INFO"},
        )
        assert proc.returncode == 0
        assert "entries" in proc.stderr

    def test_non_finite_forward_pass_is_one_stderr_line(self, pipeline, tmp_path):
        # a GAT first layer at 1e308 overflows inside its matmuls; numpy's own
        # warnings stay quiet and only the error naming the checkpoint prints
        _, corpus, _ = pipeline
        config = ModelConfig("gat", 4, 1, (8,), heads=2)
        weights = init_weights(config, 0)
        for name in weights:
            if name.startswith("first.") and name.endswith(".w"):
                weights[name] = np.full_like(weights[name], 1e308)
        bad = tmp_path / "gat-huge.ckpt"
        save_checkpoint(bad, config, weights, 0)
        circuit = sorted(corpus.glob("*.qasm"))[0]
        proc = subprocess.run(
            [sys.executable, "-m", "qtp.cli", "predict", str(circuit), "--checkpoint", str(bad)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == (
            f"qtp predict: {bad}: weights give a non-finite forward pass"
            " (op produced a non-finite attention score)\n"
        )

    def test_optimized_run_checks_finiteness(self, pipeline, trained, tmp_path):
        _, corpus, _ = pipeline
        config, weights, seed, _ = load_checkpoint(trained / "fold0.ckpt")
        weights["first.b"][0] = 1.7e308
        bad = tmp_path / "huge.ckpt"
        save_checkpoint(bad, config, weights, seed)
        circuit = sorted(corpus.glob("*.qasm"))[0]
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "qtp.cli", "predict", str(circuit),
             "--checkpoint", str(bad)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "non-finite forward pass" in proc.stderr


# A locale whose default text encoding is ASCII: no coercion to C.UTF-8, no UTF-8 mode.
_ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
# b"\xe9" is é in Latin-1, not UTF-8; in a comment the parser would ignore it
_LATIN1_COMMENT = b'OPENQASM 2.0;\ninclude "qelib1.inc";\n// caf\xe9\nqreg q[1];\nx q[0];\n'


@pytest.fixture(scope="module")
def ascii_locale():
    """_ASCII_LOCALE, once a process under it is seen to default to a non-UTF-8 encoding."""
    proc = subprocess.run(
        [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
        capture_output=True, text=True, timeout=60, env={**os.environ, **_ASCII_LOCALE},
    )
    assert proc.returncode == 0 and "utf" not in proc.stdout.lower(), proc.stdout
    return _ASCII_LOCALE


class TestFileText:
    """Input files are read, and output files written, as UTF-8 whatever the locale."""

    @pytest.mark.parametrize("command", ["featurize", "predict"])
    def test_undecodable_circuit_is_bad_data(self, trained, tmp_path, capsys, command):
        bad = tmp_path / "latin1.qasm"
        bad.write_bytes(_LATIN1_COMMENT)
        argv = [command, str(bad)]
        if command == "predict":
            argv += ["--checkpoint", str(trained / "fold0.ckpt")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"qtp {command}: {bad}: 'utf-8' codec can't decode byte 0xe9 in position 42:"
            " invalid continuation byte\n"
        )
        assert not (tmp_path / "latin1.dag.json").exists()

    @pytest.mark.parametrize("text", [_BELL, _BELL + "// token path\n"],
                             ids=["scanner", "token-parser"])
    def test_crlf_circuit_reads_as_its_lf_copy(self, tmp_path, text):
        for newline in ("lf", "crlf"):
            circuits = tmp_path / newline
            circuits.mkdir()
            data = text.encode() if newline == "lf" else text.replace("\n", "\r\n").encode()
            (circuits / "bell.qasm").write_bytes(data)
            assert main(["featurize", str(circuits / "bell.qasm")]) == 0
            assert main(["label", "--circuits", str(circuits),
                         "--out", str(circuits / "out" / "manifest.json")]) == 0
        for rel in ("bell.dag.json", "out/manifest.json", "out/dags/bell.dag.json"):
            assert (tmp_path / "lf" / rel).read_bytes() == (tmp_path / "crlf" / rel).read_bytes()

    def test_non_ascii_profile_name_loads_under_an_ascii_locale(self, tmp_path, ascii_locale):
        raw = json.loads(
            (Path(qtp.devices.__file__).parent / "profiles" / "ionq-forte-like.json").read_text())
        raw["name"] = "lïne"
        profile = tmp_path / "line.json"
        profile.write_text(json.dumps(raw, ensure_ascii=False), encoding="utf-8")
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "bell.qasm").write_text(_BELL)
        for run, env in (("utf8", {}), ("ascii", ascii_locale)):
            proc = _qtp_process("label", "--circuits", tmp_path / "c", "--profiles", profile,
                                "ibm-eagle-like", "--out", tmp_path / run / "m.json", env=env)
            assert proc.returncode == 0, proc.stderr
        assert [p["name"] for p in load_manifest(tmp_path / "ascii" / "m.json").profiles] == [
            "lïne", "ibm-eagle-like"]
        for rel in ("m.json", "dags/bell.dag.json"):
            assert (tmp_path / "ascii" / rel).read_bytes() == (tmp_path / "utf8" / rel).read_bytes()

    def test_non_ascii_circuit_name_labels_the_same_under_an_ascii_locale(self, tmp_path,
                                                                          ascii_locale):
        circuits = tmp_path / "c"
        circuits.mkdir()
        (circuits / "café.qasm").write_text(_BELL)
        (circuits / "bell.qasm").write_text(_BELL)
        for run, env in (("utf8", {}), ("ascii", ascii_locale)):
            proc = _qtp_process("label", "--circuits", circuits, "--out",
                                tmp_path / run / "m.json", env=env)
            assert proc.returncode == 0, proc.stderr
            proc = _qtp_process("stats", "--manifest", tmp_path / run / "m.json",
                                "--out", tmp_path / run / "stats", env=ascii_locale)
            assert proc.returncode == 0, proc.stderr
        manifest = load_manifest(tmp_path / "ascii" / "m.json")
        assert [e.name for e in manifest.entries] == ["bell", "café"]
        assert manifest.entries[1].dag_path == "dags/café.dag.json"
        for rel in ("m.json", "dags/bell.dag.json", "dags/café.dag.json", "stats/normalized.csv"):
            assert (tmp_path / "ascii" / rel).read_bytes() == (tmp_path / "utf8" / rel).read_bytes()

    def test_stats_of_a_non_ascii_circuit_name_under_an_ascii_locale(self, tmp_path,
                                                                     ascii_locale):
        circuits = tmp_path / "c"
        circuits.mkdir()
        (circuits / "café.qasm").write_text(_BELL)  # labelled under this process's locale
        manifest = tmp_path / "m.json"
        assert main(["label", "--circuits", str(circuits), "--out", str(manifest)]) == 0
        assert main(["stats", "--manifest", str(manifest), "--out", str(tmp_path / "utf8")]) == 0
        proc = _qtp_process("stats", "--manifest", manifest, "--out", tmp_path / "ascii",
                            env=ascii_locale)
        assert proc.returncode == 0, proc.stderr
        names = sorted(p.name for p in (tmp_path / "utf8").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "ascii").iterdir())
        for name in names:
            assert (tmp_path / "ascii" / name).read_bytes() == (tmp_path / "utf8" / name).read_bytes()
        assert "café,2," in (tmp_path / "utf8" / "normalized.csv").read_text(encoding="utf-8")

    def test_featurize_non_ascii_name_under_an_ascii_locale(self, tmp_path, ascii_locale):
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "café.qasm").write_text(_BELL)
        for run, env in (("utf8", {}), ("ascii", ascii_locale)):
            proc = _qtp_process("featurize", tmp_path / "c", "--out", tmp_path / run, env=env)
            assert proc.returncode == 0, proc.stderr
        assert os.listdir(tmp_path / "ascii") == ["café.dag.json"]
        assert load_graph(tmp_path / "ascii" / "café.dag.json").name == "café"
        assert ((tmp_path / "ascii" / "café.dag.json").read_bytes()
                == (tmp_path / "utf8" / "café.dag.json").read_bytes())

    @pytest.mark.parametrize("name, text, argv, detail", [
        (b"caf\xe9.qasm", _BELL, ["featurize"], "file name is not valid UTF-8"),
        # text beyond ASCII, read as UTF-8 under either locale
        (b"d\xe9/m.json", '{"name": "café", "entries": [', ["stats", "--manifest"],
         "invalid JSON (Expecting value: line 1 column 30 (char 29))"),
        (b"d\xe9/gone.json", None, ["stats", "--manifest"], "No such file or directory"),
    ], ids=["featurize-name", "malformed-manifest", "missing-manifest"])
    def test_bad_file_is_named_once_under_either_locale(self, tmp_path, ascii_locale, name,
                                                        text, argv, detail):
        """A bad or missing file whose path is not UTF-8 (é in Latin-1) is named
        first and once, as \\xe9, in one stderr line under either locale."""
        bad = tmp_path / os.fsdecode(name)
        bad.parent.mkdir(exist_ok=True)
        if text is not None:
            bad.write_text(text, encoding="utf-8")
        for env in ({}, ascii_locale):
            proc = _qtp_process(*argv, bad, "--out", tmp_path / "out", env=env)
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr == f"qtp {argv[0]}: {path_text(bad)}: {detail}\n"
            assert proc.stderr.count("\\xe9") == 1, proc.stderr
        assert not (tmp_path / "out").exists()

    def test_variant_for_a_non_ascii_profile_labels_the_same_under_an_ascii_locale(
            self, tmp_path, ascii_locale):
        raw = json.loads(
            (Path(qtp.devices.__file__).parent / "profiles" / "ionq-forte-like.json").read_text())
        raw["name"] = "lïne"
        profile = tmp_path / "line.json"
        profile.write_text(json.dumps(raw, ensure_ascii=False), encoding="utf-8")
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "bell.qasm").write_text(_BELL)
        (tmp_path / "pre").mkdir()
        # one native rz: cheaper on lïne than either device's compile of h + cx
        (tmp_path / "pre" / "bell.lïne.qasm").write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nrz(0.1) q[0];\n')
        for run, env in (("utf8", {}), ("ascii", ascii_locale)):
            proc = _qtp_process("label", "--circuits", tmp_path / "c", "--profiles", profile,
                                "ibm-eagle-like", "--precompiled-dir", tmp_path / "pre",
                                "--out", tmp_path / run / "m.json", env=env)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ""
        manifest = load_manifest(tmp_path / "ascii" / "m.json")
        assert manifest.class_counts == (1, 0)
        assert manifest.entries[0].best_device == "lïne"
        for rel in ("m.json", "dags/bell.dag.json"):
            assert (tmp_path / "ascii" / rel).read_bytes() == (tmp_path / "utf8" / rel).read_bytes()

    def test_evaluate_report_names_a_non_ascii_checkpoint_under_either_locale(
            self, pipeline, trained, tmp_path, ascii_locale):
        _, _, manifest = pipeline
        checkpoint = tmp_path / "dé" / "fold0.ckpt"
        checkpoint.parent.mkdir()
        shutil.copyfile(trained / "fold0.ckpt", checkpoint)
        for run, env in (("utf8", {}), ("ascii", ascii_locale)):
            proc = _qtp_process("evaluate", "--checkpoint", checkpoint, "--manifest", manifest,
                                "--out", tmp_path / f"{run}.json", env=env)
            assert proc.returncode == 0, proc.stderr
        report = (tmp_path / "ascii.json").read_bytes()
        assert report == (tmp_path / "utf8.json").read_bytes()
        assert json.loads(report)["checkpoint"] == path_text(checkpoint)

    def test_predict_takes_a_file_name_that_is_not_utf8(self, trained, tmp_path, capsys):
        plain = tmp_path / "bell.qasm"
        plain.write_text(_BELL)
        latin1 = tmp_path / os.fsdecode(b"caf\xe9.qasm")
        latin1.write_text(_BELL)
        lines = []
        for path in (plain, latin1):
            assert main(["predict", str(path), "--checkpoint", str(trained / "fold0.ckpt")]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1] and lines[0].startswith("class=")


class TestFeaturizeOutputs:
    def test_two_inputs_for_one_graph_file_write_nothing(self, tmp_path, capsys):
        for sub, text in (("a", _BELL), ("b", 'OPENQASM 2.0;\nqreg q[3];\nh q[2];\n')):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "x.qasm").write_text(text)
        out = tmp_path / "g"
        assert main(["featurize", str(tmp_path / "a" / "x.qasm"), str(tmp_path / "b" / "x.qasm"),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"qtp featurize: {tmp_path}/a/x.qasm and {tmp_path}/b/x.qasm both write the"
            " graph file of circuit 'x'\n")
        assert not out.exists()

    def test_one_directory_two_suffixes_collide(self, tmp_path, capsys):
        (tmp_path / "x.qasm").write_text(_BELL)
        (tmp_path / "x.txt").write_text(_BELL)
        assert main(["featurize", str(tmp_path / "x.qasm"), str(tmp_path / "x.txt")]) == 2
        assert "both write the graph file of circuit 'x'" in capsys.readouterr().err
        assert not (tmp_path / "x.dag.json").exists()

    def test_one_file_given_twice_is_written_once(self, tmp_path):
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "x.qasm").write_text(_BELL)
        twice = [str(tmp_path / "c" / "x.qasm"), str(tmp_path / "c" / ".." / "c" / "x.qasm")]
        assert main(["featurize", *twice, str(tmp_path / "c"), "--out", str(tmp_path / "g")]) == 0
        assert os.listdir(tmp_path / "g") == ["x.dag.json"]

    def test_graph_file_named_by_the_label_rule(self, tmp_path):
        # the last suffix goes, whatever it is; a file without one keeps its name
        for name in ("bell.v2.qasm", "plain"):
            (tmp_path / name).write_text(_BELL)
        assert main(["featurize", str(tmp_path / "bell.v2.qasm"), str(tmp_path / "plain"),
                     "--out", str(tmp_path / "g")]) == 0
        assert sorted(os.listdir(tmp_path / "g")) == ["bell.v2.dag.json", "plain.dag.json"]
        assert load_graph(tmp_path / "g" / "bell.v2.dag.json").name == "bell.v2"
