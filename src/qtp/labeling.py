"""Device scoring and dataset labeling.

A compiled circuit is scored as

    cost = -D * ln(K) - sum_i ln(F_i)

where D is the compiled depth, F_i the per-gate fidelities, and K the
average of the best and worst gate fidelity in that compilation.  Lower is
better; the winning device's technology becomes the class label (trapped-ion
0, superconducting 1).  Positive rescaling of costs never changes labels.
Circuits, variants, manifests and stats tables are read and written with
`jsonio`'s UTF-8 helpers, and table floats take `jsonio.fmt_float`'s form;
`read_circuit` and `write_graph_file` name circuit and graph files for label,
featurize and variants alike.
"""

from __future__ import annotations

import csv
import errno
import gc
import glob
import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import DataError
from .circuit import Circuit, circuit_depth
# featurize_circuit is not called here, but the benchmark's tracer
# (bench/spans.py) hooks it at this module's name
from .dag import featurize_circuit, write_graph  # noqa: F401
from .devices import TECHNOLOGIES, TECHNOLOGY_CLASS, DeviceProfile
from .jsonio import (dumps as json_dumps, fmt_float, integer, loads, number, path_text, read_text,
                     reading, string, write_text)
from .qasm import parse_qasm
from .transpile import CompiledCircuit, compile_each, compiled_from_circuit
# compile_for is not called here either (score_devices lowers once through
# compile_each), but the tracer hooks it at this module's name too
from .transpile import compile_for  # noqa: F401

import warnings

log = logging.getLogger("qtp.labeling")

GRAPH_SUFFIX = ".dag.json"


class LabelError(DataError):
    """Scoring is undefined (empty compilation, two profiles of one name, ...)."""


def cost(compiled: CompiledCircuit) -> float:
    """Depth/fidelity cost of one compiled circuit; strictly lower is better.

    A compilation holds a few distinct fidelities over thousands of gates, so
    `math.log` is taken once per distinct value.  The logs are then summed in
    gate order by `np.add.accumulate`, which adds one term at a time: a left
    fold, with the bits of a plain loop.  sum() adds floats with compensation
    from Python 3.12 on and np.sum adds pairwise, so either would give bits
    that depend on the interpreter or on the length.  Every fidelity is some
    profile's `gate_fidelity`, which the profile keeps in (0, 1].
    """
    fids = compiled.fidelities
    if not fids:
        raise LabelError("cost is undefined for an empty compiled circuit")
    gates = np.fromiter(fids, float, len(fids))
    values = np.unique(gates)  # sorted
    logs = np.array([math.log(v) for v in values.tolist()])
    total = np.add.accumulate(logs[np.searchsorted(values, gates)])[-1]
    lo, hi = values[0], values[-1]
    return -compiled.depth * math.log((hi + lo) / 2.0) - float(total)


def score_devices(
    circ: Circuit,
    profiles: list[DeviceProfile],
    extra_variants: dict[str, list[CompiledCircuit]] | None = None,
) -> dict[str, float]:
    """Best (minimum) cost per device, over the pipeline and any variants.

    The circuit is lowered once for all profiles (`compile_each`).  The
    variants are a contract, not a check: each is a `compiled_from_circuit`
    result for the profile it is listed under, so its fidelities are that
    profile's, in (0, 1], and `cost` takes them as they are.  A hand-built
    variant with a fidelity of 0 raises math's bare ValueError, and one with
    a NaN fidelity costs NaN, which `min` passes over.
    """
    if not profiles:
        raise LabelError("need at least one device profile")
    _check_names(profiles)
    costs: dict[str, float] = {}
    for profile, compiled in zip(profiles, compile_each(circ, profiles)):
        candidates = [compiled]
        if extra_variants:
            candidates.extend(extra_variants.get(profile.name, []))
        costs[profile.name] = min(cost(c) for c in candidates)
    return costs


def _check_names(profiles: list[DeviceProfile]) -> None:
    """LabelError for two profiles of one name: costs and labels are keyed on names."""
    names = [p.name for p in profiles]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise LabelError(f"two profiles are named {name!r}")


def label_from_costs(costs: dict[str, float], profiles: list[DeviceProfile]) -> tuple[int, str]:
    """Pick the argmin device; ties go to the lexicographically first name."""
    best_cost = min(costs.values())
    tied = sorted(name for name, c in costs.items() if c == best_cost)
    if len(tied) > 1:
        log.info("cost tie between %s, picking %s", ", ".join(tied), tied[0])
    best = tied[0]
    tech = next(p.technology for p in profiles if p.name == best)
    return TECHNOLOGY_CLASS[tech], best


def label_circuit(
    circ: Circuit,
    profiles: list[DeviceProfile],
    extra_variants: dict[str, list[CompiledCircuit]] | None = None,
) -> tuple[int, str, dict[str, float]]:
    """Returns (class label, best device name, per-device costs).

    `extra_variants` maps a profile name to `compiled_from_circuit` results for
    that profile, the contract `score_devices` states.
    """
    costs = score_devices(circ, profiles, extra_variants)
    label, best = label_from_costs(costs, profiles)
    return label, best, costs


@dataclass
class ManifestEntry:
    name: str
    circuit_path: str
    dag_path: str
    num_qubits: int
    depth: int
    gate_count: int
    costs: dict[str, float]
    best_device: str
    label: int


@dataclass
class Manifest:
    profiles: list[dict]
    entries: list[ManifestEntry]
    class_counts: tuple[int, int]
    skipped: list[dict]

    @property
    def labels(self) -> list[int]:
        return [e.label for e in self.entries]


def _load_precompiled(
    name: str, profiles: list[DeviceProfile], precompiled_dir: Path
) -> dict[str, list[CompiledCircuit]]:
    """Variants of circuit `name` follow <name>.<device-name>[.*].qasm, each
    scored for the longest device name it matches; a bad one raises LabelError
    naming it by file name.  Names are compared as text, as `read_circuit` gives them."""
    out: dict[str, list[CompiledCircuit]] = {}
    # the name may hold glob metacharacters (`qft[3]`), so it is matched literally
    for path in sorted(precompiled_dir.glob(f"{glob.escape(_fs_name(name))}.*.qasm")):
        with reading(path.name, LabelError, fields=False):
            rest = _text(path.name)[len(name) + 1 : -len(".qasm")]
            owners = [p for p in profiles if rest == p.name or rest.startswith(f"{p.name}.")]
            if not owners:
                log.warning("skipping %s: %r names no device profile", path_text(path), rest)
                continue
            profile = max(owners, key=lambda p: len(p.name))
            circ = read_circuit(path)
            if not circ.ops:
                raise LabelError("cost is undefined for an empty compiled circuit")
            out.setdefault(profile.name, []).append(compiled_from_circuit(circ, profile))
    return out


def build_manifest(
    circuits_dir: str | Path,
    profiles: list[DeviceProfile],
    out_path: str | Path,
    precompiled_dir: str | Path | None = None,
) -> Manifest:
    """Label every .qasm under circuits_dir and write the manifest, with the
    graph files in a `dags` directory next to it.

    Per-file bad data (a `DataError`: parse errors, unscorable circuits, a
    file name that is not UTF-8) goes to the manifest's skipped list; any
    other exception is a defect and ends the run.  Circuits are read by
    `read_circuit` and graphs written by `write_graph_file`; paths in the
    manifest are, like names, the text of the file names' bytes in UTF-8.

    The per-file loop runs with the cyclic garbage collector paused, and the
    caller's setting comes back when the loop ends or raises.  The pass makes
    hundreds of thousands of short-lived objects (ops, tuples, memo entries)
    and no reference cycles, so the collector's scans would find nothing:
    everything the loop drops is freed by reference counting as before.  The
    pause is process-wide for its duration, as `gc.disable` is.
    """
    _check_names(profiles)
    circuits_dir = Path(circuits_dir)
    if not circuits_dir.is_dir():
        raise LabelError(f"{path_text(circuits_dir)} is not a directory")
    files = sorted(circuits_dir.glob("*.qasm"))
    if not files:
        raise LabelError(f"no .qasm files under {path_text(circuits_dir)}")
    out_path = Path(out_path)
    dag_dir = out_path.parent / "dags"
    dag_dir.mkdir(parents=True, exist_ok=True)

    entries: list[ManifestEntry] = []
    skipped: list[dict] = []
    counts = [0, 0]
    collecting = gc.isenabled()
    gc.disable()
    try:
        for path in files:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("always")
                    circ = read_circuit(path)
                circuit_path = _rel(path, out_path.parent)
                variants = None
                if precompiled_dir is not None:
                    variants = _load_precompiled(circ.name, profiles, Path(precompiled_dir))
                label, best, costs = label_circuit(circ, profiles, variants)
                dag_path = write_graph_file(circ, dag_dir, label)
            except DataError as exc:
                shown = path_text(path.name)
                skipped.append({"circuit": shown, "error": str(exc)})
                log.warning("skipping %s: %s", shown, exc)
                continue
            counts[label] += 1
            entries.append(ManifestEntry(
                name=circ.name,
                circuit_path=circuit_path,
                dag_path=_rel(dag_path, out_path.parent),
                num_qubits=circ.num_qubits,
                depth=circuit_depth(circ),
                gate_count=circ.gate_count,
                costs={k: costs[k] for k in sorted(costs)},
                best_device=best,
                label=label,
            ))
    finally:
        if collecting:
            gc.enable()

    manifest = Manifest(
        profiles=[{"name": p.name, "technology": p.technology} for p in profiles],
        entries=entries,
        class_counts=(counts[0], counts[1]),
        skipped=skipped,
    )
    write_text(out_path, manifest_to_json(manifest))
    return manifest


def read_circuit(path: Path) -> Circuit:
    """Parse a circuit file named by its file name's UTF-8 text less the last
    suffix (`bell.v2.qasm` is `bell.v2`); a name that is not UTF-8 is refused."""
    name = _text(path.name)
    return parse_qasm(read_text(path), name=name[: name.rindex(".")] if "." in name else name)


def write_graph_file(circ: Circuit, dag_dir: Path, label: int | None = None) -> Path:
    """`write_graph` into dag_dir as `<name>` + GRAPH_SUFFIX in UTF-8 bytes, the
    suffix added even to a name ending in it: `x` and `x.dag.json` write two files.

    Refuses, with LabelError, a file name longer than dag_dir's file system
    takes, as `write_graph` refuses a circuit too wide for the feature layout.
    Any other OSError propagates, among them ENAMETOOLONG for a short name
    whose whole path is too long: that is the output directory's fault, not
    the circuit's.
    """
    try:
        return write_graph(circ, dag_dir / _fs_name(circ.name + GRAPH_SUFFIX), label)
    except OSError as exc:
        name = Path(exc.filename).name
        if exc.errno != errno.ENAMETOOLONG or (
            len(os.fsencode(name)) <= os.pathconf(dag_dir, "PC_NAME_MAX")
        ):
            raise
        raise LabelError(f"graph file name {path_text(name)} is too long") from None


def _text(name: str) -> str:
    """A file-system name as the text its bytes spell in UTF-8, whatever the
    locale decoded them with; LabelError, which the caller names, if none."""
    try:
        return os.fsencode(name).decode("utf-8")
    except UnicodeDecodeError:
        raise LabelError("file name is not valid UTF-8") from None


def _fs_name(text: str) -> str:
    """The file-system name whose bytes are `text` in UTF-8: `_text`'s inverse."""
    return os.fsdecode(text.encode("utf-8"))


def _rel(path: Path, base: Path) -> str:
    """path from base, through `..` if need be, so the manifest's bytes do not
    depend on where the tree sits; text, as `_text` gives it."""
    return _text(Path(os.path.relpath(path.resolve(), base.resolve())).as_posix())


def manifest_to_json(m: Manifest) -> str:
    return json_dumps({
        "profiles": m.profiles,
        "class_counts": list(m.class_counts),
        "entries": [vars(e).copy() for e in m.entries],
        "skipped": m.skipped,
    })


def load_manifest(path: str | Path) -> Manifest:
    """A manifest file's fields, each read by `jsonio`'s value rule; LabelError
    naming the file for any other value.  `skipped` may be left out."""
    with reading(path, LabelError):
        raw = loads(read_text(path))
        entries = [ManifestEntry(**e) for e in raw["entries"]]
        for e in entries:
            _check_entry(e)
        profiles = [{"name": string(p["name"], "profile name"), "technology": p["technology"]}
                    for p in raw["profiles"]]
        if any(p["technology"] not in TECHNOLOGIES for p in profiles):
            raise LabelError(f"a profile's technology is not one of {', '.join(TECHNOLOGIES)}")
        counts = tuple(integer(n, "class count") for n in raw["class_counts"])
        if len(counts) != 2 or min(counts) < 0:
            raise LabelError("class_counts must be two counts >= 0")
        skipped = [{"circuit": string(s["circuit"], "skipped circuit"),
                    "error": string(s["error"], "skipped error")} for s in raw.get("skipped", [])]
        return Manifest(profiles, entries, counts, skipped)


def _check_entry(e: ManifestEntry) -> None:
    """Types and ranges of one loaded entry's fields; raises LabelError.

    Counts stay below 2**63 and costs within the float range, so that the
    stats tables' ratios cannot overflow and every cost converts to a float.
    A check reads its field with a `jsonio` reader, which raises TypeError,
    and is False when the value is out of range.
    """
    for attr, check, want in (
        ("name", string, "a UTF-8 string"),
        ("circuit_path", string, "a UTF-8 string"),
        ("dag_path", string, "a UTF-8 string"),
        ("best_device", string, "a UTF-8 string"),
        ("num_qubits", lambda n: 1 <= integer(n) < 2**63, "an int in [1, 2**63)"),
        ("depth", lambda n: 0 <= integer(n) < 2**63, "an int in [0, 2**63)"),
        ("gate_count", lambda n: 0 <= integer(n) < 2**63, "an int in [0, 2**63)"),
        # JSON object keys are always strings, so only the costs themselves need checking
        ("costs", lambda c: [*map(number, c.values())], "a map of device names to finite numbers"),
        ("label", lambda n: integer(n) in (0, 1), "0 or 1"),
    ):
        try:
            if check(getattr(e, attr)) is not False:
                continue
        except (AttributeError, TypeError):
            pass
        raise LabelError(f"entry {e.name!r} has {attr} {getattr(e, attr)!r}, want {want}")


def resolve_dag_paths(manifest_path: str | Path, manifest: Manifest) -> list[Path]:
    base = Path(manifest_path).resolve().parent
    return [base / _fs_name(e.dag_path) for e in manifest.entries]


# --- summary tables ---------------------------------------------------------


def stats_tables(manifest: Manifest) -> dict[str, str]:
    """Three CSV summaries of a labeled manifest.

    qubit_histogram: class counts per qubit count;
    normalized: depth and gate count normalized by qubit count;
    qubits_depth: raw qubit count vs depth.
    A name holding a comma, a quote, a newline or a carriage return is one
    quoted field.
    """
    by_qubits: dict[int, list[int]] = {}
    for e in manifest.entries:
        by_qubits.setdefault(e.num_qubits, [0, 0])[e.label] += 1
    hist = [("qubits", "class0", "class1")]
    hist += [(q, c[0], c[1]) for q, c in sorted(by_qubits.items())]

    norm = [("name", "qubits", "depth_norm", "gates_norm", "label")]
    qd = [("name", "qubits", "depth", "label")]
    for e in manifest.entries:
        norm.append((e.name, e.num_qubits, fmt_float(e.depth / e.num_qubits),
                     fmt_float(e.gate_count / e.num_qubits), e.label))
        qd.append((e.name, e.num_qubits, e.depth, e.label))

    return {"qubit_histogram.csv": _csv(hist), "normalized.csv": _csv(norm),
            "qubits_depth.csv": _csv(qd)}


def _csv(rows: list[tuple]) -> str:
    # csv quotes a field holding a character of the line terminator, so rows are
    # written with "\r\n", which quotes a lone "\r" that a reader would end a row
    # at, and then end in "\n"
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines)


def write_stats(manifest: Manifest, out_dir: str | Path) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for fname, text in stats_tables(manifest).items():
        p = out_dir / fname
        write_text(p, text)
        written.append(p)
    return written
