"""Device scoring and dataset labeling.

A compiled circuit is scored as

    cost = -D * ln(K) - sum_i ln(F_i)

where D is the compiled depth, F_i the per-gate fidelities, and K the
average of the best and worst gate fidelity in that compilation.  Lower is
better; the winning device's technology becomes the class label (trapped-ion
0, superconducting 1).  Positive rescaling of costs never changes labels.
"""

from __future__ import annotations

import gc
import glob
import json
import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .circuit import Circuit, circuit_depth
# featurize_circuit is not called here, but the benchmark's tracer
# (bench/spans.py) hooks it at this module's name
from .dag import featurize_circuit, write_graph  # noqa: F401
from .devices import TECHNOLOGY_CLASS, DeviceProfile
from .jsonio import dumps as json_dumps
from .qasm import parse_qasm
from .transpile import CompiledCircuit, compile_each, compiled_from_circuit
# compile_for is not called here either (score_devices lowers once through
# compile_each), but the tracer hooks it at this module's name too
from .transpile import compile_for  # noqa: F401

import warnings

log = logging.getLogger("qtp.labeling")


class LabelError(ValueError):
    """Scoring is undefined (empty compilation, bad fidelities, ...)."""


def cost(compiled: CompiledCircuit) -> float:
    """Depth/fidelity cost of one compiled circuit; strictly lower is better."""
    fids = compiled.fidelities
    if not fids:
        raise LabelError("cost is undefined for an empty compiled circuit")
    lo, hi = min(fids), max(fids)
    logs = math.nan
    if 0.0 < lo and hi <= 1.0:
        # a plain left fold in gate order: sum() adds floats with compensation
        # from Python 3.12 on, so its bits would depend on the interpreter
        logs = 0.0
        for x in map(math.log, fids):
            logs += x
    if logs != logs:  # out of range, or a NaN that min and max stepped over
        bad = next(f for f in fids if not 0.0 < f <= 1.0)
        raise LabelError(f"gate fidelity {bad!r} outside (0, 1]")
    return -compiled.depth * math.log((hi + lo) / 2.0) - logs


def score_devices(
    circ: Circuit,
    profiles: list[DeviceProfile],
    extra_variants: dict[str, list[CompiledCircuit]] | None = None,
) -> dict[str, float]:
    """Best (minimum) cost per device, over the pipeline and any variants.

    The circuit is lowered once for all profiles (`compile_each`).
    """
    if not profiles:
        raise LabelError("need at least one device profile")
    costs: dict[str, float] = {}
    for profile, compiled in zip(profiles, compile_each(circ, profiles)):
        candidates = [compiled]
        if extra_variants:
            candidates.extend(extra_variants.get(profile.name, []))
        costs[profile.name] = min(cost(c) for c in candidates)
    return costs


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
    """Returns (class label, best device name, per-device costs)."""
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
    circuit_path: Path, profiles: list[DeviceProfile], precompiled_dir: Path
) -> dict[str, list[CompiledCircuit]]:
    """Variants follow <circuit>.<device-name>[.*].qasm; a bad one raises LabelError naming it."""
    stem = circuit_path.name[: -len(".qasm")]
    out: dict[str, list[CompiledCircuit]] = {}
    for profile in profiles:
        prefix = f"{stem}.{profile.name}"
        # the stem may hold glob metacharacters (`qft[3]`), so it is matched literally
        hits = sorted(
            p for p in precompiled_dir.glob(f"{glob.escape(prefix)}*.qasm")
            if p.name == f"{prefix}.qasm" or p.name.startswith(f"{prefix}.")
        )
        variants = []
        for path in hits:
            try:
                circ = parse_qasm(path.read_text(), name=path.stem)
                variants.append(compiled_from_circuit(circ, profile))
            except (ValueError, KeyError) as exc:
                raise LabelError(f"{path}: {exc}") from None
        if variants:
            out[profile.name] = variants
    return out


def build_manifest(
    circuits_dir: str | Path,
    profiles: list[DeviceProfile],
    out_path: str | Path,
    precompiled_dir: str | Path | None = None,
) -> Manifest:
    """Label every .qasm under circuits_dir and write the manifest, with the
    graph files in a `dags` directory next to it.

    Per-file failures (parse errors, unscorable circuits) are collected into
    the manifest's skipped list rather than aborting the run.

    The per-file loop runs with the cyclic garbage collector paused, and the
    caller's setting comes back when the loop ends or raises.  The pass makes
    hundreds of thousands of short-lived objects (ops, tuples, memo entries)
    and no reference cycles, so the collector's scans would find nothing:
    everything the loop drops is freed by reference counting as before.  The
    pause is process-wide for its duration, as `gc.disable` is.
    """
    circuits_dir = Path(circuits_dir)
    if not circuits_dir.is_dir():
        raise LabelError(f"{circuits_dir} is not a directory")
    files = sorted(circuits_dir.glob("*.qasm"))
    if not files:
        raise LabelError(f"no .qasm files under {circuits_dir}")
    out_path = Path(out_path)
    dag_dir = out_path.parent / "dags"
    dag_dir.mkdir(parents=True, exist_ok=True)
    out_path.parent.mkdir(parents=True, exist_ok=True)

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
                    circ = parse_qasm(path.read_text(), name=path.name[: -len(".qasm")])
                variants = None
                if precompiled_dir is not None:
                    variants = _load_precompiled(path, profiles, Path(precompiled_dir))
                label, best, costs = label_circuit(circ, profiles, variants)
                # refuses circuits too wide for the feature layout
                dag_path = write_graph(circ, dag_dir / circ.name, label)
            except (ValueError, KeyError) as exc:
                skipped.append({"circuit": path.name, "error": str(exc)})
                log.warning("skipping %s: %s", path.name, exc)
                continue
            counts[label] += 1
            entries.append(ManifestEntry(
                name=circ.name,
                circuit_path=_rel(path, out_path.parent),
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
    out_path.write_text(manifest_to_json(manifest))
    return manifest


def _rel(path: Path, base: Path) -> str:
    """path from base, through `..` if need be, so the manifest's bytes do not
    depend on where the tree sits."""
    return Path(os.path.relpath(path.resolve(), base.resolve())).as_posix()


def manifest_to_json(m: Manifest) -> str:
    return json_dumps({
        "profiles": m.profiles,
        "class_counts": list(m.class_counts),
        "entries": [vars(e).copy() for e in m.entries],
        "skipped": m.skipped,
    })


def load_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
        entries = [ManifestEntry(**e) for e in raw["entries"]]
        manifest = Manifest(
            profiles=raw["profiles"],
            entries=entries,
            class_counts=tuple(raw["class_counts"]),
            skipped=raw.get("skipped", []),
        )
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise LabelError(f"{path}: malformed manifest ({type(exc).__name__}: {exc})") from None
    for e in entries:
        _check_entry(e, path)
    return manifest


def _check_entry(e: ManifestEntry, path: Path) -> None:
    """Types and ranges of one loaded entry's fields; raises LabelError."""
    def count(x) -> bool:
        return isinstance(x, int) and not isinstance(x, bool) and x >= 0

    def finite(x) -> bool:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)

    for attr, ok, want in (
        ("name", isinstance(e.name, str), "a string"),
        ("circuit_path", isinstance(e.circuit_path, str), "a string"),
        ("dag_path", isinstance(e.dag_path, str), "a string"),
        ("best_device", isinstance(e.best_device, str), "a string"),
        ("num_qubits", count(e.num_qubits) and e.num_qubits >= 1, "an int >= 1"),
        ("depth", count(e.depth), "an int >= 0"),
        ("gate_count", count(e.gate_count), "an int >= 0"),
        # JSON object keys are always strings, so only the costs themselves need checking
        ("costs", isinstance(e.costs, dict) and all(map(finite, e.costs.values())),
         "a map of device names to finite numbers"),
        ("label", count(e.label) and e.label <= 1, "0 or 1"),
    ):
        if not ok:
            raise LabelError(
                f"{path}: entry {e.name!r} has {attr} {getattr(e, attr)!r}, want {want}"
            )


def resolve_dag_paths(manifest_path: str | Path, manifest: Manifest) -> list[Path]:
    base = Path(manifest_path).resolve().parent
    return [base / e.dag_path for e in manifest.entries]


# --- summary tables ---------------------------------------------------------


def stats_tables(manifest: Manifest) -> dict[str, str]:
    """Three CSV summaries of a labeled manifest.

    qubit_histogram: class counts per qubit count;
    normalized: depth and gate count normalized by qubit count;
    qubits_depth: raw qubit count vs depth.
    """
    by_qubits: dict[int, list[int]] = {}
    for e in manifest.entries:
        by_qubits.setdefault(e.num_qubits, [0, 0])[e.label] += 1
    hist = ["qubits,class0,class1"]
    hist += [f"{q},{c[0]},{c[1]}" for q, c in sorted(by_qubits.items())]

    norm = ["name,qubits,depth_norm,gates_norm,label"]
    qd = ["name,qubits,depth,label"]
    for e in manifest.entries:
        norm.append(
            f"{e.name},{e.num_qubits},{format(e.depth / e.num_qubits, '.17g')},"
            f"{format(e.gate_count / e.num_qubits, '.17g')},{e.label}"
        )
        qd.append(f"{e.name},{e.num_qubits},{e.depth},{e.label}")

    return {
        "qubit_histogram.csv": "\n".join(hist) + "\n",
        "normalized.csv": "\n".join(norm) + "\n",
        "qubits_depth.csv": "\n".join(qd) + "\n",
    }


def write_stats(manifest: Manifest, out_dir: str | Path) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for fname, text in stats_tables(manifest).items():
        p = out_dir / fname
        p.write_text(text)
        written.append(p)
    return written
