#!/usr/bin/env python3
"""Benchmark of the qtp package: label, train and predict workloads.

    python3 bench/run.py --workload label-corpus200 --seed 11 --seconds 15 --trace 0

The script belongs in `bench/` of a qtp checkout: it imports `qtp` from that
checkout's `src/` and nowhere else, and writes only under `.bench_work/` at the
checkout root.  With `--trace 0` it measures the end-to-end metrics for at
least `--seconds`; with `--trace 1` it runs one fixed unit of the workload
untraced and once more traced, and reports the per-layer metrics.  The last
line of standard output is one JSON object: correct, attempted, failed, metrics.
Exit code 0 means every output check passed, 1 that some check failed, and 2
that the benchmark could not run at all (no result is printed then).

bench/README.md describes the workloads, the metrics and the trace.
"""

import os

# Same BLAS thread count on every commit; set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import hashlib
import json
import math
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

CORPUS_SIZE = 200
POOL_FACTOR = 10  # see draw_corpus
FOLDS = 5
BATCH = 32
GAT32 = {"first_layer": "gat", "hidden": 32, "blocks": 1, "ffnn": (256, 32), "heads": 4}
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.tail": "ms",
    "peak_rss_mb": "MB",
}


REFERENCE_S = 0.025  # the reference loop's time on the test host in its usual state
REFERENCE_EVERY_S = 2.0


class BenchError(Exception):
    """The benchmark cannot run in this environment."""


# --- environment ----------------------------------------------------------------


def import_package() -> None:
    """Import qtp from this checkout's src/ with its own checks left on."""
    global corpus, dag, devices, labeling, model, np, qasm, spans, training
    if not __debug__ or sys.flags.optimize:
        raise BenchError("refusing to run under python -O: the tape's finiteness "
                         "check runs only when __debug__ is true")
    init = SRC / "qtp" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no qtp package at {init.parent}; run inside a qtp checkout")
    sys.path.insert(0, str(SRC))
    import qtp

    if Path(qtp.__file__).resolve() != init.resolve():
        raise BenchError(f"imported qtp from {qtp.__file__}, not from {SRC}")
    import numpy as np

    import qtp.corpus as corpus
    import qtp.dag as dag
    import qtp.devices as devices
    import qtp.labeling as labeling
    import qtp.model as model
    import qtp.qasm as qasm
    import qtp.training as training
    import spans


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    threads = blas_threads()
    if threads is not None and threads != BLAS_THREADS:
        raise BenchError(f"BLAS runs {threads} threads, expected {BLAS_THREADS}")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": threads if threads is not None else f"unknown (env {BLAS_THREADS})",
    }


# --- inputs -----------------------------------------------------------------------


def labelling_cost(circ) -> int:
    """Ten per 2-qubit gate, forty per 3-qubit gate, one per gate.

    Its rank correlation with measured labelling time per circuit is 0.98
    over 400 generated circuits; the gate count alone gives 0.93.
    """
    return sum(10 if len(op.qubits) == 2 else 40 if len(op.qubits) == 3 else 0
               for op in circ.ops) + len(circ.ops)


def gate_count(circ) -> int:
    """Graph size, and so model time: rank correlation 0.996 with predict latency."""
    return len(circ.ops)


def draw_corpus(size: int, seed: int, work) -> list:
    """`size` circuits drawn by strata from gen_corpus(size * POOL_FACTOR, seed).

    The pool is sorted by `work`, the measure that sets the workload's time,
    and one circuit is taken at a seeded position from each run of
    POOL_FACTOR.  A plain gen_corpus(200, seed) varies by about 18% in total
    compile work between seeds, which would swamp the bounds; this draw keeps
    the generator's mix while the circuits change with the seed.
    """
    pool = sorted(corpus.gen_corpus(size * POOL_FACTOR, seed), key=lambda c: (work(c), c.name))
    rng = random.Random(seed)
    return [pool[i + rng.randrange(POOL_FACTOR)] for i in range(0, len(pool), POOL_FACTOR)]


def label_corpus(size: int, seed: int) -> dict:
    """The label path's corpus as file stem -> circuit, in labelling order.

    build_manifest labels files in name order, and generator names group
    circuits by family and width.  A seeded position prefix interleaves them,
    so that a few slow seconds of a shared host fall on a mix of circuits
    rather than on one family's block, which would shift the median circuit.
    """
    circuits = draw_corpus(size, seed, labelling_cost)
    random.Random(seed).shuffle(circuits)
    return {f"{i:03d}_{circ.name}": circ for i, circ in enumerate(circuits)}


def write_corpus(files: dict, directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    for stem, circ in files.items():
        (directory / f"{stem}.qasm").write_text(qasm.serialize_qasm(circ))


def percentile(values, q: int) -> float:
    """q-th percentile (1..99) by statistics.quantiles' inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# --- host speed -------------------------------------------------------------------


class HostSpeed:
    """How fast the shared host runs, from a fixed reference loop timed during a run.

    The loop does interpreter work (dict, str, sorting) and small numpy work
    (matmul, row gather, segment sums) like the package does, and touches no
    qtp code, so no change to the package moves it.  It runs between items,
    outside their timed spans, about once every REFERENCE_EVERY_S seconds.
    `scale(when)` is REFERENCE_S over the median of the five samples nearest
    `when`: multiplying a time measured then by it gives the time at the
    reference speed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((300, 64))
        self.b = rng.standard_normal((64, 64))
        self.rows = rng.integers(0, 300, 2000)
        self.starts = np.arange(0, 2000, 10)
        self.samples: list[tuple[float, float]] = []  # (end time, seconds)
        self.last = -math.inf

    def reference(self) -> float:
        counts: dict[int, int] = {}
        digits = 0
        for i in range(30000):
            key = i % 997
            counts[key] = counts.get(key, 0) + i
            digits += len(str(key))
        total = float(sorted(counts.values())[0] + digits)
        for _ in range(30):
            gathered = (self.a @ self.b)[self.rows]
            total += float(np.add.reduceat(gathered, self.starts, axis=0).sum())
        return total

    def sample(self) -> None:
        start = time.perf_counter()
        self.reference()
        self.last = time.perf_counter()
        self.samples.append((self.last, self.last - start))

    def maybe_sample(self, now: float) -> None:
        if now - self.last >= REFERENCE_EVERY_S:
            self.sample()

    def scale(self, when: float) -> float:
        near = sorted(self.samples, key=lambda s: abs(s[0] - when))[:5]
        return REFERENCE_S / statistics.median(t for _, t in near)


# --- workloads --------------------------------------------------------------------


class Workload:
    """One closed-loop client in this process; see bench/README.md.

    Every unit repeats the same items (circuits, steps or requests).  Each
    item's time is scaled to the reference speed of `host` (see HostSpeed)
    and then taken as its median over the run's units, after an untimed
    `warm_up`.
    """

    name = ""
    item = ""  # what one timed item is
    names = ("", "", "")  # the workload's own names for throughput, p50 and tail
    tail = 95  # percentile reported as latency_ms.tail
    repeats = 3  # the least number of timed units in a measured run
    setups_per_unit = 3

    def __init__(self, work: Path, seed: int, size: int):
        self.work = work
        self.seed = seed
        self.size = size
        self.times: dict[object, list[tuple[float, float]]] = defaultdict(list)  # (end, s)
        self.host: HostSpeed | None = None
        self.items_per_unit = 0  # what throughput_per_s counts
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def prepare(self) -> None:
        """Make the inputs; not timed."""

    def setup(self) -> None:
        """Everything before the first measured item; timed as setup_s."""

    def unit(self) -> float:
        """Do a fixed amount of work, the same on every call; return its seconds."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed work before the measured units: one unit unless overridden."""
        self.unit()

    def probes(self) -> list:
        """(owner, attribute, wrapper) that time items during the measured loop."""
        return []

    def check(self) -> None:
        """Verify outputs; call fail() once per miss."""

    def extra_lines(self) -> list[str]:
        return []

    def digest(self) -> str:
        """sha256 of the program's outputs; equal across runs of one seed."""
        raise NotImplementedError

    def record(self, times: dict, key, start: float) -> float:
        """Keep the time of one item that began at `start`; return its seconds."""
        end = time.perf_counter()
        times[key].append((end, end - start))
        if self.host is not None:
            self.host.maybe_sample(end)
        return end - start

    def typical(self, samples, scaled: bool = True) -> float:
        """Median of one item's times, at the reference speed unless not `scaled`."""
        if scaled and self.host is not None:
            return statistics.median(s * self.host.scale(end) for end, s in samples)
        return statistics.median(s for _, s in samples)

    def forget_times(self) -> None:
        """Drop the item times of the warm-up units."""
        self.times.clear()

    def fail(self, message: str, items: int = 1) -> None:
        self.failed += items
        self.failures.append(message)


class Label(Workload):
    """build_manifest over a 200-circuit corpus against both bundled profiles."""

    name = "label-corpus200"
    item = "circuit"
    names = ("label.circuits_per_s", "label.circuit_ms.p50", "label.circuit_ms.p95")
    tail = 95  # ten of 200 circuits beyond it
    setups_per_unit = 5

    def prepare(self):
        self.files = label_corpus(self.size, self.seed)
        self.items_per_unit = len(self.files)
        # Corpus and graphs sit under the manifest's directory, so that the
        # manifest records relative paths and its bytes repeat across runs.
        self.corpus_dir = self.work / "corpus"
        self.manifest_path = self.work / "manifest.json"
        self.hashes: set[str] = set()
        self.manifest = None

    def setup(self):
        self.profiles = list(devices.bundled_profiles())
        write_corpus(self.files, self.corpus_dir)

    def warm_up(self):
        """Five circuits through build_manifest: a whole pass would take seconds."""
        warm = self.work / "warm"
        write_corpus(dict(list(self.files.items())[:5]), warm / "corpus")
        labeling.build_manifest(warm / "corpus", self.profiles, warm / "manifest.json")

    def unit(self):
        # Every pass creates its graph files afresh, as the first one does.
        shutil.rmtree(self.work / "dags", ignore_errors=True)
        self.attempted += len(self.files)
        start = time.perf_counter()
        try:
            manifest = labeling.build_manifest(self.corpus_dir, self.profiles, self.manifest_path)
        except Exception as exc:  # a raising pass fails every circuit in it
            self.fail(f"build_manifest raised {exc!r}", len(self.files))
            return time.perf_counter() - start
        seconds = time.perf_counter() - start
        for skip in manifest.skipped:
            self.fail(f"skipped {skip['circuit']}: {skip['error']}")
        self.hashes.add(hashlib.sha256(self.manifest_path.read_bytes()).hexdigest())
        self.manifest = manifest
        return seconds

    def probes(self):
        """Per circuit: from parse_qasm to the end of write_graph."""
        current = {"name": "", "start": 0.0}
        parse, write = labeling.parse_qasm, labeling.write_graph

        def timed_parse(text, name=""):
            current["name"], current["start"] = name, time.perf_counter()
            return parse(text, name=name)

        def timed_write(*args, **kwargs):
            out = write(*args, **kwargs)
            self.record(self.times, current["name"], current["start"])
            return out

        return [(labeling, "parse_qasm", timed_parse), (labeling, "write_graph", timed_write)]

    def check(self):
        if len(self.hashes) > 1:
            self.fail(f"manifest bytes differ between passes: {sorted(self.hashes)}")
        if self.manifest is None:
            return
        tech = {p["name"]: p["technology"] for p in self.manifest.profiles}
        texts = {stem: qasm.serialize_qasm(c) for stem, c in self.files.items()}
        base = self.manifest_path.parent
        for entry in self.manifest.entries:
            costs = entry.costs
            if sorted(costs) != sorted(tech) or not all(math.isfinite(c) for c in costs.values()):
                self.fail(f"{entry.name}: costs {costs} are not one finite cost per profile")
                continue
            best = min(sorted(costs), key=lambda name: costs[name])
            if (entry.best_device, entry.label) != (best, devices.TECHNOLOGY_CLASS[tech[best]]):
                self.fail(f"{entry.name}: labelled {entry.best_device}/{entry.label}, "
                          f"argmin is {best}")
            stored = dag.load_graph(base / entry.dag_path)
            fresh = dag.featurize_circuit(qasm.parse_qasm(texts[entry.name], name=entry.name),
                                          entry.label)
            if not (stored.name == fresh.name and stored.num_qubits == fresh.num_qubits
                    and stored.label == fresh.label
                    and np.array_equal(stored.features, fresh.features)
                    and np.array_equal(stored.edges, fresh.edges)):
                self.fail(f"{entry.name}: graph file does not load back as its featurized QASM")
        if len(self.manifest.entries) + len(self.manifest.skipped) != len(self.files):
            self.fail("manifest does not account for every circuit")

    def digest(self):
        return ",".join(sorted(self.hashes)) or "none"  # one hash unless passes differ


class Train(Workload):
    """training.train with the acceptance GAT config on the labelled corpus."""

    name = "train-gat32"
    item = "step"
    names = ("train.graphs_per_s", "train.step_ms.p50", "train.step_ms.p60")
    tail = 60  # ten of 25 steps beyond it
    epochs = 1  # 25 steps at 200 graphs, 5 folds, batch 32

    def prepare(self):
        self.config = model.ModelConfig(**GAT32)
        corpus_dir = self.work / "corpus"
        write_corpus(label_corpus(self.size, self.seed), corpus_dir)
        self.manifest_path = self.work / "manifest.json"
        manifest = labeling.build_manifest(corpus_dir, list(devices.bundled_profiles()),
                                           self.manifest_path)
        for skip in manifest.skipped:
            self.fail(f"skipped {skip['circuit']}: {skip['error']}")
        splits = training.stratified_split(manifest.labels, FOLDS, self.seed)
        self.steps_per_unit = self.epochs * sum(math.ceil(len(tr) / BATCH) for tr, _ in splits)
        self.items_per_unit = self.epochs * sum(len(tr) for tr, _ in splits)
        self.eval_graphs_per_unit = sum(len(te) for _, te in splits)
        self.eval_times: dict[int, list[tuple[float, float]]] = defaultdict(list)
        self.result = None

    def setup(self):
        manifest = labeling.load_manifest(self.manifest_path)
        self.graphs = [dag.load_graph(p)
                       for p in labeling.resolve_dag_paths(self.manifest_path, manifest)]

    def warm_up(self):
        """Two folds over 64 graphs: the first call's cold start, not a whole unit."""
        self.step = self.evals = 0
        training.train(self.config, self.graphs[:2 * BATCH], k=2, epochs=1, seed=self.seed,
                       batch_size=BATCH)

    def unit(self):
        self.step = self.evals = 0
        self.attempted += self.steps_per_unit
        start = time.perf_counter()
        try:
            result = training.train(self.config, self.graphs, k=FOLDS, epochs=self.epochs,
                                    seed=self.seed, batch_size=BATCH)
        except Exception as exc:  # a raising run fails every step in it
            self.fail(f"train raised {exc!r}", self.steps_per_unit)
            return time.perf_counter() - start
        seconds = time.perf_counter() - start
        self.result = result
        for report, weights in zip(result.folds, result.weights):
            if not all(math.isfinite(x) for x in report.loss_curve):
                self.fail(f"fold {report.fold_id}: non-finite loss {report.loss_curve}")
            bad = [k for k, w in weights.items() if not np.all(np.isfinite(w))]
            if bad:
                self.fail(f"fold {report.fold_id}: non-finite weights {bad}")
        return seconds

    def probes(self):
        """Per step: from batch_graphs to the end of adam_step; evaluate apart."""
        batch, adam, evaluate = training.batch_graphs, training.adam_step, training.evaluate
        state = {"start": 0.0, "eval": False}

        def timed_batch(graphs):
            if not state["eval"]:
                state["start"] = time.perf_counter()
            return batch(graphs)

        def timed_adam(*args, **kwargs):
            out = adam(*args, **kwargs)
            self.record(self.times, self.step, state["start"])
            self.step += 1
            return out

        def timed_evaluate(config, weights, graphs):
            state["eval"] = True
            start = time.perf_counter()
            try:
                return evaluate(config, weights, graphs)
            finally:
                self.record(self.eval_times, self.evals, start)
                self.evals += 1
                state["eval"] = False

        return [(training, "batch_graphs", timed_batch), (training, "adam_step", timed_adam),
                (training, "evaluate", timed_evaluate)]

    def forget_times(self):
        super().forget_times()
        self.eval_times.clear()

    def extra_lines(self):
        typical = sum(self.typical(v) for v in self.eval_times.values())
        return [f"train.eval_graphs_per_s {self.eval_graphs_per_unit / typical:.4f} 1/s "
                f"({self.eval_graphs_per_unit} held-out graphs over {len(self.eval_times)} "
                f"evaluate calls, median scaled time of each)"]

    def digest(self):
        if self.result is None:
            return "none"
        h = hashlib.sha256(json.dumps([f.to_json() for f in self.result.folds]).encode())
        for weights in self.result.weights:
            for name in sorted(weights):
                h.update(weights[name].tobytes())
        return h.hexdigest()


class Predict(Workload):
    """parse_qasm -> featurize_circuit -> predict_proba on one held-out circuit a call."""

    name = "predict-single"
    item = "request"
    names = ("predict.requests_per_s", "predict.ms.p50", "predict.ms.p95")
    tail = 95  # ten of 200 distinct requests beyond it
    repeats = 7
    setups_per_unit = 4

    def prepare(self):
        self.checkpoint = self.work / "gat32.ckpt"
        config = model.ModelConfig(**GAT32)
        model.save_checkpoint(self.checkpoint, config, model.init_weights(config, self.seed),
                              self.seed)
        held_out = draw_corpus(self.size, self.seed + 1, gate_count)
        median = held_out[len(held_out) // 2]
        self.first = (median.name, qasm.serialize_qasm(median))
        random.Random(self.seed).shuffle(held_out)
        self.requests = [(c.name, qasm.serialize_qasm(c)) for c in held_out]
        self.items_per_unit = len(self.requests)
        self.rows: dict[int, object] = {}

    def predict(self, name: str, text: str):
        graph = dag.featurize_circuit(qasm.parse_qasm(text, name=name))
        return model.predict_proba(self.config, self.weights, [graph])[0]

    def setup(self):
        self.config, self.weights, _, _ = model.load_checkpoint(self.checkpoint)
        self.predict(*self.first)

    def unit(self):
        seconds = 0.0
        for i, (name, text) in enumerate(self.requests):
            self.attempted += 1
            start = time.perf_counter()
            try:
                row = self.predict(name, text)
            except Exception as exc:  # one failed request; the client carries on
                self.fail(f"{name}: predict raised {exc!r}")
                seconds += time.perf_counter() - start
                continue
            seconds += self.record(self.times, i, start)
            if i not in self.rows:
                self.rows[i] = row
            elif not np.array_equal(row, self.rows[i]):
                self.fail(f"{name}: repeated request gave {row}, first gave {self.rows[i]}")
        return seconds

    def check(self):
        graphs = [dag.featurize_circuit(qasm.parse_qasm(text, name=name))
                  for name, text in self.requests]
        batched = model.predict_proba(self.config, self.weights, graphs)
        for i, row in self.rows.items():
            # One graph and a batch of them reach the same values through BLAS
            # calls of different shapes, so rows agree to rounding, not bits.
            if not (np.all(np.isfinite(row)) and np.allclose(row, batched[i], rtol=0, atol=1e-12)):
                self.fail(f"{self.requests[i][0]}: single row {row} vs batched {batched[i]}")

    def digest(self):
        h = hashlib.sha256()
        for i in sorted(self.rows):
            h.update(self.rows[i].tobytes())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (Label, Train, Predict)}


# --- runs ---------------------------------------------------------------------------


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def timings(wl: Workload, scaled: bool) -> dict:
    """Throughput and latencies over the items' median times."""
    typical = [wl.typical(samples, scaled) for samples in wl.times.values()]
    return {
        "throughput_per_s": wl.items_per_unit / sum(typical),
        "latency_ms.p50": statistics.median(typical) * 1e3,
        "latency_ms.tail": percentile(typical, wl.tail) * 1e3,
    }


def measure(wl: Workload, seconds: float) -> tuple[dict, list[str]]:
    """Untraced run: end-to-end metrics, name -> (value, unit)."""
    phases = {"prepare": timed(wl.prepare)}
    wl.host = host = HostSpeed()
    setups: dict[str, list[tuple[float, float]]] = defaultdict(list)

    def set_up():
        start = time.perf_counter()
        wl.setup()
        wl.record(setups, "setup", start)

    set_up()
    with spans.patched(wl.probes()):
        phases["warmup"] = timed(wl.warm_up)
    wl.forget_times()
    start = time.perf_counter()
    wall = 0.0
    units = 0
    # A failure already decides the run, so stop measuring at the first one.
    while not wl.failed and (wall < seconds or units < wl.repeats):
        host.sample()
        with spans.patched(wl.probes()):
            wall += wl.unit()
        host.sample()
        units += 1
        # Set-up again between units, so that its median spans the whole run
        # rather than one moment of a shared host.
        for _ in range(wl.setups_per_unit):
            set_up()
    phases["measure"] = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    phases["check"] = timed(wl.check)
    values = timings(wl, scaled=True)
    raw = timings(wl, scaled=False)
    values.update({"setup_s": wl.typical(setups["setup"]), "peak_rss_mb": peak_rss_mb})
    n = f"n={len(wl.times)} {wl.item}s, median of {units} units each"
    throughput, p50, tail = wl.names
    scales = sorted(REFERENCE_S / t for _, t in host.samples)
    lines = [
        f"{throughput} {values['throughput_per_s']:.4f} 1/s "
        f"({wl.items_per_unit} per unit over the sum of the median {wl.item} times; "
        f"unscaled {raw['throughput_per_s']:.4f})",
        f"{p50} {values['latency_ms.p50']:.4f} ms ({n}; unscaled {raw['latency_ms.p50']:.4f})",
        f"{tail} {values['latency_ms.tail']:.4f} ms ({n}; unscaled {raw['latency_ms.tail']:.4f})",
        *wl.extra_lines(),
        f"host.scale median {statistics.median(scales):.4f}, range {scales[0]:.4f} to "
        f"{scales[-1]:.4f} ({len(scales)} reference samples; below 1 means a slow host)",
        f"setup_s {values['setup_s']:.6f} s (median of {len(setups['setup'])} set-ups; "
        f"unscaled {wl.typical(setups['setup'], scaled=False):.6f})",
        f"peak_rss_mb {values['peak_rss_mb']:.1f} MB (this process)",
        f"measured {wall:.3f} s in {units} units after a warm-up",
        "phases_s " + " ".join(f"{k}={v:.2f}" for k, v in phases.items()),
    ]
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}, lines


def trace(wl: Workload, spans_path: Path) -> tuple[dict, list[str]]:
    """Traced run: a warm-up unit, one unit untraced, then set-up and one traced.

    Returns the per-layer metrics, name -> (value, unit).
    """
    wl.prepare()
    wl.setup()
    wl.unit()
    plain = wl.unit()
    tracer = spans.Tracer([p.name for p in devices.bundled_profiles()])
    with spans.patched(tracer.targets()):
        wl.setup()
        first = len(tracer.spans)
        traced = wl.unit()
    wl.check()
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    metrics["trace.uncovered_frac"] = (1.0 - tracer.covered(first) / traced, "ratio")
    tracer.write(spans_path)
    lines = [
        f"trace.wall_s untraced {plain:.4f} s, traced {traced:.4f} s "
        f"(overhead x{traced / plain:.4f})",
        f"trace.uncovered_frac {metrics['trace.uncovered_frac'][0]:.4f} "
        "(share of the traced unit outside top-level spans)",
        f"trace.spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
        "time waited: not applicable (one thread, no queues)",
    ]
    return metrics, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=CORPUS_SIZE,
                        help="circuits per corpus; smaller only for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
        env = environment()
    except (BenchError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-") as tmp:
        wl = WORKLOADS[args.workload](Path(tmp), args.seed, args.size)
        try:
            if args.trace:
                spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
                metrics, lines = trace(wl, spans_path)
            else:
                metrics, lines = measure(wl, args.seconds)
        except (statistics.StatisticsError, ZeroDivisionError):
            if not wl.failures:
                raise
            metrics, lines = {}, ["no metrics: too few items succeeded"]
    attempted = max(1, wl.attempted)
    failed = min(attempted, wl.failed)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print(line)
    print(f"ops_failed_frac {failed / attempted:.6f} ratio ({failed} of {attempted} {wl.item}s)")
    print(f"outputs.sha256 {wl.digest()}")
    for message in wl.failures[:20]:
        print(f"FAILED {message}")
    result = {
        "correct": not wl.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
