"""Outside-in tracing of the qtp package for the benchmark.

Nothing here edits the package.  `Tracer.targets` lists timing wrappers for
its public functions, each at the name its caller looks up (for example
`qtp.labeling.compile_for`, not only `qtp.transpile.compile_for`); `patched`
installs them for the duration of a `with` block.  Every wrapped call becomes
a span (name, start, end, parent, request id) kept in memory; `Tracer.write`
dumps them as JSON lines when the run ends.

Backward passes are attributed by wrapping `Tape.record`: each push closure
it stores is timed when `Tape.backward` replays it, and charged both to its
autodiff op (`autodiff.<op>.bwd_s`) and to the model layer span that was open
when the op was recorded (`model.<layer>.bwd_s`).

The program is single-threaded with no queues, so no span ever waits on
another: per-layer metrics are busy time and counts only.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import qtp.autodiff as autodiff
import qtp.dag as dag
import qtp.labeling as labeling
import qtp.model as model
import qtp.qasm as qasm
import qtp.training as training
import qtp.transpile.pipeline as pipeline

AUTODIFF_OPS = (
    "matmul", "add", "mul", "scale", "concat", "leaky_relu", "row_softmax", "log",
    "segment_sum", "segment_mean", "segment_softmax", "gather_rows", "pick_columns",
    "mean_all", "clamp_min",
)
MODEL_LAYERS = ("gat_forward", "residual_gcn", "global_mean_pool")
BWD = ".bwd"  # suffix of the span of a replayed push closure


@contextlib.contextmanager
def patched(pairs):
    """Temporarily set `owner.attr = value` for each (owner, attr, value)."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in pairs]
    try:
        for owner, attr, value in pairs:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _device(args) -> str:
    return args[1].name


class Tracer:
    """Spans and counts around qtp's public functions, recorded from outside."""

    def __init__(self, devices: list[str]):
        self.devices = devices
        # span: [name, start, end, parent index, request id, charged layer]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = ""
        self._step = 0
        self._stack: list[int] = []

    # --- recording -----------------------------------------------------------

    def _open(self, name: str, charge: str = "") -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.request, charge])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _layer(self) -> str:
        """Innermost open span that is not an autodiff op."""
        for idx in reversed(self._stack):
            name = self.spans[idx][0]
            if not name.startswith("autodiff."):
                return name
        return ""

    def _wrap(self, fn, name, count=None, enter=None):
        tracer = self

        def traced(*args, **kwargs):
            if enter is not None:
                enter(args, kwargs)
            span = name(args) if callable(name) else name
            idx = tracer._open(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                suffix, amount = count(args, out)
                tracer.counts[span + suffix] += amount
            return out

        return traced

    # --- hooks ---------------------------------------------------------------

    def targets(self) -> list[tuple]:
        """(owner, attribute, wrapper) for every traced call site."""
        w = self._wrap
        tracer = self

        def set_circuit(args, kwargs):
            tracer.request = kwargs.get("name", "")

        def set_step(args, kwargs):
            if not tracer._stack:  # inside evaluate it batches held-out graphs instead
                tracer._step += 1
                tracer.request = f"{tracer.request.split('/')[0]}/step{tracer._step}"

        def set_eval(args, kwargs):
            tracer.request = tracer.request.split("/")[0] + "/eval"

        parse = w(qasm.parse_qasm, "qasm.parse_qasm",
                  lambda a, out: (".bytes", len(a[0].encode())), set_circuit)
        featurize = w(dag.featurize_circuit, "dag.featurize_circuit",
                      lambda a, out: (".nodes", out.num_nodes))
        batch = w(model.batch_graphs, "model.batch_graphs")
        forward = w(model.model_forward, "model.model_forward")
        original_train_fold = training.train_fold

        def train_fold(*args, **kwargs):
            tracer.request, tracer._step = f"fold{args[4]}", 0
            return original_train_fold(*args, **kwargs)

        targets = [
            (labeling, "parse_qasm", parse),
            (qasm, "parse_qasm", parse),
            (pipeline, "lower_to_canonical",
             w(pipeline.lower_to_canonical, "transpile.lower_to_canonical",
               lambda a, out: (".ops_out", len(out.ops)))),
            (pipeline, "rebase",
             w(pipeline.rebase, lambda a: f"transpile.rebase.{_device(a)}",
               lambda a, out: (".ops_out", len(out.ops)))),
            (pipeline, "route",
             w(pipeline.route, lambda a: f"transpile.route.{_device(a)}",
               lambda a, out: (".ops_added", len(out[0].ops) - len(a[0].ops)))),
            (labeling, "compile_for",
             w(labeling.compile_for, lambda a: f"transpile.compile_for.{_device(a)}")),
            (labeling, "cost", w(labeling.cost, "labeling.cost")),
            (labeling, "build_manifest",
             w(labeling.build_manifest, "labeling.build_manifest",
               lambda a, out: (".skipped", len(out.skipped)))),
            (labeling, "featurize_circuit", featurize),
            (dag, "featurize_circuit", featurize),
            (labeling, "write_graph",
             w(labeling.write_graph, "dag.write_graph",
               lambda a, out: (".bytes", out.stat().st_size))),
            (dag, "load_graph",
             w(dag.load_graph, "dag.load_graph",
               lambda a, out: (".bytes", Path(a[0]).stat().st_size))),
            (training, "batch_graphs", w(model.batch_graphs, "model.batch_graphs", enter=set_step)),
            (model, "batch_graphs", batch),
            (model, "normalize_adjacency",
             w(model.normalize_adjacency, "model.normalize_adjacency")),
            (training, "model_forward", forward),
            (model, "model_forward", forward),
            (model, "predict_proba", w(model.predict_proba, "model.predict_proba")),
            (model, "load_checkpoint", w(model.load_checkpoint, "model.load_checkpoint")),
            (training, "train_fold", train_fold),
            (training, "adam_step", w(training.adam_step, "training.adam_step")),
            (training, "weighted_cross_entropy",
             w(training.weighted_cross_entropy, "training.weighted_cross_entropy")),
            (training, "evaluate", w(training.evaluate, "training.evaluate", enter=set_eval)),
            (autodiff.Tape, "backward", w(autodiff.Tape.backward, "autodiff.Tape.backward")),
            (autodiff.Tape, "record", self._record_hook(autodiff.Tape.record)),
            (autodiff.Tape, "const", self._const_hook(autodiff.Tape.const)),
        ]
        targets += [(model, name, w(getattr(model, name), f"model.{name}"))
                    for name in MODEL_LAYERS]
        targets += [(autodiff, op, w(getattr(autodiff, op), f"autodiff.{op}"))
                    for op in AUTODIFF_OPS]
        return targets

    def _record_hook(self, record):
        tracer = self

        def traced_record(tape, data, backward):
            tracer.counts["autodiff.Tape.record.calls"] += 1
            op = tracer.spans[tracer._stack[-1]][0] if tracer._stack else "autodiff.unknown"
            layer = tracer._layer()

            def push(g):
                idx = tracer._open(op + BWD, layer)
                try:
                    backward(g)
                finally:
                    tracer._close(idx)

            return record(tape, data, push)

        return traced_record

    def _const_hook(self, const):
        tracer = self

        def traced_const(tape, value):
            tracer.counts["autodiff.Tape.const.calls"] += 1
            return const(tape, value)

        return traced_const

    # --- reduction -----------------------------------------------------------

    def metric_names(self) -> list[tuple[str, str]]:
        """Every per-layer metric this tracer reports, with its unit."""
        names = [
            ("qasm.parse_qasm.s", "s"), ("qasm.parse_qasm.calls", "count"),
            ("qasm.parse_qasm.bytes", "bytes"),
            ("transpile.lower_to_canonical.s", "s"),
            ("transpile.lower_to_canonical.ops_out", "count"),
        ]
        for d in self.devices:
            names += [(f"transpile.rebase.{d}.s", "s"), (f"transpile.rebase.{d}.ops_out", "count")]
        for d in self.devices:
            names += [(f"transpile.route.{d}.s", "s"), (f"transpile.route.{d}.ops_added", "count")]
        names += [(f"transpile.compile_for.{d}.self_s", "s") for d in self.devices]
        names += [
            ("labeling.cost.s", "s"), ("labeling.build_manifest.self_s", "s"),
            ("labeling.skipped", "count"),
            ("dag.featurize_circuit.s", "s"), ("dag.featurize_circuit.nodes", "count"),
            ("dag.write_graph.s", "s"), ("dag.write_graph.bytes", "bytes"),
            ("dag.load_graph.s", "s"), ("dag.load_graph.bytes", "bytes"),
            ("model.batch_graphs.s", "s"), ("model.batch_graphs.calls", "count"),
            ("model.normalize_adjacency.s", "s"), ("model.normalize_adjacency.calls", "count"),
        ]
        for layer in MODEL_LAYERS:
            names += [(f"model.{layer}.fwd_s", "s"), (f"model.{layer}.bwd_s", "s")]
        names += [
            ("model.model_forward.self_fwd_s", "s"), ("model.model_forward.self_bwd_s", "s"),
            ("model.predict_proba.s", "s"), ("model.load_checkpoint.s", "s"),
        ]
        for op in AUTODIFF_OPS:
            names += [(f"autodiff.{op}.fwd_s", "s"), (f"autodiff.{op}.bwd_s", "s"),
                      (f"autodiff.{op}.calls", "count")]
        names += [
            ("autodiff.Tape.backward.self_s", "s"), ("autodiff.Tape.const.calls", "count"),
            ("autodiff.Tape.record.calls", "count"),
            ("training.adam_step.s", "s"), ("training.weighted_cross_entropy.s", "s"),
            ("training.evaluate.s", "s"),
        ]
        return names

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Reduce the spans to per-layer busy times and counts.

        A span's self time is its duration minus its child spans, except
        autodiff forward ops, which count as work of the layer that called
        them.  Replayed push closures are children of `Tape.backward` and are
        charged to their op and to the layer that recorded them.
        """
        calls = Counter(span[0] for span in self.spans)
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        bwd_by_layer: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, charge in self.spans:
            dur = end - start
            total[name] += dur
            if name.endswith(BWD):
                bwd_by_layer[charge] += dur
            if parent >= 0 and (name.endswith(BWD) or not name.startswith("autodiff.")
                                or name == "autodiff.Tape.backward"):
                child_time[parent] += dur
        for (name, start, end, *_), child in zip(self.spans, child_time):
            self_time[name] += end - start - child

        out: dict[str, tuple[float, str]] = {}
        for metric, unit in self.metric_names():
            base, _, kind = metric.rpartition(".")
            if kind in ("s", "fwd_s"):
                value = total[base]
            elif kind in ("self_s", "self_fwd_s"):
                value = self_time[base]
            elif kind == "bwd_s" and base.startswith("autodiff."):
                value = total[base + BWD]
            elif kind in ("bwd_s", "self_bwd_s"):
                value = bwd_by_layer[base]
            elif metric == "labeling.skipped":
                value = self.counts["labeling.build_manifest.skipped"]
            elif kind == "calls" and metric not in self.counts:
                value = calls[base]
            else:
                value = self.counts[metric]
            out[metric] = (value, unit)
        return out

    def covered(self, since: int) -> float:
        """Seconds covered by top-level spans opened at or after index `since`."""
        return sum(end - start for _, start, end, parent, *_ in self.spans[since:]
                   if parent < 0)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, request, charge) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "request": request}
                if charge:
                    row["charged_to"] = charge
                fh.write(json.dumps(row) + "\n")
