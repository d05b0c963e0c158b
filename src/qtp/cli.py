"""Command-line pipeline driver.

Every subcommand is a batch operation writing files; the only console output
besides logging is predict's single result line.  Exit codes: 0 success,
1 usage error, 2 bad input data, 3 internal failure.  Files are read and
written as UTF-8 whatever the locale (`jsonio`); the CSV tables and predict's
line write floats with `jsonio.fmt_float`.  Circuit files are named, read and
written through `labeling`, as `label` does; `predict` names no circuit.

Importing this module pins BLAS to one thread, before numpy is first
imported: a multi-threaded BLAS splits matmul sums differently, so `train`
would write other checkpoint bits at another thread count.  `grid --jobs`
is the parallel lever, and its workers inherit the setting.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import functools
import json
import logging
import random
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import DataError
from .corpus import CorpusError, CorpusParams, gen_corpus
from .dag import (FEATURE_DIM, FeaturizeError, GraphData, check_width, featurize_circuit,
                  load_graph)
from .devices import (DeviceError, DeviceProfile, bundled_profile, bundled_profile_names,
                      load_profile)
from .jsonio import fmt_float, loads, path_text, read_text, reading, write_text
from .labeling import (LabelError, build_manifest, load_manifest, read_circuit,
                       resolve_dag_paths, write_graph_file, write_stats)
from .model import (CheckpointError, ModelConfig, ModelError, iter_grid, load_checkpoint,
                    predict_proba, save_checkpoint)
from .qasm import parse_qasm, serialize_qasm
from .training import TrainResult, evaluate, train

log = logging.getLogger("qtp")

TABLE_COLUMNS = (
    "model",
    "f1_class0",
    "f1_class1",
    "accuracy",
    "f1_class0_std",
    "f1_class1_std",
    "accuracy_std",
)


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_profiles(specs: list[str]) -> list[DeviceProfile]:
    profiles = []
    for spec in specs:
        if Path(spec).exists():
            profiles.append(load_profile(spec))
        elif spec in bundled_profile_names():
            profiles.append(bundled_profile(spec))
        else:
            raise DeviceError(f"{path_text(spec)}: not a profile file or bundled profile name")
    return profiles


def _load_config(spec: str) -> ModelConfig:
    """The config given as JSON text, named by that text, or in the file it names."""
    with reading(spec, ModelError):
        return ModelConfig.from_json(loads(spec if spec.lstrip().startswith("{") else
                                           read_text(spec)))


def _load_model(path: str) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """A checkpoint's config and weights, refused naming the file unless they
    take graphs of the FEATURE_DIM-wide feature layout."""
    config, weights, _, _ = load_checkpoint(path)
    width = next(iter(weights.values())).shape[0]
    if width != FEATURE_DIM:
        raise CheckpointError(f"{path_text(path)}: input width {width} is not the "
                              f"{FEATURE_DIM} of the feature layout")
    return config, weights


def _load_dataset(manifest_path: str) -> list[GraphData]:
    manifest = load_manifest(manifest_path)
    if not manifest.entries:
        raise LabelError(f"{path_text(manifest_path)}: manifest has no usable entries")
    graphs = []
    for entry, dag_path in zip(manifest.entries, resolve_dag_paths(manifest_path, manifest)):
        graph = load_graph(dag_path)
        graph.label = entry.label
        graphs.append(graph)
    return graphs


@contextlib.contextmanager
def _running(checkpoint):
    """Blame a forward pass that overflows on the checkpoint whose weights it ran;
    numpy's warnings stay quiet, since the tape's finiteness check raises."""
    try:
        with np.errstate(all="ignore"):
            yield
    except FloatingPointError as exc:
        raise CheckpointError(
            f"{path_text(checkpoint)}: weights give a non-finite forward pass ({exc})"
        ) from None


def _table_row(name: str, agg: dict) -> dict:
    row = {"model": name}
    for col in TABLE_COLUMNS[1:]:  # a metric's fold mean, or its std under `<metric>_std`
        metric = col.removesuffix("_std")
        row[col] = fmt_float(agg[metric]["mean" if metric == col else "std"])
    return row


def _write_table(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=TABLE_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


# --- subcommand handlers ---------------------------------------------------------


def _cmd_featurize(args) -> int:
    targets: list[Path] = []
    for spec in args.circuits:
        p = Path(spec)
        if p.is_dir():
            targets.extend(sorted(p.glob("*.qasm")))
        elif p.exists():
            targets.append(p)
        else:
            raise FeaturizeError(f"{path_text(spec)}: no such file or directory")
    if not targets:
        raise FeaturizeError("no circuits to featurize")
    out_dir = Path(args.out) if args.out else None
    # every input is read before a graph is written: bad data, or two inputs for
    # one graph file (one circuit name in one directory), writes nothing
    graphs = {}  # (directory, circuit name) -> (path, circuit)
    for path in targets:
        with reading(path, FeaturizeError, fields=False):
            circ = read_circuit(path)
            check_width(circ.num_qubits)
        first, _ = graphs.setdefault(((out_dir or path.parent).resolve(), circ.name), (path, circ))
        if first.resolve() != path.resolve():
            raise FeaturizeError(f"{path_text(first)} and {path_text(path)} both write the "
                                 f"graph file of circuit {circ.name!r}")
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    for path, circ in graphs.values():
        dest = write_graph_file(circ, out_dir or path.parent)
        log.info("featurize %s -> %s", path, dest)
    return 0


def _cmd_label(args) -> int:
    profiles = _load_profiles(args.profiles)
    manifest = build_manifest(
        args.circuits,
        profiles,
        args.out,
        precompiled_dir=args.precompiled_dir,
    )
    log.info(
        "label %s: %d entries, class counts %s, %d skipped",
        args.circuits,
        len(manifest.entries),
        manifest.class_counts,
        len(manifest.skipped),
    )
    return 0


def _cmd_gen_corpus(args) -> int:
    params = CorpusParams(
        qubit_range=(args.qubits[0], args.qubits[1]),
        depth_range=(args.depth[0], args.depth[1]),
        mix=_parse_mix(args.mix) if args.mix else CorpusParams().mix,
    )
    circuits = gen_corpus(args.n, args.seed, params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for circ in circuits:
        write_text(out / f"{circ.name}.qasm", serialize_qasm(circ))
    log.info("gen-corpus: wrote %d circuits to %s", len(circuits), out)
    return 0


def _parse_mix(spec: str) -> tuple[tuple[str, float], ...]:
    mix = []
    for part in spec.split(","):
        fam, _, weight = part.partition("=")
        try:  # the family is CorpusParams' to check
            mix.append((fam, float(weight)))
        except ValueError:
            raise CorpusError(f"bad mix entry {part!r}; want family=weight") from None
    return tuple(mix)


def _cmd_stats(args) -> int:
    manifest = load_manifest(args.manifest)
    paths = write_stats(manifest, args.out)
    log.info("stats: wrote %s", ", ".join(str(p) for p in paths))
    return 0


def _train_one(config: ModelConfig, graphs: list[GraphData], args) -> TrainResult:
    """The one call to train, with the run flags train and grid share."""
    return train(
        config,
        graphs,
        k=args.folds,
        epochs=args.epochs,
        seed=args.seed,
        batch_size=args.batch_size,
        split_mode=args.split_mode,
    )


def _cmd_train(args) -> int:
    config = _load_config(args.config)
    result = _train_one(config, _load_dataset(args.manifest), args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for report, weights in zip(result.folds, result.weights):
        save_checkpoint(
            out / f"fold{report.fold_id}.ckpt",
            config,
            weights,
            seed=args.seed,
            metadata={
                "fold_id": report.fold_id,
                "epochs": args.epochs,
                "folds": args.folds,
                "batch_size": args.batch_size,
                "split_mode": args.split_mode,
            },
        )
    report_json = {
        "name": config.name,
        "config": config.to_json(),
        "seed": args.seed,
        "epochs": args.epochs,
        "folds": args.folds,
        "batch_size": args.batch_size,
        "split_mode": args.split_mode,
        "fold_reports": [r.to_json() for r in result.folds],
        "aggregate": result.aggregate,
    }
    write_text(out / "run_report.json", json.dumps(report_json, indent=2) + "\n")
    _write_table(out / "results.csv", [_table_row(config.name, result.aggregate)])
    log.info("train %s: accuracy %.4f", config.name, result.aggregate["accuracy"]["mean"])
    return 0


def _grid_configs(budget: int | None, seed: int) -> list[ModelConfig]:
    configs = list(iter_grid())
    if budget is None or budget >= len(configs):
        return configs
    if budget < 1:
        raise ModelError("budget must be positive")
    picked = sorted(random.Random(seed).sample(range(len(configs)), budget))
    return [configs[i] for i in picked]


_GRID_GRAPHS: list[GraphData] = []  # a grid worker process's dataset


def _grid_worker_init(graphs: list[GraphData]) -> None:
    _GRID_GRAPHS[:] = graphs


def _grid_worker(config: ModelConfig, args) -> tuple[ModelConfig, dict]:
    return config, _train_one(config, _GRID_GRAPHS, args).aggregate


def _cmd_grid(args) -> int:
    configs = _grid_configs(args.budget, args.seed)
    if args.jobs < 1:
        raise ModelError("jobs must be positive")
    # loaded once per call and handed to each worker as it starts, so no
    # dataset outlives the call that read it
    graphs = _load_dataset(args.manifest)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs, initializer=_grid_worker_init,
                                 initargs=(graphs,)) as pool:
            scored = list(pool.map(functools.partial(_grid_worker, args=args), configs))
    else:
        scored = [(c, _train_one(c, graphs, args).aggregate) for c in configs]
    # the selection rule: minority-class F1, class 0
    scored.sort(key=lambda item: (-item[1]["f1_class0"]["mean"], item[0].name))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_table(out / "grid.csv", [_table_row(c.name, agg) for c, agg in scored])
    report = {
        "seed": args.seed,
        "budget": args.budget,
        "folds": args.folds,
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "split_mode": args.split_mode,
        "results": [{"name": c.name, "config": c.to_json(), "aggregate": agg} for c, agg in scored],
    }
    write_text(out / "grid_report.json", json.dumps(report, indent=2) + "\n")
    log.info("grid: ranked %d configs into %s", len(scored), out / "grid.csv")
    return 0


def _cmd_evaluate(args) -> int:
    config, weights = _load_model(args.checkpoint)
    graphs = _load_dataset(args.manifest)
    with _running(args.checkpoint):
        body, _ = evaluate(config, weights, graphs)
    payload = {
        "checkpoint": path_text(args.checkpoint),
        "model": config.name,
        "num_graphs": len(graphs),
        "metrics": body,
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_text(args.out, json.dumps(payload, indent=2) + "\n")
    log.info("evaluate %s: accuracy %.4f", config.name, body["accuracy"])
    return 0


def _cmd_predict(args) -> int:
    config, weights = _load_model(args.checkpoint)
    # predict names no circuit, so any file name reads
    with reading(args.circuit, FeaturizeError, fields=False):
        graph = featurize_circuit(parse_qasm(read_text(args.circuit)))
    with _running(args.checkpoint):
        probs = predict_proba(config, weights, [graph])[0]
    cls = int(probs.argmax())
    print(f"class={cls} p0={fmt_float(probs[0])} p1={fmt_float(probs[1])}")
    return 0


# --- parser -----------------------------------------------------------------------


def _add_train_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="base RNG seed")
    sub.add_argument("--epochs", type=int, default=50, help="training epochs per fold")
    sub.add_argument("--folds", type=int, default=5, help="number of folds / splits")
    sub.add_argument("--batch-size", type=int, default=32, help="minibatch size")
    sub.add_argument(
        "--split-mode",
        choices=("cv", "shuffle"),
        default="cv",
        help="k-fold partition or repeated stratified draws",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qtp", description="Circuit-to-hardware match prediction pipeline.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("featurize", parents=[], help="encode circuits as graph files")
    sub.add_argument("circuits", nargs="+", help="QASM files or directories")
    sub.add_argument("--out", help="output directory (default: next to each input)")
    sub.set_defaults(handler=_cmd_featurize)

    sub = subs.add_parser("label", help="compile, score and label a circuit directory")
    sub.add_argument("--circuits", required=True, help="directory of .qasm files")
    sub.add_argument(
        "--profiles",
        nargs="+",
        default=list(bundled_profile_names()),
        help="profile JSON paths or bundled profile names",
    )
    sub.add_argument("--out", required=True, help="manifest output path")
    sub.add_argument("--precompiled-dir", help="directory of precompiled circuit variants")
    sub.set_defaults(handler=_cmd_label)

    sub = subs.add_parser("gen-corpus", help="generate a synthetic circuit corpus")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--n", type=int, required=True, help="number of circuits")
    sub.add_argument("--seed", type=int, default=0, help="corpus RNG seed")
    sub.add_argument("--qubits", type=int, nargs=2, default=(2, 27), metavar=("LO", "HI"))
    sub.add_argument("--depth", type=int, nargs=2, default=(3, 32), metavar=("LO", "HI"))
    sub.add_argument("--mix", help="family weights, e.g. ghz=0.2,layered=0.3,random=0.5")
    sub.set_defaults(handler=_cmd_gen_corpus)

    sub = subs.add_parser("stats", help="summarize a manifest into CSV tables")
    sub.add_argument("--manifest", required=True)
    sub.add_argument("--out", required=True, help="output directory")
    sub.set_defaults(handler=_cmd_stats)

    sub = subs.add_parser("train", help="train one model config over stratified folds")
    sub.add_argument("--manifest", required=True)
    sub.add_argument("--config", required=True, help="model config JSON (path or literal)")
    sub.add_argument("--out", required=True, help="output directory")
    _add_train_flags(sub)
    sub.set_defaults(handler=_cmd_train)

    sub = subs.add_parser("grid", help="train the hyper-parameter grid and rank configs")
    sub.add_argument("--manifest", required=True)
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--budget", type=int, help="sample this many grid configs")
    sub.add_argument("--jobs", type=int, default=1, help="parallel training processes")
    _add_train_flags(sub)
    sub.set_defaults(handler=_cmd_grid)

    sub = subs.add_parser("evaluate", help="score a checkpoint against a labeled manifest")
    sub.add_argument("--checkpoint", required=True)
    sub.add_argument("--manifest", required=True)
    sub.add_argument("--out", default="evaluation.json", help="metrics JSON path")
    sub.set_defaults(handler=_cmd_evaluate)

    sub = subs.add_parser("predict", help="predict the better platform for one circuit")
    sub.add_argument("circuit", help="QASM file")
    sub.add_argument("--checkpoint", required=True)
    sub.set_defaults(handler=_cmd_predict)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("QTP_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DataError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            exc = f"{path_text(exc.filename)}: {exc.strerror}"
        print(f"qtp {args.command}: {exc}", file=sys.stderr)
        return 2
    except Exception:
        print(f"qtp {args.command}: internal error", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
