"""The benchmark's tracer must find every package function it wraps, and see it run.

bench/spans.py patches qtp functions by module attribute.  Deleting or
renaming one of them breaks `bench/run.py --trace 1`, so this guard builds
the tracer's hook list the same way the benchmark does.  A hook on a name
that the package no longer calls through would report zero time instead,
so the model layers' hooks are also run under a short training.
"""

from pathlib import Path

from qtp import training
from qtp.corpus import gen_corpus
from qtp.dag import featurize_circuit
from qtp.devices import bundled_profile_names
from qtp.model import ModelConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    targets = spans.Tracer(list(bundled_profile_names())).targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in targets if not hasattr(owner, attr)]
    assert not missing, missing


def test_model_layer_hooks_record_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    graphs = [featurize_circuit(c, label=i % 2) for i, c in enumerate(gen_corpus(8, seed=3))]
    tracer = spans.Tracer(list(bundled_profile_names()))
    with spans.patched(tracer.targets()):
        training.train(ModelConfig("gat", 4, 1, (8,), heads=2), graphs, k=2, epochs=1,
                       batch_size=4)
    metrics = tracer.layer_metrics()
    idle = [f"model.{layer}.{kind}" for layer in spans.MODEL_LAYERS for kind in ("fwd_s", "bwd_s")
            if not metrics[f"model.{layer}.{kind}"][0] > 0]
    assert not idle, idle
