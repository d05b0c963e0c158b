"""The benchmark's tracer must find every package function it wraps.

bench/spans.py patches qtp functions by module attribute.  Deleting or
renaming one of them breaks `bench/run.py --trace 1`, so this guard builds
the tracer's hook list the same way the benchmark does.
"""

from pathlib import Path

from qtp.devices import bundled_profile_names

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    targets = spans.Tracer(list(bundled_profile_names())).targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in targets if not hasattr(owner, attr)]
    assert not missing, missing
