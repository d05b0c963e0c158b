#!/usr/bin/env python3
"""Quick self-test of the benchmark itself, on 40-circuit corpora.

    python3 bench/selftest.py

For every workload in BENCHMARK.json it checks that:
  1. the metric names and units of an untraced and a traced run match
     BENCHMARK.json's end_to_end and per_layer lists exactly;
  2. every count metric, and the digest of the outputs, repeats exactly
     across two traced runs of the same seed;
  3. a different seed changes the counts.
It exits 0 when all of these hold and 1 otherwise; it takes a minute or two.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SIZE = 40
COUNT_SUFFIXES = (".calls", ".ops_out", ".ops_added", ".nodes", ".bytes", ".skipped")


def run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    """(result object, outputs digest) of one benchmark run."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", str(SIZE)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("outputs.sha256 "))
    return json.loads(lines[-1]), digest


def counts(result: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith(COUNT_SUFFIXES)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        plain, _ = run(workload, 1, 0)
        first, first_digest = run(workload, 1, 1)
        again, again_digest = run(workload, 1, 1)
        other, _ = run(workload, 2, 1)
        for trace, result in ((0, plain), (1, first)):
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace].items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(expected[trace].items()))
                problems.append(f"{workload} trace={trace}: missing {missing}, unexpected {extra}")
        base = counts(first)
        unstable = sorted(n for n, v in counts(again).items() if base[n] != v)
        if unstable:
            problems.append(f"{workload}: counts differ between runs of one seed: {unstable}")
        if first_digest != again_digest:
            problems.append(f"{workload}: outputs differ between runs of one seed")
        if counts(other) == base:
            problems.append(f"{workload}: another seed left every count unchanged")
        print(f"{workload}: {len(base)} counts checked, outputs {first_digest[:12]}", flush=True)
    for problem in problems:
        print(f"FAILED {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
