"""Quick self-test of the benchmark.

Usage: python3 perfbench/selftest.py

Runs shrunken versions of the three workloads end to end, with and without
tracing, and checks that every metric named in BENCHMARK.json is printed
with its unit, that no operation fails, that the seed changes the corpus and
discriminate inputs (and only the seed does), and that the benchmark refuses
to run without the program's sources.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, WORKLOADS

META_KEYS = {"commit", "src_sha256", "python", "platform", "nproc", "seed"}


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def run(cwd: Path, workload: str, seed: int, trace: int):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check_metrics(spec: dict) -> None:
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, 1, trace)
            expect(proc.returncode == 0, f"{workload} trace={trace} exits 0")
            *_, info, last = proc.stdout.strip().splitlines()
            info, result = json.loads(info), json.loads(last)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} trace={trace} result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1 and info["failed_frac"] == 0,
                   f"{workload} trace={trace} no failed operation")
            expect(META_KEYS <= set(info["meta"]), f"{workload} run metadata")
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{workload} trace={trace} prints every "
                                  f"{group} metric with its unit")
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   f"{workload} trace={trace} values are numbers")


def inputs_digest(workload: str, seed: int) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--quick", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)["inputs_sha256"]


def check_seeds() -> None:
    for workload in ("corpus", "discriminate"):
        expect(inputs_digest(workload, 1) == inputs_digest(workload, 1),
               f"{workload}: the same seed gives the same inputs")
        expect(inputs_digest(workload, 1) != inputs_digest(workload, 2),
               f"{workload}: another seed gives other inputs")


def check_without_sources() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, "corpus", 1, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without the program's sources: nonzero exit, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_seeds()
    check_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
