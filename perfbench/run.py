"""Benchmark of revccs: time to verdict per subcommand on seeded workloads.

Usage:
    python3 perfbench/run.py --workload {corpus,families,discriminate}
        --seed N --seconds S --trace {0,1} [--quick]

Run from anywhere; the program is the ``src`` directory beside ``perfbench``.
Each round runs the whole workload in a fresh interpreter (``worker.py``),
so the program's module caches start empty; rounds repeat until the next one
would end more than ``--seconds`` after the start.  A set-up-only
interpreter runs before each round, and more of them fill the time the last
round leaves, so that ``setup_s`` samples the whole run.  Load comes from
one process with one thread, in a closed loop: each operation starts when
the previous one has answered.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` rounds alternate between untraced and traced, and the last line
carries the per-layer metrics of the traced rounds together with the
tracing overhead (traced minus untraced time in operations).  The line
before the last is a report: run metadata, sample counts, the operation-time
tail, failed operations and the share they make.

Exits 2 when the program's sources are missing, 1 when a round crashes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "families", "discriminate")
KINDS = ("hhpb", "barbed", "forward", "discriminate")
MIN_SETUPS = 5            # set-up samples per run at least, besides a warm-up
DEADLINE_S = 165          # no round may end later than this after the start
TAIL_BEYOND = 10          # samples beyond the reported tail percentile
TAIL_MIN_OPS = 100        # fewer operation samples in a run give no tail


class RoundFailed(RuntimeError):
    pass


def run_worker(args, extra, deadline, stdin="") -> dict:
    """One fresh interpreter; its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RoundFailed("no time left for another round")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = str(args.seed % 2 ** 32)   # same seed, same set order
    cmd = [sys.executable, "-s", str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    if args.quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, input=stdin,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:   # run() has killed and reaped it
        raise RoundFailed(f"round overran the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise RoundFailed(f"worker exited {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise RoundFailed("worker printed no result") from exc


def run_rounds(args):
    """Rounds until the next would end after ``--seconds`` from the start,
    each after a set-up probe; then probes until ``--seconds`` is up.

    Every round checks its answers, except those identical to an answer
    the first round has already found correct.
    """
    start = time.monotonic()
    deadline = start + DEADLINE_S
    run_worker(args, ["--setup-only"], deadline)    # compiles the bytecode
    probes, rounds, durations = [], [], []
    verified = ""
    while True:
        probes.append(run_worker(args, ["--setup-only"], deadline))
        extra = ["--verified"] if rounds else []
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced:
            extra.append("--trace")
        began = time.monotonic()
        result = run_worker(args, extra, deadline, verified)
        if not rounds:
            failed = {f["op"] for f in result["failures"]}
            verified = json.dumps([None if i in failed else a
                                   for i, a in enumerate(result["answers"])])
        del result["answers"]
        durations.append(time.monotonic() - began)
        rounds.append({**result, "traced": traced})
        # the next round costs what the last two did: the first round's
        # checks drop out, and an untraced and a traced round both count
        next_s = max(durations[-2:])
        now = time.monotonic()
        complete = len(rounds) >= (2 if args.trace else 1)
        if now + next_s > deadline or (
                complete and now - start + next_s > args.seconds):
            break
    plain = sum(not r["traced"] for r in rounds)    # rounds giving a set-up sample
    while len(probes) + plain < MIN_SETUPS or (
            time.monotonic() - start < args.seconds):
        probes.append(run_worker(args, ["--setup-only"], deadline))
    return probes, rounds


def op_times(rounds) -> list[list]:
    """Each round's [kind, seconds] per operation; all rounds alike."""
    kinds = [k for k, _ in rounds[0]["ops"]]
    if any([k for k, _ in r["ops"]] != kinds for r in rounds):
        raise RoundFailed("rounds ran different operations")
    return [r["ops"] for r in rounds]


def tail_ms(times):
    """Operation time at the highest percentile with TAIL_BEYOND samples
    beyond it, or None when there are too few samples to have one."""
    times = sorted(times)
    n = len(times)
    if n < TAIL_MIN_OPS:
        return None
    return {"percentile": 100.0 * (n - TAIL_BEYOND) / n,
            "value": times[n - TAIL_BEYOND - 1] * 1000,
            "samples": n, "beyond": TAIL_BEYOND}


def per_round(rounds, kind=None) -> float:
    """Operation time per round, of one kind or of all, averaged over the
    rounds.  The machine's speed flips between states within a second, so
    a median of a few rounds jumps between them where the mean does not."""
    return statistics.fmean(sum(s for k, s in ops if kind in (None, k))
                            for ops in op_times(rounds))


def end_to_end(probes, plain) -> dict:
    med = statistics.median
    metrics = {f"{kind}_s": {"value": per_round(plain, kind), "unit": "s"}
               for kind in KINDS}
    metrics["op_p50_ms"] = {"value": med(s for ops in op_times(plain)
                                         for _, s in ops) * 1000, "unit": "ms"}
    metrics["peak_rss_mb"] = {"value": med(r["peak_rss_mb"] for r in plain),
                              "unit": "MB"}
    setups = [p["setup_s"] for p in probes] + [r["setup_s"] for r in plain]
    metrics["setup_s"] = {"value": med(setups), "unit": "s"}
    return metrics


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("ratio", "frac")):
        return "1"
    return "count"


def per_layer(plain, traced) -> dict:
    # counts can differ by one between rounds (some sets iterate in object
    # identity order); median_low keeps them whole
    values = {name: (statistics.median_low if unit_of(name) == "count"
                     else statistics.median)(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    base = per_round(plain)
    values["trace.overhead_s"] = per_round(traced) - base
    values["trace.overhead_frac"] = values["trace.overhead_s"] / base
    return {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}


def metadata(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "revccs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def report(args, probes, rounds) -> tuple[dict, dict]:
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    samples = [s for ops in op_times(plain) for _, s in ops]
    attempted = sum(len(r["ops"]) for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    info = {
        "meta": metadata(args),
        # median time of worker.machine_speed's loop, one sample per round
        "machine_speed_s": statistics.median(r["machine_speed_s"] for r in rounds),
        "samples": {
            "rounds_untraced": len(plain), "rounds_traced": len(traced),
            "ops_per_round": len(plain[0]["ops"]),
            "setup_s": len(probes) + len(plain),
            "op_p50_ms": f"median of {len(samples)} operation times, "
                         f"{len(plain)} untraced rounds",
            "per_subcommand_s": f"time per round, mean of {len(plain)} "
                                f"untraced rounds",
        },
        "op_tail_ms": tail_ms(samples),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "inputs_sha256": rounds[0]["inputs_sha256"],
    }
    metrics = per_layer(plain, traced) if args.trace else end_to_end(probes, plain)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return info, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="shrunken workloads, for the self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "revccs" / "__init__.py").is_file():
        print(f"error: no revccs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        info, result = report(args, *run_rounds(args))
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
