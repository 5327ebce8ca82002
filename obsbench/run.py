"""Benchmark of obsmhe's three computations: certify, pmhe and audit.

    python3 obsbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src, never from an installed copy. One process, one thread.

--trace 0 times whole rounds of the workload's operations until
--seconds have passed and reports the end-to-end metrics: setup_s,
ops_per_s, op_p50_s and peak_rss_mb. --trace 1 runs one round untraced
and the same round traced, checks that both give byte-identical outputs,
and reports the per-layer metrics and trace.overhead_s. Either way every
output is checked against closed forms, and the last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Run records, span files and CLI artifacts go under ./.obsbench/.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
RUNS = ROOT / ".obsbench"
# Set-ups timed before each round. Spreading them over the run makes their
# median follow the machine's speed over the whole run, not one moment.
SETUPS_PER_ROUND = 5
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def _program_modules() -> list[str]:
    return [m for m in sys.modules if m == "obsmhe" or m.startswith("obsmhe.")]


def time_setup(workload: str, seed: int, workdir: Path) -> float:
    """Time one set-up: a fresh import of obsmhe plus building round 0.

    The modules imported here are dropped afterwards, so the run keeps
    using the program it imported first.
    """
    saved = {m: sys.modules.pop(m) for m in _program_modules()}
    try:
        start = time.perf_counter()
        importlib.import_module("obsmhe")
        workloads.WORKLOADS[workload](seed, 0, workdir)
        return time.perf_counter() - start
    finally:
        for m in _program_modules():
            del sys.modules[m]
        sys.modules.update(saved)


def run_round(program, rnd: workloads.Round):
    """Run every op of a round; returns (results, latencies, failures)."""
    results, latencies, failures = [], [], []
    for op in rnd.ops:
        start = time.perf_counter()
        try:
            result = op.call()
        except (workloads.OpFailed, program.ObsMheError) as exc:
            result = None
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - start)
        results.append(result)
    return results, latencies, failures


def fingerprint(result) -> bytes:
    """Bytes that differ whenever two results of one op differ in any bit."""
    if isinstance(result, workloads.CliRun):
        return b"".join(p.name.encode() + b"\0" + p.read_bytes()
                        for p in sorted(result.out.iterdir()))

    def canon(x):
        if dataclasses.is_dataclass(x):
            return {f.name: canon(getattr(x, f.name)) for f in dataclasses.fields(x)}
        if isinstance(x, np.ndarray):
            return canon(x.tolist())
        if isinstance(x, (list, tuple)):
            return [canon(v) for v in x]
        if isinstance(x, float):
            return x.hex()
        return repr(x)

    return json.dumps(canon(result)).encode()


@dataclasses.dataclass
class Outcome:
    program: object
    attempted: int
    failures: list[str]
    problems: list[str]
    metrics: dict[str, tuple[float, str]]
    record: dict
    spans: list | None = None
    plain: list | None = None     # traced run only: untraced results
    traced: list | None = None    # and traced results of the same round


def timed_run(workload: str, seed: int, seconds: float, workdir: Path) -> Outcome:
    program = importlib.import_module("obsmhe")
    make = workloads.WORKLOADS[workload]
    setup_s, latencies, failures, done = [], [], [], []
    phase_s = round_s = 0.0
    # Whole rounds only; stop once another round would end further past
    # `seconds` than stopping now falls short of it.
    while not done or phase_s + round_s / 2 < seconds:
        setup_s += [time_setup(workload, seed, workdir / "setup")
                    for _ in range(SETUPS_PER_ROUND)]
        start = time.perf_counter()
        rnd = make(seed, len(done), workdir)
        results, lat, fail = run_round(program, rnd)
        round_s = time.perf_counter() - start
        phase_s += round_s
        latencies += lat
        failures += fail
        done.append((rnd, results))
    problems = [p for rnd, results in done for p in rnd.check(results)]
    values = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": len(latencies) / phase_s,
        "op_p50_s": statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    record = {"rounds": len(done), "latencies_s": latencies, "phase_s": phase_s,
              "setup_samples_s": setup_s}
    return Outcome(program, len(latencies), failures, problems, metrics, record)


def traced_run(workload: str, seed: int, workdir: Path) -> Outcome:
    program = importlib.import_module("obsmhe")
    first = workloads.WORKLOADS[workload](seed, 0, workdir / "plain")
    plain, plain_lat, failures = run_round(program, first)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rnd = workloads.WORKLOADS[workload](seed, 0, workdir / "traced")
        traced, traced_lat, traced_failures = run_round(program, rnd)
    finally:
        tracer.uninstall()
    problems = first.check(plain) + rnd.check(traced)
    if failures != traced_failures:
        problems.append(f"traced failures {traced_failures} differ from {failures}")
    for op, a, b in zip(rnd.ops, plain, traced):
        if a is not None and b is not None and fingerprint(a) != fingerprint(b):
            problems.append(f"{op.label}: traced output differs from untraced")
    layer = tracer.metrics()
    layer["trace.overhead_s"] = sum(traced_lat) - sum(plain_lat)
    metrics = {name: (layer[name], unit) for name, (unit, _) in tracing.PER_LAYER.items()}
    record = {"plain_s": sum(plain_lat), "traced_s": sum(traced_lat),
              "n_spans": len(tracer.spans)}
    return Outcome(program, len(rnd.ops), failures, problems, metrics, record,
                   tracer.spans, plain, traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "obsmhe" / "__init__.py").is_file():
        print(f"obsbench: no program source at {SRC}; run from the root of "
              "an obsmhe checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS / "work" / tag
    shutil.rmtree(workdir, ignore_errors=True)
    out = (traced_run(args.workload, args.seed, workdir) if args.trace else
           timed_run(args.workload, args.seed, args.seconds, workdir))

    correct = not out.problems
    result = {"correct": correct, "attempted": out.attempted, "failed": len(out.failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()}}
    (RUNS / "runs").mkdir(parents=True, exist_ok=True)
    (RUNS / "runs" / f"{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "backend": out.program.BACKEND, "failures": out.failures,
         "problems": out.problems, **out.record, **result}, indent=1), encoding="utf-8")
    if out.spans is not None:
        (RUNS / "trace").mkdir(parents=True, exist_ok=True)
        with open(RUNS / "trace" / f"{tag}.jsonl", "w", encoding="utf-8") as fh:
            for span in out.spans:
                fh.write(json.dumps(span) + "\n")
    if correct:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in out.failures + out.problems:
        print(f"obsbench: {line}", file=sys.stderr)
    print(f"# obsbench {args.workload} seed={args.seed} backend={out.program.BACKEND} "
          f"attempted={out.attempted} failed={len(out.failures)} "
          f"correct={str(correct).lower()}")
    for name, (value, unit) in out.metrics.items():
        print(f"#   {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
