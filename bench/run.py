#!/usr/bin/env python3
"""volhmm benchmark: one workload per process, steady end-to-end metrics, output checks.

    python3 bench/run.py --workload cir_fit --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run from the repository root (the program is imported from ``src/``). The run
makes the workload's inputs from ``--seed`` (set-up), then repeats identical
rounds of the workload's operations while ``--seconds`` allows, at least one,
then checks the outputs. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``:

- ``--trace 0``: ``setup_s``, ``wall_s``, ``cpu_s``, ``peak_rss_mb``. Times are
  medians over the rounds (set-up: over repeated set-ups); no wrappers run.
- ``--trace 1``: per-layer metrics per round, from spans recorded around the
  program's public functions, after one untraced round that gives the tracing
  overhead. The spans are written to ``bench/out/``.

``--workload all`` runs every workload, each in its own process, and prints
all metrics prefixed by the workload name. Exit code 2 means the program or
an argument could not be used; no result is printed then.
"""

import os

# One thread everywhere: the workloads are single-threaded and the machine is shared.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOAD_NAMES = ("cir_fit", "llr", "diagnostics")
SETUP_REPEATS = 5
UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class UsageError(Exception):
    pass


def import_program():
    if not (SRC / "volhmm" / "__init__.py").is_file():
        raise UsageError(f"no volhmm sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import volhmm
    import volhmm.cli  # noqa: F401  (not imported by the package itself)

    return volhmm


def program_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def time_import() -> float:
    """Interpreter start-up plus ``import volhmm.cli`` in a fresh process."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import volhmm.cli"], env=program_env(), cwd=ROOT,
                   check=True)
    return perf_counter() - start


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_rounds(workload, workdir, seconds, first_index=0):
    """Identical rounds while the next one is expected to end within ``seconds``; at least one."""
    rounds = []
    begin = perf_counter()
    while True:
        out = workdir / f"round{first_index + len(rounds)}"
        out.mkdir()
        wall0, cpu0 = perf_counter(), process_time()
        outcome = workload.run_round(out)
        rounds.append((perf_counter() - wall0, process_time() - cpu0, outcome, out))
        elapsed = perf_counter() - begin
        expected = statistics.median(r[0] for r in rounds)
        if elapsed + expected > seconds:
            return rounds


def run_one(name, seed, seconds, trace) -> dict:
    volhmm = import_program()
    import workloads

    workdir = OUT / f"{name}-seed{seed}{'-trace' if trace else ''}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](volhmm, workdir, seed)

    import_s = statistics.median(time_import() for _ in range(SETUP_REPEATS))
    make_s = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload.make_inputs()
        make_s.append(perf_counter() - start)
    setup_s = import_s + statistics.median(make_s)

    if trace:
        import tracing

        untraced = run_rounds(workload, workdir, 0.0)
        tracer = tracing.Tracer(volhmm)
        tracer.install()
        try:
            traced = run_rounds(workload, workdir, seconds - untraced[0][0], first_index=1)
        finally:
            tracer.uninstall()
        rounds = untraced + traced
    else:
        rounds = run_rounds(workload, workdir, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    hashes = [r[2].hashes() for r in rounds]
    for i, h in enumerate(hashes[1:], start=1):
        if h != hashes[0]:
            failures.append(f"round {i} wrote different deterministic outputs than round 0")
    failures += workload.check(rounds[0][3], rounds[0][2])
    for r in rounds[1:]:
        shutil.rmtree(r[3])
    (OUT / f"{workdir.name}.hashes.json").write_text(
        json.dumps({"workload": name, "seed": seed, "hashes": hashes[0]}, indent=2) + "\n",
        encoding="ascii",
    )
    print(f"{name}: {len(rounds)} round(s); deterministic outputs sha256 {json.dumps(hashes[0])}")
    for f in failures:
        print(f"CHECK FAILED {name}: {f}", file=sys.stderr)

    if trace:
        n = len(traced)
        values = tracing.layer_metrics(tracer, n)
        values["trace.overhead_s"] = statistics.median(r[0] for r in traced) - untraced[0][0]
        tracer.write(OUT / f"{workdir.name}.spans.json.gz", {
            "workload": name, "seed": seed, "traced_rounds": n,
            "untraced_wall_s": untraced[0][0], "traced_wall_s": [r[0] for r in traced],
        })
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r[0] for r in rounds),
            "cpu_s": statistics.median(r[1] for r in rounds),
            "peak_rss_mb": peak_rss_mb,
        }
    return {
        "correct": not failures,
        "attempted": sum(r[2].attempted for r in rounds),
        "failed": sum(r[2].failed for r in rounds),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
    }


def run_all(seed, seconds, trace) -> dict:
    """Every workload in its own fresh process; metrics prefixed by the workload name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise UsageError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    for key, metric in total["metrics"].items():
        print(f"  {key:48s} {metric['value']:.6g} {metric['unit']}")
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = run_one(args.workload, args.seed, args.seconds, args.trace)
    except UsageError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
