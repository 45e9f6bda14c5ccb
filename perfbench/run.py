"""Benchmark of girardlab's three engines, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's girardlab commands in this process through
`girardlab.cli.main`, checks every output against an answer computed
apart from the program (see oracle.py), and prints one JSON line:
end-to-end metrics with --trace 0, per-layer metrics from a traced run
with --trace 1.  The large phase runs once; the small phase repeats
whole rounds until it has run for S seconds (at least two rounds), or
exactly one round when traced, so that traced counts repeat exactly.
Untraced times are reported at a reference machine speed (speed.py).
Result and trace files are written under perfbench/out/; README.md has
the details.
"""
import os

# One BLAS thread: on two cores OpenBLAS's default threading makes the
# SVD-bound workload slower and far less steady (see README.md).  Set
# before numpy is first imported, here and in the set-up probes.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("enum-sweep", "residuation-search", "big-tables", "rn-battery")
SETUP_PROBES = 15
MIN_SMALL_ROUNDS = 2


def import_girardlab():
    """girardlab.cli from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "girardlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no girardlab sources under {src}")
    sys.path.insert(0, str(src))
    import girardlab.cli

    if Path(girardlab.cli.__file__).resolve().parent != src / "girardlab":
        raise SystemExit(f"error: girardlab was imported from {girardlab.cli.__file__}")
    return girardlab.cli


def set_up(name: str, seed: int, workdir: Path, tiny: bool = False):
    """What every run does before its first command: import girardlab and
    build the workload's inputs.  Returns the CLI module, the workload and
    the two spans' (start, end) times."""
    t0 = time.perf_counter()
    cli = import_girardlab()
    t1 = time.perf_counter()
    import workloads

    workload = workloads.build(name, seed, ROOT, workdir, tiny)
    t2 = time.perf_counter()
    return cli, workload, (t0, t1), (t1, t2)


def setup_seconds(name: str, seed: int, sampler) -> list:
    """Fresh-interpreter set-up times as (wall, scaled) pairs.  Each probe
    is timed from just before it is spawned until it reports, on the
    shared monotonic clock, that its inputs are built; speed samples are
    taken just before and after it."""
    times = []
    for _ in range(SETUP_PROBES):
        for _ in range(3):
            sampler.sample()
        start, spawned = time.perf_counter(), time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), name, str(seed)],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
        wall = float(proc.stdout.split()[-1]) - spawned
        for _ in range(3):
            sampler.sample()
        times.append((wall, sampler.scaled(start, start + wall)))
    return times


@dataclass
class Outcome:
    argv: list
    start: float
    end: float
    failure: str = ""   # exception, wrong exit code or wrong output
    wrong: bool = False  # the output itself failed its check


def execute(cli, argv, enumerations, region=contextlib.nullcontext):
    """Run one command in-process; returns (exit code or exception, stdout,
    stderr, start, end), the verdict being in at `end`."""
    enumerations.clear()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), region():
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # argparse exits through SystemExit
            code = exc
        end = time.perf_counter()
    return code, out.getvalue(), err.getvalue(), start, end


def run_command(cli, command, enumerations, tracer) -> Outcome:
    from oracle import CheckFailed

    region = contextlib.nullcontext
    if tracer is not None:
        region = lambda: tracer.region("cli.main", command.argv[0])  # noqa: E731
    code, out, err, start, end = execute(cli, command.argv, enumerations, region)
    outcome = Outcome(command.argv, start, end)
    if code != 0:
        outcome.failure = f"exit {code!r}: {err.strip()[-200:]}"
    else:
        try:
            command.check(out, list(enumerations))
        except CheckFailed as exc:
            outcome.failure, outcome.wrong = f"wrong output: {exc}", True
    if outcome.failure:
        print(f"FAILED {' '.join(command.argv)[:120]}: {outcome.failure}", file=sys.stderr)
    return outcome


@contextlib.contextmanager
def captured_enumerations(cli):
    """Keep what the CLI's own enumerate_lattices returns, for the checks."""
    results, inner = [], cli.enumerate_lattices

    def capturing(*args, **kwargs):
        result = inner(*args, **kwargs)
        results.append(result)
        return result

    cli.enumerate_lattices = capturing
    try:
        yield results
    finally:
        cli.enumerate_lattices = inner


def run(name: str, seed: int, seconds: float, traced: bool, tiny: bool = False) -> dict:
    """One run; `tiny` shrinks the instances (the set-up probes excepted)
    for the self-test."""
    OUT.mkdir(exist_ok=True)
    sampler = probes = None
    if not traced:
        import speed

        sampler = speed.SpeedSampler()
        probes = setup_seconds(name, seed, sampler)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    try:
        cli, workload, import_span, inputs_span = set_up(name, seed, workdir, tiny)
        import spans

        with contextlib.ExitStack() as stack:
            tracer = None
            if traced:
                tracer = spans.Tracer()
                tracer.record("setup.import", *import_span)
                tracer.record("setup.inputs", *inputs_span)
                stack.callback(tracer.uninstall)
                tracer.install()
            else:
                stack.enter_context(sampler)
            enumerations = stack.enter_context(captured_enumerations(cli))
            large = [run_command(cli, c, enumerations, tracer) for c in workload.large]
            rounds = []
            phase_end = time.perf_counter() + seconds
            while True:
                rounds.append([run_command(cli, c, enumerations, tracer) for c in workload.small])
                if traced or len(rounds) >= MIN_SMALL_ROUNDS and time.perf_counter() >= phase_end:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = large + [o for r in rounds for o in r]
    result = {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(bool(o.failure) for o in outcomes),
    }
    detail = {"workload": name, "seed": seed, "trace": int(traced),
              "commands": [{"argv": o.argv[:3], "wall_s": o.end - o.start, "failure": o.failure}
                           for o in outcomes]}
    if traced:
        result["metrics"] = spans.layer_metrics(tracer.spans)
        tracer.write(OUT / f"{name}-seed{seed}.trace.json")
        detail["large_wall_s"] = sum(o.end - o.start for o in large)
        detail["small_wall_s"] = sum(o.end - o.start for o in rounds[0])
    else:
        def phase(commands):
            return sum(sampler.scaled(o.start, o.end) for o in commands)

        result["metrics"] = {
            "setup_s": {"value": statistics.median(p[1] for p in probes), "unit": "s"},
            "large_s": {"value": phase(large), "unit": "s"},
            "small_s": {"value": statistics.median(phase(r) for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        detail.update(setup_wall_s=[p[0] for p in probes], setup_scaled_s=[p[1] for p in probes],
                      large_wall_s=sum(o.end - o.start for o in large),
                      small_rounds_scaled_s=[phase(r) for r in rounds],
                      speed_samples=len(sampler.durations),
                      mean_kernel_s=statistics.fmean(sampler.durations))
    (OUT / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps({**result, **detail}, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="least duration of the small phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for this process and its set-up probes, so that the speed
    # samples are taken on the core that runs what they scale.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
