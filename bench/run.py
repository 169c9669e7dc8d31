"""Benchmark of the ``macp`` command line, driven in-process.

Run from anywhere; paths resolve against the repository root:

    python3 bench/run.py --workload paper-sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --all --seed 1 --second-seed

One caller issues one ``macp.cli.main(argv)`` command at a time (a closed
loop, one client, one thread).  A run sets the workload's inputs up from
the seed, repeats whole passes of the workload while one more pass still
fits in ``--seconds`` of wall time, and checks every output.  Times are
CPU seconds of this process, scaled by a machine-speed probe (``calibrate``)
run between passes; see METRICS.md, "Noise", for why.  With
``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` one untraced and one traced pass give the per-layer metrics.
The line before it records the machine, the deterministic counts and the
result-drift counter.  ``--all`` runs every workload in its own process
and prints every metric by name with its unit.  Workloads, metric names
and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
REFERENCE = Path(__file__).resolve().parent / "reference_digests.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
# Held out: never use this seed while writing or tuning a change.
SECOND_SEED = 907_141
CHILD_TIMEOUT = 900
# Every time the benchmark reports is CPU time of its own process: the loop
# runs on one thread, so time spent descheduled drops out.
CLOCK = time.process_time
CAL_REPEATS = 9
# About the CPU seconds one run of ``_probe`` takes on the machine in
# METRICS.md; end-to-end times are scaled to a machine where it takes this
# long.
CAL_NOMINAL = 0.02
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.process_time(); import macp; print(time.process_time() - t)"
)


def import_macp():
    sys.path.insert(0, str(SRC))
    try:
        import macp
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import macp from {SRC}: {exc}")
    if Path(macp.__file__).resolve().parent != SRC / "macp":
        raise SystemExit(f"bench: imported macp from {macp.__file__}, not from {SRC}")
    return macp


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "commit": git_commit(),
    }


def declared() -> tuple[list[str], dict, dict]:
    """Workload names, end-to-end and per-layer metric units from BENCHMARK.json."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if set(names) != set(workloads.WORKLOADS):
        raise SystemExit(f"bench: BENCHMARK.json lists workloads {names}, "
                         f"workloads.py defines {sorted(workloads.WORKLOADS)}")
    return (names, {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def import_seconds() -> float:
    """CPU time to import macp in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


def _probe(rows: np.ndarray) -> None:
    """A fixed mix of interpreter loops, small numpy calls and Poisson draws."""
    total = 0
    for i in range(160_000):
        total += i * i
    for _ in range(240):
        (rows * 1.0001).sum(axis=1).argmin()
    np.random.default_rng(0).poisson(0.5, size=(128, 1500))


def calibrate() -> float:
    """Median CPU seconds of ``_probe``, which runs no macp code.

    On a shared machine the CPU time of fixed work moves with what other
    tenants run on the same cores; dividing by this tracks that.
    """
    rows = np.random.default_rng(0).random((64, 100))
    times = []
    for _ in range(CAL_REPEATS):
        t0 = CLOCK()
        _probe(rows)
        times.append(CLOCK() - t0)
    return statistics.median(times)


@dataclass
class PassResult:
    cpu: float = 0.0
    wall: float = 0.0
    times: dict[str, float] = field(default_factory=dict)  # CPU seconds per op group
    rate: float = 0.0  # work units per CPU second of the ops that do them
    digests: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def run_pass(cli, ops, tracer=None) -> PassResult:
    """Run ``ops`` back to back, timing each in CPU seconds; check the outputs afterwards.

    ``cli.main`` is looked up per command, so a traced pass goes through the
    wrapper that ``tracer`` installs there.
    """
    import workloads

    result = PassResult()
    errors: dict[int, str] = {}
    elapsed = []
    sink = io.StringIO()
    if tracer is not None:
        tracer.install()
    wall = time.perf_counter()
    try:
        for k, op in enumerate(ops):
            t0 = CLOCK()
            try:
                with contextlib.redirect_stdout(sink):
                    code = cli.main(op.argv)
                if code != 0:
                    errors[k] = f"exit code {code}"
            except Exception as exc:  # a failed command is counted, not fatal
                errors[k] = f"{type(exc).__name__}: {exc}"
            elapsed.append(CLOCK() - t0)
            sink.seek(0)
            sink.truncate()
        result.wall = time.perf_counter() - wall
    finally:
        if tracer is not None:
            tracer.uninstall()

    work = busy = 0.0
    hashes: dict[str, list[str]] = {}
    for k, op in enumerate(ops):
        result.cpu += elapsed[k]
        result.times[op.group] = result.times.get(op.group, 0.0) + elapsed[k]
        if op.work:
            work += op.work
            busy += elapsed[k]
        if k not in errors and op.check is not None:
            try:
                op.check()
            except Exception as exc:
                errors[k] = f"{type(exc).__name__}: {exc}"
        hashes.setdefault(op.group, []).extend(
            workloads.digest(p.read_bytes()) if p.is_file() else "missing" for p in op.outputs)
    result.rate = work / busy if busy else 0.0
    result.digests = {g: workloads.digest(" ".join(h).encode()) for g, h in hashes.items() if h}
    result.attempted = len(ops)
    result.failures = [f"{ops[k].group}: {msg}" for k, msg in sorted(errors.items())]
    return result


def input_digest(work: Path) -> str:
    import workloads

    blob = b"".join(p.name.encode() + p.read_bytes() for p in sorted(work.iterdir()))
    return workloads.digest(blob)


def drift(workload: str, seed: int, digests: dict) -> tuple[int, int]:
    """(changed, checked): output groups that differ from the recorded reference."""
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    recorded = reference.get(workload, {}).get(str(seed), {})
    checked = [g for g in digests if g in recorded]
    return sum(digests[g] != recorded[g] for g in checked), len(checked)


def record_reference(workload: str, seed: int, digests: dict) -> None:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    reference.setdefault(workload, {})[str(seed)] = digests
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def run_workload(args) -> int:
    macp = import_macp()
    import workloads
    import macp.cli

    names, end_to_end, per_layer = declared()
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload not in names:
            raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                             f"choose from {', '.join(names)}")
        wl = workloads.WORKLOADS[args.workload](work, args.seed)
        failures: list[str] = []
        attempted = 0
        repeats = SETUP_REPEATS if not (args.trace or args.record_reference) else 1
        setup_times, inputs = [], set()
        cal_setup = calibrate()
        for _ in range(repeats):
            t0 = CLOCK()
            with contextlib.redirect_stdout(io.StringIO()):
                wl.setup(macp.cli.main)
            setup_times.append(CLOCK() - t0)
            inputs.add(input_digest(work))
            attempted += 1
        if len(inputs) != 1:
            failures.append("setup: the same seed gave different inputs")
        try:
            wl.check_setup()
        except Exception as exc:
            failures.append(f"setup: {type(exc).__name__}: {exc}")
        setup_cpu = statistics.median(setup_times)
        if not args.trace:
            setup_cpu += statistics.median(import_seconds() for _ in range(SETUP_REPEATS))
        ops = wl.ops()

        passes: list[PassResult] = []
        probes = None
        layer = {}
        start = time.perf_counter()
        if args.trace:
            import spans

            passes.append(run_pass(macp.cli, ops))
            tracer = spans.Tracer()
            passes.append(run_pass(macp.cli, ops, tracer))
            probes = run_pass(macp.cli, wl.probe_ops()) if wl.probe_ops() else None
            layer = spans.layer_metrics(tracer.spans, passes[1].cpu)
            layer["trace.cpu_s"] = passes[1].cpu
            layer["trace.untraced_cpu_s"] = passes[0].cpu
            layer["trace.overhead_s"] = passes[1].cpu - passes[0].cpu
            layer["sim.trace_write.s"] = (
                passes[0].times["simulate multicast"] - probes.times["simulate multicast untraced"]
                if probes is not None else 0.0)
        else:
            # Scale each pass by the mean probe time before and after it.
            # Start a pass only if one more as long as the last still fits
            # in the run's wall time.
            cals = [calibrate()]
            while True:
                passes.append(run_pass(macp.cli, ops))
                cals.append(calibrate())
                elapsed = time.perf_counter() - start
                if args.record_reference or elapsed + passes[-1].wall > args.seconds:
                    break
        measured = time.perf_counter() - start

        for p in passes + ([probes] if probes else []):
            attempted += p.attempted
            failures += p.failures
        for p in passes[1:]:
            changed = [g for g in p.digests if p.digests[g] != passes[0].digests.get(g)]
            failures += [f"{g}: output differs between passes" for g in changed]
        digests = passes[0].digests
        if args.record_reference:
            record_reference(args.workload, args.seed, digests)
        changed, checked = drift(args.workload, args.seed, digests)
        counts = wl.counts()

        info = {
            "machine": machine(args.seed),
            "workload": args.workload,
            "ops_unit": wl.unit,
            "passes": len(passes),
            "measured_s": measured,
            "pass_wall_s": statistics.median(p.wall for p in passes),
            "group_seconds": {g: statistics.median(p.times[g] for p in passes)
                              for g in passes[0].times},
            "counts": counts,
            "error_rate": len(failures) / attempted,
            "results_changed": changed,
            "results_checked": checked,
        }
        if args.trace:
            info["tracing_overhead_s"] = layer["trace.overhead_s"]
            values = dict.fromkeys(per_layer, 0.0)
            values.update(layer)
            values["scheme_order_violations"] = counts.get("scheme_order_violations", 0)
            values["results_changed"] = changed
            values["results_checked"] = checked
            units = per_layer
        else:
            scales = [2 * CAL_NOMINAL / (a + b) for a, b in zip(cals, cals[1:])]
            info["pass_cpu_s"] = [p.cpu for p in passes]
            info["calibration_s"] = cals
            values = {
                "pass_s": statistics.median(p.cpu * k for p, k in zip(passes, scales)),
                "ops_per_s": statistics.median(p.rate / k for p, k in zip(passes, scales)),
                "setup_s": setup_cpu * 2 * CAL_NOMINAL / (cal_setup + cals[0]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = end_to_end
        if set(values) != set(units):
            raise SystemExit(f"bench: metrics {sorted(set(values) ^ set(units))} "
                             "disagree with BENCHMARK.json")
        for failure in failures[:20]:
            print(f"bench: FAILED {failure}", file=sys.stderr)
        print(json.dumps(info, sort_keys=True))
        print(json.dumps({
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Run every workload in its own process and print each metric with its unit."""
    import_macp()
    names, _, _ = declared()

    seeds = [args.seed] + ([SECOND_SEED] if args.second_seed else [])
    print(json.dumps({"machine": machine(args.seed), "seeds": seeds}, sort_keys=True))
    ok = True
    for seed in seeds:
        for name in names:
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT)
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"{name:13} seed {seed}: exited {done.returncode}")
                ok = False
                continue
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            ok &= result["correct"]
            print(f"{name:13} seed {seed}: correct={result['correct']} "
                  f"error_rate={info['error_rate']:g} ({result['failed']}/{result['attempted']}) "
                  f"passes={info['passes']}; ops_per_s counts {info['ops_unit']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:42} {m['value']:>16.6g} {m['unit']}")
            for key, value in sorted(info["counts"].items()):
                print(f"  {key:42} {value:>16} count")
            print(f"  {'results_changed':42} {info['results_changed']:>16} "
                  f"of {info['results_checked']} recorded output groups")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", help="a workload named in BENCHMARK.json")
    which.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--second-seed", action="store_true",
                        help=f"with --all, also run every workload on held-out seed {SECOND_SEED}")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's output digests as the drift reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # One CPU for the run, its probes and its import subprocesses, so the
    # machine-speed probe measures the core the workload runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
