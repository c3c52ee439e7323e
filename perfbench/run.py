"""lissakit benchmark: one workload, run in-process through ``lissakit.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload spectral-fullbatch --seed 0 --seconds 30 --trace 0

A run runs one untimed warm-up pass of the workload's commands, then repeats
passes for about ``--seconds`` seconds (at least three).  Between passes it
times the reference job of ``calibration.py`` and starts two fresh
interpreters (``coldstart.py``) that time ``import lissakit.cli``.

With ``--trace 0`` it reports the end-to-end metrics:

* ``wall_s``: median seconds of one pass; for ``interpreter_bound`` workloads
  scaled to the reference interpreter speed (see ``calibration.py``);
* ``setup_s``: median cold import of ``lissakit.cli``, each sample scaled to
  the reference speed by the reference job run right after it in its child;
* ``peak_rss_mb``: peak resident memory of this process, read before the
  output checks run.

With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.PER_LAYER``.  Every command invocation counts
as attempted; it fails on a nonzero exit code, on outputs that differ from the
warm-up pass, on a failed output check (``checks.py``), or, when traced, on an
HVP count other than the nominal one (``workloads.nominal_hvps``).  The
failed share is the error rate.

The CLI runs with ``--threads 1`` and BLAS with as many threads as the
process may use.  The next-to-last stdout line is a JSON ``detail`` record
(environment, unscaled times with quartiles, error rate, check results, and
the output-hash comparison with ``reference_sha256.json``); the last line is
the result.
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
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
COLD_STARTS_PER_INTERLUDE = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Invocation:
    """One CLI command run: wall time, exit code, and output fingerprints."""

    command: str
    seconds: float
    code: int
    stdout: str
    outputs: dict  # output file (and "<stdout>") -> sha256
    counts: Counter | None = None  # traced passes: counter increments


class Runner:
    """Writes a workload's configs into ``work`` and runs its commands."""

    def __init__(self, workload, seed: int, work: Path):
        from lissakit import cli
        from lissakit.config import ExperimentConfig, sha256_hex

        self.cli, self.sha256_hex = cli, sha256_hex
        self.workload, self.seed, self.work = workload, seed, work
        self.configs = {}
        (work / "config").mkdir(parents=True, exist_ok=True)
        for command in workload.commands:
            (work / "config" / f"{command.name}.cfg").write_text(command.config)
            self.configs[command.name] = ExperimentConfig.from_text(command.config)

    def out_dir(self, command: str) -> Path:
        return self.work / "out" / command

    def argv(self, command: str) -> list[str]:
        return [
            command,
            "--config", str(self.work / "config" / f"{command}.cfg"),
            "--out", str(self.out_dir(command)),
            "--seed", str(self.seed),
            "--threads", "1",
        ]

    def run_command(self, command: str) -> Invocation:
        manifest = self.out_dir(command) / "manifest.txt"
        manifest.unlink(missing_ok=True)
        captured = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                code = self.cli.main(self.argv(command))
        except Exception:  # a traceback is the CLI's exit code 1
            traceback.print_exc()
            code = 1
        seconds = time.perf_counter() - start
        outputs = {"<stdout>": self.sha256_hex(captured.getvalue())}
        if manifest.exists():
            for line in manifest.read_text().splitlines():
                if line.startswith("output "):
                    _, name, _, _, sha = line.split()
                    outputs[name] = sha
        return Invocation(command, seconds, code, captured.getvalue(), outputs)

    def run_pass(self, tracer=None) -> list[Invocation]:
        results = []
        for command in self.workload.commands:
            before = Counter(tracer.counts) if tracer else None
            invocation = self.run_command(command.name)
            if tracer:
                invocation.counts = tracer.counts - before
            results.append(invocation)
        return results


def pass_seconds(invocations) -> float:
    return sum(inv.seconds for inv in invocations)


def keep_going(start: float, seconds: float, durations: list[float], minimum: int) -> bool:
    """Start another pass while fewer than ``minimum`` ran or the next one,
    predicted from the median so far, still ends within ``seconds``."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def median_quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "samples": values}


def cold_start(repeats: int) -> list[dict]:
    """Run coldstart.py in ``repeats`` fresh interpreters; their JSON records."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    records = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py")], env=env, cwd=ROOT,
            check=True, capture_output=True, text=True,
        )
        records.append(json.loads(proc.stdout))
    return records


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when not found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int, nproc: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cli_threads": 1,
        "seed": seed,
    }


def reference_hashes(workload: str, seed: int) -> dict | None:
    table = json.loads((HERE / "reference_sha256.json").read_text())
    return table.get(workload, {}).get(str(seed))


def check_outputs(runner: Runner, warmup: list[Invocation]):
    """Output-check problems and nominal (GNH, sampler) HVPs per command.

    Checks read the files on disk, which every pass rewrites; outputs that
    differ between passes are caught by ``failure_reasons`` instead.
    """
    import checks
    from workloads import nominal_hvps

    oracle = checks.Oracle(runner.seed)
    problems, nominal = {}, {}
    for inv in warmup:
        cfg = runner.configs[inv.command]
        needs_spectrum = inv.command == "lissa" and cfg.t_steps is None
        nominal[inv.command] = nominal_hvps(
            inv.command, cfg, oracle.lambda_max(cfg) if needs_spectrum else None
        )
        problems[inv.command] = []
        if inv.code == 0:
            try:
                problems[inv.command] = checks.CHECKS[inv.command](
                    cfg, runner.out_dir(inv.command), inv.stdout, oracle, nominal[inv.command]
                )
            except (OSError, ValueError, KeyError) as exc:  # missing or malformed output
                problems[inv.command] = [f"output check raised {exc!r}"]
    return problems, nominal


def failure_reasons(inv: Invocation, first_outputs: dict, problems: list[str], nominal) -> list[str]:
    """Why one command invocation failed; empty when it succeeded."""
    reasons = list(problems)
    if inv.code != 0:
        reasons.append(f"exit code {inv.code}")
    if inv.outputs != first_outputs:
        reasons.append("outputs differ from the warm-up pass")
    if inv.counts is not None:
        counted = (inv.counts["gnh.hvps"], inv.counts["lissa.sampler_hvps"])
        if counted != tuple(nominal):
            reasons.append(f"counted HVPs {counted} != nominal {tuple(nominal)}")
    return reasons


def run(workload_name: str, seed: int, seconds: int, trace: bool, nproc: int):
    """Measure one workload; returns (result, detail) dictionaries."""
    import tracing
    from calibration import REFERENCE_S, reference_job
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    work = ROOT / ".perfbench_work" / f"{workload_name}-{seed}-{os.getpid()}"
    try:
        calibration, setup, setup_calibration = [], [], []

        def interlude():  # host-speed and cold-import samples between passes
            start = time.perf_counter()
            calibration.append(reference_job())
            for record in cold_start(COLD_STARTS_PER_INTERLUDE):
                setup.append(record["import_s"])
                setup_calibration.append(record["calibration_s"])
            return time.perf_counter() - start

        interlude()
        runner = Runner(workload, seed, work)
        warmup = runner.run_pass()
        passes = [warmup]
        untraced, traced, layer_samples, rounds = [], [], [], []
        start = time.perf_counter()
        if not trace:
            while keep_going(start, seconds, rounds, MIN_PASSES):
                passes.append(runner.run_pass())
                untraced.append(pass_seconds(passes[-1]))
                rounds.append(untraced[-1] + interlude())
        else:
            while keep_going(start, seconds, [u + t for u, t in zip(untraced, traced)], 1):
                passes.append(runner.run_pass())
                untraced.append(pass_seconds(passes[-1]))
                tracer = tracing.Tracer()
                with tracing.instrumented(tracer):
                    passes.append(runner.run_pass(tracer))
                traced.append(pass_seconds(passes[-1]))
                layer_samples.append(tracing.layer_values(tracer))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems, nominal = check_outputs(runner, warmup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first_outputs = {inv.command: inv.outputs for inv in warmup}
    failures, attempted = [], 0
    for index, invocations in enumerate(passes):
        for inv in invocations:
            attempted += 1
            reasons = failure_reasons(inv, first_outputs[inv.command], problems[inv.command], nominal[inv.command])
            if reasons:
                failures.append(f"pass {index} {inv.command}: " + "; ".join(reasons))

    refs = reference_hashes(workload_name, seed)
    hashes = Counter()
    for inv in warmup:
        for name, sha in inv.outputs.items():
            if name == "<stdout>":
                continue
            ref = None if refs is None else refs.get(f"{inv.command}/{name}")
            hashes["unknown" if ref is None else "matched" if ref == sha else "mismatched"] += 1

    metrics = {}
    if trace:
        for name, unit, _ in tracing.PER_LAYER:
            if name == "trace.overhead_s":
                value = statistics.median(traced) - statistics.median(untraced)
            else:
                value = statistics.median(sample[name] for sample in layer_samples)
            metrics[name] = {"value": value, "unit": unit}
    else:
        # the import is interpreter-bound: scaled to the reference speed
        setup_scaled = [s * REFERENCE_S / c for s, c in zip(setup, setup_calibration)]
        wall_scale = REFERENCE_S / statistics.median(calibration) if workload.interpreter_bound else 1.0
        metrics = {
            "wall_s": {"value": statistics.median(untraced) * wall_scale, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    detail = {
        "workload": workload_name,
        "why": workload.why,
        "trace": int(trace),
        "environment": environment(seed, nproc),
        "raw_wall_s": median_quartiles(untraced),
        "wall_s_at_reference_speed": workload.interpreter_bound,
        "raw_traced_wall_s": median_quartiles(traced) if traced else None,
        "raw_setup_s": median_quartiles(setup),
        "calibration_s": median_quartiles(calibration),
        "setup_calibration_s": median_quartiles(setup_calibration),
        "peak_rss_mb": peak_rss_mb,
        "error_rate": len(failures) / attempted,
        "failures": failures,
        "check_problems": problems,
        "nominal_hvps": nominal,
        "output_sha256_vs_reference": dict(hashes),
        "blas_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "layer_targets": {name: target for name, _, target in tracing.PER_LAYER} if trace else None,
    }
    return result, detail


def prepare() -> int:
    """Pin BLAS threads to the usable CPUs and import lissakit from ``src``.

    Returns the CPU count; raises RuntimeError when the sources are missing.
    """
    if not (SRC / "lissakit" / "cli.py").is_file():
        raise RuntimeError(f"no lissakit sources under {SRC}")
    # BLAS reads its thread count once, when numpy is first imported
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    import lissakit

    if Path(lissakit.__file__).resolve().parent != (SRC / "lissakit").resolve():
        raise RuntimeError(f"imported lissakit from {lissakit.__file__}, not from {SRC}")
    return nproc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lissakit benchmark (one workload per process)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 600 or args.seed < 0:
        parser.error("--seconds must be in [1, 600] and --seed non-negative")
    try:
        nproc = prepare()
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), nproc)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
