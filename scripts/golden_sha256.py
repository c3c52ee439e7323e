"""Regenerate tests/golden_sha256.json: the sha256 of every file that the three
run_*_study.py studies write at seeds 0 and 1, and of each run's stdout; and
the same of each command of the benchmark's solve-minibatch and
spectral-fullbatch workloads, whose configs the script reads from
perfbench/workloads.py.

Run from the repository root, at the commit whose outputs are the reference:

    python scripts/golden_sha256.py

A manifest is hashed without its BLAS thread lines, and the output directory
in stdout reads OUT.  The table records the build it was made on: the NumPy
version, the BLAS build and the CPU features that NumPy reports.  The script
runs everything at 1 and at 2 OpenBLAS threads; where their bytes agree the
table holds ``"blas_threads": null``, and where they differ it holds the
hashes at 1 thread and ``"blas_threads": 1``.
tests/test_studies.py compares a fresh run against the table on that build
only, at that thread count.  Regenerate the table only when a change moves
these outputs, never to make another build pass.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "golden_sha256.json"
STUDIES = ("attribution", "solver", "spectral")
WORKLOADS = ("solve-minibatch", "spectral-fullbatch")
SEEDS = (0, 1)


def build() -> dict:
    """What a byte of output may depend on beside the code."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config.get("SIMD Extensions", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
        "cpu": " ".join(simd.get("baseline", []) + simd.get("found", [])),
    }


def _file_bytes(path: Path) -> bytes:
    if path.name != "manifest.txt":
        return path.read_bytes()
    lines = path.read_text().splitlines(keepends=True)
    return "".join(line for line in lines if not line.split(" = ")[0].endswith("_NUM_THREADS")).encode()


def _workload_commands():
    """The (workload, name, config text) of each command of the benchmark's
    WORKLOADS."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return [(name, command.name, command.config) for name in WORKLOADS
            for command in module.WORKLOADS[name].commands]


def _runs(out: Path):
    """Each run to hash: its key, the interpreter's arguments and the
    directory it writes.  A workload command's config is written beside
    that directory."""
    for study in STUDIES:
        for seed in SEEDS:
            run_dir = out / study / str(seed)
            script = ROOT / "scripts" / f"run_{study}_study.py"
            yield f"{study}/{seed}", [str(script), "--seed", str(seed), "--out", str(run_dir)], run_dir
    for workload, command, config in _workload_commands():
        for seed in SEEDS:
            run_dir = out / workload / str(seed) / command
            run_dir.parent.mkdir(parents=True, exist_ok=True)
            cfg = run_dir.parent / f"{command}.cfg"
            cfg.write_text(config)
            argv = ["-m", "lissakit.cli", command, "--config", str(cfg), "--out", str(run_dir), "--seed", str(seed)]
            yield f"{workload}/{seed}/{command}", argv, run_dir


def hash_studies(out: Path, blas_threads: int | None = None) -> dict:
    """Run each study and workload command at each seed under ``out``;
    "<key>/<file>" and "<key>/stdout" -> sha256, for the keys
    "<study>/<seed>" and "<workload>/<seed>/<command>"."""
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    hashes = {}
    for key, argv, run_dir in _runs(out):
        done = subprocess.run([sys.executable] + argv, env=env, capture_output=True, text=True)
        if done.returncode:
            raise RuntimeError(f"{key} failed: {done.stderr}")
        for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
            hashes[f"{key}/{path.relative_to(run_dir).as_posix()}"] = hashlib.sha256(_file_bytes(path)).hexdigest()
        hashes[f"{key}/stdout"] = hashlib.sha256(done.stdout.replace(str(run_dir), "OUT").encode()).hexdigest()
    return hashes


def moved(golden: dict, hashes: dict) -> list:
    """Each file whose hash differs from the table's, or that only one side has."""
    return sorted(name for name in golden.keys() | hashes.keys() if golden.get(name) != hashes.get(name))


def main():
    with tempfile.TemporaryDirectory() as tmp:
        one, two = (hash_studies(Path(tmp) / str(threads), threads) for threads in (1, 2))
    table = {"build": build(), "blas_threads": None if one == two else 1, "files": one}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{TABLE.relative_to(ROOT)}: {len(one)} files, blas_threads = {table['blas_threads']}")


if __name__ == "__main__":
    main()
