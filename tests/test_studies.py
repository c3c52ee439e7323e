"""The scripts/run_*_study.py studies run end to end, each manifest hashes
exactly the files beside it, and a rerun is byte-identical."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_study(name, out):
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"run_{name}_study.py"), "--seed", "0", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        capture_output=True,
        text=True,
    )


def tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("name", ["attribution", "solver", "spectral"])
def test_study_runs_and_its_manifests_hash_its_outputs(tmp_path, name):
    result = run_study(name, tmp_path)
    assert result.returncode == 0, result.stderr
    manifests = sorted(tmp_path.glob("*/manifest.txt"))
    assert len(manifests) == 3
    for manifest in manifests:
        # each output line reads "output <file> sha256 = <hex>"
        outputs = [line.split() for line in manifest.read_text().splitlines() if line.startswith("output ")]
        files = {p.name for p in manifest.parent.iterdir()} - {"manifest.txt"}
        assert files and {fields[1] for fields in outputs} == files
        for _, file, _, _, sha in outputs:
            assert hashlib.sha256((manifest.parent / file).read_bytes()).hexdigest() == sha


def test_attribution_study_rerun_is_byte_identical(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        assert run_study("attribution", out).returncode == 0
    assert tree(first) == tree(second)
