"""The scripts/run_*_study.py studies run end to end, each manifest hashes
exactly the files beside it, and a rerun is byte-identical."""

import hashlib
import importlib.util
import json
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


def _golden():
    spec = importlib.util.spec_from_file_location("golden_sha256", ROOT / "scripts" / "golden_sha256.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _golden()


def test_studies_match_the_golden_table(tmp_path):
    # every output and stdout of the three studies at seeds 0 and 1 is the
    # same byte for byte as at the commit that made the table, on its build
    table = json.loads(golden.TABLE.read_text())
    here = golden.build()
    differs = [f"{key} {table['build'].get(key)!r} there, {value!r} here" for key, value in here.items()
               if table["build"].get(key) != value]
    if differs:
        pytest.skip("the golden table was made on another build: " + "; ".join(differs))
    moved = golden.moved(table["files"], golden.hash_studies(tmp_path, table["blas_threads"]))
    assert not moved, "files that moved from tests/golden_sha256.json: " + ", ".join(moved)


def test_golden_comparison_names_each_moved_file():
    table = {"a/0/x.csv": "1", "a/0/y.csv": "2", "a/0/stdout": "3"}
    hashes = {"a/0/x.csv": "1", "a/0/y.csv": "4", "a/0/new.csv": "5", "a/0/stdout": "3"}
    assert golden.moved(table, hashes) == ["a/0/new.csv", "a/0/y.csv"]
