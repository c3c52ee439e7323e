"""Regenerate ``reference_sha256.json``: output hashes of one pass per seed.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/make_reference.py --seeds 0-31

Each workload runs once per seed with the benchmark's settings; the table maps
workload -> seed -> "<command>/<file>" -> sha256 of every output the command's
manifest lists.  A benchmark run compares its outputs against this table and
reports matches and mismatches as counts; a mismatch is not a failure.
"""

import argparse
import json
import shutil

import run


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = parser.parse_args()
    first, last = (int(part) for part in args.seeds.split("-"))
    run.prepare()
    from workloads import WORKLOADS

    table = {}
    for name, workload in WORKLOADS.items():
        for seed in range(first, last + 1):
            work = run.ROOT / ".perfbench_work" / f"reference-{name}-{seed}"
            try:
                invocations = run.Runner(workload, seed, work).run_pass()
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if any(inv.code != 0 for inv in invocations):
                raise SystemExit(f"{name} seed {seed}: a command failed; no reference written")
            table.setdefault(name, {})[str(seed)] = {
                f"{inv.command}/{file}": sha
                for inv in invocations
                for file, sha in sorted(inv.outputs.items())
                if file != "<stdout>"
            }
            print(f"{name} seed {seed}: {len(table[name][str(seed)])} outputs", flush=True)
    (run.HERE / "reference_sha256.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
