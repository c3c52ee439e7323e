"""Print every end-to-end and per-layer metric, with its unit, for every workload.

Run from the repository root:

    python3 perfbench/report.py --seed 0 --seconds 20

Each workload runs twice, untraced (end-to-end metrics) and traced (per-layer
metrics), each time in its own ``run.py`` process so that peak memory and
imports stay per workload.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            *_, detail_line, result_line = proc.stdout.splitlines()
            detail, result = json.loads(detail_line)["detail"], json.loads(result_line)
            print(f"== {name} trace={trace} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} error_rate={detail['error_rate']:.4g}")
            print(f"   environment: {json.dumps(detail['environment'])}")
            print(f"   outputs vs reference sha256: {detail['output_sha256_vs_reference']}")
            if not trace:
                wall = detail["raw_wall_s"]
                print(f"   unscaled pass seconds q1/median/q3: {wall['q1']:.4f} / {wall['median']:.4f} / "
                      f"{wall['q3']:.4f} (n={wall['n']}); wall_s scaled: {detail['wall_s_at_reference_speed']}")
            targets = detail["layer_targets"] or {}
            for metric, entry in result["metrics"].items():
                target = f"  -> {targets[metric]}" if metric in targets else ""
                print(f"   {metric:40s} {entry['value']:>14.6g} {entry['unit']}{target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
