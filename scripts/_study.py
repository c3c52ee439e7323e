"""Shared driver of the run_*_study.py scripts.

A study is a list of (command, config text) pairs.  Each command runs through
the CLI with the study's seed, its config is kept next to its artifacts, and
the first non-zero exit code stops the study.
"""

import argparse
import sys
from pathlib import Path

from lissakit.cli import main as cli_main


def run(command, config_text, out_dir, seed):
    cfg_path = out_dir / f"{command}.cfg"
    cfg_path.write_text(config_text)
    code = cli_main(
        [command, "--config", str(cfg_path), "--out", str(out_dir / command),
         "--seed", str(seed)]
    )
    if code != 0:
        sys.exit(f"{command} failed with exit code {code}")
    print(f"{command}: wrote {out_dir / command}")


def run_study(description, default_out, commands):
    """Parse --out and --seed, then run each (command, config text) in order."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--out", default=default_out)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for command, config_text in commands:
        run(command, config_text, out_dir, args.seed)
