"""sha256 digests of every artifact the smoke-config CLI chain writes.

    python3 tools/smoke_digests.py CHECKOUT
    python3 tools/smoke_digests.py CHECKOUT --seed 9

Runs `newsrec generate`, `train`, `run`, `evaluate` and `compare` with
CHECKOUT's `configs/smoke.json`, from CHECKOUT (its `src` first on the import
path) into a temporary output directory, passing `--seed` to every command
when it is given. Then it prints one `sha256  path` line per file written,
paths relative to the output directory, in path order. Two checkouts whose
printed lines are equal wrote byte-identical artifacts.

Exit status: 0 when every command succeeds; 1 when one fails (its stderr is
printed); 2 on bad arguments. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("generate", "train", "run", "evaluate", "compare")


def digests(checkout: Path, out: Path, seed: int | None = None) -> dict[str, str]:
    """Run the chain from `checkout` into `out`; each written file's path
    (relative to `out`, POSIX form) mapped to its sha256. A failing command
    raises subprocess.CalledProcessError, its stderr captured."""
    env = dict(os.environ)
    src = str((checkout / "src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    config = str((checkout / "configs" / "smoke.json").resolve())
    for command in COMMANDS:
        cmd = [sys.executable, "-m", "newsrec.cli", command, "--config", config,
               "--out", str(out)]
        if seed is not None:
            cmd += ["--seed", str(seed)]
        subprocess.run(cmd, cwd=checkout, env=env, check=True, capture_output=True, text=True)
    found = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
             for path in out.rglob("*") if path.is_file()}
    return dict(sorted(found.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="checkout of this repository")
    parser.add_argument("--seed", type=int, help="passed to every command")
    args = parser.parse_args(argv)
    if not (args.checkout / "configs" / "smoke.json").is_file():
        parser.error(f"{args.checkout} holds no configs/smoke.json")
    with tempfile.TemporaryDirectory(prefix="smoke_digests_") as tmp:
        try:
            found = digests(args.checkout, Path(tmp) / "smoke", args.seed)
        except subprocess.CalledProcessError as exc:
            print(f"newsrec {exc.cmd[3]} exited {exc.returncode}: {exc.stderr.strip()}",
                  file=sys.stderr)
            return 1
    for path, digest in found.items():
        print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
