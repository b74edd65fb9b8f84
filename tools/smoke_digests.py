"""sha256 digests of every artifact the smoke-config CLI chain writes.

    python3 tools/smoke_digests.py CHECKOUT [--seed N]
    python3 tools/smoke_digests.py PARENT CHANGE [--seed N]

Runs `newsrec generate`, `train`, `run`, `evaluate` and `compare` with
CHECKOUT's `configs/smoke.json`, from CHECKOUT (its `src` first on the import
path) into a temporary output directory, passing `--seed` to every command
when it is given. Then it prints one `sha256  path` line per file written,
paths relative to the output directory, in path order.

Given two checkouts, it runs the chain in each and prints one line per path
whose artifacts are not byte-identical: `differs  path`, or
`only in PARENT  path` / `only in CHANGE  path` for a file that one side
alone wrote.

Exit status: 0 when every command succeeds (and, given two checkouts, every
artifact is byte-identical); 1 when a command fails (its stderr is printed)
or an artifact differs; 2 on bad arguments. Standard library only.
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


def differences(parent: dict[str, str], change: dict[str, str]) -> list[str]:
    """One line per path, in path order, whose digest differs between two
    `digests` results or that only one of them holds."""
    lines = []
    for path in sorted(parent.keys() | change.keys()):
        if path not in change:
            lines.append(f"only in PARENT  {path}")
        elif path not in parent:
            lines.append(f"only in CHANGE  {path}")
        elif parent[path] != change[path]:
            lines.append(f"differs  {path}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path,
                        help="checkout of this repository (the parent, given CHANGE)")
    parser.add_argument("change", type=Path, nargs="?",
                        help="a second checkout whose artifacts must equal CHECKOUT's")
    parser.add_argument("--seed", type=int, help="passed to every command")
    args = parser.parse_args(argv)
    checkouts = [c for c in (args.checkout, args.change) if c is not None]
    for checkout in checkouts:
        if not (checkout / "configs" / "smoke.json").is_file():
            parser.error(f"{checkout} holds no configs/smoke.json")
    found = []
    for checkout in checkouts:
        with tempfile.TemporaryDirectory(prefix="smoke_digests_") as tmp:
            try:
                found.append(digests(checkout, Path(tmp) / "smoke", args.seed))
            except subprocess.CalledProcessError as exc:
                print(f"{checkout}: newsrec {exc.cmd[3]} exited {exc.returncode}: "
                      f"{exc.stderr.strip()}", file=sys.stderr)
                return 1
    if len(found) == 1:
        for path, digest in found[0].items():
            print(f"{digest}  {path}")
        return 0
    lines = differences(*found)
    print("\n".join(lines) if lines
          else f"all {len(found[0])} artifacts are byte-identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
