"""Record what a fixed list of einselect CLI commands print, for before/after diffs.

Runs each command in-process against the package under SRC and writes one
file per command into DEST: the argv, the exit code, stdout and stderr, plus
the --out file where the command writes one. Run it once on each of two
source trees and compare the directories:

    python3 scripts/cli_outputs.py OLD/src /tmp/before
    python3 scripts/cli_outputs.py src /tmp/after
    diff -r /tmp/before /tmp/after

The commands cover every README command, `sweep`, `maximize` and `emergence`
of the reference states in both formats, `--out` variants, the pointer, ad
and z w < 0 paths, and `analyze` on the seed-3 matrix file that
`einbench/inputs.py` writes, Monte Carlo bands on a tilted pointer basis
included. One `analyze` run draws 200 samples on an 11-point grid, more
than one chunk of stacked sweeps holds (`dynamics._SWEEP_STATES` states),
so the recording crosses a chunk boundary. Another passes `--gamma` to
`analyze` with bands: only the point-estimate sweep reads it, and it must
leave the bands as they are. Two fine-grid `sweep`s of the same general
state scan every neighbouring pair of records for a sudden change: 201
points under ad, which decays with no jump, and 41 points under a tilted
pointer basis, which jumps. `--slow` adds `verify --suite all` at the
default trial counts (about 5 s more on a shared 2-core host).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import subprocess
import sys

STATE_1, STATE_2, BALANCED = "0.4,0.1,0.1,0.4", "0.4,0.1,0.1,0.15", "0.25,0.25,0.25,0.25"
OPPOSITE = "0.4,0.1,-0.1,0.3"
NO_TRANSITION = "0.4,0.1,0.0,0.05"


def commands(matrix: str, slow: bool) -> list:
    cmds = [
        ["sweep", "--state", STATE_1, "--grid", "201"],
        ["emergence", "--state", STATE_1, "--gamma", "2.0", "--format", "json"],
        ["maximize", "--state", STATE_2],
        ["verify", "--suite", "theorem1", "--trials", "200", "--seed", "5"],
        ["verify", "--suite", "all", "--trials", "3"],
        ["verify", "--suite", "all", "--trials", "3", "--format", "json"],
        ["verify", "--suite", "remark", "--grid", "21"],
        ["verify", "--suite", "lemma1", "--trials", "5", "--format", "json"],
        ["analyze", "--matrix-file", matrix, "--samples", "3", "--grid", "11", "--format", "json"],
        ["analyze", "--matrix-file", matrix, "--samples", "3", "--grid", "11"],
        ["analyze", "--matrix-file", matrix, "--grid", "11", "--format", "json"],
        ["analyze", "--matrix-file", matrix, "--samples", "3", "--grid", "11",
         "--channel", "ad", "--seed", "4", "--format", "json"],
        ["sweep", "--matrix-file", matrix, "--grid", "11"],
        ["sweep", "--state", STATE_1, "--channel", "pointer", "--theta", "1.5707963267948966",
         "--grid", "21"],
        ["sweep", "--state", STATE_1, "--channel", "pointer", "--grid", "21", "--format", "json"],
        ["sweep", "--state", STATE_2, "--channel", "ad", "--grid", "21", "--format", "json"],
        ["sweep", "--state", STATE_1, "--gamma", "2.5", "--grid", "11", "--format", "json"],
        ["sweep", "--state", OPPOSITE, "--grid", "21", "--format", "json"],
        ["emergence", "--state", OPPOSITE],
        ["emergence", "--state", NO_TRANSITION],
        ["emergence", "--state", NO_TRANSITION, "--format", "json"],
        ["sweep", "--state", STATE_2, "--grid", "11", "--out", "OUT"],
        ["emergence", "--state", STATE_1, "--out", "OUT"],
        ["maximize", "--state", STATE_1, "--format", "json", "--out", "OUT"],
        ["verify", "--suite", "all", "--trials", "3", "--out", "OUT"],
        ["analyze", "--matrix-file", matrix, "--samples", "3", "--grid", "11",
         "--format", "json", "--out", "OUT"],
    ]
    for state in (STATE_1, STATE_2, BALANCED):
        for fmt in ("csv", "json"):
            for command in ("sweep", "maximize", "emergence"):
                cmds.append([command, "--state", state, "--format", fmt])
    cmds.append(["analyze", "--matrix-file", matrix, "--channel", "pointer", "--theta", "1.2",
                 "--phi", "0.4", "--samples", "3", "--grid", "11", "--format", "json"])
    cmds.append(["analyze", "--matrix-file", matrix, "--samples", "200", "--grid", "11",
                 "--format", "json"])
    cmds.append(["analyze", "--matrix-file", matrix, "--samples", "3", "--grid", "11",
                 "--gamma", "2.5", "--format", "json"])
    cmds.append(["sweep", "--matrix-file", matrix, "--grid", "201", "--channel", "ad",
                 "--format", "json"])
    cmds.append(["sweep", "--matrix-file", matrix, "--channel", "pointer", "--theta", "1.2",
                 "--phi", "0.4", "--grid", "41", "--format", "json"])
    if slow:
        cmds += [["verify", "--suite", "all"], ["verify", "--suite", "all", "--format", "json"]]
    return cmds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the src/ directory holding the einselect package")
    parser.add_argument("dest", help="directory for the recorded outputs")
    parser.add_argument("--slow", action="store_true", help="add the default-size verify suites")
    args = parser.parse_args()
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    dest = os.path.abspath(args.dest)
    os.makedirs(dest, exist_ok=True)
    subprocess.run(
        [sys.executable, os.path.join(repo, "einbench", "inputs.py"), "--seed", "3", "--out", dest],
        check=True, stdout=subprocess.DEVNULL,
    )
    matrix = os.path.join(dest, "tomography-seed3.mat")

    sys.path.insert(0, os.path.abspath(args.src))
    from einselect.cli import main as cli_main

    for index, argv in enumerate(commands(matrix, args.slow)):
        stem = os.path.join(dest, f"{index:02d}")
        argv = [stem + ".out" if arg == "OUT" else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        shown = " ".join(argv).replace(dest, "DEST")
        with open(stem + ".txt", "w", encoding="utf-8") as fh:
            fh.write(f"$ einselect {shown}\nexit {code}\n--- stdout\n{out.getvalue()}")
            fh.write(f"--- stderr\n{err.getvalue()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
