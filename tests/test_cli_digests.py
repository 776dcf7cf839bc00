"""Byte identity of the exact subcommands against committed digests.

Each command of a fixed grid runs in-process; the digest of its stdout,
stderr and exit code must equal the one recorded in ``cli_digests.json``.
A refactoring that should not change any output keeps every digest; one
that does names each command whose output moved.  After an intended
change of output, regenerate the file with

    PYTHONPATH=src python tests/test_cli_digests.py > tests/cli_digests.json
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "cli_digests.json"

U_VALUES = ("symbolic", "0", "-1", "2", "47/93", "-3/7")


def grid():
    """The commands, each an argv list."""
    commands = []
    for p in (3, 4, 5, 6):
        every = "F,Fprime,R,S,Stilde,H" + (",G" if p == 3 else "")
        for order in (2, 5, 9, 14, 20):
            for u in U_VALUES:
                commands.append(["coeffs", "--p", str(p), "--order", str(order),
                                 "--u=" + u, "--series", every])
        for order in (1, 6, 11, 17):
            for name in ("R-z", "S", "Stilde", "F"):
                commands.append(["mu-expand", "--p", str(p), "--order", str(order),
                                 "--series", name])
    # symbolic solves past the orders above, at wider base-2^k digits
    for p, order in ((3, 24), (4, 30)):
        commands.append(["coeffs", "--p", str(p), "--order", str(order), "--u=symbolic",
                         "--series", "F,Fprime,R,S,Stilde,H" + (",G" if p == 3 else "")])
    commands.append(["mu-expand", "--p", "3", "--order", "24", "--series", "F"])
    for p in (3, 4):
        for faces in (3, 4):
            for variant in ("all_forests", "tree_rooted_activity", "root_edge_outside"):
                commands.append(["oracle", "--p", str(p), "--faces", str(faces),
                                 "--variant", variant, "--compare", "--dump-maps"])
    for u in ("symbolic", "47/93"):
        commands.append(["verify", "--u=" + u])
    commands.append(["verify", "--only", "cubic_w,theta_from_phi"])
    commands.append(["--format", "csv", "verify"])
    # the exact engines of fast.py, through the ratio tables and the finite-n
    # expectations
    for u in ("0", "1/3", "-1/2", "-1"):
        commands.append(["--digits", "20", "asymptotics", "--mode", "ratios", "--p", "4",
                         "--u=" + u, "--n-list", "20,40,80"])
    for u in ("1/3", "2"):
        commands.append(["--digits", "20", "random", "--u=" + u, "--k-max", "3",
                         "--n-list", "20,40"])
    return commands


def digest(argv):
    """The first 16 hex digits of the sha256 of stdout, stderr and the exit
    code of ``forestmaps <argv>``, run in this interpreter."""
    from forestmaps.cli import main

    out, err, code = io.StringIO(), io.StringIO(), 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(argv)
        except SystemExit as exc:
            code = exc.code
    blob = "\0".join([out.getvalue(), err.getvalue(), repr(code)])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def digests():
    return {" ".join(argv): digest(argv) for argv in grid()}


def test_exact_subcommands_print_the_recorded_bytes():
    recorded = json.loads(DIGESTS.read_text())
    found = digests()
    assert sorted(found) == sorted(recorded), "the grid and the digest file disagree"
    moved = [command for command in found if found[command] != recorded[command]]
    assert not moved, "output moved for:\n" + "\n".join(moved)


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
