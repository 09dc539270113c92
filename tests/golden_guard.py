"""Golden-output guard for the command line.

    python tests/golden_guard.py snapshot OUT [--sets NAME ...]
    python tests/golden_guard.py compare A B

``snapshot`` runs every guarded command in process, inside a new temporary
directory that is the working directory meanwhile, so outputs name files by
relative paths only.  It writes OUT, a JSON object that maps each command to
the sha256 of its (exit code, stdout, stderr), and each saved file to the
sha256 of its bytes.  The inputs are every named construction, ``shifts``
3/5/6, ``shift-family`` 3/30/100, ``sqrt-subset`` 19/200, the compositions
qubit3+tiles33 and tiles33+qubit3, and the dense expansion of each product
set with D <= 8192; ``--sets`` keeps only the inputs named (a dense
expansion goes with its set).  On every input the guard runs ``check``,
``check --audit``, seeded ``subsets`` at k = l - 1 and seeded ``complement
--restarts 3 --iters 20``, and ``bound`` on every input signature, each as
JSON and under ``--human``.

``compare`` lists the entries whose hashes differ or that one snapshot
lacks, and exits 1 if there are any.  Snapshots of one tree taken under
different ``PYTHONHASHSEED`` values must match.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import locstab
from locstab import cli

# (input name, construct arguments); the name is also the file stem
INPUTS = [
    (name, ["construct", name])
    for name in ("qubit3", "triple", "tiles33", "sep333", "reducible44")
] + [
    (f"{name}-{n}", ["construct", name, "--n", str(n)])
    for name, sizes in (("shifts", (3, 5, 6)), ("shift-family", (3, 30, 100)),
                        ("sqrt-subset", (19, 200)))
    for n in sizes
] + [
    (f"compose-{left}-{right}",
     ["construct", "compose", "--left", left, "--right", right])
    for left, right in (("qubit3", "tiles33"), ("tiles33", "qubit3"))
]

DENSE_LIMIT = 8192


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv) -> str:
    """The sha256 of the (exit code, stdout, stderr) of ``locstab argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return _digest(json.dumps([code, out.getvalue(), err.getvalue()]).encode())


def _file_entry(entries, path):
    with open(path, "rb") as fh:
        entries[f"file {path}"] = _digest(fh.read())


def _commands(path, state_set):
    """The guarded commands on one input file, without --human."""
    k = str(max(1, len(state_set) - 1))
    return [
        ["check", path],
        ["check", path, "--audit"],
        ["subsets", path, "--k", k, "--threshold", "50", "--sample", "20", "--seed", "3"],
        ["complement", path, "--restarts", "3", "--iters", "20", "--seed", "5"],
    ]


def _snapshot_here(names) -> dict:
    entries = {}
    inputs, signatures = [], []
    for name, argv in INPUTS:
        if names is not None and name not in names:
            continue
        path = f"{name}.json"
        for human in ([], ["--human"]):
            command = argv + ["--out", path] + human
            entries[" ".join(command)] = _run(command)
        _file_entry(entries, path)
        state_set = locstab.load_set(path)
        inputs.append((path, state_set))
        if state_set.all_product and state_set.total_dimension <= DENSE_LIMIT:
            dense = locstab.StateSet(
                state_set.dims, map(locstab.as_dense, state_set), state_set.label + "-dense"
            )
            dense_path = f"{name}-dense.json"
            locstab.save_set(dense, dense_path)
            _file_entry(entries, dense_path)
            inputs.append((dense_path, dense))
        dims = ",".join(map(str, state_set.dims))
        if dims not in signatures:
            signatures.append(dims)
    commands = [c for path, state_set in inputs for c in _commands(path, state_set)]
    commands += [["bound", "--dims", dims] for dims in signatures]
    for command in commands:
        for human in ([], ["--human"]):
            entries[" ".join(command + human)] = _run(command + human)
    return entries


def snapshot(names=None) -> dict:
    """Every guarded entry's hash, over the inputs in ``names`` (all when
    None), taken in a new temporary working directory."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            return _snapshot_here(None if names is None else set(names))
        finally:
            os.chdir(home)


def compare(first: dict, second: dict) -> list:
    """One line per entry whose hashes differ or that one side lacks."""
    lines = []
    for key in sorted(first.keys() | second.keys()):
        if key not in second:
            lines.append(f"only in A: {key}")
        elif key not in first:
            lines.append(f"only in B: {key}")
        elif first[key] != second[key]:
            lines.append(f"differs: {key}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="golden_guard", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_snapshot = sub.add_parser("snapshot", help="hash every guarded output")
    p_snapshot.add_argument("out", help="snapshot JSON to write")
    p_snapshot.add_argument("--sets", nargs="+", choices=[name for name, _ in INPUTS],
                            help="only these inputs (default: all)")
    p_compare = sub.add_parser("compare", help="list the entries two snapshots differ in")
    p_compare.add_argument("first", metavar="A")
    p_compare.add_argument("second", metavar="B")
    args = parser.parse_args(argv)

    if args.command == "snapshot":
        entries = snapshot(args.sets)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(entries, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{len(entries)} entries written to {args.out}")
        return 0
    loaded = []
    for path in (args.first, args.second):
        with open(path, encoding="utf-8") as fh:
            loaded.append(json.load(fh))
    lines = compare(*loaded)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(loaded[0].keys() | loaded[1].keys())} entries differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
