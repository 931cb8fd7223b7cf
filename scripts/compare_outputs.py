"""Compare two directories written by scripts/cli_outputs.py, field by field.

    python3 scripts/compare_outputs.py BEFORE AFTER [--tie STEM:P ...]

Every CSV and JSON output is parsed and each field compared under these
rules; every differing field is printed with the rule that admits it, or
FAIL. The exit code is 1 if any difference is outside the rules (or a file
is missing on one side), 0 otherwise.

  - j_z, j_x, mutual_info and every field not named below: identical.
  - j_max, discord, and the Monte Carlo band means and stds: within 1e-12.
  - transition_p, transition_mean, transition_std: within 1e-12 for
    --state (X state) commands, within 1e-8 for --matrix-file commands.
  - opt_theta/opt_phi, as one measurement axis per record: the axes may
    differ by at most 1e-7 rad, identifying antipodal axes (so a change of
    phi at the pole is no change); any change where j_max <= BASIS_FLOOR
    (1e-9, no basis preference); and any change at an exact tie named with
    --tie STEM:P, the output file stem and the record's p (STEM alone for a
    maximize record, which has no p).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

VALUE_TOL = 1e-12
X_TRANSITION_TOL = 1e-12
GENERAL_TRANSITION_TOL = 1e-8
AXIS_TOL = 1e-7
BASIS_FLOOR = 1e-9

EXACT = ("j_z", "j_x", "mutual_info")
CLOSE = ("j_max", "discord")
TRANSITION = ("transition_p", "transition_mean", "transition_std")
ANGLES = ("opt_theta", "opt_phi")


def read_output(path: str) -> tuple[str, str, str]:
    """(header, stdout, stderr) of a recorded command; an --out file is all stdout."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if not path.endswith(".txt"):
        return "", text, ""
    header, _, rest = text.partition("--- stdout\n")
    out, _, err = rest.rpartition("--- stderr\n")
    return header, out, err


def parse(text: str):
    """JSON value, list of CSV row dicts, or None for empty output."""
    if not text.strip():
        return None
    if text.lstrip()[0] in "[{":
        return json.loads(text)
    return list(csv.DictReader(io.StringIO(text)))


def flatten(value, path=()):
    """Yield (path, leaf) pairs of a parsed output."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from flatten(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from flatten(item, path + (index,))
    else:
        yield path, value


def records(value, path=()):
    """Yield (path, dict) of every record (a dict carrying opt_theta)."""
    if isinstance(value, dict):
        if "opt_theta" in value:
            yield path, value
        for key, item in value.items():
            yield from records(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from records(item, path + (index,))


def number(value):
    if value is None or value == "" or isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def axis(theta: float, phi: float) -> tuple:
    return (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))


def axis_distance(a: dict, b: dict) -> float:
    u = axis(float(a["opt_theta"]), float(a["opt_phi"]))
    v = axis(float(b["opt_theta"]), float(b["opt_phi"]))
    return math.acos(min(1.0, abs(sum(x * y for x, y in zip(u, v)))))


def pauli_offset(record: dict) -> float:
    """Angle from the record's axis to the nearest of sigma_x, sigma_y, sigma_z."""
    u = axis(float(record["opt_theta"]), float(record["opt_phi"]))
    return math.acos(min(1.0, max(abs(c) for c in u)))


def angles(record: dict) -> str:
    return f"({record['opt_theta']}, {record['opt_phi']})"


def tie_key(stem: str, record: dict) -> str:
    return stem if "p" not in record else f"{stem}:{float(record['p']):g}"


def value_rule(name, before, after, general: bool, under_bands: bool):
    """Why a differing scalar field is admitted, or None."""
    if name in EXACT:
        return None
    x, y = number(before), number(after)
    if x is None or y is None:
        return None
    if name in TRANSITION:
        tol = GENERAL_TRANSITION_TOL if general else X_TRANSITION_TOL
        return f"within {tol:g}" if abs(x - y) <= tol else None
    if name in CLOSE or under_bands:
        return f"within {VALUE_TOL:g}" if abs(x - y) <= VALUE_TOL else None
    return None


def compare_file(name: str, before_path: str, after_path: str, ties: set) -> tuple[list, int]:
    """(report lines, failure count) for one output file."""
    lines, failures = [], 0
    head_b, out_b, err_b = read_output(before_path)
    head_a, out_a, err_a = read_output(after_path)
    for label, x, y in (("command/exit", head_b, head_a), ("stderr", err_b, err_a)):
        if x != y:
            lines.append(f"FAIL {name} {label}: {x.strip()!r} -> {y.strip()!r}")
            failures += 1
    if out_b == out_a:
        return lines, failures
    stem = name.split(".")[0]
    # an --out file belongs to the command recorded in STEM.txt
    header = head_b or read_output(os.path.join(os.path.dirname(before_path), stem + ".txt"))[0]
    general = "--matrix-file" in header
    try:
        tree_b, tree_a = parse(out_b), parse(out_a)
    except (ValueError, IndexError) as exc:
        return lines + [f"FAIL {name}: unparsable output ({exc})"], failures + 1

    leaves_b, leaves_a = dict(flatten(tree_b)), dict(flatten(tree_a))
    if leaves_b.keys() != leaves_a.keys():
        lines.append(f"FAIL {name}: the two outputs have different fields")
        return lines, failures + 1
    for path, before in leaves_b.items():
        after = leaves_a[path]
        if before == after or path[-1] in ANGLES:
            continue
        rule = value_rule(path[-1], before, after, general, "bands" in path)
        where = ".".join(str(k) for k in path)
        lines.append(f"{'ok  ' if rule else 'FAIL'} {name} {where}: {before} -> {after}"
                     + (f" ({rule})" if rule else ""))
        failures += rule is None

    records_a = dict(records(tree_a))
    for path, rec_b in records(tree_b):
        rec_a = records_a[path]
        if all(rec_b[k] == rec_a[k] for k in ANGLES):
            continue
        distance = axis_distance(rec_b, rec_a)
        if distance <= AXIS_TOL:
            rule = f"axes {distance:.2g} rad apart"
        elif number(rec_b["j_max"]) <= BASIS_FLOOR:
            rule = "j_max <= BASIS_FLOOR"
        elif tie_key(stem, rec_b) in ties:
            rule = "listed tie"
        else:
            rule = None
        ok = rule is not None
        if not ok:
            rule = (f"{distance:.3g} rad; {pauli_offset(rec_b):.2g} and "
                    f"{pauli_offset(rec_a):.2g} rad from a Pauli axis")
        where = ".".join(str(k) for k in path)
        lines.append(f"{'ok  ' if ok else 'FAIL'} {name} {where} axis "
                     f"[{tie_key(stem, rec_b)}]: {angles(rec_b)} -> {angles(rec_a)} ({rule})")
        failures += not ok
    return lines, failures


def compare_dirs(before: str, after: str, ties=()) -> tuple[list, int]:
    names_b = {n for n in os.listdir(before) if n.endswith((".txt", ".out"))}
    names_a = {n for n in os.listdir(after) if n.endswith((".txt", ".out"))}
    lines = [f"FAIL {n}: only in {before}" for n in sorted(names_b - names_a)]
    lines += [f"FAIL {n}: only in {after}" for n in sorted(names_a - names_b)]
    failures = len(lines)
    for name in sorted(names_b & names_a):
        paths = os.path.join(before, name), os.path.join(after, name)
        more, count = compare_file(name, *paths, set(ties))
        lines += more
        failures += count
    return lines, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--tie", action="append", default=[], metavar="STEM:P",
                        help="an exact tie whose argmax axis may move (repeatable)")
    args = parser.parse_args(argv)
    lines, failures = compare_dirs(args.before, args.after, args.tie)
    for line in lines:
        print(line)
    print(f"{failures} difference(s) outside the rules")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
