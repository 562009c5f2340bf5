"""Numeric summary of the files that differ between two output trees.

    python3 csv-diff.py BASE HEAD

BASE and HEAD are directories written by readme-outputs.sh.  For each CSV
in both trees whose bytes differ, one line gives its data rows, the rows
with a differing value and the largest absolute difference, and says if
the '#' comment lines or the header differ.  Any other file that differs
or is in one tree only is listed by name.  Needs numpy only.
"""

import os
import sys

import numpy as np


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(folder, name), root)
            for folder, _, names in os.walk(root) for name in names}


def _read_csv(path: str):
    """(comment and header lines, (rows, columns) float array)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    head = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    values = np.loadtxt(body[1:], delimiter=",", ndmin=2) if body[1:] \
        else np.zeros((0, 0))
    return head + body[:1], values


def _csv_summary(base: str, head: str) -> str:
    text_a, a = _read_csv(base)
    text_b, b = _read_csv(head)
    notes = [] if text_a == text_b else ["comment or header lines differ"]
    if a.shape != b.shape:
        return f"shapes differ, {a.shape} vs {b.shape}; " + "; ".join(notes)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    diff = np.where(same, 0.0, np.abs(a - b))
    largest = float(diff.max()) if diff.size else 0.0
    rows = int(np.count_nonzero(~same.all(axis=1))) if a.size else 0
    return "; ".join([f"{len(a)} rows, {rows} differ, largest |diff| "
                      f"{largest:.3g}", *notes])


def main(base: str, head: str) -> int:
    in_base, in_head = _files(base), _files(head)
    for name in sorted(in_base | in_head):
        if name not in in_base or name not in in_head:
            print(f"{name}: only in {'head' if name in in_head else 'base'}")
            continue
        path_a, path_b = os.path.join(base, name), os.path.join(head, name)
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            if fa.read() == fb.read():
                continue
        if name.endswith(".csv"):
            try:
                print(f"{name}: {_csv_summary(path_a, path_b)}")
            except ValueError as err:
                print(f"{name}: differs, not numeric ({err})")
        else:
            print(f"{name}: differs")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: csv-diff.py BASE HEAD")
    sys.exit(main(sys.argv[1], sys.argv[2]))
