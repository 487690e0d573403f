"""Output check for one benchmark run.

Every CSV a run produced must parse with the expected header and row count,
hold only finite values (the first table row's two rates are NaN by
definition: there is no coarser N to compare with), and have std >= 0.  At
seed 0 each number must also match the value pinned from the reference
commit to an absolute 1e-9.  Across thread counts the bytes must agree
exactly: the estimator reduces in fixed sample order, so 1 and 2 threads
write identical CSVs.
"""

from __future__ import annotations

import math

PIN_ATOL = 1e-9
RATE_COLUMNS = ("rate_T", "rate_L2J")


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


def check_csv(text: str, header: list[str], n_rows: int,
              pinned: str | None = None) -> list[str]:
    """Problems found in one CSV; an empty list means it passed."""
    try:
        got_header, rows = parse_csv(text)
    except (ValueError, IndexError) as exc:
        return [f"unparsable CSV: {exc}"]
    if got_header != header:
        return [f"header {got_header} != {header}"]
    problems = []
    if len(rows) != n_rows:
        problems.append(f"{len(rows)} rows, expected {n_rows}")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            problems.append(f"row {i} has {len(row)} fields")
            continue
        for name, v in zip(header, row):
            nan_by_definition = i == 0 and name in RATE_COLUMNS
            if nan_by_definition != math.isnan(v) or math.isinf(v):
                problems.append(f"row {i} {name} = {v}")
        if "std" in header and row[header.index("std")] < 0:
            problems.append(f"row {i} std < 0")
    if pinned is not None:
        _, ref = parse_csv(pinned)
        if len(ref) != len(rows):
            problems.append(f"{len(rows)} rows, pinned {len(ref)}")
        for i, (row, ref_row) in enumerate(zip(rows, ref)):
            for name, v, r in zip(header, row, ref_row):
                same_nan = math.isnan(v) and math.isnan(r)
                if not same_nan and not abs(v - r) <= PIN_ATOL:
                    problems.append(f"row {i} {name} = {v!r}, pinned {r!r}")
    return problems
