"""Output checks that share no code with the searches they check.

The scan table is checked against verdicts known for M <= 40, and every
ESCAPABLE witness is re-checked here by a clique search: for a color c,
X + X lies in c exactly when every a in X has 2a colored c and every pair
a < b in X has a + b colored c, so a monochromatic k-sumset is a k-clique
in the graph of such a, b.  The search module enumerates X directly.
"""

from __future__ import annotations

import csv
from pathlib import Path

# Least FORCED M for (k, r); the other pairs benchmarked are ESCAPABLE for
# every M <= 40.
LEAST_FORCED = {(2, 2): 14}
KNOWN_UP_TO = 40


def expected_verdict(k: int, r: int, M: int) -> str:
    if M > KNOWN_UP_TO:
        raise ValueError(f"no known verdict for M={M} > {KNOWN_UP_TO}")
    least = LEAST_FORCED.get((k, r))
    return "FORCED" if least is not None and M >= least else "ESCAPABLE"


def _has_clique(chosen: int, candidates: list[int], k: int, joined) -> bool:
    if chosen == k:
        return True
    for i, a in enumerate(candidates):
        rest = [b for b in candidates[i + 1:] if joined(a, b)]
        if chosen + 1 + len(rest) >= k and _has_clique(chosen + 1, rest, k, joined):
            return True
    return False


def monochromatic_sumset_exists(colors: dict[int, int], k: int) -> bool:
    """Is there X of size k inside 1..M//2 with X + X in one color?"""
    limit = len(colors) // 2
    for c in set(colors.values()):
        nodes = [a for a in range(1, limit + 1) if colors[2 * a] == c]
        if _has_clique(0, nodes, k, lambda a, b, c=c: colors[a + b] == c):
            return True
    return False


def read_witness(path: Path, r: int, M: int) -> dict[int, int]:
    colors = {}
    for line in path.read_text().splitlines():
        position, _, color = line.partition(":")
        colors[int(position)] = int(color)
    if sorted(colors) != list(range(1, M + 1)):
        raise ValueError(f"{path.name} does not color exactly 1..{M}")
    if any(not 0 <= c < r for c in colors.values()):
        raise ValueError(f"{path.name} uses a color outside 0..{r - 1}")
    return colors


def check_scan_table(csv_path: Path, k: int, r: int, m_max: int) -> None:
    """Raise ValueError unless the table has the known verdict at every M
    and every ESCAPABLE witness really escapes."""
    rows = [
        row for row in csv.reader(csv_path.read_text().splitlines())
        if row and not row[0].startswith("#")
    ]
    if rows[0] != ["k", "r", "M", "verdict", "witness"]:
        raise ValueError(f"unexpected header {rows[0]}")
    if [int(row[2]) for row in rows[1:]] != list(range(1, m_max + 1)):
        raise ValueError(f"rows do not cover M = 1..{m_max}")
    for row_k, row_r, row_m, verdict, witness in rows[1:]:
        M = int(row_m)
        if (int(row_k), int(row_r)) != (k, r):
            raise ValueError(f"row for M={M} names k={row_k}, r={row_r}")
        if verdict != expected_verdict(k, r, M):
            raise ValueError(f"M={M}: verdict {verdict}, known {expected_verdict(k, r, M)}")
        if verdict == "ESCAPABLE":
            colors = read_witness(csv_path.with_name(witness), r, M)
            if monochromatic_sumset_exists(colors, k):
                raise ValueError(f"M={M}: witness {witness} has a monochromatic sumset")
        elif witness:
            raise ValueError(f"M={M}: {verdict} row names a witness")
