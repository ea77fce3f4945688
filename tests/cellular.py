"""Integral homology of a topology.CellComplex, by the cellulation the
topology module docstring documents, and a Smith normal form over Z.

The chain complex is built from the complex's columns alone.  A site of
valence d has d circles, each a vertex p and a loop c, which its d
attachments take in order (edges first, src before dst, then ends), and
d - 1 rungs from its first circle's vertex to each other one; its face
bounds every one of its loops once.  Edge k adds a rung between the
vertices of its two circles and a face with word c_a r c_b^sign r^-1.  An
end at a node (degree 0) adds a face on its circle; an end of degree mu
adds a core vertex and loop z, a rung to it and a face with word
c r z^mu r^-1.  Surgery handles are left out: each only subtracts 2 from
chi.  The matrices are lists of rows, small enough for a few hundred
cells.
"""
from typing import NamedTuple


class Homology(NamedTuple):
    """H0, H1 and H2 over Z: free ranks, and H1's torsion factors > 1."""

    b0: int
    b1: int
    torsion: tuple[int, ...]
    b2: int


def smith_invariants(rows):
    """The nonzero invariant factors d1 | d2 | ... of an integer matrix
    given as a list of rows, by row and column operations over Z."""
    a = [list(row) for row in rows]
    m, n = len(a), len(a[0]) if a else 0
    factors = []
    for t in range(min(m, n)):
        entries = [(abs(a[i][j]), i, j) for i in range(t, m)
                   for j in range(t, n) if a[i][j]]
        if not entries:
            break
        _, i, j = min(entries)
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:
            p = a[t][t]
            # Clear column t, then row t, by division; a remainder is a
            # smaller pivot, swapped in before going on.
            smaller = next((i for i in range(t + 1, m)
                            if _reduce_row(a, t, i, p)), None)
            if smaller is not None:
                a[t], a[smaller] = a[smaller], a[t]
                continue
            smaller = next((j for j in range(t + 1, n)
                            if _reduce_column(a, t, j, p)), None)
            if smaller is not None:
                for row in a:
                    row[t], row[smaller] = row[smaller], row[t]
                continue
            # p must divide the rest; else add a row it does not divide.
            bad = next((i for i in range(t + 1, m)
                        if any(x % p for x in a[i][t + 1:])), None)
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
        factors.append(abs(a[t][t]))
    return factors


def _reduce_row(a, t, i, p):
    """Subtract from row i the multiple of row t that leaves a[i][t] its
    remainder mod p; whether that remainder is nonzero."""
    q = a[i][t] // p
    if q:
        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
    return a[i][t] != 0


def _reduce_column(a, t, j, p):
    """As _reduce_row, for column j against column t."""
    q = a[t][j] // p
    if q:
        for row in a:
            row[j] -= q * row[t]
    return a[t][j] != 0


def boundaries(cx):
    """(cells, d1, d2) of the cellulation: cells is (V, E, F), d1 has a row
    per vertex and a column per 1-cell, d2 a row per 1-cell and a column
    per face."""
    points = []     # per 1-cell, (tail vertex, head vertex)
    faces = []      # per face, {1-cell: coefficient}
    vertex = 0
    circles = []    # per site, its circles' (vertex, loop), in order
    for d in cx.valence:
        own = []
        for _ in range(d):
            own.append((vertex, len(points)))
            points.append((vertex, vertex))
            vertex += 1
        for p, _ in own[1:]:
            points.append((own[0][0], p))
        faces.append({loop: 1 for _, loop in own})
        circles.append(iter(own))
    taken = [next(circles[s]) for pair in zip(cx.edge_src, cx.edge_dst)
             for s in pair]
    for k, sign in enumerate(cx.edge_sign):
        (p, c), (q, e) = taken[2 * k], taken[2 * k + 1]
        points.append((p, q))
        faces.append({c: 1, e: sign})
    for s, mu in zip(cx.end_site, cx.end_degree):
        p, c = next(circles[s])
        if not mu:
            faces.append({c: 1})
            continue
        points.append((vertex, vertex))
        points.append((p, vertex))
        faces.append({c: 1, len(points) - 2: mu})
        vertex += 1
    d1 = [[0] * len(points) for _ in range(vertex)]
    for j, (tail, head) in enumerate(points):
        if tail != head:
            d1[tail][j] -= 1
            d1[head][j] += 1
    d2 = [[face.get(j, 0) for face in faces] for j in range(len(points))]
    return (vertex, len(points), len(faces)), d1, d2


def integral_homology(cx):
    """The integral homology of the cellulation of cx (handles left out)."""
    (cells_v, cells_e, cells_f), d1, d2 = boundaries(cx)
    rank1 = len(smith_invariants(d1))
    factors = smith_invariants(d2)
    return Homology(b0=cells_v - rank1,
                    b1=cells_e - rank1 - len(factors),
                    torsion=tuple(f for f in factors if f > 1),
                    b2=cells_f - len(factors))
