"""Per-element comparison maps, for the tests only.

Each map walks the cosets, double cosets or elements of G for every basis
element in the support of its argument, in the element's scalar ring: the
reference for the integer rows that motive_ring builds once per algebra
(CrossedBurnsideRing.mark_rows, MackeyAlgebra.zeta_row, iota_row and
project_matrix), from which its checks decide each identity over Z.  It
shares no row or memo with them, and its cosets and double cosets are the
element sweeps of reference_groups, not the package's coset tables.
"""

from __future__ import annotations

from reference_groups import double_cosets, fixed_cosets, left_cosets

from motive_ring.algebra import Element


def _accumulate(out: dict, key, c, s) -> None:
    v = s.add(out.get(key, s.zero), c)
    if s.is_zero(v):
        out.pop(key, None)
    else:
        out[key] = v


def center_image(xring, x: Element) -> dict:
    """rho: [H,a] goes to the sum of the conjugates of a over coset
    representatives of H."""
    G, s = xring.group, x.scalar
    out: dict = {}
    for i, c in enumerate(x.coeffs):
        if s.is_zero(c):
            continue
        pair = xring.pairs[i]
        H = xring.table.classes[pair.subgroup_class].representative
        for g in left_cosets(G, H):
            _accumulate(out, G.conj(g, pair.label), c, s)
    return out


def crossed_marks(xring, x: Element) -> tuple[dict, ...]:
    """Per subgroup class H: sum of conjugated labels over H-fixed cosets."""
    G, s = xring.group, x.scalar
    classes = xring.table.classes
    components = []
    for cls in classes:
        comp: dict = {}
        for i, c in enumerate(x.coeffs):
            if s.is_zero(c):
                continue
            pair = xring.pairs[i]
            D = classes[pair.subgroup_class].representative
            for g in fixed_cosets(G, cls.representative, D):
                _accumulate(comp, G.conj(g, pair.label), c, s)
        components.append(comp)
    return tuple(components)


def crossed_to_mackey_center(mackey, xring, x: Element) -> Element:
    """zeta: a basis pair [L,a] contributes, for every subgroup U and every
    double coset rep w of L\\G/U, the span with stabilizer w^-1 L w n U over
    the point pair (eU, sU) in the U-component, where s = w^-1 a w."""
    G, s = mackey.group, x.scalar
    acc = [s.zero] * mackey.n
    for i, c in enumerate(x.coeffs):
        if s.is_zero(c):
            continue
        pair = xring.pairs[i]
        L = xring.table.classes[pair.subgroup_class].representative
        for si, U in enumerate(mackey.subgroups):
            for w in double_cosets(G, L, U)[0]:
                winv = G.inv(w)
                S = G.conjugate_subgroup(winv, L) & U
                slabel = G.conj(winv, pair.label)
                k = mackey.span_index(S, mackey.point_of(si, 0), mackey.point_of(si, slabel))
                acc[k] = s.add(acc[k], c)
    return Element(mackey, s, tuple(acc))


def center_to_hecke(mackey, Z, z: Element) -> dict:
    """iota: for each subgroup H and double coset rep g of H\\G/H the
    operator of the span (H n gHg^-1 over (eH, gH)) enters with coefficient
    sum over h in H of the coefficient of z at gh."""
    G, s = mackey.group, z.scalar
    ga = Z.to_group_algebra(z)
    op: dict = {}
    for si, H in enumerate(mackey.subgroups):
        for g in double_cosets(G, H, H)[0]:
            coeff = s.zero
            for h in H:
                coeff = s.add(coeff, ga.get(G.mul(g, h), s.zero))
            if s.is_zero(coeff):
                continue
            S = H & G.conjugate_subgroup(g, H)
            x_pt, y_pt = mackey.point_of(si, 0), mackey.point_of(si, g)
            for v in left_cosets(G, S):
                _accumulate(op, (mackey.act[v][y_pt], mackey.act[v][x_pt]), coeff, s)
    return op


def project(mackey, x: Element) -> dict:
    """pi: the span (S, x, y) sends the point g x to g y once per coset gS.
    Walked over every g in G, each coset is met |S| times, so the counts
    {(g y, g x): g} are divided by |S|."""
    G, s = mackey.group, x.scalar
    op: dict = {}
    for i, c in enumerate(x.coeffs):
        if s.is_zero(c):
            continue
        b = mackey.basis[i]
        counts: dict = {}
        for g in range(G.order):
            key = (mackey.act[g][b.y], mackey.act[g][b.x])
            counts[key] = counts.get(key, 0) + 1
        for key, m in counts.items():
            _accumulate(op, key, s.mul_int(c, m // len(b.stabilizer)), s)
    return op
