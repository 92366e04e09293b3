"""Reference versions of the group-layer kernels, kept as test oracles.

Each is the earlier, slower algorithm the package used before its current
kernel, and none calls that kernel: the breadth-first closure, the class
walk that conjugates every new class by all of G, marks as counts of fixed
cosets, and the coset walks as element sweeps.  The package reads every
coset off FiniteGroup.coset_lookup and every double coset, with its meet
H n gKg^-1, off SubgroupClassTable.double_coset_meets; here left_cosets,
double_cosets and fixed_cosets sweep the elements of G instead, and the
double-coset meets follow from them.  The exhaustive oracles for the
lattice follow: depth-first growth by breadth-first closures, a literal
subset scan, and the p-residual as the least normal subgroup with p-group
quotient.
"""

from __future__ import annotations

from motive_ring.groups import FiniteGroup


def key(subgroup) -> tuple[int, ...]:
    return tuple(sorted(subgroup))


def closure_bfs(G: FiniteGroup, gens) -> frozenset[int]:
    """Subgroup generated by gens: breadth-first search, one set test per
    element and generator."""
    els = {0}
    gens = [g for g in gens if g != 0]
    frontier = [0]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = G.mul(a, g)
                if c not in els:
                    els.add(c)
                    new.append(c)
        frontier = new
    return frozenset(els)


def small_generating_set_bfs(G: FiniteGroup, subgroup) -> list[int]:
    """Greedy generators in increasing order, one full closure per step."""
    gens: list[int] = []
    cur = frozenset({0})
    for x in sorted(subgroup):
        if x not in cur:
            gens.append(x)
            cur = closure_bfs(G, gens)
            if len(cur) == len(subgroup):
                break
    return gens


def walk_classes_by_sweep(G: FiniteGroup):
    """(representatives, normalizers, subgroups, fusion) by cyclic extension,
    each new class conjugated once by every element of G.

    Classes come in (order, key) order, subgroups too; fusion maps each
    subgroup key to (class index, the inverse of the least g with
    g rep g^-1 = K).
    """
    cyclic: dict[tuple[int, ...], int] = {}
    cyclic_of = [0] * G.order
    for g in range(1, G.order):
        cyclic_of[g] = cyclic.setdefault(key(closure_bfs(G, [g])), g)
    reps, rep_gens, normalizers, subgroups = [], [], [], []
    found: dict[tuple[int, ...], tuple[int, int]] = {}

    def add_class(J, gens):
        key_by_g = [key(G.conjugate_subgroup(g, J)) for g in range(G.order)]
        rep_key = min(key_by_g)
        g0 = key_by_g.index(rep_key)
        normalizer = []
        for g in range(G.order):
            kk = key_by_g[G.mul(g, g0)]
            if kk == rep_key:
                normalizer.append(g)
            if kk not in found:
                found[kk] = (len(reps), G.inv(g))
                subgroups.append(frozenset(kk))
        reps.append(frozenset(rep_key))
        rep_gens.append([G.conj(g0, x) for x in gens])
        normalizers.append(frozenset(normalizer))

    add_class(frozenset({0}), [])
    i = 0
    while i < len(reps):
        joined: set[int] = set()
        for cg in cyclic.values():
            if cg in reps[i] or cg in joined:
                continue
            joined.update(cyclic_of[G.conj(n, cg)] for n in normalizers[i])
            J = closure_bfs(G, rep_gens[i] + [cg])
            if key(J) not in found:
                add_class(J, rep_gens[i] + [cg])
        i += 1
    order = sorted(range(len(reps)), key=lambda c: (len(reps[c]), key(reps[c])))
    renumber = {old: new for new, old in enumerate(order)}
    fusion = {k: (renumber[i], g) for k, (i, g) in found.items()}
    subgroups.sort(key=lambda s: (len(s), key(s)))
    return [reps[i] for i in order], [normalizers[i] for i in order], subgroups, fusion


def left_cosets(G: FiniteGroup, H) -> list[int]:
    """The least member of each left coset gH, increasing: each element
    not in a coset met so far starts one."""
    H = sorted(H)
    seen = [False] * G.order
    reps = []
    for g in range(G.order):
        if not seen[g]:
            reps.append(g)
            for h in H:
                seen[G.mul(g, h)] = True
    return reps


def double_cosets(G: FiniteGroup, H, K) -> tuple[tuple[int, ...], tuple[frozenset[int], ...]]:
    """(least elements g, cells HgK), in increasing g, each cell swept as
    the products h g k."""
    seen = [False] * G.order
    reps, cells = [], []
    for g in range(G.order):
        if seen[g]:
            continue
        cell = frozenset(G.mul(G.mul(h, g), k) for h in H for k in K)
        for x in cell:
            seen[x] = True
        reps.append(g)
        cells.append(cell)
    return tuple(reps), tuple(cells)


def fixed_cosets(G: FiniteGroup, H, K) -> tuple[int, ...]:
    """Left-coset reps g of K with H contained in gKg^-1."""
    K = frozenset(K)
    return tuple(
        g for g in left_cosets(G, K) if all(G.mul(G.mul(G.inv(g), h), g) in K for h in H)
    )


def marks_by_fixed_cosets(G: FiniteGroup, reps) -> tuple[tuple[int, ...], ...]:
    """marks[i][j]: the cosets gK_j with every element of H_i in gK_jg^-1,
    counted as the elements g with H_i <= gK_jg^-1, over |K_j|."""
    return tuple(
        tuple(
            sum(
                all(G.mul(G.mul(G.inv(g), h), g) in K for h in H) for g in range(G.order)
            ) // len(K)
            for K in reps
        )
        for H in reps
    )


def meets_by_sweep(table, h: int, k: int) -> tuple[tuple[int, int], ...]:
    """(class of H n gKg^-1, g) per double coset HgK, g its least element,
    from the element sweep double_cosets."""
    G = table.group
    H, K = table.classes[h].representative, table.classes[k].representative
    return tuple(
        (table.fusion(H & G.conjugate_subgroup(g, K))[0], g)
        for g in double_cosets(G, H, K)[0]
    )


def all_subgroups_dfs(G: FiniteGroup) -> list[frozenset[int]]:
    """Every subgroup by depth-first growth, one generator at a time, each
    closed breadth-first."""
    trivial = frozenset({0})
    seen = {key(trivial): trivial}
    stack = [(trivial, [])]
    while stack:
        H, gens = stack.pop()
        for g in range(1, G.order):
            if g in H:
                continue
            J = closure_bfs(G, gens + [g])
            if key(J) not in seen:
                seen[key(J)] = J
                stack.append((J, gens + [g]))
    return sorted(seen.values(), key=lambda s: (len(s), key(s)))


def all_subgroups_subsets(G: FiniteGroup) -> list[frozenset[int]]:
    """Literal subset scan (|G| <= 20): every subset closed under the table."""
    n = G.order
    if n > 20:
        raise ValueError("subset scan only supported for tiny groups")
    others = list(range(1, n))
    out = []
    for mask in range(1 << len(others)):
        subset = {0}
        m = mask
        for x in others:
            if m & 1:
                subset.add(x)
            m >>= 1
        if n % len(subset) != 0:
            continue
        if all(G.mul(a, b) in subset for a in subset for b in subset):
            out.append(frozenset(subset))
    return sorted(out, key=lambda s: (len(s), key(s)))


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def p_residual_oracle(G: FiniteGroup, H, p: int, subgroups_of_G) -> frozenset[int]:
    """Exhaustive check: minimal normal N of H with H/N a p-group."""
    Hset = frozenset(H)
    hits = []
    for N in subgroups_of_G:
        if not N <= Hset:
            continue
        index = len(Hset) // len(N)
        if not _is_p_power(index, p):
            continue
        if all(G.conjugate_subgroup(h, N) == N for h in Hset):
            hits.append(N)
    best = min(hits, key=len)
    assert all(best <= N for N in hits), "minimal normal with p-quotient not unique"
    return best
