"""Metamorphic pairs: one abstract group in two permutation actions.

S3 on 3 points against its regular action on 6 points, and D8 as
dihedral:4 against its regular action on 8 points.  Every invariant the
package computes depends on the group alone, so each pair must agree on
the subgroup class sizes, the table of marks up to the matching of the
classes, the crossed rank, the Dress and block counts, the span count and
the Mackey center dimension over Q and F_2.  All of them run through the
coset walks (coset_lookup and the double-coset meets); the degree and the
element order of the two groups differ, so a walk that read either would
split a pair.
"""

from __future__ import annotations

import pytest

from motive_ring.burnside import BurnsideRing
from motive_ring.center import CenterAlgebra
from motive_ring.crossed import CrossedBurnsideRing
from motive_ring.groups import Permutation, construct_group
from motive_ring.mackey import MackeyAlgebra
from motive_ring.scalars import QQ, prime_field
from motive_ring.subgroups import SubgroupClassTable, prime_divisors


def regular(G):
    """(W, phi): G acting on its own elements by right multiplication,
    as a gens: group on |G| points, and the isomorphism phi from the
    element indices of G to those of W."""
    def image(s):
        return Permutation(G.mul(g, s) for g in range(G.order))

    W = construct_group("gens:" + ";".join(image(s).cycle_string() for s in G.generator_indices))
    return W, [W.element_index(image(s)) for s in range(G.order)]


def invariants(table):
    G = table.group
    xr = CrossedBurnsideRing(table)
    Z = CenterAlgebra(G)
    mk = MackeyAlgebra(table)
    primes = prime_divisors(G.order)
    return {
        "class sizes": sorted((c.order, c.class_size) for c in table.classes),
        "crossed rank": xr.n,
        "dress": [len(xr.dress_idempotents(mode)) for mode in ["solvable", *primes]],
        "blocks": [len(Z.primitive_idempotents(p)[1]) for p in primes],
        "spans": mk.n,
        "mackey center": [len(mk.center_basis(s)) for s in (QQ, prime_field(2))],
    }


@pytest.mark.parametrize("spec, degree", [("sym:3", 6), ("dihedral:4", 8)])
def test_the_regular_action_has_the_same_invariants(spec, degree):
    G = construct_group(spec)
    W, phi = regular(G)
    assert (W.degree, W.order) == (degree, G.order)
    table, wtable = SubgroupClassTable(G), SubgroupClassTable(W)
    # the class of W that phi carries each class of G onto
    match = [wtable.fusion(frozenset(phi[g] for g in c.representative))[0] for c in table.classes]
    assert sorted(match) == list(range(len(wtable)))
    marks = BurnsideRing(table).table_of_marks().marks
    wmarks = BurnsideRing(wtable).table_of_marks().marks
    assert [[wmarks[a][b] for b in match] for a in match] == [list(row) for row in marks]
    assert invariants(table) == invariants(wtable)
