"""Metamorphic pairs: one abstract group in two permutation actions.

S3, D8, A4 and A5 against their regular actions on 6, 8, 12 and 60 points,
and D8 as dihedral:4 against a conjugate copy inside S4 given by `gens:`.
Every invariant the package computes depends on the group alone, so each
pair must agree on the subgroup class sizes, the table of marks up to the
matching of the classes, the crossed rank, and the Dress and block counts;
within the span bound also on the span count and the Mackey center
dimension over Q and F_2.  All of them run through the coset walks
(coset_lookup and the double-coset meets), the Dimino joins and the
crossed products; the element order of the two groups differs, so a walk
that read it would split a pair.  Each pair asserts that its numbering
differs.
"""

from __future__ import annotations

import pytest

from motive_ring.burnside import BurnsideRing
from motive_ring.center import CenterAlgebra
from motive_ring.crossed import CrossedBurnsideRing
from motive_ring.groups import Permutation, construct_group, parse_cycles
from motive_ring.mackey import DEFAULT_SPAN_BOUND, MackeyAlgebra
from motive_ring.scalars import QQ, prime_field
from motive_ring.subgroups import SubgroupClassTable, prime_divisors


def regular(G):
    """(W, phi): G acting on its own elements by left multiplication,
    g -> s^-1 g, as a gens: group on |G| points, and the isomorphism phi
    from the element indices of G to those of W.  The image of s sends
    the identity to s^-1, so W numbers s as G numbers s^-1, and W's table
    is the transpose of G's.  (Right multiplication would send it to s
    and keep G's numbering.)"""
    def image(s):
        return Permutation(G.mul(G.inv(s), g) for g in range(G.order))

    gens = ";".join(image(s).cycle_string() for s in G.generator_indices)
    W = construct_group("gens:" + gens, degree_bound=G.order)
    return W, [W.element_index(image(s)) for s in range(G.order)]


def conjugate(G, sigma):
    """(W, phi): sigma^-1 G sigma on the same points, as a gens: group,
    and the isomorphism phi: g -> sigma^-1 g sigma on element indices."""
    def image(s):
        return sigma.inverse() * G.perm(s) * sigma

    gens = ";".join(image(s).cycle_string() for s in G.generator_indices)
    W = construct_group("gens:" + gens)
    return W, [W.element_index(image(s)) for s in range(G.order)]


def invariants(table):
    G = table.group
    xr = CrossedBurnsideRing(table)
    Z = CenterAlgebra(G)
    primes = prime_divisors(G.order)
    out = {
        "class sizes": sorted((c.order, c.class_size) for c in table.classes),
        "crossed rank": xr.n,
        "dress": [len(xr.dress_idempotents(mode)) for mode in ["solvable", *primes]],
        "blocks": [len(Z.primitive_idempotents(p)[1]) for p in primes],
    }
    if G.order <= DEFAULT_SPAN_BOUND:
        mk = MackeyAlgebra(table)
        out["spans"] = mk.n
        out["mackey center"] = [len(mk.center_basis(s)) for s in (QQ, prime_field(2))]
    return out


def assert_same_invariants(G, W, phi):
    table, wtable = SubgroupClassTable(G), SubgroupClassTable(W)
    # the class of W that phi carries each class of G onto
    match = [wtable.fusion(frozenset(phi[g] for g in c.representative))[0] for c in table.classes]
    assert sorted(match) == list(range(len(wtable)))
    marks = BurnsideRing(table).table_of_marks().marks
    wmarks = BurnsideRing(wtable).table_of_marks().marks
    assert [[wmarks[a][b] for b in match] for a in match] == [list(row) for row in marks]
    assert invariants(table) == invariants(wtable)


@pytest.mark.parametrize(
    "spec, degree", [("sym:3", 6), ("dihedral:4", 8), ("alt:4", 12), ("alt:5", 60)]
)
def test_the_regular_action_has_the_same_invariants(spec, degree):
    G = construct_group(spec)
    W, phi = regular(G)
    assert (W.degree, W.order) == (degree, G.order)
    assert phi != list(range(G.order))
    assert_same_invariants(G, W, phi)


def test_a_conjugate_copy_of_d8_inside_s4_has_the_same_invariants():
    G = construct_group("dihedral:4")
    W, phi = conjugate(G, parse_cycles("(2 3)", 4))
    assert W.name == "gens:(1 3 2 4);(3 4)" and W.order == 8
    assert phi != list(range(G.order))
    assert_same_invariants(G, W, phi)
