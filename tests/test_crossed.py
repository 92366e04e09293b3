from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest
from dense_linalg import rank_field
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from test_algebra import crossed_ring
from test_center import literal_block_scan
from test_mackey import read
from test_subgroups import gens_specs, small_group

from motive_ring.burnside import BurnsideRing
from motive_ring.center import ga_mul
from motive_ring.groups import construct_group, orbits, parse_cycles
from motive_ring.linalg import integer_rank
from motive_ring.scalars import QQ, ZZ, ScalarError, prime_field
from motive_ring.subgroups import SubgroupClassTable, prime_divisors
from motive_ring.crossed import CrossedBurnsideRing


# -- basis ---------------------------------------------------------------------


def test_trivial_group_has_one_pair():
    xr = CrossedBurnsideRing(SubgroupClassTable(construct_group("cyclic:1")))
    assert xr.n == 1
    assert xr.one().to_json() == {"[1#1,()]": "1"}


def test_c2_basis(ws):
    xr = ws.crossed("C2")
    assert [p.name for p in xr.pairs] == [
        "[1#1,()]",
        "[1#1,(1 2)]",
        "[C2#1,()]",
        "[C2#1,(1 2)]",
    ]


def test_s3_basis_distribution(ws):
    xr = ws.crossed("S3")
    assert xr.n == 8
    per_class = {}
    for p in xr.pairs:
        name = ws.table("S3").classes[p.subgroup_class].name
        per_class[name] = per_class.get(name, 0) + 1
    assert per_class == {"1#1": 3, "C2#1": 2, "C3#1": 2, "S3#1": 1}


def test_basis_count_equals_orbit_count(ws):
    # independent count: orbits of simultaneous conjugation on labelled pairs
    for name in ["S3", "D8", "A4", "A5"]:
        G = ws.group(name)
        table = ws.table(name)
        xr = ws.crossed(name)
        count = 0
        for cls in table.classes:
            N = sorted(cls.normalizer)
            seen = set()
            for a in sorted(cls.centralizer):
                if a in seen:
                    continue
                seen |= {G.conj(n, a) for n in N}
                count += 1
        assert xr.n == count
    assert ws.crossed("A5").n == 20


def test_label_outside_centralizer_rejected(ws):
    xr = ws.crossed("S3")
    table = ws.table("S3")
    C3 = table.class_named("C3#1").representative
    transposition = next(
        x for x in range(6) if ws.group("S3").element_order(x) == 2
    )
    with pytest.raises(ValueError, match="label outside centralizer"):
        xr.canonical_pair(C3, transposition)


# -- product -------------------------------------------------------------------


def labelled_basis(xr, class_name, label_cycles):
    cls = xr.table.class_named(class_name)
    label = xr.group.element_index(parse_cycles(label_cycles, xr.group.degree))
    return xr.basis_element(xr.canonical_pair(cls.representative, label))


def test_c2_labelled_squares(ws):
    xr = ws.crossed("C2")
    full_t = labelled_basis(xr, "C2#1", "(1 2)")
    assert (full_t * full_t).to_json() == {"[C2#1,()]": "1"}
    free_t = labelled_basis(xr, "1#1", "(1 2)")
    assert (free_t * free_t).to_json() == {"[1#1,()]": "2"}


def test_unit(ws):
    for name in ["C2", "S3", "A4"]:
        xr = ws.crossed(name)
        one = xr.one()
        for i in range(xr.n):
            b = xr.basis_element(i)
            assert (one * b).coeffs == b.coeffs
            assert (b * one).coeffs == b.coeffs


@pytest.mark.parametrize("name", ["C2", "S3", "D8", "A4", "S4"])
def test_product_matches_orbit_oracle_exhaustively(name, ws):
    xr = ws.crossed(name)
    for i in range(xr.n):
        for j in range(xr.n):
            assert xr._basis_product(i, j) == xr.basis_product_oracle(i, j)


def assert_sampled_products_match_orbit_oracle(xr, pairs, seed):
    rng = random.Random(seed)
    for _ in range(pairs):
        i, j = rng.randrange(xr.n), rng.randrange(xr.n)
        assert xr._basis_product(i, j) == xr.basis_product_oracle(i, j)


def test_product_matches_orbit_oracle_sampled_a5(ws):
    assert_sampled_products_match_orbit_oracle(ws.crossed("A5"), 12, seed=0)


def test_product_matches_orbit_oracle_sampled_s5():
    xr = CrossedBurnsideRing(SubgroupClassTable(construct_group("sym:5")))
    assert_sampled_products_match_orbit_oracle(xr, 2000, seed=5)


def test_product_matches_orbit_oracle_on_the_regular_quotient_s5():
    # S5 / 1 acting on its 120 cosets: the largest quotient p-local-report builds
    table = SubgroupClassTable(construct_group("sym:5"))
    W = table.quotient(table.classes[-1].representative, table.classes[0].representative)
    assert W.degree == W.order == 120
    xr = CrossedBurnsideRing(SubgroupClassTable(W))
    assert_sampled_products_match_orbit_oracle(xr, 300, seed=1)


def literal_orbit_stabilizers(xr, i, j):
    """(stabilizer, label) of the first point of every orbit of the product
    set of pairs i and j, in the oracle's orbit order; the stabilizer is
    found by testing every element of G."""
    G = xr.group
    H = xr.table.classes[xr.pairs[i].subgroup_class].representative
    K = xr.table.classes[xr.pairs[j].subgroup_class].representative
    reps_h, where_h = G.coset_lookup(H)
    reps_k, where_k = G.coset_lookup(K)
    gens = [
        ([where_h[G.mul(g, r)] for r in reps_h], [where_k[G.mul(g, r)] for r in reps_k])
        for g in G.generator_indices
    ]
    points = [(x, y) for x in range(len(reps_h)) for y in range(len(reps_k))]
    out = []
    for orbit in orbits(points, gens, lambda g, p: (g[0][p[0]], g[1][p[1]])):
        x0, y0 = orbit[0]
        rx, ry = reps_h[x0], reps_k[y0]
        stab = frozenset(
            g for g in range(G.order) if where_h[G.mul(g, rx)] == x0 and where_k[G.mul(g, ry)] == y0
        )
        out.append((stab, G.mul(G.conj(rx, xr.pairs[i].label), G.conj(ry, xr.pairs[j].label))))
    return out


@pytest.mark.parametrize("spec", ["sym:4", "alt:5"])
def test_oracle_stabilizers_match_the_literal_scan(spec, monkeypatch):
    xr = CrossedBurnsideRing(SubgroupClassTable(construct_group(spec)))
    seen = []
    canonical = xr.canonical_pair
    monkeypatch.setattr(xr, "canonical_pair", lambda stab, label: seen.append((stab, label)) or canonical(stab, label))
    for i in range(xr.n):
        for j in range(xr.n):
            seen.clear()
            xr.basis_product_oracle(i, j)
            assert seen == literal_orbit_stabilizers(xr, i, j)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(gens_specs(), st.randoms(use_true_random=False))
def test_product_matches_orbit_oracle_on_random_groups(spec, rng):
    xr = CrossedBurnsideRing(SubgroupClassTable(small_group(spec, max_order=24)))
    for _ in range(20):
        i, j = rng.randrange(xr.n), rng.randrange(xr.n)
        assert xr._basis_product(i, j) == xr.basis_product_oracle(i, j)


@pytest.mark.parametrize("name", ["C2", "S3", "D8", "A4"])
def test_ring_axioms_exhaustive(name, ws):
    xr = ws.crossed(name)
    for i in range(xr.n):
        for j in range(xr.n):
            assert xr._basis_product(i, j) == xr._basis_product(j, i)
    for i in range(xr.n):
        for j in range(xr.n):
            for k in range(xr.n):
                bi, bj, bk = (xr.basis_element(t) for t in (i, j, k))
                assert ((bi * bj) * bk).coeffs == (bi * (bj * bk)).coeffs


def test_mixed_scalars_rejected(ws):
    xr = ws.crossed("C2")
    with pytest.raises(ScalarError, match="mixed scalar"):
        xr.multiply(xr.basis_element(0, ZZ), xr.basis_element(0, QQ))


# -- marks ----------------------------------------------------------------------


def crossed_marks(xr, x) -> tuple[dict, ...]:
    """The crossed marks of x over Z or Z_(p), read off the integer rows."""
    return tuple(read(xr.mark_rows(k).__getitem__, x) for k in range(len(xr.table)))


def center_image(xr, x) -> dict:
    return read(xr.mark_rows(0).__getitem__, x)


def test_marks_vanish_without_subconjugacy(ws):
    xr = ws.crossed("S3")
    table = ws.table("S3")
    G = ws.group("S3")
    for i, pair in enumerate(xr.pairs):
        ghost = crossed_marks(xr, xr.basis_element(i))
        D = table.classes[pair.subgroup_class].representative
        for k, cls in enumerate(table.classes):
            subconj = any(
                G.conjugate_subgroup(g, cls.representative) <= D
                for g in range(G.order)
            )
            if not subconj:
                assert ghost[k] == {}


def test_c2_free_label_marks(ws):
    xr = ws.crossed("C2")
    x = labelled_basis(xr, "1#1", "(1 2)")
    ghost = crossed_marks(xr, x)
    t = ws.group("C2").element_index(parse_cycles("(1 2)", 2))
    assert ghost == ({t: 2}, {})


def test_central_label_marks_at_top(ws):
    xr = ws.crossed("C2")
    x = labelled_basis(xr, "C2#1", "(1 2)")
    assert crossed_marks(xr, x)[1] == {1: 1}


@pytest.mark.parametrize("name", ["C2", "S3", "D8", "A4"])
def test_crossed_marks_are_multiplicative(name, ws):
    xr = ws.crossed(name)
    for i in range(xr.n):
        for j in range(xr.n):
            x, y = xr.basis_element(i), xr.basis_element(j)
            rhs = tuple(ga_mul(xr.group, a, b, ZZ) for a, b in zip(crossed_marks(xr, x), crossed_marks(xr, y)))
            assert crossed_marks(xr, x * y) == rhs


@pytest.mark.parametrize("name", ["C2", "S3", "D8", "A4", "S4", "A5"])
def test_crossed_marks_injective(name, ws):
    xr = ws.crossed(name)
    rows = [[QQ.coerce(v) for v in row] for row in xr.marks_matrix_rows()]
    assert rank_field(rows, QQ) == xr.n


@pytest.mark.parametrize("name", ["C2", "S3", "A4", "A5"])
def test_mark_squares_commute(name, ws):
    xr = ws.crossed(name)
    for i in range(xr.n):
        x = xr.basis_element(i)
        augmented = tuple(sum(c.values()) for c in crossed_marks(xr, x))
        assert augmented == xr.burnside.marks(xr.forget_labels(x))
    for k in range(len(xr.table)):
        b = xr.burnside.basis_element(k)
        lifted = tuple({0: m} if m else {} for m in xr.burnside.marks(b))
        assert crossed_marks(xr, xr.with_identity_labels(b)) == lifted


def test_forget_after_embed_is_identity(ws):
    xr = ws.crossed("S4")
    for k in range(len(xr.table)):
        b = xr.burnside.basis_element(k)
        assert xr.forget_labels(xr.with_identity_labels(b)).coeffs == b.coeffs


# -- the map to the group-algebra center --------------------------------------------


def test_center_image_of_central_pair(ws):
    xr = ws.crossed("C2")
    x = labelled_basis(xr, "C2#1", "(1 2)")
    assert center_image(xr, x) == {1: 1}
    free = labelled_basis(xr, "1#1", "()")
    assert center_image(xr, free) == {0: 2}


@pytest.mark.parametrize("name", ["C2", "S3", "D8", "A4"])
def test_center_image_is_ring_homomorphism(name, ws):
    xr = ws.crossed(name)
    G = ws.group(name)
    for i in range(xr.n):
        for j in range(xr.n):
            x, y = xr.basis_element(i), xr.basis_element(j)
            assert center_image(xr, x * y) == ga_mul(G, center_image(xr, x), center_image(xr, y), ZZ)


def test_center_image_is_conjugation_invariant(ws):
    xr = ws.crossed("A5")
    G = ws.group("A5")
    for i in range(xr.n):
        img = center_image(xr, xr.basis_element(i))
        for g in range(0, G.order, 11):
            assert {G.conj(g, k): v for k, v in img.items()} == img


@pytest.mark.parametrize("name", ["S3", "D8", "A4", "S4", "A5"])
def test_center_image_spans_center(name, ws):
    xr = ws.crossed(name)
    nclasses = len(ws.group(name).conjugacy_classes)
    rows = [dict(enumerate(row)) for row in xr.center_image_rows()]
    assert integer_rank(rows, QQ) == nclasses
    for p in prime_divisors(ws.group(name).order):
        assert integer_rank(rows, prime_field(p)) == nclasses


# -- integral idempotents --------------------------------------------------------------


@pytest.mark.parametrize("name", ["C2", "C4", "V4", "S3", "D8", "Q8", "A4", "S4"])
def test_soluble_integral_idempotent_is_identity(name, ws):
    xr = ws.crossed(name)
    family = xr.dress_idempotents("solvable")
    assert len(family) == 1
    assert family[0][1].coeffs == xr.one().coeffs


def test_a5_integral_idempotents_published_values(ws):
    xr = ws.crossed("A5")
    family = {ws.table("A5").classes[j].name: e for j, e in xr.dress_idempotents("solvable")}
    assert family["1#1"].to_json() == {
        "[1#1,()]": "1",
        "[C2#1,()]": "-2",
        "[C3#1,()]": "-1",
        "[S3#1,()]": "1",
        "[D10#1,()]": "1",
        "[A4#1,()]": "1",
    }
    assert family["A5#1"].to_json() == {
        "[1#1,()]": "-1",
        "[C2#1,()]": "2",
        "[C3#1,()]": "1",
        "[S3#1,()]": "-1",
        "[D10#1,()]": "-1",
        "[A4#1,()]": "-1",
        "[A5#1,()]": "1",
    }


def test_a5_center_images_of_idempotents(ws):
    xr = ws.crossed("A5")
    family = {ws.table("A5").classes[j].name: e for j, e in xr.dress_idempotents("solvable")}
    assert center_image(xr, family["1#1"]) == {0: 1}
    assert center_image(xr, family["A5#1"]) == {}


@pytest.mark.parametrize("name", ["C2", "C4", "V4", "S3", "D8"])
def test_scan_oracle_equivalence_small(name, ws):
    xr = ws.crossed(name)
    mine = sorted(e.coeffs for _, e in xr.dress_idempotents("solvable"))
    scanned = sorted(e.coeffs for e in xr.idempotent_oracle())
    assert mine == scanned


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(gens_specs())
def test_scan_oracle_equivalence_on_random_groups(spec):
    table = SubgroupClassTable(small_group(spec, max_order=24))
    assume(len(table) <= 14)
    xr = CrossedBurnsideRing(table)
    mine = sorted(e.coeffs for _, e in xr.dress_idempotents("solvable"))
    assert mine == sorted(e.coeffs for e in xr.idempotent_oracle())


def test_scan_oracle_trivial_group():
    xr = CrossedBurnsideRing(SubgroupClassTable(construct_group("cyclic:1")))
    scanned = xr.idempotent_oracle()
    assert len(scanned) == 1
    assert scanned[0].coeffs == xr.one().coeffs


def test_scan_oracle_class_bound():
    # the scan refuses lattices with too many classes for the 2^n pass
    xr = ws_free = CrossedBurnsideRing(SubgroupClassTable(construct_group("sym:4")))
    assert len(xr.table) == 11  # within bound; exercise the guard directly
    import motive_ring.crossed as crossed_mod

    big = CrossedBurnsideRing.__new__(CrossedBurnsideRing)
    big.table = type("T", (), {"classes": [None] * 15})()
    with pytest.raises(ValueError, match="class-count bound"):
        CrossedBurnsideRing.idempotent_oracle(big)


def test_center_image_of_embedded_residual_idempotents(ws):
    # image is the identity exactly for the trivial residual class
    for name in ["S3", "A4", "A5"]:
        xr = ws.crossed(name)
        for p in prime_divisors(ws.group(name).order):
            for j, f in xr.burnside.dress_idempotents(p):
                e = xr.with_identity_labels(f)
                img = center_image(xr, e)
                if ws.table(name).classes[j].order == 1:
                    assert img == {0: Fraction(1)}
                else:
                    assert img == {}


# -- p-local reports ---------------------------------------------------------------------


def test_p_local_report_s3(ws):
    xr = ws.crossed("S3")
    report = xr.p_local_report(2)
    assert report["orthogonal"] and report["sum_is_one"] and report["idempotent"]
    assert [c["residual"] for c in report["components"]] == ["1#1", "C3#1"]
    for c in report["components"]:
        assert c["ideal_rank"] == c["fiber_pair_count"]


def test_p_local_report_ranks_match_fiber_pair_counts(ws):
    for name, p in [("A5", 2), ("A5", 3), ("A5", 5), ("S4", 2)]:
        report = ws.crossed(name).p_local_report(p)
        assert report["orthogonal"] and report["sum_is_one"] and report["idempotent"]
        for c in report["components"]:
            assert c["ideal_rank"] == c["fiber_pair_count"]


def test_p_local_quotient_rank_comparison_documented_values(ws):
    # regression for the quotient-side comparison: the plain crossed ring of
    # N(J)/J does not always have a matching ideal (labels there forget the
    # centralizer of J in G), and these are the observed values
    report = ws.crossed("A5").p_local_report(2)
    got = {
        c["residual"]: (c["ideal_rank"], c["quotient_ideal_rank"], c["ranks_agree"])
        for c in report["components"]
    }
    assert got == {
        "1#1": (11, 11, True),
        "C3#1": (3, 4, False),
        "C5#1": (4, 4, True),
        "A4#1": (1, 1, True),
        "A5#1": (1, 1, True),
    }


def regular_quotient_row(xr, p):
    """quotient_order and quotient_ideal_rank for J = 1 as computed from the
    regular permutation copy of N(1)/1 = G and its own lattice and ring."""
    cls = xr.table.classes[0]
    W = xr.table.quotient(cls.normalizer, cls.representative)
    wring = CrossedBurnsideRing(SubgroupClassTable(W))
    f1 = dict(wring.burnside.dress_idempotents(p))[0]
    return W.order, wring.ideal_rank(wring.with_identity_labels(f1))


@pytest.mark.parametrize("name", ["S4", "A5", "S5"])
def test_p_local_trivial_class_row_matches_the_regular_quotient(name, ws):
    xr = CrossedBurnsideRing(SubgroupClassTable(construct_group("sym:5"))) if name == "S5" else ws.crossed(name)
    for p in (2, 3):
        row = xr.p_local_report(p)["components"][0]
        assert row["residual"] == "1#1"
        assert (row["quotient_order"], row["quotient_ideal_rank"]) == regular_quotient_row(xr, p)


@pytest.mark.parametrize("name,p", [("S4", 2), ("S4", 3), ("A5", 2), ("A5", 3), ("A5", 5)])
def test_the_quotient_side_builds_only_the_trivial_class_idempotent(name, p, ws, monkeypatch):
    """Each N(J)/J builds one Dress idempotent, at its trivial class, and its
    rank equals that of the full family's member there, by elimination."""
    xr = CrossedBurnsideRing(ws.table(name))
    families, singles = [], []
    family_of, single_of = BurnsideRing.dress_idempotents, BurnsideRing.dress_idempotent

    def family(ring, mode):
        families.append(ring)
        return family_of(ring, mode)

    def single(ring, mode, fiber):
        singles.append((ring, fiber))
        return single_of(ring, mode, fiber)

    monkeypatch.setattr(BurnsideRing, "dress_idempotents", family)
    monkeypatch.setattr(BurnsideRing, "dress_idempotent", single)
    report = xr.p_local_report(p)
    monkeypatch.undo()
    assert families == [xr.burnside]
    quotients = [(ring, fiber) for ring, fiber in singles if ring is not xr.burnside]
    rows = [row for row in report["components"] if row["residual"] != "1#1"]
    assert len(quotients) == len(rows)
    for (ring, fiber), row in zip(quotients, rows):
        assert 0 in fiber and ring.table.residual_class(0, p) == 0
        wring = CrossedBurnsideRing(ring.table)
        f1 = wring.with_identity_labels(dict(ring.dress_idempotents(p))[0])
        assert (ring.group.order, eliminated_ideal_rank(wring, f1)) == (
            row["quotient_order"], row["quotient_ideal_rank"]
        )


def test_serialization_roundtrip(ws):
    xr = ws.crossed("A5")
    _, e = xr.dress_idempotents("solvable")[0]
    doc = e.to_json()
    coeffs = [0] * xr.n
    for key, val in doc.items():
        cls_name, _, label = key[1:-1].partition(",")
        cls = xr.table.class_named(cls_name)
        lab = xr.group.element_index(parse_cycles(label, xr.group.degree))
        coeffs[xr.canonical_pair(cls.representative, lab)] = int(val)
    assert tuple(coeffs) == e.coeffs


IDEMPOTENT_SCAN_SPECS = ["cyclic:6", "sym:3", "alt:4", "sym:4", "alt:5", "dihedral:4", "dihedral:6"]


@pytest.mark.parametrize("spec", IDEMPOTENT_SCAN_SPECS)
def test_idempotent_scan_multiplies_nothing(spec, monkeypatch):
    from motive_ring.algebra import Algebra

    xr = CrossedBurnsideRing(SubgroupClassTable(construct_group(spec)))
    mine = sorted(e.coeffs for _, e in xr.dress_idempotents("solvable"))

    def refuse(*args):
        raise AssertionError("the scan multiplied in the algebra")

    monkeypatch.setattr(Algebra, "multiply", refuse)
    monkeypatch.setattr(Algebra, "product", refuse)
    assert sorted(e.coeffs for e in xr.idempotent_oracle()) == mine


def eliminated_ideal_rank(xr, e):
    """Rank over Q of eA by elimination: e scaled to an integer vector, times
    every basis element, as the columns of the multiplication matrix."""
    d = lcm(*(c.denominator for c in e.coeffs))
    scaled = xr.element([c.numerator * (d // c.denominator) for c in e.coeffs], ZZ)
    columns = (xr.multiply(scaled, xr.basis_element(j)).coeffs for j in range(xr.n))
    return integer_rank((dict(enumerate(col)) for col in columns), QQ)


@pytest.mark.parametrize("spec", ["sym:3", "dihedral:4", "alt:4", "sym:4", "alt:5", "sym:5"])
def test_ideal_rank_trace_matches_elimination(spec):
    xr = CrossedBurnsideRing(SubgroupClassTable(construct_group(spec)))
    for p in (2, 3, 5):
        for _, f in xr.burnside.dress_idempotents(p):
            e = xr.with_identity_labels(f)
            rank = xr.ideal_rank(e)
            assert type(rank) is int
            assert rank == eliminated_ideal_rank(xr, e)


def full_row_traces(xr):
    """T_i = sum over j of c_ij^j for every basis pair i, from the full
    product rows."""
    return [
        sum(m for j in range(xr.n) for k, m in xr.product(i, j) if k == j) for i in range(xr.n)
    ]


@pytest.mark.parametrize("spec", ["sym:3", "dihedral:4", "alt:4", "sym:4", "alt:5", "sym:5"])
def test_trace_per_pair_matches_the_full_row_trace_on_the_ladder(spec):
    xr = CrossedBurnsideRing(SubgroupClassTable(construct_group(spec)))
    traces = [xr._trace(i) for i in range(xr.n)]  # read before any product is cached
    assert traces == full_row_traces(xr)
    assert traces[xr.one().coeffs.index(1)] == xr.n  # the unit [G,1] acts as the identity


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(gens_specs())
def test_trace_per_pair_matches_the_full_row_trace_on_random_groups(spec):
    xr = CrossedBurnsideRing(SubgroupClassTable(small_group(spec, max_order=24)))
    assert [xr._trace(i) for i in range(xr.n)] == full_row_traces(xr)


def test_ideal_rank_refuses_a_fractional_trace(ws):
    xr = ws.crossed("S3")
    # (1/m) 1 has trace n/m: no integer rank for an m that does not divide n
    m = next(m for m in range(2, xr.n + 2) if xr.n % m)
    e = xr.element([c / m for c in xr.one(QQ).coeffs], QQ)
    with pytest.raises(RuntimeError, match="not an integer rank"):
        xr.ideal_rank(e)


# primitive idempotents of the crossed ring over F_p: more than the Dress
# family on every pair (2, 2, 3, 3, 3, 3, 9, 5, 7, 8, 5, 16, 18 members)
CROSSED_PRIMITIVE_COUNTS = {
    ("C3", 2): 4, ("S3", 2): 4, ("S3", 3): 4, ("A4", 2): 4, ("A4", 3): 8,
    ("S4", 2): 4, ("S4", 3): 24, ("A5", 2): 8, ("A5", 3): 13, ("A5", 5): 14,
    ("S5", 2): 8, ("S5", 3): 33, ("S5", 5): 44,
}


@pytest.mark.parametrize("name,p", [("C3", 2), ("S3", 2), ("S3", 3), ("A4", 2)])
def test_crossed_primitive_idempotents_match_the_literal_scan(name, p, ws):
    xr = ws.crossed(name)
    field, idempotents = xr.primitive_idempotents(p, exponent=1)
    assert field.tag == f"Fp:{p}"
    assert [e.coeffs for e in idempotents] == [e.coeffs for e in literal_block_scan(xr, field)]


def test_crossed_primitive_idempotent_counts(ws):
    counts = {}
    for name, p in CROSSED_PRIMITIVE_COUNTS:
        xr = crossed_ring(name, ws)
        _, idempotents = xr.primitive_idempotents(p, exponent=1)
        assert xr.idempotent_family(idempotents) == (True, True, True)
        counts[(name, p)] = len(idempotents)
    assert counts == CROSSED_PRIMITIVE_COUNTS
