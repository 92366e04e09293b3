"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Every assertion is exact.  Each criterion carries its stated wall-clock
budget; elapsed time is checked against it.  Run with ``pytest -v -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

from __future__ import annotations

import io
import json
import time

from dense_linalg import operator_product, rank_field
from reference_checks import is_central
from reference_groups import p_residual_oracle
from test_crossed import center_image, crossed_marks
from test_mackey import over, read, zeta

from motive_ring.algebra import combine
from motive_ring.center import CenterAlgebra, block_scan_oracle, blocks_in_rho_span, ga_mul
from motive_ring.cli import run
from motive_ring.linalg import integer_rank
from motive_ring.scalars import QQ, ZZ, prime_field
from motive_ring.subgroups import all_subgroups, prime_divisors

F2 = prime_field(2)

ORACLE_GROUPS = ["C2", "C4", "V4", "S3", "D8", "Q8", "A4", "S4", "A5"]
HOMOMORPHISM_GROUPS = ["C2", "S3", "D8", "A4"]
P_LOCAL_CASES = [("A5", 2), ("A5", 3), ("A5", 5), ("S4", 2)]
RHO_GROUPS = ["S3", "D8", "A4", "S4", "A5"]
MACKEY_GROUPS = ["C2", "C3", "S3"]
BLOCK_CASES = [("C2", 2), ("C2", 3), ("S3", 2), ("S3", 3)]

F1_COEFFS = {
    "[1#1,()]": "1",
    "[C2#1,()]": "-2",
    "[C3#1,()]": "-1",
    "[S3#1,()]": "1",
    "[D10#1,()]": "1",
    "[A4#1,()]": "1",
}
FG_COEFFS = {
    "[1#1,()]": "-1",
    "[C2#1,()]": "2",
    "[C3#1,()]": "1",
    "[S3#1,()]": "-1",
    "[D10#1,()]": "-1",
    "[A4#1,()]": "-1",
    "[A5#1,()]": "1",
}


class Criterion:
    def __init__(self, number: int, description: str, budget_seconds: float):
        self.number = number
        self.description = description
        self.budget = budget_seconds
        self.start = time.monotonic()
        self.failures: list[str] = []

    def expect(self, condition: bool, message: str):
        if not condition:
            self.failures.append(message)

    def finish(self):
        elapsed = time.monotonic() - self.start
        if elapsed > self.budget:
            self.failures.append(f"runtime {elapsed:.1f}s over budget {self.budget:.0f}s")
        status = "PASS" if not self.failures else "FAIL"
        print(f"[criterion {self.number}] {status}: {self.description} ({elapsed:.1f}s)")
        for f in self.failures:
            print(f"    - {f}")
        assert not self.failures, f"criterion {self.number}: " + "; ".join(self.failures)


def test_criterion_1_a5_golden_idempotents(ws):
    crit = Criterion(1, "A5 integral idempotents match the published coefficients byte-exactly", 300)
    buf = io.StringIO()
    code = run(["cbr-idempotents", "--group", "alt:5", "--coeff", "Z"], stream=buf)
    crit.expect(code == 0, f"CLI exit code {code}")
    doc = json.loads(buf.getvalue())
    idems = doc["idempotents"]
    crit.expect(len(idems) == 2, f"expected 2 idempotents, got {len(idems)}")
    by_residual = {entry["residual"]: entry["element"] for entry in idems}
    got_f1 = json.dumps(by_residual.get("1#1"), indent=2)
    got_fg = json.dumps(by_residual.get("A5#1"), indent=2)
    crit.expect(got_f1 == json.dumps(F1_COEFFS, indent=2), f"trivial-residual idempotent differs: {got_f1}")
    crit.expect(got_fg == json.dumps(FG_COEFFS, indent=2), f"full-residual idempotent differs: {got_fg}")
    crit.finish()


def test_criterion_2_rho_images_of_a5_idempotents(ws):
    crit = Criterion(2, "images in Z(ZG): 1 for the trivial residual, 0 for the full one", 60)
    xr = ws.crossed("A5")
    family = {ws.table("A5").classes[j].name: e for j, e in xr.dress_idempotents("solvable")}
    crit.expect(center_image(xr, family["1#1"]) == {0: 1}, "image of the trivial-residual idempotent is not 1")
    crit.expect(center_image(xr, family["A5#1"]) == {}, "image of the full-residual idempotent is not 0")
    crit.finish()


def test_criterion_3_idempotent_scan_equivalence(ws):
    crit = Criterion(3, "integral idempotents equal the ghost-scan family for nine groups", 600)
    for name in ORACLE_GROUPS:
        xr = ws.crossed(name)
        mine = sorted(e.coeffs for _, e in xr.dress_idempotents("solvable"))
        scanned = sorted(e.coeffs for e in xr.idempotent_oracle())
        crit.expect(mine == scanned, f"{name}: families differ ({len(mine)} vs {len(scanned)})")
    crit.finish()


def test_criterion_4_ring_axioms_and_homomorphisms(ws):
    crit = Criterion(4, "exhaustive ring axioms, product oracle, and homomorphism squares", 600)
    for name in HOMOMORPHISM_GROUPS:
        xr = ws.crossed(name)
        br = xr.burnside
        n = xr.n
        one = xr.one()
        for i in range(n):
            b = xr.basis_element(i)
            if (one * b).coeffs != b.coeffs or (b * one).coeffs != b.coeffs:
                crit.expect(False, f"{name}: unit fails on {xr.pairs[i].name}")
        for i in range(n):
            for j in range(n):
                if xr._basis_product(i, j) != xr._basis_product(j, i):
                    crit.expect(False, f"{name}: commutativity fails on ({i},{j})")
                if xr._basis_product(i, j) != xr.basis_product_oracle(i, j):
                    crit.expect(False, f"{name}: double-coset product differs from the orbit oracle on ({i},{j})")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    bi, bj, bk = (xr.basis_element(t) for t in (i, j, k))
                    if ((bi * bj) * bk).coeffs != (bi * (bj * bk)).coeffs:
                        crit.expect(False, f"{name}: associativity fails on ({i},{j},{k})")
        # crossed marks, label-forgetting, embedding and center maps are all
        # multiplicative, and the two mark squares commute
        for i in range(n):
            for j in range(n):
                x, y = xr.basis_element(i), xr.basis_element(j)
                xy = x * y
                marks_xy = tuple(ga_mul(xr.group, a, b, ZZ) for a, b in zip(crossed_marks(xr, x), crossed_marks(xr, y)))
                if crossed_marks(xr, xy) != marks_xy:
                    crit.expect(False, f"{name}: crossed marks not multiplicative on ({i},{j})")
                lhs = xr.forget_labels(xy)
                rhs = br.multiply(xr.forget_labels(x), xr.forget_labels(y))
                if lhs.coeffs != rhs.coeffs:
                    crit.expect(False, f"{name}: label-forgetting not multiplicative on ({i},{j})")
                if center_image(xr, xy) != ga_mul(xr.group, center_image(xr, x), center_image(xr, y), ZZ):
                    crit.expect(False, f"{name}: center image not multiplicative on ({i},{j})")
        nb = len(xr.table)
        for i in range(nb):
            for j in range(nb):
                b1, b2 = br.basis_element(i), br.basis_element(j)
                lhs = xr.with_identity_labels(br.multiply(b1, b2))
                rhs = xr.multiply(xr.with_identity_labels(b1), xr.with_identity_labels(b2))
                if lhs.coeffs != rhs.coeffs:
                    crit.expect(False, f"{name}: embedding not multiplicative on ({i},{j})")
        for i in range(n):
            x = xr.basis_element(i)
            if tuple(sum(c.values()) for c in crossed_marks(xr, x)) != br.marks(xr.forget_labels(x)):
                crit.expect(False, f"{name}: augmentation square fails on {xr.pairs[i].name}")
        for k in range(nb):
            b = br.basis_element(k)
            lifted = tuple({0: m} if m else {} for m in br.marks(b))
            if crossed_marks(xr, xr.with_identity_labels(b)) != lifted:
                crit.expect(False, f"{name}: lift square fails on class {k}")
            if xr.forget_labels(xr.with_identity_labels(b)).coeffs != b.coeffs:
                crit.expect(False, f"{name}: forget(embed) != id on class {k}")
    crit.finish()


def test_criterion_5_p_local_decomposition(ws):
    crit = Criterion(
        5,
        "p-local residual idempotents decompose 1, fibers match the residual "
        "oracle, and each ideal rank equals the quotient-side rank",
        900,
    )
    for name, p in P_LOCAL_CASES:
        xr = ws.crossed(name)
        table = ws.table(name)
        report = xr.p_local_report(p)
        crit.expect(report["idempotent"], f"({name},{p}): family not idempotent")
        crit.expect(report["orthogonal"], f"({name},{p}): family not orthogonal")
        crit.expect(report["sum_is_one"], f"({name},{p}): family does not sum to 1")
        # fibers against the independent minimal-normal-subgroup oracle
        G = ws.group(name)
        subs = all_subgroups(G)
        expected_fibers: dict[str, list[str]] = {}
        for cls in table.classes:
            res = p_residual_oracle(G, cls.representative, p, subs)
            expected_fibers.setdefault(table.classes[table.fusion(res)[0]].name, []).append(cls.name)
        got_fibers = {c["residual"]: c["fiber"] for c in report["components"]}
        crit.expect(
            got_fibers == expected_fibers,
            f"({name},{p}): fibers {got_fibers} differ from the residual oracle {expected_fibers}",
        )
        for comp in report["components"]:
            crit.expect(
                comp["ranks_agree"],
                f"({name},{p}) J={comp['residual']}: ideal rank {comp['ideal_rank']} "
                f"!= quotient-side rank {comp['quotient_ideal_rank']}",
            )
    crit.finish()


def test_criterion_6_center_image_spans_group_algebra_center(ws):
    crit = Criterion(6, "crossed basis images span Z(kG) over Q and every F_p with p | |G|", 300)
    for name in RHO_GROUPS:
        xr = ws.crossed(name)
        nclasses = len(ws.group(name).conjugacy_classes)
        rows = [dict(enumerate(row)) for row in xr.center_image_rows()]
        got = integer_rank(rows, QQ)
        crit.expect(got == nclasses, f"{name}: rank over Q is {got}, expected {nclasses}")
        for p in prime_divisors(ws.group(name).order):
            got = integer_rank(rows, prime_field(p))
            crit.expect(got == nclasses, f"{name}: rank over F_{p} is {got}, expected {nclasses}")
    crit.finish()


def test_criterion_7_mackey_diagram_suite(ws):
    crit = Criterion(
        7,
        "span counts, central span images, projection homomorphism, the "
        "commuting square, and the image spanning the Mackey-algebra center",
        600,
    )
    for name in MACKEY_GROUPS:
        mk = ws.mackey(name)
        xr = ws.crossed(name)
        Z = CenterAlgebra(ws.group(name))
        formula = mk.orbit_count_formula()
        crit.expect(mk.n == formula, f"{name}: span count {mk.n} != formula {formula}")
        if name == "C2":
            crit.expect(mk.n == 6, f"span dimension of the order-2 group is {mk.n}, expected 6")
        for scalar in (QQ, F2):
            tag = scalar.tag
            imgs = [zeta(mk, xr, xr.basis_element(i), scalar) for i in range(xr.n)]
            crit.expect(
                zeta(mk, xr, xr.one(), scalar).coeffs == mk.one(scalar).coeffs,
                f"{name}[{tag}]: unit not preserved",
            )
            for z in imgs:
                if not is_central(mk, z):
                    crit.expect(False, f"{name}[{tag}]: an image is not central")
                    break
            ok = True
            for i in range(xr.n):
                for j in range(xr.n):
                    prod = xr.basis_element(i) * xr.basis_element(j)
                    if zeta(mk, xr, prod, scalar).coeffs != mk.multiply(imgs[i], imgs[j]).coeffs:
                        ok = False
            crit.expect(ok, f"{name}[{tag}]: central span image is not multiplicative")
            rank = rank_field([z.coeffs for z in imgs], scalar)
            dim = len(mk.center_basis(scalar))
            crit.expect(
                rank == dim,
                f"{name}[{tag}]: image rank {rank} != center dimension {dim}",
            )
            ok = True
            ops = [over(mk.project_matrix(i), scalar) for i in range(mk.n)]
            for i in range(mk.n):
                for j in range(mk.n):
                    lhs = over(combine(mk.product(i, j), lambda k: mk.project_matrix(k).items()), scalar)
                    if lhs != operator_product(ops[i], ops[j], mk.npoints, scalar):
                        ok = False
                if not ok:
                    break
            crit.expect(ok, f"{name}[{tag}]: projection is not an algebra homomorphism")
            ok = True
            for i in range(xr.n):
                rho = Z.from_group_algebra(xr.mark_rows(0)[i], ZZ)
                lhs = read(mk.project_matrix, zeta(mk, xr, xr.basis_element(i), ZZ))
                if over(lhs, scalar) != over(read(mk.iota_row, rho), scalar):
                    ok = False
            crit.expect(ok, f"{name}[{tag}]: the projection square does not commute")
    crit.finish()


def test_criterion_8_blocks(ws):
    crit = Criterion(8, "block idempotents match the exhaustive scan and lie in the image span", 120)
    for name, p in BLOCK_CASES:
        Z = ws.center(name)
        field, blocks = Z.primitive_idempotents(p)
        scan = block_scan_oracle(Z, field)
        crit.expect(
            [b.coeffs for b in blocks] == [b.coeffs for b in scan],
            f"({name},{p}): blocks differ from the exhaustive scan",
        )
        total = Z.zero(field)
        ok = True
        for a, b in enumerate(blocks):
            total = total + b
            if Z.multiply(b, b).coeffs != b.coeffs:
                ok = False
            for c in range(a + 1, len(blocks)):
                if not Z.multiply(b, blocks[c]).is_zero():
                    ok = False
        crit.expect(ok, f"({name},{p}): blocks not orthogonal idempotents")
        crit.expect(
            total.coeffs == Z.one(field).coeffs, f"({name},{p}): blocks do not sum to 1"
        )
        rows = ws.crossed(name).center_image_rows()
        crit.expect(
            blocks_in_rho_span(blocks, rows, field),
            f"({name},{p}): a block lies outside the span of the basis images",
        )
    crit.finish()
