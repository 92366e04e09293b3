"""Command-line interface: every computation as a subcommand with JSON output.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or input error,
3 a safety bound was exceeded.  Output is byte-deterministic for fixed
inputs; --tsv flattens the JSON document into tab-separated lines.
"""

from __future__ import annotations

import argparse
import json
import sys
from random import Random

from .burnside import BurnsideRing
from .center import CenterAlgebra, block_scan_oracle, blocks_in_rho_span, blocks_mod_p
from .crossed import CrossedBurnsideRing
from .groups import GroupTooLarge, NotNormal, construct_group, default_order_bound, parse_cycles
from .mackey import DEFAULT_SPAN_BOUND, MackeyAlgebra
from .scalars import QQ, ZZ, ScalarError, p_local, prime_field, ring_from_tag
from .subgroups import DEFAULT_LATTICE_BOUND, SubgroupClassTable
from . import verify

SUBCOMMANDS = [
    "subgroups",
    "marks",
    "burnside-idempotents",
    "cbr-basis",
    "cbr-multiply",
    "cbr-idempotents",
    "rho",
    "motivic-report",
    "p-local-report",
    "blocks",
    "mackey-check",
    "verify-all",
]


class UsageError(ValueError):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motive-ring",
        description="Exact Burnside / crossed Burnside ring computations",
    )
    sub = parser.add_subparsers(dest="command")
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--group", required=True, help="sym:N | alt:N | cyclic:N | dihedral:N | gens:\"<cycles>;...\"")
        p.add_argument("--coeff", default=None, help="Z | Q | Zp:<p> | Fp:<p>[:<e>]")
        p.add_argument("--prime", type=int, default=None)
        p.add_argument("--bound", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tsv", action="store_true")
        if name == "cbr-multiply":
            p.add_argument("--x", required=True, help="element as JSON, e.g. '{\"[C2#1,()]\": \"1\"}'")
            p.add_argument("--y", required=True)
    return parser


def _flatten(doc, prefix=""):
    rows = []
    if isinstance(doc, dict):
        for k, v in doc.items():
            rows.extend(_flatten(v, f"{prefix}{k}." if prefix or True else k))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], doc))
    return rows


def emit(doc: dict, tsv: bool, stream) -> None:
    if tsv:
        for key, value in _flatten(doc):
            print(f"{key}\t{value}", file=stream)
    else:
        print(json.dumps(doc, indent=2), file=stream)


def _parse_element(xring: CrossedBurnsideRing, text: str, scalar):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"element is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise UsageError("element JSON must be an object")
    coeffs = [scalar.zero] * xring.n
    G = xring.group
    for key, value in raw.items():
        if not (key.startswith("[") and key.endswith("]")) or "," not in key:
            raise UsageError(f"malformed basis key {key!r}")
        cls_name, _, label_str = key[1:-1].partition(",")
        cls = xring.table.class_named(cls_name)
        label = G.element_index(parse_cycles(label_str, G.degree))
        idx = xring.canonical_pair(cls.representative, label)
        coeffs[idx] = scalar.add(coeffs[idx], scalar.parse(value))
    return xring.element(coeffs, scalar)


def run(argv, stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        doc, ok = dispatch(args)
    except GroupTooLarge as exc:
        emit({"error": str(exc), "exit": 3}, args.tsv, stream)
        return 3
    except (UsageError, ScalarError, NotNormal, ValueError) as exc:
        emit({"error": str(exc), "exit": 2}, args.tsv, stream)
        return 2
    emit(doc, args.tsv, stream)
    return 0 if ok else 1


def dispatch(args) -> tuple[dict, bool]:
    lattice_bound = args.bound if args.bound is not None else DEFAULT_LATTICE_BOUND
    span_bound = args.bound if args.bound is not None else DEFAULT_SPAN_BOUND
    order_bound = args.bound if args.bound is not None else default_order_bound()
    degree_bound = max(16, args.bound or 0)
    G = construct_group(args.group, degree_bound=degree_bound, order_bound=order_bound)
    table = SubgroupClassTable(G, bound=lattice_bound)
    rng = Random(args.seed)
    doc: dict = {"command": args.command, "group": args.group}
    checks: list[verify.Check] = []
    name = args.command

    if name == "subgroups":
        doc["classes"] = [
            {
                "name": c.name,
                "order": c.order,
                "class_size": c.class_size,
                "centralizer_order": len(c.centralizer),
                "normalizer_order": len(c.normalizer),
                "solvable_residual": table.classes[c.solvable_residual].name,
                "p_residuals": {
                    str(p): table.classes[idx].name
                    for p, idx in sorted(c.p_residuals.items())
                },
            }
            for c in table.classes
        ]

    elif name == "marks":
        ring = BurnsideRing(table)
        tom = ring.table_of_marks()
        doc["classes"] = list(tom.class_names)
        doc["marks"] = [list(row) for row in tom.marks]

    elif name == "burnside-idempotents":
        ring = BurnsideRing(table)
        tag = args.coeff or "Q"
        doc["coeff"] = tag
        if tag == "Q":
            idem = ring.rational_idempotents()
            doc["idempotents"] = [
                {"class": table.classes[i].name, "element": e.to_json()}
                for i, e in enumerate(idem)
            ]
        elif tag == "Z" or tag.startswith("Zp:"):
            mode = "solvable" if tag == "Z" else int(tag[3:])
            family = ring.dress_idempotents(mode)
            doc["idempotents"] = [
                {"residual": table.classes[j].name, "element": e.to_json()}
                for j, e in family
            ]
        else:
            raise UsageError(f"unsupported coefficients {tag!r} for these idempotents")
        checks.extend(verify.burnside_checks(ring, rng))

    elif name == "cbr-basis":
        xring = CrossedBurnsideRing(table)
        doc["basis"] = [p.name for p in xring.pairs]
        doc["size"] = xring.n

    elif name == "cbr-multiply":
        xring = CrossedBurnsideRing(table)
        scalar = ring_from_tag(args.coeff or "Z")
        x = _parse_element(xring, args.x, scalar)
        y = _parse_element(xring, args.y, scalar)
        product = xring.multiply(x, y)
        doc["coeff"] = scalar.tag
        doc["x"] = x.to_json()
        doc["y"] = y.to_json()
        doc["product"] = product.to_json()
        oracle = xring.multiply_oracle(x, y)
        checks.append(
            verify.Check(
                "product-matches-orbit-oracle",
                product.coeffs == oracle.coeffs,
                "" if product.coeffs == oracle.coeffs else str(oracle.to_json()),
            )
        )

    elif name == "cbr-idempotents":
        xring = CrossedBurnsideRing(table)
        tag = args.coeff or "Z"
        doc["coeff"] = tag
        if tag == "Z":
            family = xring.integral_idempotents()
        elif tag.startswith("Zp:"):
            p = int(tag[3:])
            family = [
                (j, xring.with_identity_labels(f))
                for j, f in xring.burnside.dress_idempotents(p)
            ]
        else:
            raise UsageError(f"unsupported coefficients {tag!r} for these idempotents")
        doc["idempotents"] = [
            {"residual": table.classes[j].name, "element": e.to_json()}
            for j, e in family
        ]
        scalar = family[0][1].scalar
        total = xring.zero(scalar)
        ok_idem = True
        ok_orth = True
        for a, (_, e) in enumerate(family):
            total = total + e
            if xring.multiply(e, e).coeffs != e.coeffs:
                ok_idem = False
            for b in range(a + 1, len(family)):
                if not xring.multiply(e, family[b][1]).is_zero():
                    ok_orth = False
        checks.append(verify.Check("idempotent", ok_idem))
        checks.append(verify.Check("orthogonal", ok_orth))
        checks.append(
            verify.Check("sum-is-one", total.coeffs == xring.one(scalar).coeffs)
        )
        if tag == "Z" and len(table) <= 14:
            oracle = xring.idempotent_oracle()
            match = sorted(e.coeffs for _, e in family) == sorted(
                e.coeffs for e in oracle
            )
            checks.append(verify.Check("matches-ghost-scan", match))

    elif name == "rho":
        xring = CrossedBurnsideRing(table)
        scalar = ring_from_tag(args.coeff or "Z")
        Z = CenterAlgebra(G)
        images = {}
        for i in range(xring.n):
            img = xring.center_image(xring.basis_element(i, scalar))
            images[xring.pairs[i].name] = Z.from_group_algebra(img, scalar).to_json()
        doc["coeff"] = scalar.tag
        doc["images"] = images
        doc["center_dimension"] = Z.n

    elif name == "motivic-report":
        xring = CrossedBurnsideRing(table)
        tag = args.coeff or "Z"
        doc["coeff"] = tag
        if tag == "Z":
            family = xring.integral_idempotents()
        elif tag.startswith("Zp:"):
            p = int(tag[3:])
            family = [
                (j, xring.with_identity_labels(f))
                for j, f in xring.burnside.dress_idempotents(p)
            ]
        else:
            raise UsageError(
                f"unsupported coefficients {tag!r}: the summand decomposition is computed over Z or Zp:<p>"
            )
        Z = CenterAlgebra(G)
        summands = []
        survivors = []
        for j, e in family:
            img = xring.center_image(e)
            zc = Z.from_group_algebra(img, e.scalar)
            survives = not zc.is_zero()
            if survives:
                survivors.append(table.classes[j].name)
            summands.append(
                {
                    "residual": table.classes[j].name,
                    "idempotent": e.to_json(),
                    "center_image": zc.to_json(),
                    "survives": survives,
                }
            )
        doc["summands"] = summands
        doc["survivors"] = survivors
        checks.append(
            verify.Check(
                "survivor-is-trivial-residual",
                survivors == [table.classes[0].name],
                f"survivors: {survivors}",
            )
        )

    elif name == "p-local-report":
        if args.prime is None:
            raise UsageError("p-local-report requires --prime")
        xring = CrossedBurnsideRing(table)
        plc, report = verify.p_local_checks(xring, args.prime)
        checks.extend(plc)
        for comp in report["components"]:
            checks.append(
                verify.Check(
                    f"quotient-rank-match[J={comp['residual']}]",
                    comp["ranks_agree"],
                    ""
                    if comp["ranks_agree"]
                    else f"ideal rank {comp['ideal_rank']}, quotient-side rank {comp['quotient_ideal_rank']}",
                )
            )
        doc["report"] = report

    elif name == "blocks":
        p = args.prime
        exponent = None
        if args.coeff:
            ring = ring_from_tag(args.coeff)
            if not hasattr(ring, "q"):
                raise UsageError("blocks need prime-field coefficients Fp:<p>[:<e>]")
            p = ring.p
            exponent = ring.e
        if p is None:
            raise UsageError("blocks requires --prime or --coeff Fp:<p>[:<e>]")
        Z = CenterAlgebra(G)
        field, blocks = blocks_mod_p(G, p, exponent, algebra=Z)
        doc["field"] = field.tag
        doc["blocks"] = [b.to_json() for b in blocks]
        doc["count"] = len(blocks)
        ok = True
        total = Z.zero(field)
        for a, b in enumerate(blocks):
            total = total + b
            if Z.multiply(b, b).coords != b.coords:
                ok = False
            for c in range(a + 1, len(blocks)):
                if not Z.multiply(b, blocks[c]).is_zero():
                    ok = False
        checks.append(verify.Check("idempotent-orthogonal", ok))
        checks.append(
            verify.Check("sum-is-one", total.coords == Z.one(field).coords)
        )
        if field.q**Z.n <= 5000:
            scan = block_scan_oracle(Z, field)
            checks.append(
                verify.Check(
                    "matches-exhaustive-scan",
                    [b.coords for b in blocks] == [b.coords for b in scan],
                )
            )
        xring = CrossedBurnsideRing(table)
        checks.append(
            verify.Check(
                "blocks-in-center-image-span",
                blocks_in_rho_span(G, blocks, xring.center_image_rows(ZZ), field),
            )
        )

    elif name == "mackey-check":
        mk = MackeyAlgebra(table, bound=span_bound)  # span bound, before any ring work
        xring = CrossedBurnsideRing(table)
        scalars = (
            [ring_from_tag(args.coeff)] if args.coeff else [QQ, prime_field(2)]
        )
        checks.extend(verify.mackey_checks(table, scalars, rng, mackey=mk, xring=xring))
        for scalar in scalars:
            checks.append(verify.zeta_surjectivity_check(mk, xring, scalar))
        doc["span_dimension"] = mk.n
        doc["omega_points"] = mk.npoints

    elif name == "verify-all":
        ring = BurnsideRing(table)
        xring = CrossedBurnsideRing(table)
        checks.extend(verify.group_checks(table, rng))
        checks.extend(verify.burnside_checks(ring, rng))
        checks.extend(verify.crossed_checks(xring, rng))
        checks.extend(verify.center_checks(G, xring, rng))
        if G.order <= span_bound:
            checks.extend(
                verify.mackey_checks(table, [QQ, prime_field(2)], rng, bound=span_bound, xring=xring)
            )

    else:  # pragma: no cover - argparse filters unknown commands
        raise UsageError(f"unknown subcommand {name!r}")

    doc["checks"] = [c.as_json() for c in checks]
    ok = all(c.passed for c in checks)
    doc["ok"] = ok
    return doc, ok


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
