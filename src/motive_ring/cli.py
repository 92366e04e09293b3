"""Command-line interface: every computation as a subcommand with JSON output.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or input error,
3 a safety bound was exceeded.  Output is byte-deterministic for fixed
inputs; --tsv flattens the JSON document into tab-separated lines.

Inputs are refused in one order, before the work each guards: the group
(spec, degree, order), then --coeff and --prime, then the lattice is built,
then a subcommand's own bounds (the span bound, the splitting field).

A well-formed argv is read without argparse: a known subcommand, then its
options from OPTIONS spelled in full, each followed by a value that does
not start with '-' and converts (the --tsv flag by none), every required
option given.  Anything else (help, '=' or abbreviated spellings, '--', a
stray argument, a missing option, a refused value) goes to argparse,
imported only then, so output and exit codes stay byte for byte the same.
"""

from __future__ import annotations

import json
import sys
from random import Random
from types import SimpleNamespace

from .burnside import BurnsideRing
from .center import SCAN_SIZE, CenterAlgebra, block_scan_oracle, blocks_in_rho_span
from .crossed import SCAN_CLASSES, CrossedBurnsideRing
from .algebra import combine
from .groups import (
    DEFAULT_DEGREE_BOUND, DEFAULT_ORDER_BOUND, GroupTooLarge, NotNormal, _cycles, _degree, _from_cycles,
    construct_group,
)
from .mackey import DEFAULT_SPAN_BOUND, MackeyAlgebra
from .scalars import (
    QQ, ZZ, IntegerRing, PLocalRing, PrimeFieldRing, RationalRing, ScalarError, fraction_too_long, p_local, parse_int,
    prime_field, ring_from_tag,
)
from .subgroups import SubgroupClassTable, prime_divisors
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


_IDEMPOTENTS = "unsupported coefficients {tag!r} for these idempotents"
_DRESS = (IntegerRing, PLocalRing)

# the subcommands that read --coeff: (the tag without one, None for none;
# the ring types accepted, None for every ring; the refusal of any other)
COEFFICIENTS = {
    "burnside-idempotents": ("Q", (RationalRing, *_DRESS), _IDEMPOTENTS),
    "cbr-multiply": ("Z", None, None),
    "cbr-idempotents": ("Z", _DRESS, _IDEMPOTENTS),
    "rho": ("Z", None, None),
    "motivic-report": ("Z", _DRESS, "unsupported coefficients {tag!r}: the summand decomposition is computed over Z or Zp:<p>"),
    "blocks": (None, (PrimeFieldRing,), "blocks need prime-field coefficients Fp:<p>[:<e>]"),
    "mackey-check": (None, None, None),
}


class UsageError(ValueError):
    pass


# every option, in help order: name -> (converter, default, required, help).
# A flag has no converter; --x and --y are cbr-multiply's alone.
OPTIONS = {
    "--group": (str, None, True, "sym:N | alt:N | cyclic:N | dihedral:N | gens:\"<cycles>;...\""),
    "--coeff": (str, None, False, "Z | Q | Zp:<p> | Fp:<p>[:<e>]"),
    "--prime": (parse_int, None, False, None),
    "--bound": (int, None, False, None),
    "--seed": (int, 0, False, None),
    "--tsv": (None, False, False, None),
    "--x": (str, None, True, "element as JSON, e.g. '{\"[C2#1,()]\": \"1\"}'"),
    "--y": (str, None, True, None),
}


def _options(command: str) -> dict:
    operands = command == "cbr-multiply"
    return {name: option for name, option in OPTIONS.items() if operands or name not in ("--x", "--y")}


def _prime_option(text: str) -> int | str:
    """--prime, read by parse_int: a numeral too long for int() is refused
    later by the prime or field bound; argparse's own message otherwise."""
    try:
        return parse_int(text)
    except ValueError:
        import argparse

        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def read_args(argv) -> SimpleNamespace | None:
    """The namespace argparse makes of a well-formed argv (see above), read
    without argparse; None for any other argv."""
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    options, given = _options(argv[0]), {}
    tokens = iter(argv[1:])
    for name in tokens:
        if name not in options:
            return None
        convert = options[name][0]
        if convert is None:
            given[name] = True
            continue
        value = next(tokens, "-")  # a missing value defers like a dash
        if value.startswith("-"):
            return None
        try:
            given[name] = convert(value)
        except ValueError:
            return None
    if any(required and name not in given for name, (_, _, required, _) in options.items()):
        return None
    return SimpleNamespace(
        command=argv[0], **{name[2:]: given.get(name, default) for name, (_, default, _, _) in options.items()}
    )


def build_parser(names=SUBCOMMANDS):
    """The argparse.ArgumentParser, with a subparser for each of names.
    When only some are built, the usage line still lists every subcommand,
    so their usage errors print as they would with the full parser."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="motive-ring",
        description="Exact Burnside / crossed Burnside ring computations",
    )
    every = "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", metavar=None if names == SUBCOMMANDS else every)
    for name in names:
        p = sub.add_parser(name)
        for option, (convert, default, required, help) in _options(name).items():
            if convert is None:
                p.add_argument(option, action="store_true")
            else:  # argparse names the type in its message: --prime's reads int
                convert = _prime_option if convert is parse_int else convert
                p.add_argument(option, type=convert, default=default, required=required, help=help)
    return parser


def _flatten(doc, prefix=""):
    rows = []
    if isinstance(doc, dict):
        for k, v in doc.items():
            rows.extend(_flatten(v, f"{prefix}{k}."))
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
        if isinstance(value, int) and not isinstance(value, bool):
            value = str(value)
        if not isinstance(value, str):
            raise UsageError(f"coefficient of {key!r} must be a string or an integer")
        if fraction_too_long(value):
            raise UsageError(f"coefficient of {key!r} has more than {sys.get_int_max_str_digits()} digits")
        cls_name, _, label_str = key[1:-1].partition(",")
        try:
            cls = xring.table.class_named(cls_name)
        except KeyError:
            raise UsageError(f"unknown subgroup class {cls_name!r} in {key!r}") from None
        cycles = _cycles(label_str)
        if (point := _degree(cycles)) > G.degree:  # before a permutation that wide is built
            raise UsageError(f"label point {point} exceeds the degree {G.degree} in {key!r}")
        label = G.element_index(_from_cycles(cycles, G.degree))
        idx = xring.canonical_pair(cls.representative, label)
        coeffs[idx] = scalar.add(coeffs[idx], scalar.parse(value))
    return xring.element(coeffs, scalar)


def coefficient_ring(args):
    """The coefficient ring of args.command, parsed and bounded (None if it
    reads none), with --prime bounded too; the refusals of both flags."""
    name, p, ring = args.command, args.prime, None
    if name in COEFFICIENTS:
        default, accepted, refusal = COEFFICIENTS[name]
        tag = args.coeff or default
        if tag is not None:
            ring = ring_from_tag(tag)
            if accepted is not None and not isinstance(ring, accepted):
                raise UsageError(refusal.format(tag=tag))
    if name == "blocks":
        if ring is None:
            if p is None:
                raise UsageError("blocks requires --prime or --coeff Fp:<p>[:<e>]")
            prime_field(p)
        elif p is not None and p != ring.p:
            raise UsageError(f"--prime {p} and --coeff {args.coeff} name different primes")
    elif name == "p-local-report":
        if p is None:
            raise UsageError("p-local-report requires --prime")
        p_local(p)
    return ring


def run(argv, stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    args = read_args(argv)
    if args is None:
        # a known subcommand needs only its own subparser; anything else (help,
        # no command, an unknown one) gets all of them, for the full usage text
        parser = build_parser(argv[:1] if argv and argv[0] in SUBCOMMANDS else SUBCOMMANDS)
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
    span_bound = args.bound if args.bound is not None else DEFAULT_SPAN_BOUND
    order_bound = args.bound if args.bound is not None else DEFAULT_ORDER_BOUND
    degree_bound = max(DEFAULT_DEGREE_BOUND, args.bound or 0)
    G = construct_group(args.group, degree_bound=degree_bound, order_bound=order_bound)
    scalar = coefficient_ring(args)
    table = SubgroupClassTable(G)
    rng = Random(args.seed)
    doc: dict = {"command": args.command, "group": args.group}
    checks: list[verify.Check] = []
    name = args.command

    if name == "subgroups":
        for mode in ["solvable", *prime_divisors(G.order)]:
            for k in range(len(table)):
                table.residual_class(k, mode)
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
        doc["coeff"] = scalar.tag
        if scalar is QQ:
            idem = ring.rational_idempotents()
            doc["idempotents"] = [
                {"class": table.classes[i].name, "element": e.to_json()}
                for i, e in enumerate(idem)
            ]
        else:
            family = ring.dress_idempotents("solvable" if scalar is ZZ else scalar.p)
            doc["idempotents"] = [
                {"residual": table.classes[j].name, "element": e.to_json()}
                for j, e in family
            ]
        checks.extend(verify.burnside_checks(ring, rng))

    elif name == "cbr-basis":
        xring = CrossedBurnsideRing(table)
        doc["basis"] = [p.name for p in xring.pairs]
        doc["size"] = xring.n

    elif name == "cbr-multiply":
        xring = CrossedBurnsideRing(table)
        x = _parse_element(xring, args.x, scalar)
        y = _parse_element(xring, args.y, scalar)
        product = xring.multiply(x, y)
        doc["coeff"] = scalar.tag
        doc["x"] = x.to_json()
        doc["y"] = y.to_json()
        doc["product"] = product.to_json()
        oracle = xring.multiply_oracle(x, y)
        checks.append(verify._check(
            "product-matches-orbit-oracle",
            [] if product.coeffs == oracle.coeffs else [str(oracle.to_json())],
        ))

    elif name == "cbr-idempotents":
        xring = CrossedBurnsideRing(table)
        doc["coeff"] = scalar.tag
        family = xring.dress_idempotents("solvable" if scalar is ZZ else scalar.p)
        doc["idempotents"] = [
            {"residual": table.classes[j].name, "element": e.to_json()}
            for j, e in family
        ]
        ok_idem, ok_orth, ok_sum = xring.idempotent_family([e for _, e in family])
        checks.append(verify.Check("idempotent", ok_idem))
        checks.append(verify.Check("orthogonal", ok_orth))
        checks.append(verify.Check("sum-is-one", ok_sum))
        if scalar is ZZ and len(table) <= SCAN_CLASSES:
            oracle = xring.idempotent_oracle()
            match = sorted(e.coeffs for _, e in family) == sorted(
                e.coeffs for e in oracle
            )
            checks.append(verify.Check("matches-ghost-scan", match))

    elif name == "rho":
        xring = CrossedBurnsideRing(table)
        Z = CenterAlgebra(G)
        doc["coeff"] = scalar.tag
        doc["images"] = {
            pair.name: Z.element(row, scalar).to_json()
            for pair, row in zip(xring.pairs, xring.center_image_rows())
        }
        doc["center_dimension"] = Z.n

    elif name == "motivic-report":
        xring = CrossedBurnsideRing(table)
        doc["coeff"] = scalar.tag
        family = xring.dress_idempotents("solvable" if scalar is ZZ else scalar.p)
        Z = CenterAlgebra(G)
        rows = xring.center_image_rows()
        summands = []
        survivors = []
        for j, e in family:
            img = combine(enumerate(e.coeffs), lambda i: enumerate(rows[i]))
            zc = Z.element([img.get(k, 0) for k in range(Z.n)], e.scalar)
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
        xring = CrossedBurnsideRing(table)
        plc, report = verify.p_local_checks(xring, args.prime)
        checks.extend(plc)
        checks.extend(
            verify._check(f"quotient-rank-match[J={comp['residual']}]", [] if comp["ranks_agree"] else [
                f"ideal rank {comp['ideal_rank']}, quotient-side rank {comp['quotient_ideal_rank']}"
            ])
            for comp in report["components"]
        )
        doc["report"] = report

    elif name == "blocks":
        p, exponent = (scalar.p, scalar.e) if scalar else (args.prime, None)
        Z = CenterAlgebra(G)
        field, blocks = Z.primitive_idempotents(p, exponent)
        doc["field"] = field.tag
        doc["blocks"] = [b.to_json() for b in blocks]
        doc["count"] = len(blocks)
        ok_idem, ok_orth, ok_sum = Z.idempotent_family(blocks)
        checks.append(verify.Check("idempotent-orthogonal", ok_idem and ok_orth))
        checks.append(verify.Check("sum-is-one", ok_sum))
        if field.q**Z.n <= SCAN_SIZE:
            scan = block_scan_oracle(Z, field)
            checks.append(
                verify.Check(
                    "matches-exhaustive-scan",
                    [b.coeffs for b in blocks] == [b.coeffs for b in scan],
                )
            )
        xring = CrossedBurnsideRing(table)
        checks.append(
            verify.Check(
                "blocks-in-center-image-span",
                blocks_in_rho_span(blocks, xring.center_image_rows(), field),
            )
        )

    elif name == "mackey-check":
        mk = MackeyAlgebra(table, bound=span_bound)  # the span bound, before the crossed ring
        xring = CrossedBurnsideRing(table)
        scalars = [scalar] if scalar else [QQ, prime_field(2)]
        checks.extend(verify.mackey_checks(mk, xring, scalars, rng))
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
        checks.extend(verify.center_checks(xring))
        if G.order <= span_bound:
            mk = MackeyAlgebra(table, bound=span_bound)
            checks.extend(verify.mackey_checks(mk, xring, [QQ, prime_field(2)], rng))

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
