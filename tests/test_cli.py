from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import motive_ring
from motive_ring import cli
from motive_ring.cli import SUBCOMMANDS, run
from motive_ring.crossed import CrossedBurnsideRing
from motive_ring.groups import Permutation
from motive_ring.scalars import PRIME_BOUND


def invoke(argv):
    buf = io.StringIO()
    code = run(argv, stream=buf)
    text = buf.getvalue()
    doc = json.loads(text) if text.strip().startswith("{") else None
    return code, doc, text


def test_unknown_subcommand_exits_2():
    code, _, _ = invoke(["frobnicate", "--group", "cyclic:2"])
    assert code == 2


def test_missing_group_exits_2():
    code, _, _ = invoke(["cbr-basis"])
    assert code == 2


def test_bound_exceeded_exits_3():
    code, doc, _ = invoke(["subgroups", "--group", "sym:6"])
    assert code == 3
    assert "too large" in doc["error"]


def test_span_bound_exceeded_exits_3():
    code, doc, _ = invoke(["mackey-check", "--group", "alt:5"])
    assert code == 3
    assert doc["exit"] == 3
    assert "span bound 24" in doc["error"]


def test_bound_sets_every_bound_to_n():
    # --bound n sets the order and span bounds to n, so a small n lowers them
    code, doc, _ = invoke(["subgroups", "--group", "sym:4", "--bound", "10"])
    assert code == 3
    assert "order exceeds bound 10" in doc["error"]
    code, _, _ = invoke(["subgroups", "--group", "sym:4", "--bound", "24"])
    assert code == 0


def test_malformed_group_exits_2():
    code, doc, _ = invoke(["cbr-basis", "--group", "gens:(1 2"])
    assert code == 2
    assert "malformed" in doc["error"]


def test_cbr_basis_c2():
    code, doc, _ = invoke(["cbr-basis", "--group", "cyclic:2"])
    assert code == 0
    assert doc["size"] == 4
    assert len(doc["basis"]) == 4


def test_output_is_deterministic():
    _, _, first = invoke(["marks", "--group", "sym:3"])
    _, _, second = invoke(["marks", "--group", "sym:3"])
    assert first == second


def test_subgroups_payload():
    code, doc, _ = invoke(["subgroups", "--group", "sym:3"])
    assert code == 0
    names = [c["name"] for c in doc["classes"]]
    assert names == ["1#1", "C2#1", "C3#1", "S3#1"]
    assert doc["classes"][3]["solvable_residual"] == "1#1"
    assert doc["classes"][3]["p_residuals"]["2"] == "C3#1"


def test_marks_payload():
    code, doc, _ = invoke(["marks", "--group", "cyclic:2"])
    assert code == 0
    assert doc["marks"] == [[2, 1], [0, 1]]


def test_burnside_idempotents_rational():
    code, doc, _ = invoke(["burnside-idempotents", "--group", "cyclic:2", "--coeff", "Q"])
    assert code == 0
    assert doc["idempotents"][0]["element"] == {"1#1": "1/2"}


def test_cbr_idempotents_a5_golden():
    code, doc, _ = invoke(["cbr-idempotents", "--group", "alt:5", "--coeff", "Z"])
    assert code == 0
    assert doc["ok"] is True
    assert len(doc["idempotents"]) == 2


def test_cbr_multiply():
    code, doc, _ = invoke(
        [
            "cbr-multiply",
            "--group",
            "cyclic:2",
            "--x",
            '{"[1#1,(1 2)]": "1"}',
            "--y",
            '{"[1#1,(1 2)]": "1"}',
        ]
    )
    assert code == 0
    assert doc["product"] == {"[1#1,()]": "2"}
    assert doc["checks"][0]["pass"] is True


def test_cbr_multiply_rejects_bad_key():
    code, doc, _ = invoke(
        ["cbr-multiply", "--group", "cyclic:2", "--x", '{"oops": "1"}', "--y", "{}"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "coeff,x",
    [
        ("Z", '{"[Foo#1,()]": "1"}'),
        ("Z", '{"[S3#1,()]": null}'),
        ("Z", '{"[S3#1,()]": [1]}'),
        ("Q", '{"[S3#1,()]": 1.5}'),
        ("Z", '{"[S3#1,()]": true}'),
        ("Fp:3", '{"[S3#1,()]": {"1": 1}}'),
    ],
)
def test_cbr_multiply_rejects_a_malformed_element(coeff, x, capsys):
    code, doc, text = invoke(["cbr-multiply", "--group", "sym:3", "--coeff", coeff, "--x", x, "--y", "{}"])
    assert code == 2
    assert json.loads(text) == doc and set(doc) == {"error", "exit"} and doc["exit"] == 2
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("coeff", ["Z", "Q", "Zp:2", "Fp:3"])
def test_cbr_multiply_reads_an_integer_as_its_decimal_string(coeff):
    argv = ["cbr-multiply", "--group", "sym:3", "--coeff", coeff, "--y", '{"[C2#1,()]": "-1"}']
    as_int = invoke([*argv, "--x", '{"[S3#1,()]": 2, "[1#1,()]": -7}'])
    as_text = invoke([*argv, "--x", '{"[S3#1,()]": "2", "[1#1,()]": "-7"}'])
    assert as_int == as_text and as_int[0] == 0


@pytest.mark.parametrize("point", ["4", "9", "30000000", "1" + "0" * 4000])
def test_cbr_multiply_refuses_a_label_point_past_the_degree(point):
    # refused before a permutation that wide is built, so a far point costs
    # no memory, with a message that names the point and not the images
    key = f"[1#1,(1 {point})]"
    code, doc, _ = invoke(["cbr-multiply", "--group", "sym:3", "--x", json.dumps({key: "1"}), "--y", "{}"])
    assert (code, doc) == (2, {"error": f"label point {int(point)} exceeds the degree 3 in {key!r}", "exit": 2})


# a coefficient is refused when the numerator or the denominator that
# Fraction would build has more digits than int() converts (4,300); an
# exponent costs nothing to read but everything to expand: without this
# refusal, Fraction expands 1e20000000 in full and then fails on the limit
OVERSIZED = ["1e20000000", "1e-20000000", "1e4300", "1" * 4301, "1/" + "3" * 4301, "0e99999999999999999999"]


@pytest.mark.parametrize("coeff", ["Z", "Q", "Zp:2"])
@pytest.mark.parametrize("value", OVERSIZED, ids=lambda v: v if len(v) < 30 else f"<{len(v)} chars>")
def test_cbr_multiply_refuses_an_oversized_coefficient_at_once(coeff, value):
    key = "[1#1,()]"
    argv = ["cbr-multiply", "--group", "sym:3", "--coeff", coeff, "--x", json.dumps({key: value}), "--y", json.dumps({key: "1"})]
    start = time.perf_counter()
    code, doc, _ = invoke(argv)
    assert time.perf_counter() - start < 1
    assert (code, doc) == (2, {"error": f"coefficient of {key!r} has more than 4300 digits", "exit": 2})


@pytest.mark.parametrize("coeff", ["Z", "Q", "Zp:3"])
@pytest.mark.parametrize("value", ["1/0", "0/0", "-3/0_0"])
def test_cbr_multiply_refuses_a_zero_denominator(coeff, value):
    key = "[1#1,()]"
    code, doc, _ = invoke(["cbr-multiply", "--group", "sym:3", "--coeff", coeff, "--x", json.dumps({key: value}), "--y", "{}"])
    assert (code, doc) == (2, {"error": f"zero denominator in {value!r}", "exit": 2})


# 1e4000 has 4,001 digits, inside the limit: its bytes from before the refusal stay
@pytest.mark.parametrize("coeff, sha256", [
    ("Q", "82606e4f2da767228471b0fd9e7fa066478b6097231dcd65c837153ed261a6fc"),
    ("Z", "763781d0da38db49849fd7a2e8398275d96942365f20d00ef5daccd4928f0eca"),
])
def test_a_coefficient_within_the_digit_limit_keeps_its_bytes(coeff, sha256):
    buf = io.StringIO()
    argv = ["cbr-multiply", "--group", "sym:3", "--coeff", coeff, "--x", '{"[1#1,()]": "1e4000"}', "--y", '{"[1#1,()]": "1"}']
    assert run(argv, stream=buf) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == sha256


@pytest.mark.parametrize("command", ["burnside-idempotents", "cbr-multiply", "cbr-idempotents", "rho", "motivic-report"])
def test_the_coeff_field_is_the_parsed_ring_tag(command):
    # a spelling other than the ring's own tag prints as that tag
    elements = ["--x", "{}", "--y", "{}"] if command == "cbr-multiply" else []
    for typed, tag in (("Zp:003", "Zp:3"), ("Zp:+3", "Zp:3")):
        code, doc, _ = invoke([command, "--group", "sym:3", "--coeff", typed, *elements])
        assert (code, doc["coeff"]) == (0, tag)
        assert doc == invoke([command, "--group", "sym:3", "--coeff", tag, *elements])[1]


def test_rho_images():
    code, doc, _ = invoke(["rho", "--group", "cyclic:2"])
    assert code == 0
    assert doc["images"]["[1#1,()]"] == {"()": "2"}
    assert doc["center_dimension"] == 2


def test_motivic_report_a5():
    code, doc, _ = invoke(["motivic-report", "--group", "alt:5", "--coeff", "Z"])
    assert code == 0
    assert len(doc["summands"]) == 2
    assert doc["survivors"] == ["1#1"]


def test_motivic_report_p_local():
    code, doc, _ = invoke(["motivic-report", "--group", "sym:3", "--coeff", "Zp:2"])
    assert code == 0
    assert doc["survivors"] == ["1#1"]
    assert len(doc["summands"]) == 2


def test_blocks_command():
    code, doc, _ = invoke(["blocks", "--group", "sym:3", "--prime", "2"])
    assert code == 0
    assert doc["count"] == 2
    names = [c["name"] for c in doc["checks"]]
    assert "matches-exhaustive-scan" in names


@pytest.mark.parametrize(
    "argv",
    [
        ["blocks", "--group", "cyclic:11", "--prime", "7"],  # default field F_{7^10}
        ["blocks", "--group", "sym:3", "--coeff", "Fp:2:30"],
    ],
)
def test_blocks_field_bound_exits_3_at_once(argv):
    start = time.perf_counter()
    code, doc, _ = invoke(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and doc["exit"] == 3
    assert "field bound 65536" in doc["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["mackey-check", "--group", "sym:3", "--coeff", "Fp:2:40"],
        ["mackey-check", "--group", "sym:3", "--coeff", "Fp:2:17"],
        ["blocks", "--group", "sym:3", "--coeff", "Fp:2:99999999999"],
        ["rho", "--group", "sym:3", "--coeff", "Fp:3:99999999999"],
        ["cbr-multiply", "--group", "sym:3", "--coeff", "Fp:70001", "--x", "{}", "--y", "{}"],
        ["blocks", "--group", "sym:3", "--prime", "1000000000000000000000007"],
    ],
)
def test_an_oversized_field_exits_3_at_once_on_every_subcommand(argv):
    start = time.perf_counter()
    code, doc, _ = invoke(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and doc["exit"] == 3
    assert doc["error"].startswith("field too large: q = ")
    assert doc["error"].endswith("> field bound 65536")


def test_blocks_large_prime_field_inside_the_bound():
    code, doc, _ = invoke(["blocks", "--group", "sym:4", "--prime", "7919"])
    assert code == 0
    assert doc["field"] == "Fp:7919" and doc["count"] == 5


def test_blocks_rejects_a_prime_that_differs_from_the_coefficients():
    code, doc, _ = invoke(["blocks", "--group", "sym:3", "--prime", "2", "--coeff", "Fp:3"])
    assert code == 2 and doc["exit"] == 2
    assert doc["error"] == "--prime 2 and --coeff Fp:3 name different primes"
    # the same prime in both flags is not a conflict
    code, doc, _ = invoke(["blocks", "--group", "sym:3", "--prime", "3", "--coeff", "Fp:3:2"])
    assert code == 0 and doc["field"] == "Fp:3:2"


@pytest.mark.parametrize("tag", ["Zp:0", "Zp:1", "Zp:4", "Zp:x"])
@pytest.mark.parametrize("command", ["cbr-idempotents", "motivic-report", "burnside-idempotents"])
def test_p_local_coefficients_need_a_prime(command, tag):
    code, doc, _ = invoke([command, "--group", "sym:3", "--coeff", tag])
    assert code == 2 and doc["exit"] == 2
    want = "malformed coefficient tag 'Zp:x'" if tag == "Zp:x" else f"{tag[3:]} is not prime"
    assert want in doc["error"]


def test_p_local_report_command_reports_rank_mismatch():
    code, doc, _ = invoke(["p-local-report", "--group", "sym:3", "--prime", "2"])
    # the decomposition checks pass; the quotient-side rank comparison
    # fails for the nontrivial residual class, so the exit code is 1
    assert code == 1
    fails = [c for c in doc["checks"] if not c["pass"]]
    assert fails and all(c["name"].startswith("quotient-rank-match") for c in fails)


def test_p_local_report_requires_prime():
    code, doc, _ = invoke(["p-local-report", "--group", "sym:3"])
    assert code == 2


def test_mackey_check_c2():
    code, doc, _ = invoke(["mackey-check", "--group", "cyclic:2"])
    assert code == 0
    assert doc["span_dimension"] == 6


@pytest.mark.parametrize(
    "group, over_q, over_f2",
    [
        ("dihedral:4", "image rank 17 < center dimension 20", "image rank 16 < center dimension 21"),
        ("alt:4", "image rank 9 < center dimension 11", "image rank 9 < center dimension 13"),
    ],
    ids=["D8", "A4"],
)
def test_mackey_check_fails_only_on_the_zeta_image(group, over_q, over_f2):
    # the central span image of the crossed ring misses part of the Mackey
    # center (ROADMAP item 4); every other check of the suite passes
    code, doc, _ = invoke(["mackey-check", "--group", group])
    assert code == 1
    failures = [(c["name"], c.get("detail")) for c in doc["checks"] if not c["pass"]]
    assert failures == [
        ("zeta-image-spans-mackey-center[Q]", over_q),
        ("zeta-image-spans-mackey-center[Fp:2]", over_f2),
    ]


S4_MACKEY_CHECK_SHA256 = "9e205bde59f933d8f1d95f948cc669de1ab3dc92b5ff4c3e3cf50fa8ca641679"


def _cap_address_space():
    # 4,000,000 KiB, as `ulimit -v 4000000`
    limit = 4_000_000 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.slow
def test_mackey_check_s4_within_the_span_bound():
    # S4 (order 24, 4,252 spans) is the largest group inside the span bound;
    # the whole suite runs under a 4 GB address-space cap and fails only on
    # the zeta image (ROADMAP item 4)
    src = Path(motive_ring.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-m", "motive_ring.cli", "mackey-check", "--group", "sym:4"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=_cap_address_space,
        timeout=600,
    )
    assert out.returncode == 1, out.stderr.decode()[-2000:]
    doc = json.loads(out.stdout)
    failures = [(c["name"], c.get("detail")) for c in doc["checks"] if not c["pass"]]
    assert failures == [
        ("zeta-image-spans-mackey-center[Q]", "image rank 19 < center dimension 25"),
        ("zeta-image-spans-mackey-center[Fp:2]", "image rank 18 < center dimension 27"),
    ]
    assert hashlib.sha256(out.stdout).hexdigest() == S4_MACKEY_CHECK_SHA256


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # each command is a cold process: these modules cost it several
    # milliseconds of import before any work.  argparse, and gettext and
    # locale with it, load only for help and usage errors.
    src = Path(motive_ring.__file__).resolve().parents[1]
    code = f"""
import io, sys
sys.path.insert(0, {str(src)!r})
import motive_ring.cli as cli
late = {{'argparse', 'gettext', 'locale'}}
print(sorted(({{'dataclasses', 'inspect'}} | late) & set(sys.modules)))
cli.run(['cbr-basis', '--group', 'sym:3'], stream=io.StringIO())
print(sorted(late & set(sys.modules)))
sys.stdout = io.StringIO()
cli.run(['--help'])
sys.__stdout__.write(str('argparse' in sys.modules))
"""
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout.split()) == (0, ["[]", "[]", "True"]), out.stderr[-2000:]


def mackey_check_results(group, tag):
    """(check name without its [tag], pass, detail) of mackey-check over one coefficient ring."""
    _, doc, _ = invoke(["mackey-check", "--group", group, "--coeff", tag])
    return [(c["name"].split("[")[0], c["pass"], c.get("detail", "")) for c in doc["checks"]]


@pytest.mark.parametrize(
    "group, tags",
    [
        ("cyclic:4", ["Q", "Z", "Zp:2"]),
        ("cyclic:4", ["Fp:2", "Fp:2:2"]),
        ("sym:3", ["Fp:2", "Fp:2:2"]),
    ],
    ids=["C4-char0", "C4-char2", "S3-char2"],
)
def test_mackey_check_is_invariant_under_coefficient_extension(group, tags):
    # the ranks are of integer matrices: one over Q, Z and Z_(2), one over F2 and F4
    first, *rest = [mackey_check_results(group, tag) for tag in tags]
    assert all(results == first for results in rest)


def test_verify_all_c2():
    code, doc, _ = invoke(["verify-all", "--group", "cyclic:2"])
    assert code == 0
    assert doc["ok"] is True
    assert doc["checks"]


@pytest.mark.slow
def test_verify_all_s3_exits_zero():
    code, doc, _ = invoke(["verify-all", "--group", "sym:3"])
    assert code == 0
    assert doc["ok"] is True


def test_tsv_flattening():
    code, _, text = invoke(["marks", "--group", "cyclic:2", "--tsv"])
    assert code == 0
    lines = dict(
        line.split("\t", 1) for line in text.strip().splitlines() if "\t" in line
    )
    assert lines["marks.0.0"] == "2"
    assert lines["command"] == "marks"


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "motive_ring.cli", "cbr-basis", "--group", "cyclic:2"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["size"] == 4


GOLDENS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json").read_text()
)["commands"]

# every recorded benchmark command; a golden key is the argv joined by
# spaces, and the gens: argument contains spaces, so each argv is spelled
# out as a list
GOLDEN_ARGVS = [
    ["mackey-check", "--group", "cyclic:4"],
    ["mackey-check", "--group", "gens:(1 2)(3 4);(1 3)(2 4)"],
    ["mackey-check", "--group", "sym:3"],
    *(["verify-all", "--group", group] for group in ("sym:3", "alt:5")),
    *(
        ["cbr-idempotents", "--group", group, "--coeff", coeff]
        for group in ("alt:4", "sym:4", "alt:5", "sym:5")
        for coeff in ("Z", "Zp:2", "Zp:3")
    ),
    *(
        ["p-local-report", "--group", group, "--prime", p]
        for group in ("sym:4", "alt:5", "sym:5")
        for p in ("2", "3")
    ),
    *(
        ["blocks", "--group", group, "--prime", p]
        for group in ("sym:4", "alt:5", "sym:5")
        for p in ("2", "3", "5")
    ),
    *(["motivic-report", "--group", group, "--coeff", "Z"] for group in ("alt:5", "sym:5")),
]


def test_golden_argvs_are_every_recorded_golden():
    assert {" ".join(argv) for argv in GOLDEN_ARGVS} == set(GOLDENS)
    assert len(GOLDEN_ARGVS) == len(GOLDENS) == 34


@pytest.mark.parametrize("argv", GOLDEN_ARGVS, ids=" ".join)
def test_stdout_matches_the_recorded_golden(argv):
    golden = GOLDENS[" ".join(argv)]
    buf = io.StringIO()
    assert run(argv, stream=buf) == golden["exit"]
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == golden["stdout_sha256"]


# blocks commands the goldens miss (extension fields, the default field of
# cyclic and dihedral groups, the field bound): (the arguments after
# --group, exit code, stdout sha256)
PINNED_BLOCKS = [
    ("cyclic:4 --coeff Fp:3:2", 0, "dd0203df8160d796ec65a9e4a25a435fcd7844a87172aa85e9877607d4111e68"),
    ("cyclic:5 --prime 2", 0, "539a4aa44221cac8d831805701567b12dca605ac58e9a4baff4afc46fbc09e8b"),
    ("cyclic:7 --prime 2", 0, "2e8a8249f5d9d12cfa6d6cc049a9c06278cf3cec08de9686cb23e81da34fd632"),
    ("dihedral:5 --prime 2", 0, "4224845a7d55dafd9fe58027cf45fadc3b28248773aafa0367674e99785bda27"),
    ("alt:4 --prime 2", 0, "9a0326c9139de198ce6df063db5529c7803bb98a02802ea03da96be8239056bd"),
    ("alt:4 --prime 3", 0, "989b5fdd641cde36f7184fdb51f0c2801915560bcdd68f625ce25a00360185a0"),
    ("alt:5 --coeff Fp:2:2", 0, "9d9f260fcb3e0827cec05c4cebb17a631ccc3a61811e420c3ecd84d7d0cc97b9"),
    ("sym:3 --coeff Fp:2:3", 0, "eb1157fb4bb30f9c5646d38a652af9b3d03b24b78fa181ae24f137f663a94362"),
    ("dihedral:4 --prime 2", 0, "a346262bf625093bb3246f2d36eedfb9904c4a4075be163e91a9029bd052aca8"),
    ("cyclic:11 --prime 7", 3, "eb106b66fb3902ba2d3f2c2914d53126e4a2b99bc77b7adc9650fa58a5b69ca5"),
]


@pytest.mark.parametrize("args,code,sha256", PINNED_BLOCKS, ids=[a for a, _, _ in PINNED_BLOCKS])
def test_blocks_stdout_is_pinned(args, code, sha256):
    buf = io.StringIO()
    assert run(["blocks", "--group", *args.split()], stream=buf) == code
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == sha256


# the lattice-printing commands the goldens miss, on the ladder, D16 and a
# group of order 168: (subcommand, group, exit code, stdout sha256)
PINNED_LATTICE = [
    ("subgroups", "sym:3", 0, "09acdc55b7f6ac18bad0b928468778b8b71741c4256bba685ee5717a2cc09acb"),
    ("subgroups", "dihedral:4", 0, "9d4780197d210f18bc0300babbfa888a11cc1179d2261b937e4f696967ee6817"),
    ("subgroups", "alt:4", 0, "45bc9a67959f40061b1f8b990e117c3509922c454faa783c24e343735d2818dc"),
    ("subgroups", "sym:4", 0, "d6983a7ea9fa63bfe7ab4dd1140e78eb66c630fc9461df96a5eaa5fea06bf3b7"),
    ("subgroups", "alt:5", 0, "3b32e223a0f5e93fc88f6610bc4fabf1d609e4d0a744b6c8098c947a5e7952d1"),
    ("subgroups", "sym:5", 0, "161b0697c4adb55d1f58bd1121781d563f3e602a009eb6e871b91662de51ed47"),
    ("subgroups", "dihedral:8", 0, "1a3084b6893ab94b1bf554bae2f894eaa96db18cd0e5fcd59ea5f538baf8388f"),
    ("subgroups", "gens:(1 2 3 4 5 6 7);(2 3 5)(4 7 6)", 0, "c40a02c7e92bbc010906c3232009605a27d27b40066b62b5fb3aa9ac98a1d2be"),
    ("marks", "sym:3", 0, "bf7661f0bf083aa1b0d679d3e1b96581735b5c9f1e064fd55d2a84526fdd4215"),
    ("marks", "dihedral:4", 0, "12717639e0d15a8716dfdf5c50c1feb825ecc1f92e85a5955f91b3bcbb65dc3e"),
    ("marks", "alt:4", 0, "d8c19fd205744a2eef0970ebda4c21f9540128dd3d4afd22e4fb73e3f084921d"),
    ("marks", "sym:4", 0, "af5c3d052fab7b4bf2c37f8ebf894f8ff26518bbb52271b77580f08b4549778d"),
    ("marks", "alt:5", 0, "29bd8b1d04507f3ad65f4725a21281d162f544c3c0eb5b9c7a12c09c1a80e4b4"),
    ("marks", "sym:5", 0, "89495109106e36746a74331bdc849a8454f95248572c2876ed816949e5451f97"),
    ("marks", "dihedral:8", 0, "7b43c78a46c714250612b5ebc071a97637d040f1b2a2433191a2844616545e04"),
    ("marks", "gens:(1 2 3 4 5 6 7);(2 3 5)(4 7 6)", 0, "940cebf3b3c08806a92266b50bcb5ba24f6d9f9ec95857ae4f28e753b082c7f8"),
    ("cbr-basis", "sym:3", 0, "aa0ff1212ba4b2adfafbb83740432385f77cb65b9b8a04e9282a9de27e539d6a"),
    ("cbr-basis", "dihedral:4", 0, "e3a9ca35e7a2aa8fbdf5427061ad11f0b24b15af94703628d89863f1efc899d1"),
    ("cbr-basis", "alt:4", 0, "6e19218a33e882ea3b14c3d907d454b019df0be52e3552347987ad62a082914d"),
    ("cbr-basis", "sym:4", 0, "e2768b752878dd75c9125f4b1f4e46069af645d06323c42abd818cfb90c0eed8"),
    ("cbr-basis", "alt:5", 0, "edb56bbb11dd6e0049b19d6e136ea4b7d98663a7d4262ba040fa0564db24186d"),
    ("cbr-basis", "sym:5", 0, "c0aeddba65fa38b57c3dd4a65a7e740069b9c83f0132257e4539ce95b5b18b6d"),
    ("cbr-basis", "dihedral:8", 0, "39b0ef55fb996dae63625f689b89ea3bdfc2e307f79c021e41e92361ba183cfc"),
    ("cbr-basis", "gens:(1 2 3 4 5 6 7);(2 3 5)(4 7 6)", 0, "ce3a99354ca3a9637f55de0d9a49ba4d02596146bf62e2cdac445464327ab12b"),
]


@pytest.mark.parametrize("command,group,code,sha256", PINNED_LATTICE, ids=[f"{c} {g}" for c, g, _, _ in PINNED_LATTICE])
def test_lattice_stdout_is_pinned(command, group, code, sha256):
    buf = io.StringIO()
    assert run([command, "--group", group], stream=buf) == code
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == sha256


# commands of the comparison maps (rho, zeta, iota, pi) the goldens miss:
# (the argv, exit code, stdout sha256).  The mackey-check runs exit 1 with
# only zeta-image-spans-mackey-center failing (criterion 7).
PINNED_MAPS = [
    ("rho --group sym:3 --coeff Z", 0, "ed169880c6e3ed1ebe0d6040cbd9da6ea864a12251b9caec3617466bc0c57776"),
    ("rho --group sym:3 --coeff Q", 0, "6258a163c43172fbff30cc093ed07cab4b70ed554902a67a6895a7ae4205f91e"),
    ("rho --group sym:3 --coeff Zp:2", 0, "af38683b2ad16c85bf77eb1ce202e05ea430106953b1d515e3e9fcea94497a7a"),
    ("rho --group sym:3 --coeff Fp:2", 0, "91f174771cecd5d05ea441a110cc5fa959a0dd563650301c0275929fc00654e8"),
    ("rho --group sym:3 --coeff Fp:2:2", 0, "5b8e7b43e10b36862d7907ee793096d5faa5cf0ff7fe74892f544e7f4dec7788"),
    ("rho --group alt:4 --coeff Z", 0, "24b8dfda09c19e29840cefd6f7ccd7a2148f822d3a8605f88e00b9e79241e4b0"),
    ("rho --group alt:4 --coeff Q", 0, "61d43116a67c75df276670c50480b446f85952b3b535b9c0767b62d50daa9e1f"),
    ("rho --group alt:4 --coeff Zp:2", 0, "d9c9962e0baa076276da20fbf9235f68458b82fc169c9fd809f45a8c7fb65919"),
    ("rho --group alt:4 --coeff Fp:2", 0, "98cd2279db68c5d58cef3945fd2d1a14cab4fc6eb4ea80ac50279341d27f22a5"),
    ("rho --group alt:4 --coeff Fp:2:2", 0, "afdeb6146bfb6a0af3b4cddeaaf6f5456a4a0880348cd739d1db8e350394d495"),
    ("rho --group sym:4 --coeff Z", 0, "d066699350560b73ddd990fa4876c02ae2057d06abf4c73f616bbf7596a3f7d3"),
    ("rho --group sym:4 --coeff Q", 0, "38a99988f8a317535e856528a07b8b6fb126f5427ff0703b2f48a4a088bb5dce"),
    ("rho --group sym:4 --coeff Zp:2", 0, "5f46181e37a827c3ad5638b60c84ee5ec074918bb8e5676ea16ea1cbea964c90"),
    ("rho --group sym:4 --coeff Fp:2", 0, "03c12ceb9e03db6fe8d26f7da3945780070599b6300808b8f7d315d32e0dc65d"),
    ("rho --group sym:4 --coeff Fp:2:2", 0, "e5a72cf714e2917c4821039372635cec4eb4daf75f1adb5d0147f103ca0eef0f"),
    ("mackey-check --group sym:3 --coeff Q", 1, "b34a58864b6370c860820f13f1093ce8ca5d7f6f91779fa2fdd921d70736bd79"),
    ("mackey-check --group sym:3 --coeff Zp:3", 1, "084b00e944f42f724097bc71592e874ab47a4b6cdb59b45b7947f42c7bbd25cc"),
    ("mackey-check --group sym:3 --coeff Fp:3", 1, "38eb67323199e85807e3d541929101b75d639db8ce68ce3358b6f0bfcdff0148"),
    ("mackey-check --group sym:3 --coeff Fp:2:2", 1, "c634bbb8919eba3906e5567ae0e129cc3128c16cb6fad8357f595bd769afd789"),
    ("mackey-check --group dihedral:4 --coeff Q", 1, "9a73659ccbc935212f46d0391a80f20d88bbfd13635427219c040f92e0e08a5c"),
    ("mackey-check --group dihedral:4 --coeff Zp:3", 1, "85d1e945a9fc6d1d328444d44331c094ead2f7782df0d97b0aebfba228948910"),
    ("mackey-check --group dihedral:4 --coeff Fp:3", 1, "8bf5b2317c95126fad6a1ef8a704e4dca492484ede9fa11b99650ed187474110"),
    ("mackey-check --group dihedral:4 --coeff Fp:2:2", 1, "eac866776ac3769f9f75263db829fb2ff639c691f5227d13ed2f7c0731c78e42"),
    ("verify-all --group dihedral:4", 0, "98276b8fc5a5461a2901ca5a0bf37314b157db240827906ef7570ffcf3edce9e"),
    ("verify-all --group alt:4", 0, "cdfd93e0742f29303e42d570b3ae7e5af694a455c7abf23f1d8456dd5080d429"),
    ("motivic-report --group sym:4 --coeff Zp:2", 0, "af91ce2ec1bc642a3a6ae82ab79c97125edef00890b6f52b92426119a940e39a"),
    ("motivic-report --group sym:4 --coeff Zp:3", 0, "5445540a7fcdae9b11887a5b847213cf4aaf253172fa99d9fc814993b7bb1960"),
]


@pytest.mark.parametrize("argv,code,sha256", PINNED_MAPS, ids=[a for a, _, _ in PINNED_MAPS])
def test_comparison_map_stdout_is_pinned(argv, code, sha256):
    buf = io.StringIO()
    assert run(argv.split(), stream=buf) == code
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == sha256


# commands that read the coset walks (the center image rho, and the quotients
# N(J)/J of p-local-report) on groups no other pin covers: (the argv, exit
# code, stdout sha256).  subgroups and marks on S5 and D16, and rho on S4,
# are in PINNED_LATTICE and PINNED_MAPS.
PSL27 = "gens:(1 2 3 4 5 6 7);(2 3 5)(4 7 6)"
PINNED_COSETS = [
    (["rho", "--group", "alt:5", "--coeff", "Z"], 0, "dd0ce5fe7704771ba3fe6714b54a9d2ec01257cb5a2b5fa5ef72a1be5259a4e8"),
    (["rho", "--group", "sym:5", "--coeff", "Z"], 0, "999500832693527c57cbb7dec651f73b999eafe26fbaf1369acca097ab4e70cf"),
    (["p-local-report", "--group", PSL27, "--prime", "3"], 1, "dcc41a07840e98ab207124e03b3fe31ea446e2bf57a99b9cd5a975fc8b82b620"),
    (["p-local-report", "--group", PSL27, "--prime", "7"], 1, "d6640d1bb935dc5ba592a4ad8d2e4091ebee6623985359689274a3b56cb26e55"),
    (["p-local-report", "--group", "dihedral:8", "--prime", "2"], 0, "84f689443a138ea3784334fb574ebca5583566e992a51ed571b95542ef4388f6"),
]


@pytest.mark.parametrize("argv,code,sha256", PINNED_COSETS, ids=[" ".join(a) for a, _, _ in PINNED_COSETS])
def test_coset_walk_stdout_is_pinned(argv, code, sha256):
    buf = io.StringIO()
    assert run(argv, stream=buf) == code
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == sha256


# mackey-check and verify-all at two seeds on groups the goldens miss:
# (command, group, seed, exit code, sha256 of stdout)
Q8 = "gens:(1 3 2 4)(5 7 6 8);(1 5 2 6)(3 8 4 7)"
PINNED_MACKEY = [
    ("mackey-check", "cyclic:2", 0, 0, "fd6805ac9fc6ed711acf1be8cf3323ed1bf875cd0f0bfd757d3be8072ceb20cf"),
    ("mackey-check", "cyclic:2", 7, 0, "fd6805ac9fc6ed711acf1be8cf3323ed1bf875cd0f0bfd757d3be8072ceb20cf"),
    ("mackey-check", "cyclic:3", 0, 0, "9c422d16d5c4d2f01bfd8dd621dd1c17a7b085efebfa722421bd44c62bd0c721"),
    ("mackey-check", "cyclic:3", 7, 0, "9c422d16d5c4d2f01bfd8dd621dd1c17a7b085efebfa722421bd44c62bd0c721"),
    ("mackey-check", "cyclic:6", 0, 0, "9a22ad76d62df82a78feb5e9adc7a03007cfa44b081f8210eb7899e41a7eb121"),
    ("mackey-check", "cyclic:6", 7, 0, "9a22ad76d62df82a78feb5e9adc7a03007cfa44b081f8210eb7899e41a7eb121"),
    ("mackey-check", "dihedral:4", 0, 1, "321ee23a71644ff127d24c46c0f514da160e47fd23aecaed4df8648f39ab8b59"),
    ("mackey-check", "dihedral:4", 7, 1, "321ee23a71644ff127d24c46c0f514da160e47fd23aecaed4df8648f39ab8b59"),
    ("mackey-check", Q8, 0, 1, "aa03dcb357eaa46234e7cbc3d060c932bb75db2bac92e880b8a1976a17889909"),
    ("mackey-check", Q8, 7, 1, "aa03dcb357eaa46234e7cbc3d060c932bb75db2bac92e880b8a1976a17889909"),
    ("mackey-check", "alt:4", 0, 1, "768f1b34846fc2a64a18c92e76d4945cc1c890991f3588b54ff2a0101d283075"),
    ("mackey-check", "alt:4", 7, 1, "768f1b34846fc2a64a18c92e76d4945cc1c890991f3588b54ff2a0101d283075"),
    ("mackey-check", "dihedral:5", 0, 1, "1567508ebd63cc82893970c95a3a885dc437f84cb9145ed0267195d0663f21cf"),
    ("mackey-check", "dihedral:5", 7, 1, "1567508ebd63cc82893970c95a3a885dc437f84cb9145ed0267195d0663f21cf"),
    ("mackey-check", "dihedral:6", 0, 1, "361897a2ec1ec4ae027011491f685908f32b27843c32c50359202a9c27463d7d"),
    ("mackey-check", "dihedral:6", 7, 1, "361897a2ec1ec4ae027011491f685908f32b27843c32c50359202a9c27463d7d"),
    ("verify-all", "cyclic:2", 0, 0, "ef19d0180c90a531425d37777686ff45fdacf7642dbcd4ffc26bcd304f158bef"),
    ("verify-all", "cyclic:2", 7, 0, "ef19d0180c90a531425d37777686ff45fdacf7642dbcd4ffc26bcd304f158bef"),
    ("verify-all", "cyclic:3", 0, 0, "df5ae29f797ee26276d8b92c936afab7ac265f206a67846e530d82851c601dee"),
    ("verify-all", "cyclic:3", 7, 0, "df5ae29f797ee26276d8b92c936afab7ac265f206a67846e530d82851c601dee"),
    ("verify-all", "cyclic:6", 0, 0, "f702e814e1dccb49d85cc64a622c890a46cee5d5df6de9972900c251fd3ac835"),
    ("verify-all", "cyclic:6", 7, 0, "f702e814e1dccb49d85cc64a622c890a46cee5d5df6de9972900c251fd3ac835"),
    ("verify-all", "dihedral:4", 0, 0, "98276b8fc5a5461a2901ca5a0bf37314b157db240827906ef7570ffcf3edce9e"),
    ("verify-all", "dihedral:4", 7, 0, "98276b8fc5a5461a2901ca5a0bf37314b157db240827906ef7570ffcf3edce9e"),
    ("verify-all", Q8, 0, 0, "191f2c695bd0406a72170650ee7f0646226db807bb9308e0b13233cabca18168"),
    ("verify-all", Q8, 7, 0, "191f2c695bd0406a72170650ee7f0646226db807bb9308e0b13233cabca18168"),
    ("verify-all", "alt:4", 0, 0, "cdfd93e0742f29303e42d570b3ae7e5af694a455c7abf23f1d8456dd5080d429"),
    ("verify-all", "alt:4", 7, 0, "cdfd93e0742f29303e42d570b3ae7e5af694a455c7abf23f1d8456dd5080d429"),
    ("verify-all", "dihedral:5", 0, 0, "06be3b84404ed65fd638e3f77930313e576d2b08f8f6f8be08151e1329b8bb03"),
    ("verify-all", "dihedral:5", 7, 0, "06be3b84404ed65fd638e3f77930313e576d2b08f8f6f8be08151e1329b8bb03"),
    ("verify-all", "dihedral:6", 0, 0, "35b643f6582608abcbb70919393d39df1505d937981800dbbd3148dd9cb901c4"),
    ("verify-all", "dihedral:6", 7, 0, "35b643f6582608abcbb70919393d39df1505d937981800dbbd3148dd9cb901c4"),
]


@pytest.mark.parametrize(
    "command,group,seed,code,sha256", PINNED_MACKEY, ids=[f"{c} {g} {s}" for c, g, s, _, _ in PINNED_MACKEY]
)
def test_mackey_stdout_is_pinned(command, group, seed, code, sha256):
    buf = io.StringIO()
    assert run([command, "--group", group, "--seed", str(seed)], stream=buf) == code
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == sha256


# verify-all at three seeds and burnside-idempotents over four rings, on
# groups the goldens miss: (the argv, exit code, stdout sha256)
F21 = "gens:(1 2 3 4 5 6 7);(2 3 5)(4 7 6)"
VERIFY_SHA = {
    "sym:4": "499871b4aa7f6dac7f3cd05957fefd53c6bf3e7ead6774643ff1b91e2bc44bbf",
    "sym:5": "90189c450992fe4f55e071bac998d4ce5955ffcac62091e30e1a9555839ba0d8",
    "dihedral:8": "6d735aa97cb8523dfb735219278a08afb2770f2c1055bbef22605652da4426ed",
    F21: "1e86df295a29294823df2e7ee1b42e9775f0a3e138b33a38e675a353abdfe341",
}
IDEMPOTENTS_SHA = {
    ("sym:4", "Q"): "632a4745a6e941f9bd39e0d63a9c3d0bea5ced7f69676106203b54d5d5457637",
    ("sym:4", "Z"): "7b23d7b60ebc1cbce4e4dd3ef5fdac2ce82aa7cccd5b87ee47309d3839bb61bf",
    ("sym:4", "Zp:2"): "5c8ad2d2b5fc550f64751da10a9e3669eefa0d42012c09b38b15ce3bf15bf38a",
    ("sym:4", "Zp:3"): "8e63e7c1e244476db5edf3e91fc51eba636ad9d9ee444f2ce48b702ed2703ae8",
    ("alt:5", "Q"): "fda21036e45d77c88462d922916fcc1ffed1f258276e7c2e4843a5795244f8a2",
    ("alt:5", "Z"): "1829ae3093069904a5aa3811adc4dc36bf44246a842041f5d18524038a140029",
    ("alt:5", "Zp:2"): "1a37bb8157666fa795a1ffd686e6deb894a2a48c52b5b8da3dc7004c58817500",
    ("alt:5", "Zp:3"): "fb17bbdd59dcee6f0327299f3d63c063a0ea90edf633a793965a33ba2b9335ba",
    ("sym:5", "Q"): "c05f5c611043759564413bc41917157bbdfdae08d0da000e99fcdd6c635b4519",
    ("sym:5", "Z"): "5b47d28b2d62c81579986a58a8541c86e61cbf424bf9b761b7298294b29faecd",
    ("sym:5", "Zp:2"): "0dc5f6c5828def7fa42e95e4d1846beea2ba39b5d1638c9758cabe4ebb202cb1",
    ("sym:5", "Zp:3"): "35b1d5258fa4b3113c6e5dc5603912aa92fdbcb4b16ed0242bee20343b2bf1dc",
}
PINNED_VERIFY = [
    *((["verify-all", "--group", group, "--seed", seed], 0, sha) for group, sha in VERIFY_SHA.items()
      for seed in ("0", "7", "1000")),
    *((["burnside-idempotents", "--group", group, "--coeff", coeff], 0, sha)
      for (group, coeff), sha in IDEMPOTENTS_SHA.items()),
]


@pytest.mark.parametrize("argv,code,sha256", PINNED_VERIFY, ids=[" ".join(a) for a, _, _ in PINNED_VERIFY])
def test_verify_and_idempotent_stdout_is_pinned(argv, code, sha256):
    buf = io.StringIO()
    assert run(argv, stream=buf) == code
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == sha256


def test_a_failing_check_reports_its_last_failure(monkeypatch):
    # S3 is inside the exhaustive pair order, so pairs run in order (i, j)
    wrong = {(1, 2), (3, 1)}
    oracle = CrossedBurnsideRing.basis_product_oracle

    def spoiled(self, i, j):
        return ((0, 99),) if (i, j) in wrong else oracle(self, i, j)

    monkeypatch.setattr(CrossedBurnsideRing, "basis_product_oracle", spoiled)
    code, doc, _ = invoke(["verify-all", "--group", "sym:3"])
    assert code == 1
    checks = {c["name"]: c for c in doc["checks"]}
    failed = checks.pop("crossed-product-matches-orbit-oracle")
    assert failed == {
        "name": "crossed-product-matches-orbit-oracle",
        "pass": False,
        "detail": "product mismatch on ([C2#1,()],[1#1,(2 3)])",
    }
    assert all(c["pass"] and "detail" not in c for c in checks.values())


def test_survivor_check_keeps_its_detail_when_it_passes():
    code, doc, _ = invoke(["motivic-report", "--group", "sym:3"])
    assert code == 0
    assert doc["checks"] == [
        {"name": "survivor-is-trivial-residual", "pass": True, "detail": "survivors: ['1#1']"}
    ]


# argparse output: (the argv, exit code, sha256 of stdout, sha256 of stderr),
# help and usage errors at an 80-column width
EMPTY = hashlib.sha256(b"").hexdigest()
PINNED_USAGE = [
    ("--help", 0, "a86fd9523bc48401c6bb9c958e2999c901402f05b85cf0ba164e33d9ec549d43", EMPTY),
    ("subgroups --help", 0, "e66f16561aa0df83e316ad036f134b729d0f165c44a9b75dc70c6ec9ffcc04d3", EMPTY),
    ("marks --help", 0, "4cef7b07b451ba68e766d1f55ea1e5cef8886c4527888ebd90e42298b43dc91d", EMPTY),
    ("burnside-idempotents --help", 0, "7c5f62188e2359c67bccaa5177062f629f3544657bac2ea1bfd8d4690f4256b4", EMPTY),
    ("cbr-basis --help", 0, "8cae82673a7aa374d7d5caa8a22c96f4a6d6f1c06db24e70c7750f1d8f25c3c5", EMPTY),
    ("cbr-multiply --help", 0, "14b033299d0cbd302f1d49856195d8a1ae749b7aa490794fec932a2c2269e985", EMPTY),
    ("cbr-idempotents --help", 0, "591faf4b14764b6c861a47b02b06d4ee653f929a54a59e9deb4ca3119e2f2418", EMPTY),
    ("rho --help", 0, "72a415270e8648afa4fed9ba525f497e4dba6f09734cfb56b019aea28645e9a0", EMPTY),
    ("motivic-report --help", 0, "f1914803a9865262cda303ec05528dbda16902e3e0f24641f98f490c96b3ad7f", EMPTY),
    ("p-local-report --help", 0, "ff2a75f956ae0891d91573c70842c49cfaf950b0b440072083d1ede1151a78c9", EMPTY),
    ("blocks --help", 0, "9fee88304cf15557d326679e0485d11e79e6c1833ffc70b349b5298639454e87", EMPTY),
    ("mackey-check --help", 0, "73c6df06b56c653993370e79763532bdff77ef5e479aa6497143215545113f75", EMPTY),
    ("verify-all --help", 0, "9fc9c97930a59b82db3627e2bcabbdd0c59a1596d63666b0b63baa85c397f5d2", EMPTY),
    ("cbr-basis", 2, EMPTY, "324a22580b47570e05c0bfc41f5cd80bb364ff4b05cff6597a07f402a7a7b42a"),
    ("frobnicate --group cyclic:2", 2, EMPTY, "b116929572c376162b2b1f7532504a4b0e3bebf2e3dcdcc2d8ae735355d5cb3e"),
    ("", 2, EMPTY, "75ecc05f09a33eefa1fb304dfd4f85b304daa3ccbc3f7b1b20eec50abad137e7"),
    # an unrecognized argument prints the top-level usage, every subcommand in it
    ("cbr-basis --group sym:3 extra", 2, EMPTY, "e80a08001d80d4119693a82b0be51e8787fb91fefa6abb764cc80d682da250f9"),
    ("blocks --group sym:3 --prime x", 2, EMPTY, "28178ff1a0d738666c431bffcedb9a7ce7ac9af78031a50cca76311ce16751c1"),
]


@pytest.mark.parametrize("argv,code,out_sha256,err_sha256", PINNED_USAGE, ids=[a or "(none)" for a, *_ in PINNED_USAGE])
def test_help_and_usage_errors_are_pinned(argv, code, out_sha256, err_sha256, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(argv.split(), stream=io.StringIO()) == code
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == out_sha256
    assert hashlib.sha256(err.encode()).hexdigest() == err_sha256


def test_a_known_subcommand_builds_only_its_own_subparser(monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda names=SUBCOMMANDS: built.append(list(names)) or real(names))
    invoke(["cbr-basis", "--group", "cyclic:2"])  # well formed: no parser at all
    assert built == []
    invoke(["cbr-basis", "--group=cyclic:2"])
    invoke(["cbr-basis"])
    invoke(["frobnicate", "--group", "cyclic:2"])
    invoke([])
    assert built == [["cbr-basis"], ["cbr-basis"], SUBCOMMANDS, SUBCOMMANDS]


# -- the reader against argparse ------------------------------------------------

# values the reader and argparse must convert alike, or both refuse: empty,
# negative, padded, underscored, non-digit and over int()'s 4,300 digits
READER_VALUES = st.sampled_from(
    ["sym:3", "gens:(1 2)(3 4);(1 3)(2 4)", "Zp:2", "{}", "7", "0", "+3", "", "-1", "-x", " 7", "1_0", "x", "\u0663",
     "1" * 4400]
)
# the exact names, abbreviations of them, and names no subcommand has
READER_NAMES = st.sampled_from([*cli.OPTIONS, "--g", "--gr", "--co", "--p", "--pri", "--b", "--se", "--ts", "--z"])
EXACT = [name for name in cli.OPTIONS if name != "--tsv"]
# an exact --name value pair in half the draws
READER_TOKENS = st.sampled_from(
    [st.tuples(st.sampled_from(EXACT), READER_VALUES).map(list)] * 4
    + [
        st.tuples(READER_NAMES, READER_VALUES).map(list),
        st.builds(lambda name, value: [f"{name}={value}"], READER_NAMES, READER_VALUES),
        st.sampled_from([["--tsv"], ["-h"], ["--help"], ["--"]]),
        READER_VALUES.map(lambda value: [value]),
    ]
).flatmap(lambda strategy: strategy)


def reader_argv(command, required, tokens):
    """command, its required options if asked for, then the tokens."""
    head = ["--group", "sym:3"] + (["--x", "{}", "--y", "{}"] if command == "cbr-multiply" else [])
    return [command, *(head if required else []), *(token for unit in tokens for token in unit)]


def argparse_vars(argv):
    try:
        return vars(cli.build_parser(argv[:1]).parse_args(argv))
    except SystemExit:
        pytest.fail(f"argparse refused {argv!r}, which the reader took")


def test_the_reader_takes_what_argparse_takes_to_the_same_namespace():
    """Whenever read_args returns a namespace, argparse returns the same one;
    both outcomes are drawn often."""
    outcomes = Counter()

    @seed(27)
    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from([*SUBCOMMANDS, "frobnicate"]), st.sampled_from([True] * 3 + [False]),
        st.lists(READER_TOKENS, max_size=3),
    )
    def differ(command, required, tokens):
        argv = reader_argv(command, required, tokens)
        args = cli.read_args(argv)
        outcomes[args is None] += 1
        if args is not None:
            assert vars(args) == argparse_vars(argv)

    differ()
    assert outcomes[False] >= 50 and outcomes[True] >= 50, outcomes


@pytest.mark.parametrize("argv", GOLDEN_ARGVS, ids=" ".join)
def test_the_reader_takes_every_benchmark_argv(argv):
    # the benchmark appends --seed to each recorded command
    argv = [*argv, "--seed", "8801"]
    args = cli.read_args(argv)
    assert args is not None
    assert vars(args) == argparse_vars(argv)


# -- p-local primes past the primality bound ----------------------------------

BIG_PRIME = "1000000000000000000000007"  # 10^24 + 7, prime, inside the bound
OVER_BOUND = str(PRIME_BOUND + 2)


def run_cli(*argv):
    """The CLI in a fresh interpreter, killed after 10 s."""
    src = Path(motive_ring.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "motive_ring.cli", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=10,
    )


def test_a_large_p_local_prime_inside_the_bound_runs():
    out = run_cli("cbr-idempotents", "--group", "sym:3", "--coeff", f"Zp:{BIG_PRIME}")
    assert out.returncode == 0
    assert json.loads(out.stdout)["coeff"] == f"Zp:{BIG_PRIME}"
    out = run_cli("p-local-report", "--group", "sym:3", "--prime", BIG_PRIME)
    # as for p = 2, only the quotient-side rank comparison fails (criterion 5)
    assert out.returncode == 1
    fails = [c["name"] for c in json.loads(out.stdout)["checks"] if not c["pass"]]
    assert fails == ["quotient-rank-match[J=C2#1]"]


@pytest.mark.parametrize(
    "argv",
    [
        ["cbr-idempotents", "--group", "sym:5", "--coeff", f"Zp:{OVER_BOUND}"],
        ["motivic-report", "--group", "sym:5", "--coeff", f"Zp:{OVER_BOUND}"],
        ["burnside-idempotents", "--group", "sym:5", "--coeff", f"Zp:{OVER_BOUND}"],
        ["rho", "--group", "sym:5", "--coeff", f"Zp:{OVER_BOUND}"],
        ["mackey-check", "--group", "sym:3", "--coeff", f"Zp:{OVER_BOUND}"],
        ["p-local-report", "--group", "sym:5", "--prime", OVER_BOUND],
    ],
)
def test_a_prime_past_the_bound_exits_3_before_the_lattice(argv, monkeypatch):
    def no_lattice(*args, **kwargs):
        raise AssertionError("lattice built")

    monkeypatch.setattr(cli, "SubgroupClassTable", no_lattice)
    code, doc, _ = invoke(argv)
    assert code == 3 and doc["exit"] == 3
    assert doc["error"] == f"prime too large: p = {OVER_BOUND} > prime bound {PRIME_BOUND}"


def test_a_prime_past_the_bound_exits_3_at_once_in_a_fresh_process():
    out = run_cli("cbr-idempotents", "--group", "sym:3", "--coeff", "Zp:1" + "0" * 30 + "7")
    assert out.returncode == 3
    assert json.loads(out.stdout)["error"].startswith("prime too large: p = 1000")
    out = run_cli("p-local-report", "--group", "sym:3", "--prime", "1" + "0" * 30 + "7")
    assert out.returncode == 3


# 4,400 digits: more than int() converts (4,300), so the numeral is refused
# by its length alone
LONG = "1" * 4400
BEYOND_INT = "<4400 digits>"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["cbr-idempotents", "--coeff", f"Zp:{LONG}"], f"prime too large: p = {BEYOND_INT} > prime bound {PRIME_BOUND}"),
        (["p-local-report", "--prime", LONG], f"prime too large: p = {BEYOND_INT} > prime bound {PRIME_BOUND}"),
        (["blocks", "--coeff", f"Fp:{LONG}"], f"field too large: q = {BEYOND_INT}^1 > field bound 65536"),
        (["blocks", "--coeff", f"Fp:2:{LONG}"], f"field too large: q = 2^{BEYOND_INT} > field bound 65536"),
        (["blocks", "--prime", LONG], f"field too large: q = {BEYOND_INT}^1 > field bound 65536"),
    ],
    ids=["Zp", "prime", "Fp", "Fp-exponent", "blocks-prime"],
)
def test_a_numeral_past_the_int_digit_limit_exits_3_in_a_fresh_process(argv, error):
    out = run_cli(argv[0], "--group", "sym:3", *argv[1:])
    assert out.returncode == 3
    assert json.loads(out.stdout) == {"error": error, "exit": 3}


def test_a_numeral_past_the_int_digit_limit_exits_3_before_the_lattice(monkeypatch):
    def no_lattice(*args, **kwargs):
        raise AssertionError("lattice built")

    monkeypatch.setattr(cli, "SubgroupClassTable", no_lattice)
    for argv in (["cbr-idempotents", "--coeff", f"Zp:{LONG}"], ["p-local-report", "--prime", LONG]):
        code, doc, _ = invoke([argv[0], "--group", "sym:5", *argv[1:]])
        assert code == 3 and doc["error"].startswith(f"prime too large: p = {BEYOND_INT} >")


def test_a_numeral_within_the_int_digit_limit_keeps_its_message():
    p = "1" * 4300
    code, doc, _ = invoke(["cbr-idempotents", "--group", "sym:3", "--coeff", f"Zp:{p}"])
    assert code == 3 and doc["error"] == f"prime too large: p = {p} > prime bound {PRIME_BOUND}"
    code, doc, _ = invoke(["blocks", "--group", "sym:3", "--coeff", f"Fp:{p}"])
    assert code == 3 and doc["error"] == f"field too large: q = {p}^1 > field bound 65536"
    # leading zeros do not count: this is p = 3
    code, doc, _ = invoke(["cbr-idempotents", "--group", "sym:3", "--coeff", "Zp:" + "0" * 4400 + "3"])
    assert code == 0 and doc["idempotents"] == invoke(["cbr-idempotents", "--group", "sym:3", "--coeff", "Zp:3"])[1]["idempotents"]


def test_commands_that_ignore_the_coefficients_still_ignore_them():
    code, _, _ = invoke(["subgroups", "--group", "sym:3", "--coeff", f"Zp:{OVER_BOUND}"])
    assert code == 0


# -- one gate for --coeff and --prime -----------------------------------------

# The grid: every subcommand that reads --coeff or --prime, with each of these
# tags and --prime values ("-": the flag left out), on sym:3 and on sym:6,
# which is over the order bound of 200.
GATE_TAGS = {
    "-": None, "Z": "Z", "Q": "Q", "Zp:3": "Zp:3", "Zp:4": "Zp:4", "Zp:x": "Zp:x",
    "Zp:9x30": "Zp:" + "9" * 30, "Zp:1x4400": "Zp:" + "1" * 4400, "Fp:2": "Fp:2", "Fp:4": "Fp:4",
    "Fp:2:2": "Fp:2:2", "Fp:2:40": "Fp:2:40", "Fp:70001": "Fp:70001", "Fp:x": "Fp:x",
    "Fp:1:9": "Fp:1:9", "garbage": "garbage",
}
GATE_PRIMES = ("-", "2", "4", "70001")


def gate_argv(command, group, tag, prime):
    argv = [command, "--group", group]
    if GATE_TAGS[tag] is not None:
        argv += ["--coeff", GATE_TAGS[tag]]
    if prime != "-":
        argv += ["--prime", prime]
    if command == "cbr-multiply":
        argv += ["--x", "{}", "--y", "{}"]
    return argv


# The outcomes of the grid, (exit code, stdout sha256), each named by its
# error or by its first argv.  PINNED_REFUSALS maps (subcommand, group, tag)
# to its outcome under every --prime, or to one outcome per GATE_PRIMES;
# it was recorded before the coefficients were gated in one place.
# CHANGED_REFUSALS holds the new outcome where the gate changed it:
# (a) a Zp tag on a group over the order bound now reports the group;
# (b) an invalid tag on burnside-idempotents, cbr-idempotents or
#     motivic-report reports its parse error or its field bound, not
#     "unsupported coefficients".
OUTCOMES = {
    "blocks sym:3 - p2": (0, "33d2a4aaead3ef2a47c541b8cd3a7f29ba39dbcf87fdd0bea3c05a782280eb8c"),
    "blocks sym:3 Fp:2:2": (0, "0152dc17c19d8fdad933c8761f3c528e4356f029db11e99856368f0be2caf060"),
    "burnside-idempotents sym:3 -": (0, "d59e34722fadeceed275e3e6f25cab8c0f5a886a6edf20ebcc6e432b9b866e32"),
    "burnside-idempotents sym:3 Z": (0, "d33b8d0b1230b3f1c2ed5ad7bc42366e03b3a4f0f47beb4478f2b72f455dac36"),
    "burnside-idempotents sym:3 Zp:3": (0, "023b8a71fd88ab691d157240eae6102ab0c4722f67744d38c1605f262f04ec1d"),
    "cbr-idempotents sym:3 -": (0, "9f735240fe313f12fd84fa811e088d68291b30cf953fd32d063e22d317940d25"),
    "cbr-idempotents sym:3 Zp:3": (0, "66df5098faf1c3e769a3210da3fc52d47587eea65091134036158cab9158b4ee"),
    "cbr-multiply sym:3 -": (0, "03e2bddd6ca1079cab2e44648a2a3cbae563b291f38b02314ebcdabc541429e4"),
    "cbr-multiply sym:3 Fp:2": (0, "6563ce24faa39d279161a1fdc5125287ea514462b05eda4da143539929ac874a"),
    "cbr-multiply sym:3 Fp:2:2": (0, "48cecc725d0bb4f88207e7eed59adcdd018f8c81577e33338e355b5d42e26441"),
    "cbr-multiply sym:3 Q": (0, "873ff97c94b4bbb3725c229f12892507874d73388786662c5958984c904d9646"),
    "cbr-multiply sym:3 Zp:3": (0, "d5fe3c6f8333a4325f272fcadd6fbb8c723b6708921c2bd25bf6173b1837cad2"),
    "motivic-report sym:3 -": (0, "3e31fbd8c7df34656468a3e624934858b974b24907e8e13018a68f563e58bac8"),
    "motivic-report sym:3 Zp:3": (0, "10eba90d46b5d3c02428fabb6f20a46ed522d4cd8171bb3d4e0aca8647e3932b"),
    "rho sym:3 -": (0, "ed169880c6e3ed1ebe0d6040cbd9da6ea864a12251b9caec3617466bc0c57776"),
    "rho sym:3 Fp:2": (0, "91f174771cecd5d05ea441a110cc5fa959a0dd563650301c0275929fc00654e8"),
    "rho sym:3 Fp:2:2": (0, "5b8e7b43e10b36862d7907ee793096d5faa5cf0ff7fe74892f544e7f4dec7788"),
    "rho sym:3 Q": (0, "6258a163c43172fbff30cc093ed07cab4b70ed554902a67a6895a7ae4205f91e"),
    "rho sym:3 Zp:3": (0, "ed9a6dd5c6028f4d8827c71977bcea61f0955cf2601e8d2beee98daaaf040df9"),
    "mackey-check sym:3 -": (1, "4c17f4ea8a5001346903d734802f3ec3af72763470b4ea81ce12403313542cfd"),
    "mackey-check sym:3 Fp:2": (1, "7295aead3fddad30dc1afcb9bc6ac525264e9ec834be561edcaf29cd55b40582"),
    "mackey-check sym:3 Fp:2:2": (1, "c634bbb8919eba3906e5567ae0e129cc3128c16cb6fad8357f595bd769afd789"),
    "mackey-check sym:3 Q": (1, "b34a58864b6370c860820f13f1093ce8ca5d7f6f91779fa2fdd921d70736bd79"),
    "mackey-check sym:3 Z": (1, "af96d69f7654687efdd4ad41f17d66631de1c6c0736b329e8e807f1e19a4b1f6"),
    "mackey-check sym:3 Zp:3": (1, "084b00e944f42f724097bc71592e874ab47a4b6cdb59b45b7947f42c7bbd25cc"),
    "p-local-report sym:3 - p2": (1, "0c9b8ead2a91435fd19343ff41a347a832468c9e41b30ca090c7823dfabf2c68"),
    "p-local-report sym:3 - p70001": (1, "18ba6a49766cf2de158da6358c5bdf3dc08985135453a864d516b39f905b65f6"),
    "1-is-not-prime": (2, "5567d4692f0fb92ac5d7a575dd88d0fe6f621974b0751594a67e8c7ac13e273b"),
    "4-is-not-prime": (2, "2bd534322e3df8707f6211d5e87a64b496a74437098a5be48c1b31b2e4d7da1d"),
    "blocks-need-prime-field-coefficients-fp-p-e": (2, "4012d2e7c1fbded2ea6d16570b12c7e8a1539cbc446dc542c7169e1d3343b2ad"),
    "blocks-requires-prime-or-coeff-fp-p-e": (2, "c93282cfb58ceee2150eb881c2baa2e163f83fd2a5e9f037a6ebf59877a97bc3"),
    "malformed-coefficient-tag-fp-x": (2, "a5b2665323334c7a6be4a73a42ce6c7d4e3e9ca397000de711775e588ac8fe9b"),
    "malformed-coefficient-tag-zp-x": (2, "469cab930da9c525f9f8c9a0470cc71230e081d2fa2cfb68a179b63f3a32f869"),
    "p-local-report-requires-prime": (2, "8824783565804e0673f2a00b6e4b3a7979661118faa340d956ff341561ad806c"),
    "prime-4-and-coeff-fp-2-2-name-different-primes": (2, "c337ce9e35fb3f6cbd771c4f287ca48c4a0e72b517e0dcd5ed7d736476bf5b17"),
    "prime-4-and-coeff-fp-2-name-different-primes": (2, "8e2a547d0d92520944e47ff90b553e65ec151e4475d9fa980aba52a81dd6e331"),
    "prime-70001-and-coeff-fp-2-2-name-different-prim": (2, "33f7d348d5295b2b1b654b2e58eebaa53438a79426993c16d0d93d372cfd7b3c"),
    "prime-70001-and-coeff-fp-2-name-different-primes": (2, "a135699ecca4cbaa81172a6579a87c91fc2375ef2d91325d197e3ebfca194cb5"),
    "unknown-coefficient-tag-garbage": (2, "8bc9bdce31cdc0bae0bbca591d43e0f29b59ddbc5592db0f4ebc2ac22d91f158"),
    "unsupported-coefficients-fp-1-9-for-these-idempo": (2, "ad2dc0d35024429f4f65d8b8191de998ac344acdd96240d2d6f885d8d1dab875"),
    "unsupported-coefficients-fp-1-9-the-summand-deco": (2, "10b1b4fa9b16616e664b57db3f01c569b12bbc2d3ad14a86b9b571db6549b482"),
    "unsupported-coefficients-fp-2-2-for-these-idempo": (2, "ea795540c8bc2fdced4303068c7434ed951ba154c2907b0da9c6216c4cf4dec7"),
    "unsupported-coefficients-fp-2-2-the-summand-deco": (2, "d299caa601228b85a710612cd75607405b4183898bb87ed41dc46beae4f0b9e9"),
    "unsupported-coefficients-fp-2-40-for-these-idemp": (2, "b6d1e08f979a116b973b9aa861105a5439acbc14d47a83d008db9378659f89d7"),
    "unsupported-coefficients-fp-2-40-the-summand-dec": (2, "0998099070a18fbe60304b3a0dd80a718ea474a0099f95c45cb1350b4cbd205f"),
    "unsupported-coefficients-fp-2-for-these-idempote": (2, "b437582eab58969b7c190db2a970e592b145cda95c3f0a2fcbd70a0007d24ff5"),
    "unsupported-coefficients-fp-2-the-summand-decomp": (2, "e28b034d4dd65161f00f26a5b44173d15ac562140d491acc41d4cf176053deb1"),
    "unsupported-coefficients-fp-4-for-these-idempote": (2, "d23173da4b74a53d198739d465be685a6c493d73965b44f80b2b7c1f2cc40137"),
    "unsupported-coefficients-fp-4-the-summand-decomp": (2, "644a685097a198d9f70dcb69f18529a7b468d897554e0fc8dd6f99681f8dd079"),
    "unsupported-coefficients-fp-70001-for-these-idem": (2, "7612211fbf77045a6ca112c948121f063709e2e07a485584e92995ce45d32fe1"),
    "unsupported-coefficients-fp-70001-the-summand-de": (2, "47320ab4914d3d02f051530ae093b9a93006aa574a8e69130213c8f38171d710"),
    "unsupported-coefficients-fp-x-for-these-idempote": (2, "d07e219d2a550bcd72a858fdff2983fd17d8a88f188bafe173bbf42d2de33787"),
    "unsupported-coefficients-fp-x-the-summand-decomp": (2, "006642a96075e61d2af01250cfff0e6f3f7f4a933a36dfd05a714694571e627d"),
    "unsupported-coefficients-garbage-for-these-idemp": (2, "0583f9df67471e9a13b55edebb476980c31d38d0f80bd43569f786d1885cef7b"),
    "unsupported-coefficients-garbage-the-summand-dec": (2, "b2d80d64682b5021fcc6f7a333b9bff68f623f581985a42b82723cb6366798bd"),
    "unsupported-coefficients-q-for-these-idempotents": (2, "e0118ced123227ec35ce626ebee46b6e69590ab54bf475b856cf0309e93e9ff9"),
    "unsupported-coefficients-q-the-summand-decomposi": (2, "f3dd2bd6548559871e73d153237e52852d061af9a949c16b79a95efdfcc49fda"),
    "field-too-large-q-2-40-1099511627776-field-bound": (3, "73c9dc9d550b4ebeeba1d6937bf7104e32369173ab3c1ba4f9f3c175ef798e8d"),
    "field-too-large-q-70001-1-70001-field-bound-6553": (3, "e4d687d757b284eb2fc59208c532afdb072e374cce99fc0484623428c564e49c"),
    "group-too-large-order-exceeds-bound-200": (3, "c06bec87a77c61d51fb5dbc66d9d277102ed9ab977a85f29a4d2e5bb73ad3fba"),
    "prime-too-large-p-4400-digits-prime-bound-331704": (3, "c73ec4b4e646985b551edc89abdf351a4d53df74b2a848c797547e52f465eded"),
    "prime-too-large-p-999999999999999999999999999999": (3, "de4e12a67cd10723b26366fc343928d50079d7b5def2b1869db398f3444df536"),
}
PINNED_REFUSALS = {
    ("burnside-idempotents", "sym:3", "-"): "burnside-idempotents sym:3 -",
    ("burnside-idempotents", "sym:3", "Z"): "burnside-idempotents sym:3 Z",
    ("burnside-idempotents", "sym:3", "Q"): "burnside-idempotents sym:3 -",
    ("burnside-idempotents", "sym:3", "Zp:3"): "burnside-idempotents sym:3 Zp:3",
    ("burnside-idempotents", "sym:3", "Zp:4"): "4-is-not-prime",
    ("burnside-idempotents", "sym:3", "Zp:x"): "malformed-coefficient-tag-zp-x",
    ("burnside-idempotents", "sym:3", "Zp:9x30"): "prime-too-large-p-999999999999999999999999999999",
    ("burnside-idempotents", "sym:3", "Zp:1x4400"): "prime-too-large-p-4400-digits-prime-bound-331704",
    ("burnside-idempotents", "sym:3", "Fp:2"): "unsupported-coefficients-fp-2-for-these-idempote",
    ("burnside-idempotents", "sym:3", "Fp:4"): "unsupported-coefficients-fp-4-for-these-idempote",
    ("burnside-idempotents", "sym:3", "Fp:2:2"): "unsupported-coefficients-fp-2-2-for-these-idempo",
    ("burnside-idempotents", "sym:3", "Fp:2:40"): "unsupported-coefficients-fp-2-40-for-these-idemp",
    ("burnside-idempotents", "sym:3", "Fp:70001"): "unsupported-coefficients-fp-70001-for-these-idem",
    ("burnside-idempotents", "sym:3", "Fp:x"): "unsupported-coefficients-fp-x-for-these-idempote",
    ("burnside-idempotents", "sym:3", "Fp:1:9"): "unsupported-coefficients-fp-1-9-for-these-idempo",
    ("burnside-idempotents", "sym:3", "garbage"): "unsupported-coefficients-garbage-for-these-idemp",
    ("burnside-idempotents", "sym:6", "-"): "group-too-large-order-exceeds-bound-200",
    ("burnside-idempotents", "sym:6", "Z"): "group-too-large-order-exceeds-bound-200",
    ("burnside-idempotents", "sym:6", "Q"): "group-too-large-order-exceeds-bound-200",
    ("burnside-idempotents", "sym:6", "Zp:3"): "group-too-large-order-exceeds-bound-200",
    ("burnside-idempotents", "sym:6", "Zp:4"): "group-too-large-order-exceeds-bound-200",
    ("burnside-idempotents", "sym:6", "Zp:x"): "malformed-coefficient-tag-zp-x",
    ("burnside-idempotents", "sym:6", "Zp:9x30"): "prime-too-large-p-999999999999999999999999999999",
    ("burnside-idempotents", "sym:6", "Zp:1x4400"): "prime-too-large-p-4400-digits-prime-bound-331704",
    ("burnside-idempotents", "sym:6", "Fp:2"): "group-too-large-order-exceeds-bound-200",
    ("burnside-idempotents", "sym:6", "Fp:4"): "group-too-large-order-exceeds-bound-200",
    ("burnside-idempotents", "sym:6", "Fp:2:2"): "group-too-large-order-exceeds-bound-200",
    ("burnside-idempotents", "sym:6", "Fp:2:40"): "group-too-large-order-exceeds-bound-200",
    ("burnside-idempotents", "sym:6", "Fp:70001"): "group-too-large-order-exceeds-bound-200",
    ("burnside-idempotents", "sym:6", "Fp:x"): "group-too-large-order-exceeds-bound-200",
    ("burnside-idempotents", "sym:6", "Fp:1:9"): "group-too-large-order-exceeds-bound-200",
    ("burnside-idempotents", "sym:6", "garbage"): "group-too-large-order-exceeds-bound-200",
    ("cbr-multiply", "sym:3", "-"): "cbr-multiply sym:3 -",
    ("cbr-multiply", "sym:3", "Z"): "cbr-multiply sym:3 -",
    ("cbr-multiply", "sym:3", "Q"): "cbr-multiply sym:3 Q",
    ("cbr-multiply", "sym:3", "Zp:3"): "cbr-multiply sym:3 Zp:3",
    ("cbr-multiply", "sym:3", "Zp:4"): "4-is-not-prime",
    ("cbr-multiply", "sym:3", "Zp:x"): "malformed-coefficient-tag-zp-x",
    ("cbr-multiply", "sym:3", "Zp:9x30"): "prime-too-large-p-999999999999999999999999999999",
    ("cbr-multiply", "sym:3", "Zp:1x4400"): "prime-too-large-p-4400-digits-prime-bound-331704",
    ("cbr-multiply", "sym:3", "Fp:2"): "cbr-multiply sym:3 Fp:2",
    ("cbr-multiply", "sym:3", "Fp:4"): "4-is-not-prime",
    ("cbr-multiply", "sym:3", "Fp:2:2"): "cbr-multiply sym:3 Fp:2:2",
    ("cbr-multiply", "sym:3", "Fp:2:40"): "field-too-large-q-2-40-1099511627776-field-bound",
    ("cbr-multiply", "sym:3", "Fp:70001"): "field-too-large-q-70001-1-70001-field-bound-6553",
    ("cbr-multiply", "sym:3", "Fp:x"): "malformed-coefficient-tag-fp-x",
    ("cbr-multiply", "sym:3", "Fp:1:9"): "1-is-not-prime",
    ("cbr-multiply", "sym:3", "garbage"): "unknown-coefficient-tag-garbage",
    ("cbr-multiply", "sym:6", "-"): "group-too-large-order-exceeds-bound-200",
    ("cbr-multiply", "sym:6", "Z"): "group-too-large-order-exceeds-bound-200",
    ("cbr-multiply", "sym:6", "Q"): "group-too-large-order-exceeds-bound-200",
    ("cbr-multiply", "sym:6", "Zp:3"): "group-too-large-order-exceeds-bound-200",
    ("cbr-multiply", "sym:6", "Zp:4"): "group-too-large-order-exceeds-bound-200",
    ("cbr-multiply", "sym:6", "Zp:x"): "malformed-coefficient-tag-zp-x",
    ("cbr-multiply", "sym:6", "Zp:9x30"): "prime-too-large-p-999999999999999999999999999999",
    ("cbr-multiply", "sym:6", "Zp:1x4400"): "prime-too-large-p-4400-digits-prime-bound-331704",
    ("cbr-multiply", "sym:6", "Fp:2"): "group-too-large-order-exceeds-bound-200",
    ("cbr-multiply", "sym:6", "Fp:4"): "group-too-large-order-exceeds-bound-200",
    ("cbr-multiply", "sym:6", "Fp:2:2"): "group-too-large-order-exceeds-bound-200",
    ("cbr-multiply", "sym:6", "Fp:2:40"): "group-too-large-order-exceeds-bound-200",
    ("cbr-multiply", "sym:6", "Fp:70001"): "group-too-large-order-exceeds-bound-200",
    ("cbr-multiply", "sym:6", "Fp:x"): "group-too-large-order-exceeds-bound-200",
    ("cbr-multiply", "sym:6", "Fp:1:9"): "group-too-large-order-exceeds-bound-200",
    ("cbr-multiply", "sym:6", "garbage"): "group-too-large-order-exceeds-bound-200",
    ("cbr-idempotents", "sym:3", "-"): "cbr-idempotents sym:3 -",
    ("cbr-idempotents", "sym:3", "Z"): "cbr-idempotents sym:3 -",
    ("cbr-idempotents", "sym:3", "Q"): "unsupported-coefficients-q-for-these-idempotents",
    ("cbr-idempotents", "sym:3", "Zp:3"): "cbr-idempotents sym:3 Zp:3",
    ("cbr-idempotents", "sym:3", "Zp:4"): "4-is-not-prime",
    ("cbr-idempotents", "sym:3", "Zp:x"): "malformed-coefficient-tag-zp-x",
    ("cbr-idempotents", "sym:3", "Zp:9x30"): "prime-too-large-p-999999999999999999999999999999",
    ("cbr-idempotents", "sym:3", "Zp:1x4400"): "prime-too-large-p-4400-digits-prime-bound-331704",
    ("cbr-idempotents", "sym:3", "Fp:2"): "unsupported-coefficients-fp-2-for-these-idempote",
    ("cbr-idempotents", "sym:3", "Fp:4"): "unsupported-coefficients-fp-4-for-these-idempote",
    ("cbr-idempotents", "sym:3", "Fp:2:2"): "unsupported-coefficients-fp-2-2-for-these-idempo",
    ("cbr-idempotents", "sym:3", "Fp:2:40"): "unsupported-coefficients-fp-2-40-for-these-idemp",
    ("cbr-idempotents", "sym:3", "Fp:70001"): "unsupported-coefficients-fp-70001-for-these-idem",
    ("cbr-idempotents", "sym:3", "Fp:x"): "unsupported-coefficients-fp-x-for-these-idempote",
    ("cbr-idempotents", "sym:3", "Fp:1:9"): "unsupported-coefficients-fp-1-9-for-these-idempo",
    ("cbr-idempotents", "sym:3", "garbage"): "unsupported-coefficients-garbage-for-these-idemp",
    ("cbr-idempotents", "sym:6", "-"): "group-too-large-order-exceeds-bound-200",
    ("cbr-idempotents", "sym:6", "Z"): "group-too-large-order-exceeds-bound-200",
    ("cbr-idempotents", "sym:6", "Q"): "group-too-large-order-exceeds-bound-200",
    ("cbr-idempotents", "sym:6", "Zp:3"): "group-too-large-order-exceeds-bound-200",
    ("cbr-idempotents", "sym:6", "Zp:4"): "group-too-large-order-exceeds-bound-200",
    ("cbr-idempotents", "sym:6", "Zp:x"): "malformed-coefficient-tag-zp-x",
    ("cbr-idempotents", "sym:6", "Zp:9x30"): "prime-too-large-p-999999999999999999999999999999",
    ("cbr-idempotents", "sym:6", "Zp:1x4400"): "prime-too-large-p-4400-digits-prime-bound-331704",
    ("cbr-idempotents", "sym:6", "Fp:2"): "group-too-large-order-exceeds-bound-200",
    ("cbr-idempotents", "sym:6", "Fp:4"): "group-too-large-order-exceeds-bound-200",
    ("cbr-idempotents", "sym:6", "Fp:2:2"): "group-too-large-order-exceeds-bound-200",
    ("cbr-idempotents", "sym:6", "Fp:2:40"): "group-too-large-order-exceeds-bound-200",
    ("cbr-idempotents", "sym:6", "Fp:70001"): "group-too-large-order-exceeds-bound-200",
    ("cbr-idempotents", "sym:6", "Fp:x"): "group-too-large-order-exceeds-bound-200",
    ("cbr-idempotents", "sym:6", "Fp:1:9"): "group-too-large-order-exceeds-bound-200",
    ("cbr-idempotents", "sym:6", "garbage"): "group-too-large-order-exceeds-bound-200",
    ("rho", "sym:3", "-"): "rho sym:3 -",
    ("rho", "sym:3", "Z"): "rho sym:3 -",
    ("rho", "sym:3", "Q"): "rho sym:3 Q",
    ("rho", "sym:3", "Zp:3"): "rho sym:3 Zp:3",
    ("rho", "sym:3", "Zp:4"): "4-is-not-prime",
    ("rho", "sym:3", "Zp:x"): "malformed-coefficient-tag-zp-x",
    ("rho", "sym:3", "Zp:9x30"): "prime-too-large-p-999999999999999999999999999999",
    ("rho", "sym:3", "Zp:1x4400"): "prime-too-large-p-4400-digits-prime-bound-331704",
    ("rho", "sym:3", "Fp:2"): "rho sym:3 Fp:2",
    ("rho", "sym:3", "Fp:4"): "4-is-not-prime",
    ("rho", "sym:3", "Fp:2:2"): "rho sym:3 Fp:2:2",
    ("rho", "sym:3", "Fp:2:40"): "field-too-large-q-2-40-1099511627776-field-bound",
    ("rho", "sym:3", "Fp:70001"): "field-too-large-q-70001-1-70001-field-bound-6553",
    ("rho", "sym:3", "Fp:x"): "malformed-coefficient-tag-fp-x",
    ("rho", "sym:3", "Fp:1:9"): "1-is-not-prime",
    ("rho", "sym:3", "garbage"): "unknown-coefficient-tag-garbage",
    ("rho", "sym:6", "-"): "group-too-large-order-exceeds-bound-200",
    ("rho", "sym:6", "Z"): "group-too-large-order-exceeds-bound-200",
    ("rho", "sym:6", "Q"): "group-too-large-order-exceeds-bound-200",
    ("rho", "sym:6", "Zp:3"): "group-too-large-order-exceeds-bound-200",
    ("rho", "sym:6", "Zp:4"): "group-too-large-order-exceeds-bound-200",
    ("rho", "sym:6", "Zp:x"): "malformed-coefficient-tag-zp-x",
    ("rho", "sym:6", "Zp:9x30"): "prime-too-large-p-999999999999999999999999999999",
    ("rho", "sym:6", "Zp:1x4400"): "prime-too-large-p-4400-digits-prime-bound-331704",
    ("rho", "sym:6", "Fp:2"): "group-too-large-order-exceeds-bound-200",
    ("rho", "sym:6", "Fp:4"): "group-too-large-order-exceeds-bound-200",
    ("rho", "sym:6", "Fp:2:2"): "group-too-large-order-exceeds-bound-200",
    ("rho", "sym:6", "Fp:2:40"): "group-too-large-order-exceeds-bound-200",
    ("rho", "sym:6", "Fp:70001"): "group-too-large-order-exceeds-bound-200",
    ("rho", "sym:6", "Fp:x"): "group-too-large-order-exceeds-bound-200",
    ("rho", "sym:6", "Fp:1:9"): "group-too-large-order-exceeds-bound-200",
    ("rho", "sym:6", "garbage"): "group-too-large-order-exceeds-bound-200",
    ("motivic-report", "sym:3", "-"): "motivic-report sym:3 -",
    ("motivic-report", "sym:3", "Z"): "motivic-report sym:3 -",
    ("motivic-report", "sym:3", "Q"): "unsupported-coefficients-q-the-summand-decomposi",
    ("motivic-report", "sym:3", "Zp:3"): "motivic-report sym:3 Zp:3",
    ("motivic-report", "sym:3", "Zp:4"): "4-is-not-prime",
    ("motivic-report", "sym:3", "Zp:x"): "malformed-coefficient-tag-zp-x",
    ("motivic-report", "sym:3", "Zp:9x30"): "prime-too-large-p-999999999999999999999999999999",
    ("motivic-report", "sym:3", "Zp:1x4400"): "prime-too-large-p-4400-digits-prime-bound-331704",
    ("motivic-report", "sym:3", "Fp:2"): "unsupported-coefficients-fp-2-the-summand-decomp",
    ("motivic-report", "sym:3", "Fp:4"): "unsupported-coefficients-fp-4-the-summand-decomp",
    ("motivic-report", "sym:3", "Fp:2:2"): "unsupported-coefficients-fp-2-2-the-summand-deco",
    ("motivic-report", "sym:3", "Fp:2:40"): "unsupported-coefficients-fp-2-40-the-summand-dec",
    ("motivic-report", "sym:3", "Fp:70001"): "unsupported-coefficients-fp-70001-the-summand-de",
    ("motivic-report", "sym:3", "Fp:x"): "unsupported-coefficients-fp-x-the-summand-decomp",
    ("motivic-report", "sym:3", "Fp:1:9"): "unsupported-coefficients-fp-1-9-the-summand-deco",
    ("motivic-report", "sym:3", "garbage"): "unsupported-coefficients-garbage-the-summand-dec",
    ("motivic-report", "sym:6", "-"): "group-too-large-order-exceeds-bound-200",
    ("motivic-report", "sym:6", "Z"): "group-too-large-order-exceeds-bound-200",
    ("motivic-report", "sym:6", "Q"): "group-too-large-order-exceeds-bound-200",
    ("motivic-report", "sym:6", "Zp:3"): "group-too-large-order-exceeds-bound-200",
    ("motivic-report", "sym:6", "Zp:4"): "group-too-large-order-exceeds-bound-200",
    ("motivic-report", "sym:6", "Zp:x"): "malformed-coefficient-tag-zp-x",
    ("motivic-report", "sym:6", "Zp:9x30"): "prime-too-large-p-999999999999999999999999999999",
    ("motivic-report", "sym:6", "Zp:1x4400"): "prime-too-large-p-4400-digits-prime-bound-331704",
    ("motivic-report", "sym:6", "Fp:2"): "group-too-large-order-exceeds-bound-200",
    ("motivic-report", "sym:6", "Fp:4"): "group-too-large-order-exceeds-bound-200",
    ("motivic-report", "sym:6", "Fp:2:2"): "group-too-large-order-exceeds-bound-200",
    ("motivic-report", "sym:6", "Fp:2:40"): "group-too-large-order-exceeds-bound-200",
    ("motivic-report", "sym:6", "Fp:70001"): "group-too-large-order-exceeds-bound-200",
    ("motivic-report", "sym:6", "Fp:x"): "group-too-large-order-exceeds-bound-200",
    ("motivic-report", "sym:6", "Fp:1:9"): "group-too-large-order-exceeds-bound-200",
    ("motivic-report", "sym:6", "garbage"): "group-too-large-order-exceeds-bound-200",
    ("p-local-report", "sym:3", "-"): ("p-local-report-requires-prime", "p-local-report sym:3 - p2", "4-is-not-prime", "p-local-report sym:3 - p70001"),
    ("p-local-report", "sym:3", "Z"): ("p-local-report-requires-prime", "p-local-report sym:3 - p2", "4-is-not-prime", "p-local-report sym:3 - p70001"),
    ("p-local-report", "sym:3", "Q"): ("p-local-report-requires-prime", "p-local-report sym:3 - p2", "4-is-not-prime", "p-local-report sym:3 - p70001"),
    ("p-local-report", "sym:3", "Zp:3"): ("p-local-report-requires-prime", "p-local-report sym:3 - p2", "4-is-not-prime", "p-local-report sym:3 - p70001"),
    ("p-local-report", "sym:3", "Zp:4"): ("p-local-report-requires-prime", "p-local-report sym:3 - p2", "4-is-not-prime", "p-local-report sym:3 - p70001"),
    ("p-local-report", "sym:3", "Zp:x"): ("p-local-report-requires-prime", "p-local-report sym:3 - p2", "4-is-not-prime", "p-local-report sym:3 - p70001"),
    ("p-local-report", "sym:3", "Zp:9x30"): ("p-local-report-requires-prime", "p-local-report sym:3 - p2", "4-is-not-prime", "p-local-report sym:3 - p70001"),
    ("p-local-report", "sym:3", "Zp:1x4400"): ("p-local-report-requires-prime", "p-local-report sym:3 - p2", "4-is-not-prime", "p-local-report sym:3 - p70001"),
    ("p-local-report", "sym:3", "Fp:2"): ("p-local-report-requires-prime", "p-local-report sym:3 - p2", "4-is-not-prime", "p-local-report sym:3 - p70001"),
    ("p-local-report", "sym:3", "Fp:4"): ("p-local-report-requires-prime", "p-local-report sym:3 - p2", "4-is-not-prime", "p-local-report sym:3 - p70001"),
    ("p-local-report", "sym:3", "Fp:2:2"): ("p-local-report-requires-prime", "p-local-report sym:3 - p2", "4-is-not-prime", "p-local-report sym:3 - p70001"),
    ("p-local-report", "sym:3", "Fp:2:40"): ("p-local-report-requires-prime", "p-local-report sym:3 - p2", "4-is-not-prime", "p-local-report sym:3 - p70001"),
    ("p-local-report", "sym:3", "Fp:70001"): ("p-local-report-requires-prime", "p-local-report sym:3 - p2", "4-is-not-prime", "p-local-report sym:3 - p70001"),
    ("p-local-report", "sym:3", "Fp:x"): ("p-local-report-requires-prime", "p-local-report sym:3 - p2", "4-is-not-prime", "p-local-report sym:3 - p70001"),
    ("p-local-report", "sym:3", "Fp:1:9"): ("p-local-report-requires-prime", "p-local-report sym:3 - p2", "4-is-not-prime", "p-local-report sym:3 - p70001"),
    ("p-local-report", "sym:3", "garbage"): ("p-local-report-requires-prime", "p-local-report sym:3 - p2", "4-is-not-prime", "p-local-report sym:3 - p70001"),
    ("p-local-report", "sym:6", "-"): "group-too-large-order-exceeds-bound-200",
    ("p-local-report", "sym:6", "Z"): "group-too-large-order-exceeds-bound-200",
    ("p-local-report", "sym:6", "Q"): "group-too-large-order-exceeds-bound-200",
    ("p-local-report", "sym:6", "Zp:3"): "group-too-large-order-exceeds-bound-200",
    ("p-local-report", "sym:6", "Zp:4"): "group-too-large-order-exceeds-bound-200",
    ("p-local-report", "sym:6", "Zp:x"): "group-too-large-order-exceeds-bound-200",
    ("p-local-report", "sym:6", "Zp:9x30"): "group-too-large-order-exceeds-bound-200",
    ("p-local-report", "sym:6", "Zp:1x4400"): "group-too-large-order-exceeds-bound-200",
    ("p-local-report", "sym:6", "Fp:2"): "group-too-large-order-exceeds-bound-200",
    ("p-local-report", "sym:6", "Fp:4"): "group-too-large-order-exceeds-bound-200",
    ("p-local-report", "sym:6", "Fp:2:2"): "group-too-large-order-exceeds-bound-200",
    ("p-local-report", "sym:6", "Fp:2:40"): "group-too-large-order-exceeds-bound-200",
    ("p-local-report", "sym:6", "Fp:70001"): "group-too-large-order-exceeds-bound-200",
    ("p-local-report", "sym:6", "Fp:x"): "group-too-large-order-exceeds-bound-200",
    ("p-local-report", "sym:6", "Fp:1:9"): "group-too-large-order-exceeds-bound-200",
    ("p-local-report", "sym:6", "garbage"): "group-too-large-order-exceeds-bound-200",
    ("blocks", "sym:3", "-"): ("blocks-requires-prime-or-coeff-fp-p-e", "blocks sym:3 - p2", "4-is-not-prime", "field-too-large-q-70001-1-70001-field-bound-6553"),
    ("blocks", "sym:3", "Z"): "blocks-need-prime-field-coefficients-fp-p-e",
    ("blocks", "sym:3", "Q"): "blocks-need-prime-field-coefficients-fp-p-e",
    ("blocks", "sym:3", "Zp:3"): "blocks-need-prime-field-coefficients-fp-p-e",
    ("blocks", "sym:3", "Zp:4"): "4-is-not-prime",
    ("blocks", "sym:3", "Zp:x"): "malformed-coefficient-tag-zp-x",
    ("blocks", "sym:3", "Zp:9x30"): "prime-too-large-p-999999999999999999999999999999",
    ("blocks", "sym:3", "Zp:1x4400"): "prime-too-large-p-4400-digits-prime-bound-331704",
    ("blocks", "sym:3", "Fp:2"): ("blocks sym:3 - p2", "blocks sym:3 - p2", "prime-4-and-coeff-fp-2-name-different-primes", "prime-70001-and-coeff-fp-2-name-different-primes"),
    ("blocks", "sym:3", "Fp:4"): "4-is-not-prime",
    ("blocks", "sym:3", "Fp:2:2"): ("blocks sym:3 Fp:2:2", "blocks sym:3 Fp:2:2", "prime-4-and-coeff-fp-2-2-name-different-primes", "prime-70001-and-coeff-fp-2-2-name-different-prim"),
    ("blocks", "sym:3", "Fp:2:40"): "field-too-large-q-2-40-1099511627776-field-bound",
    ("blocks", "sym:3", "Fp:70001"): "field-too-large-q-70001-1-70001-field-bound-6553",
    ("blocks", "sym:3", "Fp:x"): "malformed-coefficient-tag-fp-x",
    ("blocks", "sym:3", "Fp:1:9"): "1-is-not-prime",
    ("blocks", "sym:3", "garbage"): "unknown-coefficient-tag-garbage",
    ("blocks", "sym:6", "-"): "group-too-large-order-exceeds-bound-200",
    ("blocks", "sym:6", "Z"): "group-too-large-order-exceeds-bound-200",
    ("blocks", "sym:6", "Q"): "group-too-large-order-exceeds-bound-200",
    ("blocks", "sym:6", "Zp:3"): "group-too-large-order-exceeds-bound-200",
    ("blocks", "sym:6", "Zp:4"): "group-too-large-order-exceeds-bound-200",
    ("blocks", "sym:6", "Zp:x"): "malformed-coefficient-tag-zp-x",
    ("blocks", "sym:6", "Zp:9x30"): "prime-too-large-p-999999999999999999999999999999",
    ("blocks", "sym:6", "Zp:1x4400"): "prime-too-large-p-4400-digits-prime-bound-331704",
    ("blocks", "sym:6", "Fp:2"): "group-too-large-order-exceeds-bound-200",
    ("blocks", "sym:6", "Fp:4"): "group-too-large-order-exceeds-bound-200",
    ("blocks", "sym:6", "Fp:2:2"): "group-too-large-order-exceeds-bound-200",
    ("blocks", "sym:6", "Fp:2:40"): "group-too-large-order-exceeds-bound-200",
    ("blocks", "sym:6", "Fp:70001"): "group-too-large-order-exceeds-bound-200",
    ("blocks", "sym:6", "Fp:x"): "group-too-large-order-exceeds-bound-200",
    ("blocks", "sym:6", "Fp:1:9"): "group-too-large-order-exceeds-bound-200",
    ("blocks", "sym:6", "garbage"): "group-too-large-order-exceeds-bound-200",
    ("mackey-check", "sym:3", "-"): "mackey-check sym:3 -",
    ("mackey-check", "sym:3", "Z"): "mackey-check sym:3 Z",
    ("mackey-check", "sym:3", "Q"): "mackey-check sym:3 Q",
    ("mackey-check", "sym:3", "Zp:3"): "mackey-check sym:3 Zp:3",
    ("mackey-check", "sym:3", "Zp:4"): "4-is-not-prime",
    ("mackey-check", "sym:3", "Zp:x"): "malformed-coefficient-tag-zp-x",
    ("mackey-check", "sym:3", "Zp:9x30"): "prime-too-large-p-999999999999999999999999999999",
    ("mackey-check", "sym:3", "Zp:1x4400"): "prime-too-large-p-4400-digits-prime-bound-331704",
    ("mackey-check", "sym:3", "Fp:2"): "mackey-check sym:3 Fp:2",
    ("mackey-check", "sym:3", "Fp:4"): "4-is-not-prime",
    ("mackey-check", "sym:3", "Fp:2:2"): "mackey-check sym:3 Fp:2:2",
    ("mackey-check", "sym:3", "Fp:2:40"): "field-too-large-q-2-40-1099511627776-field-bound",
    ("mackey-check", "sym:3", "Fp:70001"): "field-too-large-q-70001-1-70001-field-bound-6553",
    ("mackey-check", "sym:3", "Fp:x"): "malformed-coefficient-tag-fp-x",
    ("mackey-check", "sym:3", "Fp:1:9"): "1-is-not-prime",
    ("mackey-check", "sym:3", "garbage"): "unknown-coefficient-tag-garbage",
    ("mackey-check", "sym:6", "-"): "group-too-large-order-exceeds-bound-200",
    ("mackey-check", "sym:6", "Z"): "group-too-large-order-exceeds-bound-200",
    ("mackey-check", "sym:6", "Q"): "group-too-large-order-exceeds-bound-200",
    ("mackey-check", "sym:6", "Zp:3"): "group-too-large-order-exceeds-bound-200",
    ("mackey-check", "sym:6", "Zp:4"): "group-too-large-order-exceeds-bound-200",
    ("mackey-check", "sym:6", "Zp:x"): "malformed-coefficient-tag-zp-x",
    ("mackey-check", "sym:6", "Zp:9x30"): "prime-too-large-p-999999999999999999999999999999",
    ("mackey-check", "sym:6", "Zp:1x4400"): "prime-too-large-p-4400-digits-prime-bound-331704",
    ("mackey-check", "sym:6", "Fp:2"): "group-too-large-order-exceeds-bound-200",
    ("mackey-check", "sym:6", "Fp:4"): "group-too-large-order-exceeds-bound-200",
    ("mackey-check", "sym:6", "Fp:2:2"): "group-too-large-order-exceeds-bound-200",
    ("mackey-check", "sym:6", "Fp:2:40"): "group-too-large-order-exceeds-bound-200",
    ("mackey-check", "sym:6", "Fp:70001"): "group-too-large-order-exceeds-bound-200",
    ("mackey-check", "sym:6", "Fp:x"): "group-too-large-order-exceeds-bound-200",
    ("mackey-check", "sym:6", "Fp:1:9"): "group-too-large-order-exceeds-bound-200",
    ("mackey-check", "sym:6", "garbage"): "group-too-large-order-exceeds-bound-200",
}
CHANGED_REFUSALS = {
    ("burnside-idempotents", "sym:3", "Fp:4"): "4-is-not-prime",  # (b)
    ("burnside-idempotents", "sym:3", "Fp:2:40"): "field-too-large-q-2-40-1099511627776-field-bound",  # (b)
    ("burnside-idempotents", "sym:3", "Fp:70001"): "field-too-large-q-70001-1-70001-field-bound-6553",  # (b)
    ("burnside-idempotents", "sym:3", "Fp:x"): "malformed-coefficient-tag-fp-x",  # (b)
    ("burnside-idempotents", "sym:3", "Fp:1:9"): "1-is-not-prime",  # (b)
    ("burnside-idempotents", "sym:3", "garbage"): "unknown-coefficient-tag-garbage",  # (b)
    ("burnside-idempotents", "sym:6", "Zp:x"): "group-too-large-order-exceeds-bound-200",  # (a)
    ("burnside-idempotents", "sym:6", "Zp:9x30"): "group-too-large-order-exceeds-bound-200",  # (a)
    ("burnside-idempotents", "sym:6", "Zp:1x4400"): "group-too-large-order-exceeds-bound-200",  # (a)
    ("cbr-multiply", "sym:6", "Zp:x"): "group-too-large-order-exceeds-bound-200",  # (a)
    ("cbr-multiply", "sym:6", "Zp:9x30"): "group-too-large-order-exceeds-bound-200",  # (a)
    ("cbr-multiply", "sym:6", "Zp:1x4400"): "group-too-large-order-exceeds-bound-200",  # (a)
    ("cbr-idempotents", "sym:3", "Fp:4"): "4-is-not-prime",  # (b)
    ("cbr-idempotents", "sym:3", "Fp:2:40"): "field-too-large-q-2-40-1099511627776-field-bound",  # (b)
    ("cbr-idempotents", "sym:3", "Fp:70001"): "field-too-large-q-70001-1-70001-field-bound-6553",  # (b)
    ("cbr-idempotents", "sym:3", "Fp:x"): "malformed-coefficient-tag-fp-x",  # (b)
    ("cbr-idempotents", "sym:3", "Fp:1:9"): "1-is-not-prime",  # (b)
    ("cbr-idempotents", "sym:3", "garbage"): "unknown-coefficient-tag-garbage",  # (b)
    ("cbr-idempotents", "sym:6", "Zp:x"): "group-too-large-order-exceeds-bound-200",  # (a)
    ("cbr-idempotents", "sym:6", "Zp:9x30"): "group-too-large-order-exceeds-bound-200",  # (a)
    ("cbr-idempotents", "sym:6", "Zp:1x4400"): "group-too-large-order-exceeds-bound-200",  # (a)
    ("rho", "sym:6", "Zp:x"): "group-too-large-order-exceeds-bound-200",  # (a)
    ("rho", "sym:6", "Zp:9x30"): "group-too-large-order-exceeds-bound-200",  # (a)
    ("rho", "sym:6", "Zp:1x4400"): "group-too-large-order-exceeds-bound-200",  # (a)
    ("motivic-report", "sym:3", "Fp:4"): "4-is-not-prime",  # (b)
    ("motivic-report", "sym:3", "Fp:2:40"): "field-too-large-q-2-40-1099511627776-field-bound",  # (b)
    ("motivic-report", "sym:3", "Fp:70001"): "field-too-large-q-70001-1-70001-field-bound-6553",  # (b)
    ("motivic-report", "sym:3", "Fp:x"): "malformed-coefficient-tag-fp-x",  # (b)
    ("motivic-report", "sym:3", "Fp:1:9"): "1-is-not-prime",  # (b)
    ("motivic-report", "sym:3", "garbage"): "unknown-coefficient-tag-garbage",  # (b)
    ("motivic-report", "sym:6", "Zp:x"): "group-too-large-order-exceeds-bound-200",  # (a)
    ("motivic-report", "sym:6", "Zp:9x30"): "group-too-large-order-exceeds-bound-200",  # (a)
    ("motivic-report", "sym:6", "Zp:1x4400"): "group-too-large-order-exceeds-bound-200",  # (a)
    ("blocks", "sym:6", "Zp:x"): "group-too-large-order-exceeds-bound-200",  # (a)
    ("blocks", "sym:6", "Zp:9x30"): "group-too-large-order-exceeds-bound-200",  # (a)
    ("blocks", "sym:6", "Zp:1x4400"): "group-too-large-order-exceeds-bound-200",  # (a)
    ("mackey-check", "sym:6", "Zp:x"): "group-too-large-order-exceeds-bound-200",  # (a)
    ("mackey-check", "sym:6", "Zp:9x30"): "group-too-large-order-exceeds-bound-200",  # (a)
    ("mackey-check", "sym:6", "Zp:1x4400"): "group-too-large-order-exceeds-bound-200",  # (a)
}


def gate_mismatches(command, group, refusals_only=False):
    mismatches = []
    for (cmd, grp, tag), pinned in PINNED_REFUSALS.items():
        if (cmd, grp) != (command, group):
            continue
        expected = CHANGED_REFUSALS.get((cmd, grp, tag), pinned)
        if isinstance(expected, str):
            expected = (expected,) * len(GATE_PRIMES)
        for prime, name in zip(GATE_PRIMES, expected):
            code, sha256 = OUTCOMES[name]
            if refusals_only and code < 2:
                continue
            buf = io.StringIO()
            got = run(gate_argv(cmd, grp, tag, prime), stream=buf)
            if (got, hashlib.sha256(buf.getvalue().encode()).hexdigest()) != (code, sha256):
                mismatches.append(f"{tag} --prime {prime}: want {name}, got {got} {buf.getvalue()!r:.120}")
    return mismatches


GATE_COMMANDS = sorted({cmd for cmd, _, _ in PINNED_REFUSALS})


@pytest.mark.parametrize("group", ["sym:3", "sym:6"])
@pytest.mark.parametrize("command", GATE_COMMANDS)
def test_coefficient_refusals_are_pinned(command, group):
    assert gate_mismatches(command, group) == []


@pytest.mark.parametrize("command", GATE_COMMANDS)
def test_every_coefficient_refusal_comes_before_the_lattice(command, monkeypatch):
    # on sym:3 every refusal of the grid comes from --coeff or --prime
    def no_lattice(*args, **kwargs):
        raise AssertionError("lattice built")

    monkeypatch.setattr(cli, "SubgroupClassTable", no_lattice)
    assert gate_mismatches(command, "sym:3", refusals_only=True) == []


def test_the_grid_is_every_command_that_reads_the_coefficients():
    assert set(GATE_COMMANDS) == set(cli.COEFFICIENTS) | {"p-local-report"}
    assert len(PINNED_REFUSALS) == len(GATE_COMMANDS) * 2 * len(GATE_TAGS)
    assert set(CHANGED_REFUSALS) <= set(PINNED_REFUSALS)


# The order bound is the one bound on |G| and counts the identity too:
# (c) a bound below 1 refuses the trivial group as a group, where a separate
# lattice bound used to refuse it; (d) the environment does not set the
# order bound, so an order over 200 is refused as a group, whatever
# MOTIVE_RING_MAX_ORDER says.
@pytest.mark.parametrize("bound", ["0", "-5"])
def test_a_bound_below_one_refuses_the_trivial_group(bound):
    code, doc, _ = invoke(["subgroups", "--group", "cyclic:1", "--bound", bound])
    assert (code, doc) == (3, {"error": f"group too large: order exceeds bound {bound}", "exit": 3})
    code, _, _ = invoke(["subgroups", "--group", "cyclic:1", "--bound", "1"])
    assert code == 0


def test_the_environment_does_not_set_the_order_bound(monkeypatch):
    monkeypatch.setenv("MOTIVE_RING_MAX_ORDER", "1000")
    code, doc, _ = invoke(["subgroups", "--group", "sym:6"])
    assert (code, doc) == (3, {"error": "group too large: order exceeds bound 200", "exit": 3})
    monkeypatch.setenv("MOTIVE_RING_MAX_ORDER", "2")
    code, _, _ = invoke(["marks", "--group", "sym:3"])
    assert code == 0


def test_a_mackey_check_tag_is_read_before_the_span_bound():
    # the coefficients are gated before any subcommand's own bound: the tag
    # error wins over the span bound (A5 has order 60 > 24)
    code, doc, _ = invoke(["mackey-check", "--group", "alt:5", "--coeff", "garbage"])
    assert (code, doc) == (2, {"error": "unknown coefficient tag 'garbage'", "exit": 2})
    code, doc, _ = invoke(["mackey-check", "--group", "alt:5", "--coeff", "Q"])
    assert (code, doc) == (3, {"error": "bound exceeded: order 60 > span bound 24", "exit": 3})


def test_a_far_point_in_a_generator_is_refused_before_any_permutation():
    start = time.perf_counter()
    code, doc, _ = invoke(["cbr-basis", "--group", "gens:(1 2);(3 300000000)"])
    assert time.perf_counter() - start < 1.0
    assert (code, doc) == (3, {"error": "group too large: degree 300000000 exceeds bound 16", "exit": 3})
    # a spec that is malformed as well keeps its first error
    code, doc, _ = invoke(["cbr-basis", "--group", "gens:(1 2)(2 30)"])
    assert (code, doc) == (2, {"error": "cycles are not disjoint", "exit": 2})


# -- fuzzing the inputs ---------------------------------------------------------


def mostly(valid, malformed):
    """valid in four draws of five, malformed in the fifth."""
    return st.sampled_from([valid] * 4 + [malformed]).flatmap(lambda strategy: strategy)


NUMERALS = st.one_of(
    st.integers(-5, 80).map(str),
    st.builds(
        lambda sign, zeros, n: sign + "0" * zeros + str(n),
        st.sampled_from(["", "+", "-"]), st.integers(0, 3), st.integers(0, 10**30),
    ),
    st.sampled_from(["1" * 4400, "-" + "7" * 4400, "", "x", "1_1", " 3", "\u0663", "2.0"]),
)
MALFORMED_TAGS = st.one_of(
    st.sampled_from(["z", " Z", "Zp", "Fp", ""]),
    st.builds(
        lambda prefix, fields: prefix + ":".join(fields),
        st.sampled_from(["Zp:", "Fp:", "Qp:", "Z:", ":"]), st.lists(NUMERALS, min_size=1, max_size=3),
    ),
    st.text(max_size=12),
)
TAGS = mostly(st.sampled_from(["Z", "Q", "Zp:2", "Zp:3", "Zp:5", "Fp:2", "Fp:3", "Fp:2:2"]), MALFORMED_TAGS)
PRIMES = mostly(st.sampled_from(["2", "3", "5", "7"]), NUMERALS)
BOUNDS = mostly(st.one_of(st.none(), st.integers(-3, 60).map(str)), st.sampled_from(["x", "1" * 4400]))
CLASS_NAMES = st.sampled_from(["1#1", "C2#1", "C3#1", "S3#1", "C4#1", "V4#1", "D8#1", "A4#1", "Foo#1", "1#9", ""])
LABELS = st.one_of(
    st.builds(
        lambda pts: "(" + " ".join(pts) + ")",
        st.lists(st.one_of(st.integers(-2, 6), st.integers(7, 10**8)).map(str), max_size=3),
    ),
    st.sampled_from(["()", "(1 2)(3 4)", "(1 2", "1 2)", "(1 1)", "(1 2)(2 3)", "(a b)", "", "(1,2,3)"]),
)
COEFFICIENT_VALUES = st.one_of(
    st.sampled_from(["1", "-2", "1/2", "x", "", "1" * 4400]),
    st.integers(-3, 3),
    st.sampled_from([None, True, 1.5, [1], {"1": 1}]),
)
# keys every group has: the point [1#1,()], and the trivial label on the
# classes of small groups; a class a group lacks is refused
VALID_ELEMENTS = st.dictionaries(
    st.sampled_from(["[1#1,()]", "[C2#1,()]", "[C3#1,()]", "[1#1,(1 2)]"]),
    st.one_of(st.integers(-3, 3), st.sampled_from(["1", "-2", "3"])),
    max_size=2,
).map(json.dumps)
ELEMENTS = mostly(
    VALID_ELEMENTS,
    st.dictionaries(
        st.builds(lambda name, label: f"[{name},{label}]", CLASS_NAMES, LABELS), COEFFICIENT_VALUES, max_size=2
    ).map(json.dumps),
)
# every group of permutations of four points has order at most 24
VALID_SPECS = st.one_of(
    st.sampled_from(["sym:3", "sym:4", "cyclic:1", "cyclic:4", "cyclic:6", "dihedral:4", "dihedral:6", "alt:4"]),
    st.builds(
        lambda perms: "gens:" + ";".join(Permutation(p).cycle_string() for p in perms),
        st.lists(st.permutations(range(4)), min_size=1, max_size=2),
    ),
)
MALFORMED_SPECS = st.one_of(
    st.sampled_from(["sym:x", "dihedral:2", "sym:-1"]),
    st.builds(lambda body: "gens:" + body, st.text(alphabet="()0123456789 ,;-x", max_size=16)),
    st.builds(lambda pts: "gens:(" + " ".join(pts) + ")", st.lists(NUMERALS, min_size=1, max_size=3)),
)
FUZZ_COMMANDS = GATE_COMMANDS + ["subgroups", "cbr-basis"]
FUZZ_SETTINGS = settings(max_examples=1000, deadline=None)
FUZZ_INPUTS = dict(
    command=st.sampled_from(FUZZ_COMMANDS),
    spec=mostly(VALID_SPECS, MALFORMED_SPECS),
    tag=st.one_of(st.none(), TAGS),
    prime=mostly(PRIMES, st.none()),
    bound=BOUNDS,
    x=st.one_of(st.just("{}"), ELEMENTS),
    joined=st.tuples(*[st.booleans()] * 4),
)
JOINED = (True,) * 4


def fuzz_argv(command, spec, tag, prime, bound, x, joined):
    """The argv, each of --group, --coeff, --prime and --bound spelled
    --flag=value or --flag value as joined says."""
    if command == "mackey-check":
        bound = "8"  # the fuzz is of the input: keep the Mackey algebras small
    argv = [command]
    for flag, value, join in zip(("--group", "--coeff", "--prime", "--bound"), (spec, tag, prime, bound), joined):
        if value is not None:
            argv += [f"{flag}={value}"] if join else [flag, value]
    if command == "cbr-multiply":
        argv += ["--x", x, "--y", "{}"]
    return argv


def test_any_input_exits_0_to_3_with_one_json_document(monkeypatch):
    """Every argv exits 0 to 3 with one JSON document (or, refused by
    argparse, exits 2 with none).  The draws are counted through a wrapped
    cli.dispatch, so the one run also shows, per subcommand, how many
    examples reach dispatch and how many run its branch to a document."""
    drawn, reached = Counter(), Counter()
    real = cli.dispatch

    def counting(args):
        drawn[args.command] += 1
        doc = real(args)
        reached[args.command] += 1
        return doc

    monkeypatch.setattr(cli, "dispatch", counting)

    # a fixed seed: derandomize alone seeds the draws from the source of
    # fuzz, decorator lines included, so one more @example redrew them all
    @seed(2718)
    @FUZZ_SETTINGS
    @given(**FUZZ_INPUTS)
    @example(command="cbr-multiply", spec="sym:3", tag=None, prime=None, bound=None, x='{"[1#1,(1 100000000)]": "1"}', joined=JOINED)
    @example(command="cbr-multiply", spec="sym:3", tag="Q", prime=None, bound=None, x='{"[C2#1,(1 2)]": "1/2", "[1#1,()]": 3}', joined=JOINED)
    @example(command="cbr-multiply", spec="sym:3", tag=None, prime=None, bound=None, x='{"[Foo#1,()]": "1"}', joined=JOINED)
    @example(command="cbr-multiply", spec="cyclic:4", tag=None, prime=None, bound=None, x='{"[1#1,(1 2]": "1"}', joined=JOINED)
    @example(command="cbr-multiply", spec="cyclic:4", tag=None, prime=None, bound=None, x='{"[1#1,(1 2)]": "1"}', joined=JOINED)
    @example(command="cbr-multiply", spec="sym:3", tag="Fp:3", prime=None, bound=None, x='{"[1#1,()]": 1.5}', joined=JOINED)
    @example(command="cbr-multiply", spec="sym:3", tag="Q", prime=None, bound=None, x='{"[1#1,()]": "1e20000000"}', joined=JOINED)
    @example(command="cbr-multiply", spec="sym:3", tag="Q", prime=None, bound=None, x='{"[1#1,()]": "1/0"}', joined=JOINED)
    def fuzz(command, spec, tag, prime, bound, x, joined):
        buf = io.StringIO()
        code = run(fuzz_argv(command, spec, tag, prime, bound, x, joined), stream=buf)
        assert code in (0, 1, 2, 3)
        if not buf.getvalue():  # argparse refused the argv, on stderr
            assert code == 2
            return
        doc = json.loads(buf.getvalue())
        assert isinstance(doc, dict)
        if code >= 2:
            assert set(doc) == {"error", "exit"} and doc["exit"] == code

    fuzz()
    # 50 to 112 draws per subcommand reach dispatch, 16 to 68 its document
    for command in FUZZ_COMMANDS:
        assert reached[command] >= 10, (command, drawn[command], reached[command])
