from __future__ import annotations

import io
import json
import subprocess
import sys

import pytest

from motive_ring.cli import run


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


def test_env_var_overrides_order_bound(monkeypatch):
    monkeypatch.setenv("MOTIVE_RING_MAX_ORDER", "1000")
    code, doc, _ = invoke(["marks", "--group", "sym:3"])
    assert code == 0


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "motive_ring.cli", "cbr-basis", "--group", "cyclic:2"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["size"] == 4
