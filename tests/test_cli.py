import os
import subprocess
import sys

import pytest

import superbol as sb
from superbol.cli import main

BROKEN_ALG = """\
name broken
even e1 e2 e3
odd e4
binary [e1,e3] = e1
binary [e2,e3] = e1 + e2
binary [e3,e4] = 2*e4
binary [e4,e4] = e1
ternary [e1,e3,e3] = e1
ternary [e2,e3,e3] = 2*e1 + e2
ternary [e3,e4,e3] = -e4
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_pass_and_fail(capsys):
    code, out, _ = run(capsys, "check", "L2_2_2_malcev", "--kind", "malcev")
    assert code == 0 and out.startswith("PASS: malcev axioms on L2_2_2_malcev")

    code, out, _ = run(capsys, "check", "L2_2_2_malcev", "--kind", "lie")
    assert code == 1
    assert out.startswith("FAIL: lie axioms on L2_2_2_malcev")
    assert "  jacobi fails at (e1, e2, e3): defect -3*e4" in out

    code, out, _ = run(capsys, "check", "L2_3_1_bol", "--kind", "bol")
    assert code == 0


def test_machine_format_is_sorted_key_value(capsys):
    code, out, _ = run(capsys, "--format", "machine",
                       "check", "L2_2_2_malcev", "--kind", "lie")
    assert code == 1
    lines = out.strip().split("\n")
    assert lines == sorted(lines)
    assert all(" = " in line for line in lines)
    facts = dict(line.split(" = ", 1) for line in lines)
    assert facts["check.passed"] == "false"
    assert facts["check.witness.count"] == "6"
    assert facts["check.witness[00].axiom"] == "jacobi"
    assert facts["check.witness[00].at"] == "e1,e2,e3"
    assert facts["check.witness[00].defect"] == "-3*e4"


def test_format_flag_accepted_after_subcommand(capsys):
    code, out, _ = run(capsys, "killing-ricci", "L2_3_1_bol",
                       "--format", "machine", "--method", "direct")
    assert code == 0
    facts = dict(line.split(" = ", 1) for line in out.strip().split("\n"))
    assert facts["method"] == "direct"
    assert facts["gram[02][02]"] == "2"
    assert facts["gram[00][00]"] == "0"


def test_killing_ricci_both_routes(capsys):
    code, out, _ = run(capsys, "--format", "machine", "killing-ricci", "L2_2_2_bol")
    assert code == 0
    facts = dict(line.split(" = ", 1) for line in out.strip().split("\n"))
    assert facts["routes_agree"] == "true"
    assert facts["restriction[00][00]"] == "-2"
    assert facts["direct[00][00]"] == "-2"


def test_killing_of_lie_algebra(capsys):
    code, out, _ = run(capsys, "killing", "aff2_lie")
    assert code == 0
    assert "Killing form of aff2_lie" in out
    assert "supersymmetric: true, nondegenerate: false" in out


def test_killing_rejects_non_lie_with_witnesses(capsys):
    code, out, _ = run(capsys, "--format", "machine", "killing", "L2_3_1_bol")
    assert code == 1
    facts = dict(line.split(" = ", 1) for line in out.strip().split("\n"))
    assert facts["passed"] == "false"
    assert facts["witness[00].axiom"] == "jacobi"


def test_pseudo_summary_and_listing(capsys):
    code, out, _ = run(capsys, "--format", "machine", "pseudo", "L2_2_2_bol")
    assert code == 0
    facts = dict(line.split(" = ", 1) for line in out.strip().split("\n"))
    assert facts == {"ips.dim": "4", "ps.dim": "10", "ips_inside_ps": "true"}

    code, out, _ = run(capsys, "--format", "machine", "pseudo", "L2_3_1_bol", "--inner")
    facts = dict(line.split(" = ", 1) for line in out.strip().split("\n"))
    assert facts["ips.dim"] == "4"
    assert facts["ips.degree[0].dim"] == "3"
    assert facts["ips.degree[1].dim"] == "1"


def test_envelope_dims(capsys):
    code, out, _ = run(capsys, "--format", "machine", "envelope", "L2_3_1_bol")
    assert code == 0
    facts = dict(line.split(" = ", 1) for line in out.strip().split("\n"))
    assert facts["envelope.base_dim"] == "4"
    assert facts["envelope.pairs_dim"] == "4"
    assert facts["envelope.dim"] == "8"
    assert facts["envelope.lie_passed"] == "true"

    code, out, _ = run(capsys, "--format", "machine", "envelope", "L2_3_1_bol", "--maximal")
    facts = dict(line.split(" = ", 1) for line in out.strip().split("\n"))
    assert facts["envelope.kind"] == "maximal"
    assert facts["envelope.dim"] == "13"


def test_envelope_of_broken_algebra_fails(tmp_path, capsys):
    path = tmp_path / "broken.alg"
    path.write_text(BROKEN_ALG)
    code, out, _ = run(capsys, "envelope", str(path))
    assert code == 1
    assert "product-rule fails at (e3, e4, e3, e4): defect 3*e1" in out


def test_derive_bol_stdout_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "derive-bol", "L2_2_2_malcev")
    assert code == 0
    assert out.startswith("name bol(L2_2_2_malcev)\n")
    derived = sb.parse_algebra(out)
    assert derived.renamed("L2_2_2_bol") == sb.catalog.load("L2_2_2_bol")

    path = tmp_path / "derived.alg"
    code, out, _ = run(capsys, "derive-bol", "L2_2_2_malcev", "-o", str(path))
    assert code == 0 and out == ""
    assert sb.parse_algebra(path.read_text()) == derived

    # a written file is accepted back as input
    code, out, _ = run(capsys, "check", str(path), "--kind", "bol")
    assert code == 0


def test_lie_to_lts_leaves_binary_out(capsys):
    code, out, _ = run(capsys, "lie-to-lts", "aff2_lie")
    assert code == 0
    T = sb.parse_algebra(out)
    assert T.name == "lts(aff2_lie)"
    assert T.binary is None
    assert T.ternary is not None


def test_center_command(capsys):
    code, out, _ = run(capsys, "--format", "machine", "center", "L2_2_2_malcev")
    assert code == 0
    assert out.strip() == "center.dim = 0"


def test_report_facts(capsys):
    code, out, _ = run(capsys, "--format", "machine", "report", "L2_3_1_bol")
    assert code == 0
    facts = dict(line.split(" = ", 1) for line in out.strip().split("\n"))
    assert facts["bol.passed"] == "true"
    assert facts["beta[02][02]"] == "2"
    assert facts["invariance.equivalent"] == "true"
    assert facts["cross_block_vanishes"] == "true"
    assert facts["pairing_identity"] == "true"
    assert facts["beta_nondegenerate"] == "false"
    assert facts["orthogonal_center_match"] == "none"
    assert facts["envelope.dim"] == "8"


def test_report_flags_broken_algebra(tmp_path, capsys):
    path = tmp_path / "broken.alg"
    path.write_text(BROKEN_ALG)
    code, out, _ = run(capsys, "report", str(path))
    assert code == 1
    assert out.startswith("FAIL: bol axioms on broken")


def test_catalog_list_and_show(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    for key in sb.catalog.keys():
        assert key in out
    assert "abelian_m_n" in out

    code, out, _ = run(capsys, "catalog", "show", "L2_3_1_bol")
    assert code == 0
    assert sb.parse_algebra(out) == sb.catalog.load("L2_3_1_bol")

    code, out, _ = run(capsys, "catalog", "show", "abelian_3_2")
    assert code == 0
    A = sb.parse_algebra(out)
    assert A.space.even_dim == 3 and A.space.odd_dim == 2


def test_abelian_keys_above_the_cap_exit_2(capsys):
    code, out, err = run(capsys, "center", "abelian_60_5")
    assert code == 2 and out == ""
    assert err == "error: abelian_60_5 has dimension 65; abelian_m_n allows at most 64\n"
    code, _, err = run(capsys, "catalog", "show", "abelian_0_65")
    assert code == 2 and err.startswith("error: abelian_0_65 has dimension 65")
    long = "abelian_%s_0" % ("1" * 5000)
    code, out, err = run(capsys, "report", long)
    assert code == 2 and out == ""
    assert err == "error: %s has more than 64 generators; abelian_m_n allows at most 64\n" % long
    code, out, _ = run(capsys, "center", "abelian_24_0")
    assert code == 0 and out.startswith("center of abelian_24_0: dim 24\n")


def test_alg_files_above_the_cap_exit_2(tmp_path, capsys):
    big = tmp_path / "big.alg"
    big.write_text("name big\neven %s\n" % " ".join("e%d" % i for i in range(65)))
    code, out, err = run(capsys, "center", str(big))
    assert code == 2 and out == ""
    assert err == "error: line 2, col 252: label 'e64' is one too many: at most 64 labels\n"


def test_usage_errors_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "catalog", "show", "no_such_key")
    assert code == 2 and err.startswith("error:")

    code, _, err = run(capsys, "check", "no_such_key", "--kind", "lie")
    assert code == 2 and "not a catalog key" in err

    bad = tmp_path / "bad.alg"
    bad.write_text("name t\neven e1 e2\nbinary [e1,e2] = 3*zz\n")
    code, _, err = run(capsys, "check", str(bad), "--kind", "lie")
    assert code == 2 and "line 3" in err and "undeclared label 'zz'" in err


def test_in_process_determinism(capsys):
    first = run(capsys, "--format", "machine", "report", "L2_2_2_bol")
    second = run(capsys, "--format", "machine", "report", "L2_2_2_bol")
    assert first == second


def test_subprocess_entry_point():
    base = [sys.executable, "-m", "superbol"]
    ok = subprocess.run(base + ["check", "L2_3_1_bol", "--kind", "bol"],
                        capture_output=True)
    assert ok.returncode == 0

    bad = subprocess.run(base + ["check", "L2_3_1_bol", "--kind", "lie"],
                         capture_output=True)
    assert bad.returncode == 1

    usage = subprocess.run(base, capture_output=True)
    assert usage.returncode == 2

    twice = subprocess.run(base + ["--format", "machine", "killing-ricci", "L2_3_1_bol"],
                           capture_output=True)
    assert twice.returncode == 0
    again = subprocess.run(base + ["--format", "machine", "killing-ricci", "L2_3_1_bol"],
                           capture_output=True)
    assert twice.stdout == again.stdout


def test_zero_denominator_exits_2_without_traceback(tmp_path):
    bad = tmp_path / "zero.alg"
    bad.write_text("name z\neven e1 e2\nbinary [e1,e2] = 1/0*e1\n")
    done = subprocess.run([sys.executable, "-m", "superbol", "check", str(bad), "--kind", "lie"],
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: line 3, col 18: zero denominator in coefficient '1/0'\n"


def test_a_coefficient_past_the_digit_limit_exits_2_at_its_column(tmp_path, capsys):
    big = tmp_path / "big.alg"
    big.write_text("name b\neven e1 e2\nbinary [e1,e2] = %s*e1\n" % ("1" * 5000))
    code, out, err = run(capsys, "check", str(big), "--kind", "lie")
    assert code == 2 and out == ""
    assert err == "error: line 3, col 18: coefficient has more than %d digits\n" % (
        sys.get_int_max_str_digits())


def test_a_defect_past_the_digit_limit_exits_1_with_every_digit(tmp_path, capsys):
    """Two coefficients under the parser's cap multiply into a 6,000-digit
    defect, past what str converts at once: the check still fails cleanly
    and prints the whole defect in both formats."""
    big = tmp_path / "big.alg"
    big.write_text("name big\neven e1 e2 e3\nbinary [e1,e2] = %s*e3\nbinary [e1,e3] = %s*e1\n"
                   % ("7" * 3000, "3" * 3000))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = str(int("7" * 3000) * int("3" * 3000))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(digits) > limit
    code, out, err = run(capsys, "check", str(big), "--kind", "lie")
    assert (code, err) == (1, "")
    assert out.startswith("FAIL: lie axioms on big\n")
    assert "  jacobi fails at (e1, e2, e3): defect -%s*e3\n" % digits in out
    code, out, err = run(capsys, "--format", "machine", "check", str(big), "--kind", "lie")
    assert (code, err) == (1, "")
    assert "check.witness[00].defect = -%s*e3\n" % digits in out
    assert "check.witness.count = 6\n" in out


def test_closed_stdout_exits_2_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader before the child writes a byte
    try:
        done = subprocess.run([sys.executable, "-m", "superbol", "center", "abelian_2_2"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert done.returncode == 2
    # one error line: no traceback, and no "Exception ignored" at shutdown
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_an_envelope_error_exits_2_and_a_foreign_runtime_error_raises(capsys, monkeypatch):
    from superbol import envelope

    def fails(B):
        raise envelope.EnvelopeError("no closure")

    monkeypatch.setattr(envelope, "ips_space", fails)
    assert run(capsys, "pseudo", "--inner", "L2_3_1_bol") == (2, "", "error: no closure\n")

    def breaks(B):
        raise RuntimeError("a bug")

    monkeypatch.setattr(envelope, "ips_space", breaks)
    with pytest.raises(RuntimeError, match="a bug"):
        main(["pseudo", "--inner", "L2_3_1_bol"])
