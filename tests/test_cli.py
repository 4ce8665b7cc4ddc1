import json

import pytest

import multiell.cli as cli
from multiell.identities import VerificationReport, verify


def run(argv):
    return cli.main(argv)


# every row's id, domain and description, verbatim
LIST_LINES = [
    "I1      a in [0, 1]                  weighted K-kernel integral vs squared-K closed form",
    "I1-ext  a in (1, inf)                weighted K-kernel integral past the critical parameter",
    "I2      no parameters                rational-weight K integral; value pi/(4 sqrt 2)",
    "I3      no parameters                r=4 singular-value K integral; value Gamma(1/4)^4/(16 sqrt2 pi)",
    "I4      no parameters                complex-kernel K integral for the r=3 singular value",
    "I5      no parameters                complex-kernel K integral for the r=7 singular value",
    "I6      b in [0, 1e10], c in [0, 1e10] axially symmetric K integral with two tunable parameters",
    "I7      no parameters                axial special case on (0,1); value pi/(2 sqrt 2)",
    "I8      no parameters                plain K-kernel integral; value pi^2/4",
    "I9      c in [1e-10, 1e10]           semi-infinite Re K integral; value pi/(2 sqrt(1+c^2))",
    "I10     no parameters                signed rational-weight K integral; value -pi/(8 sqrt 2)",
    "I11     a in [0, 0.95]               Clausen-type series vs squared-K closed form",
    "I12     variant in {0, 1}            level-4 Ramanujan-type series vs algebraic multiple of 1/pi",
    "I13     a in [0, 0.95]               quadrature route vs Legendre-projection series route",
]


def test_list(capsys):
    assert run(["list"]) == 0
    assert capsys.readouterr().out.splitlines() == LIST_LINES


def test_verify_text(capsys):
    assert run(["verify", "I8", "--digits", "30"]) == 0
    out = capsys.readouterr().out
    assert "PASSED" in out
    assert "lhs" in out


def test_verify_json(capsysbinary):
    assert run(["verify", "I1", "--param", "a=0.5", "--digits", "30",
                "--format", "json"]) == 0
    rows = json.loads(capsysbinary.readouterr().out)
    assert rows[0]["id"] == "I1"
    assert rows[0]["digits"] == 30
    assert rows[0]["passed"] is True


def test_verify_csv_to_file(tmp_path):
    out = tmp_path / "report.csv"
    assert run(["verify", "I8", "--digits", "30", "--format", "csv",
                "--out", str(out)]) == 0
    lines = out.read_bytes().decode().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("I8,")


def test_sweep(capsysbinary):
    assert run(["sweep", "I1", "--param", "a", "--range", "0:0.8:3",
                "--digits", "30", "--format", "json"]) == 0
    rows = json.loads(capsysbinary.readouterr().out)
    assert len(rows) == 3
    assert [row["params"]["a"] for row in rows] == ["0.0", "0.4", "0.8"]


def test_sweep_with_fixed_parameter(capsysbinary):
    assert run(["sweep", "I6", "--param", "c", "--range", "0.5:2:4",
                "--fixed", "b=1", "--digits", "30", "--format", "json"]) == 0
    rows = json.loads(capsysbinary.readouterr().out)
    assert len(rows) == 4
    assert all(row["passed"] for row in rows)


def test_domain_errors_exit_3(capsys):
    assert run(["verify", "I99"]) == 3
    assert run(["verify", "I1", "--param", "a=2", "--digits", "30"]) == 3
    assert run(["verify", "I1", "--digits", "30"]) == 3  # missing parameter
    assert run(["sweep", "I1", "--param", "a", "--range", "bad"]) == 3
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["verify", "I1-ext", "--param", "a=inf"],
    ["verify", "I6", "--param", "b=inf", "--param", "c=1"],
    ["verify", "I11", "--param", "a=nan"],
    ["verify", "I1", "--param", "a=nan"],
    ["sweep", "I1", "--param", "a", "--range", "0:nan:3"],
], ids=["I1-ext-inf", "I6-inf", "I11-nan", "I1-nan", "sweep-nan"])
def test_non_finite_parameters_exit_3(capsys, argv):
    assert run(argv + ["--digits", "30"]) == 3
    assert "must be finite" in capsys.readouterr().err


def test_nonconvergence_exits_3(capsys):
    assert run(["verify", "I8", "--digits", "30", "--level-cap", "2"]) == 3
    assert "error:" in capsys.readouterr().err


def test_negative_level_cap_exits_3(capsys):
    assert run(["verify", "I8", "--digits", "30", "--level-cap", "-1"]) == 3
    assert "max_level" in capsys.readouterr().err


def test_failed_verification_exits_2(monkeypatch, capsys):
    failing = VerificationReport(
        id="I8", params={}, lhs_value=1, rhs_value=2, abs_err=1, rel_err=0.5,
        passed=False, digits_used=30, wall_time=0.0)
    monkeypatch.setattr(cli, "verify", lambda *a, **k: failing)
    assert run(["verify", "I8", "--digits", "30"]) == 2
    assert "FAILED" in capsys.readouterr().out


def test_config_file_sets_digits(tmp_path, monkeypatch, capsysbinary):
    cfg = tmp_path / "multiell.cfg"
    cfg.write_text("# settings\ndigits = 30\n")
    monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
    assert run(["verify", "I8", "--format", "json"]) == 0
    rows = json.loads(capsysbinary.readouterr().out)
    assert rows[0]["digits"] == 30


def test_cli_flag_wins_over_config(tmp_path, monkeypatch, capsysbinary):
    cfg = tmp_path / "multiell.cfg"
    cfg.write_text("digits = 50\n")
    monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
    assert run(["verify", "I8", "--digits", "30", "--format", "json"]) == 0
    rows = json.loads(capsysbinary.readouterr().out)
    assert rows[0]["digits"] == 30


def test_config_file_sets_tol(tmp_path, monkeypatch, capsysbinary):
    cfg = tmp_path / "multiell.cfg"
    cfg.write_text("digits = 30\ntol = 1e-12\n")
    monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
    contexts = []

    def recording(identity, params, ctx, **kw):
        contexts.append(ctx)
        return verify(identity, params, ctx, **kw)
    monkeypatch.setattr(cli, "verify", recording)
    assert run(["verify", "I8", "--format", "json"]) == 0
    (ctx,) = contexts
    assert ctx.pass_tol == ctx.mp.mpf("1e-12")


def test_config_rejects_unknown_keys(tmp_path, monkeypatch):
    cfg = tmp_path / "multiell.cfg"
    cfg.write_text("precision = 40\n")
    monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
    assert run(["verify", "I8"]) == 3


def test_selftest_quick(capsys):
    assert run(["selftest", "--quick"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 9


@pytest.mark.parametrize("line", ["digits = abc", "level_cap = x", "tol = abc"])
def test_config_rejects_malformed_values(tmp_path, monkeypatch, capsys, line):
    cfg = tmp_path / "multiell.cfg"
    cfg.write_text(f"# settings\n{line}\n")
    monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
    assert run(["verify", "I8"]) == 3
    assert f"error: {cfg}:2: " in capsys.readouterr().err


def test_malformed_tol_exits_3(capsys):
    assert run(["verify", "I8", "--digits", "30", "--tol", "abc"]) == 3
    assert "error: pass_tol must be a number" in capsys.readouterr().err
