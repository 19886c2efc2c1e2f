"""CLI behaviour: report formats, exit codes, and the system-file loader."""

import json

import pytest

from qnogo import cli, ks_search
from qnogo.report import make_check, make_report


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_hardy_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify-hardy", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["proof_id"] == "hardy"
    assert payload["overall"] is True
    for check in payload["checks"]:
        assert set(check) == {"name", "passed", "measured", "expected", "tolerance"}
    twelfth = [c for c in payload["checks"] if "1/12" in c["name"]][0]
    assert twelfth["passed"] is True
    assert twelfth["measured"] == pytest.approx(0.0833333, abs=1e-6)


def test_verify_ghz_text(capsys):
    code, out, _ = run_cli(capsys, "verify-ghz")
    assert code == 0
    assert "overall: PASS" in out


def test_verify_ks_reports_unsat(capsys):
    code, out, _ = run_cli(capsys, "verify-ks", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    for name in ("state_dependent", "state_independent"):
        sr = payload["search_reports"][name]
        assert sr["satisfiable"] is False
        assert sr["assignments_checked"] == 4096
        assert sr["witness"] is None


def test_demo_swap_measurement_a(capsys):
    code, out, _ = run_cli(capsys, "demo-swap", "--measurement", "A", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    entropies = [c["measured"] for c in payload["checks"] if "entropy" in c["name"]]
    assert len(entropies) == 4
    assert all(abs(e) <= 1e-9 for e in entropies)


def test_all_runs_green_and_is_byte_stable(capsys):
    code1, out1, _ = run_cli(capsys, "all", "--format", "json")
    code2, out2, _ = run_cli(capsys, "all", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["overall"] is True
    assert [r["proof_id"] for r in payload["reports"]] == ["ghz", "hardy", "ks", "ks"]


def test_check_system_round_trip(tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(ks_search.system_to_document(ks_search.state_independent_system())))
    code, out, _ = run_cli(capsys, "check-system", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["satisfiable"] is False
    assert payload["assignments_checked"] == 4096


def test_check_system_sat_is_neutral(tmp_path, capsys):
    doc = {"observables": [{"id": "a", "spectrum": [1, -1]}], "contexts": []}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "check-system", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["satisfiable"] is True


def test_check_system_missing_file(capsys):
    code, _, err = run_cli(capsys, "check-system", "/nonexistent/system.json")
    assert code == 3
    assert "error" in err


def test_check_system_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "check-system", str(path))
    assert code == 3


def test_check_system_dangling_id_names_it(tmp_path, capsys):
    doc = {
        "observables": [{"id": "a", "spectrum": [1, -1]}],
        "contexts": [{"members": ["a", "ghost"], "constraint": {"type": "product_sign", "arg": "negative"}}],
    }
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "check-system", str(path))
    assert code == 3
    assert "ghost" in err


def test_check_system_cyclic_determination(tmp_path, capsys):
    doc = {
        "observables": [{"id": "a", "spectrum": [1, -1]}, {"id": "b", "spectrum": [1, -1]}],
        "contexts": [
            {"members": ["a", "b"], "constraint": {"type": "product_equals", "arg": "a"}},
            {"members": ["a", "b"], "constraint": {"type": "product_equals", "arg": "b"}},
        ],
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "check-system", str(path))
    assert code == 3
    assert "cyclic" in err


def test_check_system_non_numeric_spectrum(tmp_path, capsys):
    doc = {"observables": [{"id": "a", "spectrum": ["big", "small"]}], "contexts": []}
    path = tmp_path / "bad_spectrum.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "check-system", str(path))
    assert code == 3
    assert "spectrum" in err


def test_check_system_budget_exceeded(tmp_path, capsys):
    doc = {
        "observables": [{"id": f"x{i}", "spectrum": [-2, -1, 1, 2]} for i in range(6)],
        "contexts": [],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "check-system", str(path), "--budget", "10")
    assert code == 2
    assert "budget" in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-nothing"])
    assert exc.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-ghz", "--tolerance", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        cli.main(["check-system"])  # missing required path
    assert exc.value.code == 2
    capsys.readouterr()

    # the searches use a fixed tolerance, so the flag is refused, not ignored
    for argv in (["verify-ks", "--tolerance", "1e-9"], ["check-system", "system.json", "--tolerance", "1e-9"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "--tolerance" in capsys.readouterr().err


def test_failed_checks_exit_1(monkeypatch, capsys):
    failing = make_report("hardy", [make_check("forced failure", 1.0, 0.0, 0.0)])
    monkeypatch.setattr(cli.proofs, "verify_hardy", lambda tol: failing)
    code, out, _ = run_cli(capsys, "verify-hardy")
    assert code == 1
    assert "overall: FAIL" in out
