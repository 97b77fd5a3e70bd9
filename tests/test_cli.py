"""End-to-end command-line checks: outputs, artifacts, and exit codes."""

import json

import numpy as np
import pytest

from schurhorn import (
    BudgetExhaustedError,
    ConvergenceError,
    FormatError,
    InfeasibleDiagonalError,
    MajorizationError,
    MonotoneSelectionError,
    TailCertificateError,
    load_matrix,
    load_plan,
    load_truncated_projection,
    save_vector,
)
from schurhorn import cli
from schurhorn.cli import main


def _kv(capsys) -> dict:
    out = capsys.readouterr().out
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def _write_vector(path, values):
    save_vector(path, np.asarray(values, dtype=float))
    return str(path)


def _write_spec(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


INTERLEAVE_SPEC = {
    "prefix": [],
    "tail": {
        "kind": "interleave",
        "parts": [
            {"kind": "geometric-low", "c": 0.5, "r": 0.5},
            {"kind": "geometric-high", "c": 0.5, "r": 0.5},
        ],
    },
}


def test_majorize_true_with_plan(tmp_path, capsys):
    x = _write_vector(tmp_path / "x.json", [2.0, 2.0, 2.0])
    y = _write_vector(tmp_path / "y.json", [3.0, 2.0, 1.0])
    plan_path = tmp_path / "plan.json"
    code = main(["majorize", x, y, "--decompose", str(plan_path)])
    pairs = _kv(capsys)
    assert code == 0
    assert pairs["majorizes"] == "true"
    assert int(pairs["transforms"]) <= 2
    assert float(pairs["replay_error"]) <= 1e-9
    plan = load_plan(plan_path)
    assert len(plan.transforms) <= 2


def _overflowing_pair(tmp_path):
    """x = 0 against a spectrum whose spread overflows a float."""
    x = _write_vector(tmp_path / "x.json", [0.0, 0.0])
    y = _write_vector(tmp_path / "y.json", [1.7e308, -1.7e308])
    return x, y


def test_majorize_plan_survives_an_overflowing_spread(tmp_path, capsys):
    x, y = _overflowing_pair(tmp_path)
    plan_path = tmp_path / "plan.json"
    code = main(["majorize", x, y, "--decompose", str(plan_path)])
    pairs = _kv(capsys)
    assert code == 0
    assert pairs["majorizes"] == "true"
    assert float(pairs["replay_error"]) == 0.0
    assert [tr.t for tr in load_plan(plan_path).transforms] == [0.5]


def test_synth_survives_an_overflowing_spread(tmp_path, capsys):
    x, y = _overflowing_pair(tmp_path)
    out = tmp_path / "a.json"
    code = main(["synth", x, y, "--out", str(out)])
    pairs = _kv(capsys)
    assert code == 0
    roundoff = 1e-15 * 1.7e308  # relative roundoff at the scale of y
    assert float(pairs["diagonal_error"]) <= roundoff
    assert np.max(np.abs(np.diag(load_matrix(out)))) <= roundoff


def test_majorize_exits_three_when_its_replay_misses(tmp_path, capsys, monkeypatch):
    real = cli.replay_t_transform_plan
    monkeypatch.setattr(cli, "replay_t_transform_plan", lambda plan, y: real(plan, y) + 1e-6)
    x = _write_vector(tmp_path / "x.json", [2.0, 2.0, 2.0])
    y = _write_vector(tmp_path / "y.json", [3.0, 2.0, 1.0])
    code = main(["majorize", x, y, "--decompose", str(tmp_path / "plan.json")])
    captured = capsys.readouterr()
    assert code == 3
    pairs = dict(line.split("=", 1) for line in captured.out.splitlines())
    assert float(pairs["replay_error"]) >= 1e-7  # still printed
    assert "replay_error" in captured.err


@pytest.mark.parametrize(
    "target, shift, scale, tol, code",
    [
        ("synthesize_hermitian", 1e-6, 1.0, "1e-9", 3),  # diagonal (and spectrum) off
        ("hermitian_eigenvalues", 1e-6, 1.0, "1e-9", 3),  # spectrum off
        ("hermitian_eigenvalues", np.nan, 1.0, "1e-9", 3),
        ("hermitian_eigenvalues", 1e-6, 1e6, "1e-9", 0),  # within 1e-9 * max|y| = 2e-3
        ("hermitian_eigenvalues", 1e-6, 1.0, "4e-7", 3),  # bound 8e-7
        ("hermitian_eigenvalues", 1e-6, 1.0, "6e-7", 0),  # bound 1.2e-6
    ],
)
def test_synth_exits_three_when_its_own_check_misses(
    tmp_path, capsys, monkeypatch, target, shift, scale, tol, code
):
    real = getattr(cli, target)
    if target == "synthesize_hermitian":
        def perturbed(x, y, tol):
            res = real(x, y, tol)
            return type(res)(res.matrix + shift * np.eye(len(x)), res.unitary)
    else:
        def perturbed(a):
            return real(a) + shift
    monkeypatch.setattr(cli, target, perturbed)
    d = _write_vector(tmp_path / "d.json", [scale, scale, scale])
    s = _write_vector(tmp_path / "s.json", [2.0 * scale, scale, 0.0])
    assert main(["synth", d, s, "--out", str(tmp_path / "a.json"), "--tol", tol]) == code
    pairs = _kv(capsys)
    assert not float(pairs["spectrum_error"]) < 1e-7  # printed, NaN included
    assert pairs.keys() >= {"n", "hermitian_residual", "unitary_residual", "diagonal_error"}


def test_majorize_false_exits_one(tmp_path, capsys):
    x = _write_vector(tmp_path / "x.json", [3.0, 1.0])
    y = _write_vector(tmp_path / "y.json", [2.0, 2.0])
    code = main(["majorize", x, y])
    pairs = _kv(capsys)
    assert code == 1
    assert pairs["majorizes"] == "false"


def test_majorize_length_mismatch_exits_two(tmp_path, capsys):
    x = _write_vector(tmp_path / "x.json", [1.0])
    y = _write_vector(tmp_path / "y.json", [0.5, 0.5])
    assert main(["majorize", x, y]) == 2
    capsys.readouterr()


def test_synth_writes_verifiable_artifacts(tmp_path, capsys):
    d = _write_vector(tmp_path / "d.json", [1.0, 1.0, 1.0])
    s = _write_vector(tmp_path / "s.json", [2.0, 1.0, 0.0])
    out = tmp_path / "a.json"
    unitary = tmp_path / "u.json"
    code = main(["synth", d, s, "--out", str(out), "--unitary", str(unitary)])
    pairs = _kv(capsys)
    assert code == 0
    assert float(pairs["hermitian_residual"]) <= 1e-10
    assert float(pairs["unitary_residual"]) <= 1e-12
    assert float(pairs["diagonal_error"]) <= 1e-10
    assert float(pairs["spectrum_error"]) <= 1e-8

    code = main(["verify", str(out), "--diagonal", d, "--spectrum", s])
    pairs = _kv(capsys)
    assert code == 0
    assert pairs["ok"] == "true"
    a = load_matrix(out)
    u = load_matrix(unitary)
    assert np.max(np.abs(u @ np.diag([2.0, 1.0, 0.0]) @ u.conj().T - a)) <= 1e-9


def test_synth_non_majorized_exits_one(tmp_path, capsys):
    d = _write_vector(tmp_path / "d.json", [2.0, 0.0])
    s = _write_vector(tmp_path / "s.json", [1.5, 0.5])
    assert main(["synth", d, s, "--out", str(tmp_path / "a.json")]) == 1
    capsys.readouterr()


def test_carpenter_and_verify(tmp_path, capsys):
    d = _write_vector(tmp_path / "d.json", [0.75, 0.5, 0.5, 0.25])
    out = tmp_path / "p.json"
    code = main(["carpenter", d, "--out", str(out)])
    pairs = _kv(capsys)
    assert code == 0
    assert float(pairs["trace"]) == pytest.approx(2.0, abs=1e-9)
    assert float(pairs["projection_residual"]) <= 1e-10
    assert float(pairs["entry_excess"]) <= 1e-9
    code = main(["verify", str(out), "--diagonal", d])
    assert code == 0
    capsys.readouterr()


def test_carpenter_infeasible_exits_one(tmp_path, capsys):
    d = _write_vector(tmp_path / "d.json", [0.5, 0.25])
    assert main(["carpenter", d, "--out", str(tmp_path / "p.json")]) == 1
    capsys.readouterr()


def test_obstruction_classifies_and_builds(tmp_path, capsys):
    spec = _write_spec(tmp_path / "spec.json", INTERLEAVE_SPEC)
    build = tmp_path / "tower.json"
    code = main(["obstruction", spec, "--build", str(build)])
    pairs = _kv(capsys)
    assert code == 0
    assert pairs["case"] == "CaseB-feasible"
    assert float(pairs["a_f"]) == pytest.approx(0.5)
    assert float(pairs["b_f"]) == pytest.approx(0.5)
    assert float(pairs["defect"]) <= 1e-12
    assert int(pairs["depth"]) == 6
    assert int(pairs["dim"]) == 14
    proj = load_truncated_projection(build)
    assert proj.depth == 6

    code = main(["verify", str(build), "--spec", spec])
    pairs = _kv(capsys)
    assert code == 0
    assert pairs["ok"] == "true"


def test_obstruction_case_a_build(tmp_path, capsys):
    spec = _write_spec(
        tmp_path / "spec.json",
        {
            "prefix": [],
            "tail": {
                "kind": "divergent-low",
                "generator": "0.5",
                "certificate": {"kind": "constant", "p": 0.5, "start": 1},
            },
        },
    )
    build = tmp_path / "block.json"
    code = main(["obstruction", spec, "--build", str(build), "--depth", "3"])
    pairs = _kv(capsys)
    assert code == 0
    assert pairs["case"] == "CaseA"
    assert pairs["a_f"] == "inf"
    assert pairs["defect"] == "unattributed"
    assert int(pairs["dim"]) == 12
    assert float(pairs["trace"]) == pytest.approx(7.0, abs=1e-9)
    assert pairs["residual_bound"] == "inf"
    code = main(["verify", str(build), "--spec", spec])
    assert code == 0
    capsys.readouterr()


def test_obstruction_infeasible_exits_one(tmp_path, capsys):
    spec = _write_spec(
        tmp_path / "spec.json",
        {"prefix": [], "tail": {"kind": "geometric-low", "c": 0.5, "r": 0.5}},
    )
    code = main(["obstruction", spec])
    pairs = _kv(capsys)
    assert code == 1
    assert pairs["case"] == "Infeasible"
    assert float(pairs["defect"]) == pytest.approx(0.5)


def test_verify_failure_exits_one(tmp_path, capsys):
    d = _write_vector(tmp_path / "d.json", [0.5, 0.5])
    out = tmp_path / "p.json"
    assert main(["carpenter", d, "--out", str(out)]) == 0
    wrong = _write_vector(tmp_path / "wrong.json", [0.9, 0.1])
    code = main(["verify", str(out), "--diagonal", wrong])
    capsys.readouterr()
    assert code == 1
    # A truncation claiming covered indices that sit at no matrix position.
    spec = _write_spec(tmp_path / "spec.json", {"prefix": [0.5, 0.5], "tail": {"kind": "zero"}})
    artifact = json.loads(out.read_text())
    artifact.update(depth=1, residual_bound=1.0, permutation=[1, 2])
    for covered, want in (([1, 2], 0), ([1, 2, 3, 4, 5, 99], 1)):
        forged = _write_spec(tmp_path / "t.json", {**artifact, "covered": covered})
        assert main(["verify", forged, "--spec", spec]) == want
        assert _kv(capsys)["ok"] == ("true" if want == 0 else "false")
    # A truncation placing one sequence index at two matrix positions.
    forged = _write_spec(tmp_path / "t.json", {**artifact, "permutation": [1, 1], "covered": [1]})
    assert main(["verify", forged, "--spec", spec]) == 1
    pairs = _kv(capsys)
    assert pairs["diagonal_error"] == "inf"
    assert pairs["ok"] == "false"


def test_malformed_inputs_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["majorize", str(bad), str(bad)]) == 2
    missing = str(tmp_path / "missing.json")
    assert main(["majorize", missing, missing]) == 2
    not_vector = tmp_path / "nv.json"
    not_vector.write_text(json.dumps({"rows": []}))
    assert main(["majorize", str(not_vector), str(not_vector)]) == 2
    capsys.readouterr()


def test_oversized_json_integer_exits_two(tmp_path, capsys):
    huge = "1" + "0" * 400
    matrix = tmp_path / "m.json"
    matrix.write_text('{"n": 1, "data": [[' + huge + ", 0]]}")
    assert main(["verify", str(matrix)]) == 2
    vector = tmp_path / "d.json"
    vector.write_text('{"values": [' + huge + "]}")
    assert main(["carpenter", str(vector), "--out", str(tmp_path / "p.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "text",
    [
        '{"prefix": [NaN, 0.5], "tail": {"kind": "zero"}}',
        '{"prefix": [], "tail": {"kind": "geometric-low", "c": NaN, "r": 0.5}}',
    ],
    ids=["prefix", "geometric-scale"],
)
def test_nan_spec_value_exits_two(tmp_path, capsys, text):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    assert main(["obstruction", str(spec)]) == 2
    capsys.readouterr()


def test_slow_geometric_tail_classifies(tmp_path, capsys):
    # The first term at most alpha is number ~4.6e7: found in closed form.
    tail = {"kind": "geometric-low", "c": 1.0, "r": 0.9999999}
    spec = _write_spec(tmp_path / "spec.json", {"prefix": [], "tail": tail})
    assert main(["obstruction", spec, "--alpha", "0.01"]) in (0, 1)
    assert _kv(capsys)["case"] in ("CaseB-feasible", "Infeasible")


@pytest.mark.parametrize(
    "exc, code",
    [
        (InfeasibleDiagonalError("non-integer sum", 0.5), 1),
        (MajorizationError("not majorised"), 1),
        (ConvergenceError("no convergence"), 3),
        (BudgetExhaustedError("budget"), 3),
        (RuntimeError("block repair failed"), 3),
        (MonotoneSelectionError("no monotone subsequence"), 3),
        (FormatError("bad file"), 2),
        (TailCertificateError("bad certificate"), 2),
        (ValueError("bad value"), 2),
        (FileNotFoundError("missing"), 2),
    ],
    ids=lambda case: type(case).__name__ if isinstance(case, Exception) else str(case),
)
def test_exit_code_table(monkeypatch, capsys, exc, code):
    def handler(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_verify", handler)
    assert main(["verify", "artifact.json"]) == code
    assert capsys.readouterr().err == f"error: {exc}\n"


def test_budget_exhaustion_exits_three(tmp_path, capsys):
    spec = _write_spec(tmp_path / "spec.json", INTERLEAVE_SPEC)
    code = main(["obstruction", spec, "--build", str(tmp_path / "t.json"), "--budget", "2"])
    capsys.readouterr()
    assert code == 3


def _divergent_spec(tmp_path, start, generator="0.25", p=0.25):
    cert = {"kind": "constant", "p": p, "start": start}
    tail = {"kind": "divergent-low", "generator": generator, "certificate": cert}
    return _write_spec(tmp_path / "spec.json", {"prefix": [], "tail": tail})


def test_generator_outside_whitelist_exits_two(tmp_path, capsys):
    generator = "().__class__.__mro__[1].__subclasses__() and 0.25"
    assert main(["obstruction", _divergent_spec(tmp_path, 1, generator)]) == 2
    assert "not allowed" in capsys.readouterr().err


def test_case_a_without_monotone_subsequence_exits_three(tmp_path, capsys):
    # A valid, certified spec whose terms hold no monotone divergent run.
    spec = _divergent_spec(tmp_path, 1, "0.3+0.2*sin(i)**2", p=0.3)
    assert main(["obstruction", spec, "--alpha", "0.4"]) == 0
    assert _kv(capsys)["case"] == "CaseA"
    assert main(["obstruction", spec, "--alpha", "0.4", "--build", str(tmp_path / "t.json")]) == 3
    assert "monotone" in capsys.readouterr().err


@pytest.mark.parametrize(
    "start, budget, code",
    [(10**12, None, 3), (1_000, "500", 3), (1_000, None, 0), (100_000, None, 0)],
)
def test_certificate_scan_counts_against_budget(tmp_path, capsys, start, budget, code):
    # Side sums add up every term below the certificate's start.
    args = ["obstruction", _divergent_spec(tmp_path, start), "--alpha", "0.1"]
    assert main(args + (["--budget", budget] if budget else [])) == code
    if code == 0:
        assert _kv(capsys)["case"] == "CaseA"
    else:
        assert "terms" in capsys.readouterr().err


def test_csv_and_human_styles(tmp_path, capsys):
    x = _write_vector(tmp_path / "x.json", [1.0, 1.0])
    y = _write_vector(tmp_path / "y.json", [2.0, 0.0])
    assert main(["majorize", x, y, "--csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "n,majorizes"
    assert out[1] == "2,true"
    assert main(["majorize", x, y, "--human"]) == 0
    out = capsys.readouterr().out
    assert "majorizes: true" in out


def test_parser_built_once_across_calls(tmp_path, capsys):
    x = _write_vector(tmp_path / "x.json", [1.0, 1.0])
    y = _write_vector(tmp_path / "y.json", [2.0, 0.0])
    cli._build_parser.cache_clear()
    for _ in range(3):
        assert main(["majorize", x, y]) == 0
    assert main(["majorize", y, x]) == 1
    capsys.readouterr()
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_no_argument_state_leaks_between_calls(tmp_path, capsys):
    spec = _write_spec(tmp_path / "spec.json", INTERLEAVE_SPEC)
    build = str(tmp_path / "tower.json")
    assert main(["obstruction", spec, "--build", build, "--depth", "3"]) == 0
    assert _kv(capsys)["depth"] == "3"
    assert main(["obstruction", spec, "--build", build]) == 0
    plain = _kv(capsys)
    assert plain["depth"] == "6"
    assert main(["obstruction", spec, "--build", build, "--csv"]) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith("alpha,a_f,")
    assert main(["obstruction", spec, "--build", build]) == 0
    assert _kv(capsys) == plain


def test_usage_errors_after_a_successful_call(tmp_path, capsys):
    x = _write_vector(tmp_path / "x.json", [1.0, 1.0])
    assert main(["majorize", x, x]) == 0
    capsys.readouterr()
    for argv in (["majorize", x], ["obstruction", x, "--depth", "two"], ["nosuch"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: schurhorn" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: schurhorn verify")
    assert "--spec SPEC" in out
