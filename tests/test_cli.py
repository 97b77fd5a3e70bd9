"""End-to-end command-line checks: outputs, artifacts, and exit codes."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from schurhorn import (
    BudgetExhaustedError,
    ConvergenceError,
    FormatError,
    InfeasibleDiagonalError,
    MajorizationError,
    TailCertificateError,
    load_matrix,
    load_plan,
    load_truncated_projection,
)
from schurhorn import carpenter, cli
from schurhorn.cli import main

from conftest import write_json


def _kv(capsys) -> dict:
    out = capsys.readouterr().out
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


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
    x = write_json(tmp_path / "x.json", {"values": [2.0, 2.0, 2.0]})
    y = write_json(tmp_path / "y.json", {"values": [3.0, 2.0, 1.0]})
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
    x = write_json(tmp_path / "x.json", {"values": [0.0, 0.0]})
    y = write_json(tmp_path / "y.json", {"values": [1.7e308, -1.7e308]})
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


@pytest.mark.parametrize("decompose", [False, True], ids=["decide", "decompose"])
def test_majorize_overflowing_prefix_sums_exit_three(tmp_path, capsys, decompose):
    # Both totals overflow to inf, though 2e308 != 3.4e308: no verdict exists.
    x = write_json(tmp_path / "x.json", {"values": [1e308, 1e308]})
    y = write_json(tmp_path / "y.json", {"values": [1.7e308, 1.7e308]})
    plan_path = tmp_path / "plan.json"
    argv = ["majorize", x, y] + (["--decompose", str(plan_path)] if decompose else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be a traceback here
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "overflow" in lines[0]
    assert not plan_path.exists()


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
    x = write_json(tmp_path / "x.json", {"values": [2.0, 2.0, 2.0]})
    y = write_json(tmp_path / "y.json", {"values": [3.0, 2.0, 1.0]})
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
    d = write_json(tmp_path / "d.json", {"values": [scale, scale, scale]})
    s = write_json(tmp_path / "s.json", {"values": [2.0 * scale, scale, 0.0]})
    assert main(["synth", d, s, "--out", str(tmp_path / "a.json"), "--tol", tol]) == code
    pairs = _kv(capsys)
    assert not float(pairs["spectrum_error"]) < 1e-7  # printed, NaN included
    assert pairs.keys() >= {"n", "hermitian_residual", "unitary_residual", "diagonal_error"}


@pytest.mark.parametrize(
    "shift, tol, code",
    [(1e-6, "1e-9", 3), (1e-6, "5e-7", 3), (1e-6, "2e-6", 0)],  # max|d| = 1: bound = tol
)
def test_carpenter_exits_three_when_its_own_check_misses(
    tmp_path, capsys, monkeypatch, shift, tol, code
):
    real = cli.carpenter_finite
    monkeypatch.setattr(
        cli, "carpenter_finite", lambda d, tol: real(d, tol) + shift * np.eye(len(d))
    )
    d = write_json(tmp_path / "d.json", {"values": [1.0, 0.5, 0.5]})
    assert main(["carpenter", d, "--out", str(tmp_path / "p.json"), "--tol", tol]) == code
    captured = capsys.readouterr()
    pairs = dict(line.split("=", 1) for line in captured.out.splitlines())
    assert float(pairs["diagonal_error"]) >= 1e-7  # printed either way
    assert ("diagonal_error" in captured.err) == (code == 3)


def test_majorize_false_exits_one(tmp_path, capsys):
    x = write_json(tmp_path / "x.json", {"values": [3.0, 1.0]})
    y = write_json(tmp_path / "y.json", {"values": [2.0, 2.0]})
    code = main(["majorize", x, y])
    pairs = _kv(capsys)
    assert code == 1
    assert pairs["majorizes"] == "false"


def test_majorize_length_mismatch_exits_two(tmp_path, capsys):
    x = write_json(tmp_path / "x.json", {"values": [1.0]})
    y = write_json(tmp_path / "y.json", {"values": [0.5, 0.5]})
    assert main(["majorize", x, y]) == 2
    capsys.readouterr()


def test_synth_writes_verifiable_artifacts(tmp_path, capsys):
    d = write_json(tmp_path / "d.json", {"values": [1.0, 1.0, 1.0]})
    s = write_json(tmp_path / "s.json", {"values": [2.0, 1.0, 0.0]})
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
    d = write_json(tmp_path / "d.json", {"values": [2.0, 0.0]})
    s = write_json(tmp_path / "s.json", {"values": [1.5, 0.5]})
    assert main(["synth", d, s, "--out", str(tmp_path / "a.json")]) == 1
    capsys.readouterr()


def test_carpenter_and_verify(tmp_path, capsys):
    d = write_json(tmp_path / "d.json", {"values": [0.75, 0.5, 0.5, 0.25]})
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
    d = write_json(tmp_path / "d.json", {"values": [0.5, 0.25]})
    assert main(["carpenter", d, "--out", str(tmp_path / "p.json")]) == 1
    capsys.readouterr()


def test_obstruction_classifies_and_builds(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", INTERLEAVE_SPEC)
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
    spec = write_json(
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


CONSTANT_HALF_SPEC = {
    "prefix": [],
    "tail": {"kind": "divergent-low", "generator": "0.5",
             "certificate": {"kind": "constant", "p": 0.5, "start": 1}},
}


@pytest.mark.parametrize("spec_obj", [INTERLEAVE_SPEC, CONSTANT_HALF_SPEC],
                         ids=["case-b", "case-a"])
def test_obstruction_build_computes_feasibility_once(tmp_path, capsys, monkeypatch, spec_obj):
    calls = []
    real = carpenter.feasibility

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(carpenter, "feasibility", counted)
    monkeypatch.setattr(cli, "feasibility", counted)
    spec = write_json(tmp_path / "spec.json", spec_obj)
    assert main(["obstruction", spec, "--build", str(tmp_path / "out.json")]) == 0
    assert int(_kv(capsys)["depth"]) >= 3
    assert len(calls) == 1


def test_failed_case_a_repair_exits_three_and_writes_nothing(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise MajorizationError("x is not majorised by y")

    monkeypatch.setattr(carpenter, "_mix_rows_to", fail)
    spec = write_json(tmp_path / "spec.json", CONSTANT_HALF_SPEC)
    out = tmp_path / "block.json"
    assert main(["obstruction", spec, "--build", str(out)]) == 3
    assert "block repair hypotheses failed" in capsys.readouterr().err
    assert not out.exists()


def _with_nan(m):
    return m + np.nan * np.eye(m.shape[0])


@pytest.mark.parametrize("command", ["synth", "synth-unitary", "carpenter", "obstruction"])
def test_non_finite_witness_exits_three_and_writes_nothing(
    tmp_path, capsys, monkeypatch, command
):
    d = write_json(tmp_path / "d.json", {"values": [1.0, 0.5, 0.5]})
    out, unitary = tmp_path / "out.json", tmp_path / "u.json"
    if command.startswith("synth"):
        real = cli.synthesize_hermitian

        def broken(x, y, tol):
            res = real(x, y, tol)
            if command == "synth":
                return type(res)(_with_nan(res.matrix), res.unitary)
            return type(res)(res.matrix, _with_nan(res.unitary))

        monkeypatch.setattr(cli, "synthesize_hermitian", broken)
        s = write_json(tmp_path / "s.json", {"values": [1.0, 1.0, 0.0]})
        argv = ["synth", d, s, "--out", str(out), "--unitary", str(unitary)]
    elif command == "carpenter":
        real = cli.carpenter_finite
        monkeypatch.setattr(cli, "carpenter_finite", lambda d, tol: _with_nan(real(d, tol)))
        argv = ["carpenter", d, "--out", str(out)]
    else:
        real = cli.build_case_b
        monkeypatch.setattr(cli, "build_case_b", lambda *args, **kwargs: [
            replace(p, matrix=_with_nan(p.matrix)) for p in real(*args, **kwargs)])
        spec = write_json(tmp_path / "spec.json", INTERLEAVE_SPEC)
        argv = ["obstruction", spec, "--build", str(out)]
    assert main(argv) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists() and not unitary.exists()


def test_obstruction_infeasible_exits_one(tmp_path, capsys):
    spec = write_json(
        tmp_path / "spec.json",
        {"prefix": [], "tail": {"kind": "geometric-low", "c": 0.5, "r": 0.5}},
    )
    code = main(["obstruction", spec])
    pairs = _kv(capsys)
    assert code == 1
    assert pairs["case"] == "Infeasible"
    assert float(pairs["defect"]) == pytest.approx(0.5)


def test_verify_failure_exits_one(tmp_path, capsys):
    d = write_json(tmp_path / "d.json", {"values": [0.5, 0.5]})
    out = tmp_path / "p.json"
    assert main(["carpenter", d, "--out", str(out)]) == 0
    wrong = write_json(tmp_path / "wrong.json", {"values": [0.9, 0.1]})
    code = main(["verify", str(out), "--diagonal", wrong])
    capsys.readouterr()
    assert code == 1
    # A truncation claiming covered indices that sit at no matrix position.
    spec = write_json(tmp_path / "spec.json", {"prefix": [0.5, 0.5], "tail": {"kind": "zero"}})
    artifact = json.loads(out.read_text())
    artifact.update(depth=1, residual_bound=1.0, permutation=[1, 2])
    for covered, want in (([1, 2], 0), ([1, 2, 3, 4, 5, 99], 1)):
        forged = write_json(tmp_path / "t.json", {**artifact, "covered": covered})
        assert main(["verify", forged, "--spec", spec]) == want
        assert _kv(capsys)["ok"] == ("true" if want == 0 else "false")
    # A truncation placing one sequence index at two matrix positions.
    forged = write_json(tmp_path / "t.json", {**artifact, "permutation": [1, 1], "covered": [1]})
    assert main(["verify", forged, "--spec", spec]) == 1
    pairs = _kv(capsys)
    assert pairs["diagonal_error"] == "inf"
    assert pairs["ok"] == "false"


def test_verify_spec_rejects_diagonal_and_spectrum(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", INTERLEAVE_SPEC)
    tower = tmp_path / "tower.json"
    assert main(["obstruction", spec, "--build", str(tower)]) == 0
    capsys.readouterr()
    missing = [str(tmp_path / "no-such-file.json"), str(tmp_path / "also-missing.json")]
    for extra in (["--diagonal", missing[0]], ["--spectrum", missing[1]],
                  ["--diagonal", missing[0], "--spectrum", missing[1]]):
        assert main(["verify", str(tower), "--spec", spec, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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
    spec = write_json(tmp_path / "spec.json", {"prefix": [], "tail": tail})
    assert main(["obstruction", spec, "--alpha", "0.01"]) in (0, 1)
    assert _kv(capsys)["case"] in ("CaseB-feasible", "Infeasible")


@pytest.mark.parametrize("alpha", ["0.3", "0.5", "0.7"])
def test_slow_geometric_integer_total_is_feasible_at_every_threshold(tmp_path, capsys, alpha):
    # r = 1 - 2^-40 and c = 1: the total is exactly 2^40 - 1.
    tail = {"kind": "geometric-low", "c": 1.0, "r": 0.9999999999990905}
    spec = write_json(tmp_path / "spec.json", {"prefix": [], "tail": tail})
    assert main(["obstruction", spec, "--alpha", alpha]) == 0
    pairs = _kv(capsys)
    assert (pairs["case"], pairs["defect"]) == ("CaseB-feasible", "0")


@pytest.mark.parametrize(
    "exc, code",
    [
        (InfeasibleDiagonalError("non-integer sum", 0.5), 1),
        (MajorizationError("not majorised"), 1),
        (ConvergenceError("no convergence"), 3),
        (BudgetExhaustedError("budget"), 3),
        (RuntimeError("block repair failed"), 3),
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
    spec = write_json(tmp_path / "spec.json", INTERLEAVE_SPEC)
    code = main(["obstruction", spec, "--build", str(tmp_path / "t.json"), "--budget", "2"])
    capsys.readouterr()
    assert code == 3


@pytest.mark.parametrize(
    "command, option",
    [
        ("majorize", ["--tol", "nan"]),
        ("majorize", ["--tol", "inf"]),
        ("synth", ["--tol", "nan"]),
        ("carpenter", ["--tol", "-1"]),
        ("verify", ["--tol", "nan"]),
        ("obstruction", ["--budget", "-1"]),
    ],
    ids=["majorize-nan", "majorize-inf", "synth-nan", "carpenter-negative", "verify-nan",
         "obstruction-budget"],
)
def test_malformed_tol_or_budget_exits_two_and_writes_nothing(tmp_path, capsys, command, option):
    x = write_json(tmp_path / "x.json", {"values": [2.0, 2.0, 2.0]})
    y = write_json(tmp_path / "y.json", {"values": [3.0, 2.0, 1.0]})
    d = write_json(tmp_path / "d.json", {"values": [0.75, 0.5, 0.5, 0.25]})
    p = str(tmp_path / "P.json")
    assert main(["carpenter", d, "--out", p]) == 0
    out = str(tmp_path / "out.json")
    argv = {
        "majorize": ["majorize", x, y, "--decompose", out],
        "synth": ["synth", x, y, "--out", out],
        "carpenter": ["carpenter", d, "--out", out],
        "verify": ["verify", p, "--diagonal", d],
        "obstruction": ["obstruction", write_json(tmp_path / "s.json", INTERLEAVE_SPEC),
                        "--build", out],
    }[command]
    capsys.readouterr()
    code = main(argv + option)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option[0]} ") and captured.err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


def _sparse_interleave_spec(levels: int) -> dict:
    """Prefix 1/2, then a ``1 - 2**-(j + 1)`` tail behind ``levels`` zero interleaves."""
    tail = {"kind": "geometric-high", "c": 0.5, "r": 0.5}
    for _ in range(levels):
        tail = {"kind": "interleave", "parts": [{"kind": "zero"}, tail]}
    return {"prefix": [0.5], "tail": tail}


def test_sparse_case_b_build_stops_at_the_budget(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", _sparse_interleave_spec(10))
    out = tmp_path / "t.json"
    code = main(["obstruction", spec, "--build", str(out), "--depth", "3", "--budget", "1000"])
    assert code == 3
    assert "more than 1000 terms" in capsys.readouterr().err
    assert not out.exists()


def test_divergent_high_terms_at_half_stay_unattributed(tmp_path, capsys):
    # Every 33rd term equals 1/2 and sits low at alpha = 1/2; no sampled
    # index may attribute the divergence to the high side.
    cert = {"kind": "constant", "p": 0.1, "start": 1}
    tail = {"kind": "divergent-high", "generator": "0.5 if i % 33 == 0 else 0.1",
            "certificate": cert}
    spec = write_json(tmp_path / "spec.json", {"prefix": [], "tail": tail})
    out = tmp_path / "t.json"
    code = main(["obstruction", spec, "--alpha", "0.5", "--build", str(out)])
    pairs = _kv(capsys)
    assert code == 0
    assert (pairs["a_f"], pairs["b_f"], pairs["case"]) == ("unattributed", "unattributed", "CaseA")
    assert main(["verify", str(out), "--spec", spec]) == 0
    assert _kv(capsys)["ok"] == "true"


def _divergent_spec(tmp_path, start, generator="0.25", p=0.25):
    cert = {"kind": "constant", "p": p, "start": start}
    tail = {"kind": "divergent-low", "generator": generator, "certificate": cert}
    return write_json(tmp_path / "spec.json", {"prefix": [], "tail": tail})


def test_generator_outside_whitelist_exits_two(tmp_path, capsys):
    generator = "().__class__.__mro__[1].__subclasses__() and 0.25"
    assert main(["obstruction", _divergent_spec(tmp_path, 1, generator)]) == 2
    assert "not allowed" in capsys.readouterr().err


def test_generator_power_of_the_index_exits_two(tmp_path, capsys):
    # The generator sees a float index, so the power overflows at i = 2
    # instead of building ever larger integers.
    assert main(["obstruction", _divergent_spec(tmp_path, 1, "0.25 + 0*i**200000")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1


_TWO = "((i > 0) + (i > 0))"


@pytest.mark.parametrize(
    "generator",
    [
        "0.25 + 0*3**700",
        "0.25 + 0*9**floor(i*10)",
        "0.25 + 0*9**ceil(i*10)",
        f"0.25 + 0*{_TWO}**{_TWO}**{_TWO}**{_TWO}**{_TWO}",
        "0.25 + 0*1" + "0" * 400,
    ],
    ids=["int-literal-power", "floor-power", "ceil-power", "bool-power-tower", "huge-literal"],
)
def test_generator_integer_arithmetic_exits_two(tmp_path, capsys, generator):
    # Literals, floor, ceil and comparisons give floats, so each of these
    # powers overflows (or its literal leaves float range) instead of
    # building an integer that grows with the spec.
    assert main(["obstruction", _divergent_spec(tmp_path, 1, generator)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1


def test_case_a_without_monotone_subsequence_builds(tmp_path, capsys):
    # A valid, certified spec whose terms hold no monotone divergent run.
    spec = _divergent_spec(tmp_path, 1, "0.3+0.2*sin(i)**2", p=0.3)
    assert main(["obstruction", spec, "--alpha", "0.4"]) == 0
    assert _kv(capsys)["case"] == "CaseA"
    out = str(tmp_path / "t.json")
    assert main(["obstruction", spec, "--alpha", "0.4", "--build", out]) == 0
    capsys.readouterr()
    assert main(["verify", out, "--spec", spec]) == 0
    assert _kv(capsys)["ok"] == "true"


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    # Nesting past the JSON parser's recursion limit is malformed input.
    matrix = tmp_path / "m.json"
    matrix.write_text('{"n": 1, "data": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["verify", str(matrix)]) == 2
    assert "nests JSON too deeply" in capsys.readouterr().err
    nested = '{"kind": "interleave", "parts": [' * 900 + '{"kind": "zero"}'
    nested += ', {"kind": "zero"}]}' * 900
    spec = tmp_path / "spec.json"
    spec.write_text('{"prefix": [], "tail": ' + nested + "}")
    assert main(["obstruction", str(spec)]) == 2
    assert "nests JSON too deeply" in capsys.readouterr().err


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
    x = write_json(tmp_path / "x.json", {"values": [1.0, 1.0]})
    y = write_json(tmp_path / "y.json", {"values": [2.0, 0.0]})
    assert main(["majorize", x, y, "--csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "n,majorizes"
    assert out[1] == "2,true"
    assert main(["majorize", x, y, "--human"]) == 0
    out = capsys.readouterr().out
    assert "majorizes: true" in out


def test_parser_built_once_across_calls(tmp_path, capsys):
    x = write_json(tmp_path / "x.json", {"values": [1.0, 1.0]})
    y = write_json(tmp_path / "y.json", {"values": [2.0, 0.0]})
    cli._build_parser.cache_clear()
    for _ in range(3):
        assert main(["majorize", x, y]) == 0
    assert main(["majorize", y, x]) == 1
    capsys.readouterr()
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_no_argument_state_leaks_between_calls(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", INTERLEAVE_SPEC)
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
    x = write_json(tmp_path / "x.json", {"values": [1.0, 1.0]})
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
