import json

import pytest

from _oracles import perturb_filtration_level
from coclass.cli import main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_build_quotient(capsys):
    code, out, _ = run(capsys, ["group", "build", "--p", "3", "--x", "1", "--i", "0"])
    assert code == 0
    rep = json.loads(out)
    assert rep["order"] == 27
    assert rep["model"] == "quotient"
    assert rep["snf"] == [3, 3]
    assert rep["matrixC"] == [[0, -1], [1, -1]]


def test_group_census_b3r(capsys):
    code, out, _ = run(capsys, ["group", "census", "--family", "b3r", "--r", "4"])
    assert code == 0
    rep = json.loads(out)
    assert rep["order"] == 81
    assert rep["model"] == "b3r"
    assert sum(rep["census"].values()) == 81


def test_group_export(capsys):
    code, out, _ = run(capsys, ["group", "export", "--p", "2", "--x", "1", "--i", "1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["enumerated"] == 8
    assert len(rep["generators"]) >= 2


def test_group_invalid_p_usage_error(capsys):
    code, _, err = run(capsys, ["group", "build", "--p", "1", "--x", "1", "--i", "0"])
    assert code == 2
    assert "prime" in err


def test_group_missing_args_usage_error(capsys):
    code, _, err = run(capsys, ["group", "build"])
    assert code == 2


def test_filtration_pass(capsys):
    code, out, _ = run(capsys, ["filtration", "--p", "2", "--x", "1",
                                "--i-max", "6"])
    assert code == 0
    rep = json.loads(out)
    assert rep["failures"] == 0


def test_filtration_tamper_hook(capsys, monkeypatch):
    perturb_filtration_level(monkeypatch, 1)
    code, out, err = run(capsys, ["filtration", "--p", "2", "--x", "1",
                                  "--i-max", "4"])
    assert code == 1
    assert "failed invariants" in err
    rep = json.loads(out)
    assert rep["failures"] > 0


def test_betti_json_and_csv(capsys, tmp_path):
    base = ["betti", "--p", "3", "--x", "1", "--i", "0", "--max-degree", "4",
            "--cache-dir", str(tmp_path)]
    code, out, _ = run(capsys, base)
    assert code == 0
    rep = json.loads(out)
    assert rep["betti"][1] == 2
    code, out, _ = run(capsys, base + ["--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,x,i,n,beta_n"
    assert lines[2] == "3,1,0,1,2"


def test_theorem_dihedral(capsys, tmp_path):
    code, out, _ = run(capsys, ["theorem", "--p", "2", "--x", "1",
                                "--i-max", "3", "--max-degree", "5",
                                "--cache-dir", str(tmp_path)])
    assert code == 0
    rep = json.loads(out)
    assert rep["allEqual"] is True
    assert len(rep["levels"]) == 4


def test_theorem_family_csv(capsys, tmp_path):
    code, out, _ = run(capsys, ["theorem", "--family", "b3r", "--r-max", "4",
                                "--max-degree", "3", "--format", "csv",
                                "--cache-dir", str(tmp_path)])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,x,i,n,beta_n"
    assert len(lines) == 1 + 2 * 4


def test_equivariance_eta(capsys):
    code, out, _ = run(capsys, ["equivariance", "eta", "--p", "3", "--x", "2",
                                "--degree", "2", "--trials", "200",
                                "--seed", "7"])
    assert code == 0
    rep = json.loads(out)
    assert rep["failures"] == 0
    assert rep["seed"] == 7


def test_equivariance_delta_and_inflation(capsys):
    code, out, _ = run(capsys, ["equivariance", "delta", "--p", "3", "--x", "1",
                                "--i-max", "5", "--trials", "50"])
    assert code == 0
    assert json.loads(out)["failures"] == 0
    code, out, _ = run(capsys, ["equivariance", "inflation", "--p", "3",
                                "--x", "1", "--i", "2", "--trials", "100"])
    assert code == 0
    assert json.loads(out)["failures"] == 0


def test_budget_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, ["betti", "--p", "3", "--x", "1", "--i", "6",
                                "--max-degree", "2", "--cache-dir", str(tmp_path)])
    assert code == 3
    assert "budget" in err


def test_theorem_refuses_an_over_budget_level_before_it_resolves(capsys, tmp_path):
    code, out, err = run(capsys, ["theorem", "--p", "3", "--x", "1", "--i-max", "4",
                                  "--max-degree", "3", "--cache-dir", str(tmp_path)])
    assert (code, out) == (3, "")
    assert err == "error: level 4: group order 2187 exceeds resolution budget 729\n"
    code, out, _ = run(capsys, ["cache", "list", "--cache-dir", str(tmp_path)])
    assert (code, json.loads(out)["entries"]) == (0, [])


def test_cache_list_and_clear(capsys, tmp_path):
    run(capsys, ["betti", "--p", "2", "--x", "1", "--i", "0", "--max-degree",
                 "3", "--cache-dir", str(tmp_path)])
    code, out, _ = run(capsys, ["cache", "list", "--cache-dir", str(tmp_path)])
    assert code == 0
    assert len(json.loads(out)["entries"]) == 1
    code, out, _ = run(capsys, ["cache", "clear", "--cache-dir", str(tmp_path)])
    assert code == 0
    assert json.loads(out)["removed"] == 1


@pytest.mark.parametrize("argv", [
    ["betti", "--p", "2", "--x", "1", "--i", "0", "--max-degree", "3"],
    ["theorem", "--p", "2", "--x", "1", "--i-max", "1", "--max-degree", "3"],
])
@pytest.mark.parametrize("under_a_file", [False, True])
def test_unusable_cache_dir_is_a_usage_error(capsys, monkeypatch, tmp_path, argv,
                                             under_a_file):
    from coclass import resolution

    def refuse(*args, **kwargs):
        raise AssertionError("resolved with an unusable cache directory")

    monkeypatch.setattr(resolution, "minimal_resolution", refuse)
    blocker = tmp_path / "file"
    blocker.write_text("")
    cache_dir = str(blocker / "sub" if under_a_file else blocker)
    code, out, err = run(capsys, argv + ["--cache-dir", cache_dir])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: unusable cache directory {cache_dir}: ")
    assert err.count("\n") == 1


def test_cache_list_skips_a_manifest_without_betti(capsys, tmp_path):
    run(capsys, ["betti", "--p", "2", "--x", "1", "--i", "0", "--max-degree",
                 "2", "--cache-dir", str(tmp_path)])
    (tmp_path / "abc").mkdir()
    (tmp_path / "abc" / "manifest.json").write_text('{"version": 1}')
    code, out, err = run(capsys, ["cache", "list", "--cache-dir", str(tmp_path)])
    assert code == 0 and err == ""
    assert [e["maxDegree"] for e in json.loads(out)["entries"]] == [2]


@pytest.mark.parametrize("argv, message", [
    (["betti", "--p", "3", "--x", "1", "--i", "0", "--max-degree", "-2"],
     "max_degree must be >= 0"),
    (["theorem", "--p", "2", "--x", "1", "--i-max", "-1", "--max-degree", "2"],
     "i_max = -1 < 0"),
    (["theorem", "--family", "b3r", "--r-max", "2", "--max-degree", "2"],
     "r_max = 2 < 3"),
    (["filtration", "--p", "2", "--x", "1", "--i-max", "-1"], "i_max = -1 < 0"),
    (["equivariance", "delta", "--p", "2", "--x", "1", "--i-max", "-1"],
     "i_max = -1 < 0"),
    (["equivariance", "inflation", "--p", "2", "--x", "1", "--i", "-1"],
     "level must be >= 0, got -1"),
    (["equivariance", "eta", "--p", "3", "--x", "1", "--degree", "-1"],
     "degree must be >= 0, got -1"),
    (["filtration", "--p", "2", "--x", "1", "--trials", "-3"],
     "trials must be >= 0, got -3"),
    (["equivariance", "delta", "--p", "2", "--x", "1", "--trials", "-3"],
     "trials must be >= 0, got -3"),
    (["betti", "--p", "2", "--x", "1", "--i", "0", "--max-degree", "1",
      "--budget-order", "0"], "budget must be >= 1, got 0"),
    (["theorem", "--p", "2", "--x", "1", "--i-max", "1", "--max-degree", "1",
      "--budget-matrix", "-5"], "budget must be >= 1, got -5"),
    (["group", "build", "--p", "2", "--x", "1", "--i", "0", "--budget-order", "-5"],
     "budget must be >= 1, got -5"),
    (["group", "build", "--p", "2", "--x", "1", "--i", "0", "--budget-matrix", "5"],
     "unrecognized arguments: --budget-matrix 5"),
])
def test_negative_degree_or_level_is_a_usage_error(capsys, tmp_path, argv, message):
    if argv[0] in ("betti", "theorem"):
        argv = argv + ["--cache-dir", str(tmp_path / "cc")]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert message in err
    assert not (tmp_path / "cc").exists()


@pytest.mark.parametrize("argv, message", [
    (["theorem", "--p", "2", "--x", "1", "--i-max", "1", "--family", "b3r",
      "--r-max", "3", "--max-degree", "1"],
     "--family b3r takes --r-max and none of --p, --x, --i-max"),
    (["theorem", "--family", "b3r", "--r-max", "3", "--x", "1", "--max-degree", "1"],
     "--family b3r takes --r-max and none of --p, --x, --i-max"),
    (["theorem", "--family", "b3r", "--r-max", "3", "--i-max", "0",
      "--max-degree", "1"], "--family b3r takes --r-max and none of --p, --x, --i-max"),
    (["theorem", "--p", "2", "--x", "1", "--i-max", "1", "--r-max", "3",
      "--max-degree", "1"], "--r-max needs --family b3r"),
    (["betti", "--family", "b3r", "--r", "3", "--p", "5", "--x", "2",
      "--max-degree", "1"], "--family b3r takes --r and none of --p, --x, --i"),
    (["betti", "--family", "b3r", "--r", "3", "--i", "0", "--max-degree", "1"],
     "--family b3r takes --r and none of --p, --x, --i"),
    (["betti", "--p", "2", "--x", "1", "--i", "0", "--r", "5", "--max-degree", "1"],
     "--r needs --family b3r"),
    (["group", "build", "--family", "b3r", "--r", "3", "--p", "3"],
     "--family b3r takes --r and none of --p, --x, --i"),
    (["group", "census", "--p", "2", "--x", "1", "--i", "0", "--r", "4"],
     "--r needs --family b3r"),
])
def test_conflicting_group_flags_are_a_usage_error(capsys, tmp_path, argv, message):
    # a b3r model and a quotient's parameters name two different groups;
    # neither is picked silently
    if argv[0] in ("betti", "theorem"):
        argv = argv + ["--cache-dir", str(tmp_path / "cc")]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert message in err
    assert not (tmp_path / "cc").exists()


@pytest.mark.parametrize("argv, expected", [
    (["equivariance", "eta", "--p", "3", "--x", "1"], 2),
    (["equivariance", "inflation", "--p", "3", "--x", "1"], 2),
    (["equivariance", "delta", "--p", "2", "--x", "1", "--i-max", "3"], 0),
    (["filtration", "--p", "2", "--x", "1", "--i-max", "3"], 0),
])
def test_zero_trials_is_a_usage_error_for_sampled_identities(capsys, argv, expected):
    code, out, err = run(capsys, argv + ["--trials", "0"])
    assert code == expected
    if expected == 2:
        assert out == ""
        assert "trials must be >= 1, got 0" in err
    else:
        # the deterministic checks still run
        rep = json.loads(out)
        assert rep["checks"] and rep["failures"] == 0


def test_cache_dir_env_default(monkeypatch, tmp_path):
    from coclass.cli import build_parser
    monkeypatch.setenv("COCLASS_CACHE_DIR", str(tmp_path / "envcache"))
    args = build_parser().parse_args(
        ["betti", "--p", "2", "--x", "1", "--i", "0", "--max-degree", "1"])
    assert args.cache_dir == str(tmp_path / "envcache")


def test_budget_order_override(capsys, tmp_path):
    # order 1024 exceeds the default resolution budget but not the override
    argv = ["betti", "--p", "2", "--x", "1", "--i", "8", "--max-degree", "1",
            "--cache-dir", str(tmp_path)]
    code, _, _ = run(capsys, argv)
    assert code == 3
    code, out, _ = run(capsys, argv + ["--budget-order", "1100"])
    assert code == 0
    assert json.loads(out)["betti"] == [1, 2]


def test_report_determinism(capsys, tmp_path):
    argv = ["equivariance", "eta", "--p", "3", "--x", "2", "--degree", "1",
            "--trials", "100", "--seed", "42"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    argv = ["theorem", "--p", "2", "--x", "1", "--i-max", "2",
            "--max-degree", "4", "--cache-dir", str(tmp_path)]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


_FILTRATION_CHECKS = (
    '{"name": "base-level-is-p-times-ambient", "passed": true}, '
    '{"name": "successive-index-p", "passed": true}, '
    '{"name": "strict-containment", "passed": true}, '
    '{"name": "point-shift-maps-level-to-next", "passed": true}, '
    '{"name": "commutator-image-is-next-level", "passed": true}, '
    '{"name": "p-scaling-climbs-dim-levels", "passed": true}, '
    '{"name": "point-matrix-order", "passed": true}, '
    '{"name": "cyclotomic-annihilation", "passed": true}, '
    '{"detail": 2, "name": "commutator-determinant", "passed": true}, '
    '{"name": "commutator-commutes-with-point-matrix", "passed": true}, '
    '{"name": "scaled-inverse-integral", "passed": true}, '
    '{"name": "projection-commutes-with-commutator", "passed": true}')


@pytest.mark.parametrize("argv, expected", [
    ("group build --p 3 --x 1 --i 0",
     '{"i": 0, "matrixC": [[0, -1], [1, -1]], "model": "quotient", "order": 27, '
     '"p": 3, "snf": [3, 3], "x": 1}'),
    ("group census --family b3r --r 3",
     '{"census": {"1": 1, "3": 26}, "i": 0, "matrixC": [[1, -3], [1, -2]], '
     '"model": "b3r", "order": 27, "p": 3, "snf": [3, 3], "x": 1}'),
    ("group export --p 2 --x 1 --i 1",
     '{"enumerated": 8, "generators": [[1, 0], [0, 1]], "i": 1, '
     '"matrixC": [[-1]], "model": "quotient", "order": 8, "p": 2, "snf": [4], '
     '"x": 1}'),
    ("filtration --p 2 --x 1 --i-max 2 --trials 20",
     '{"checks": [' + _FILTRATION_CHECKS + '], "failures": 0, "iMax": 2, '
     '"identity": "filtration", "p": 2, "seed": 0, "trials": 20, "x": 1}'),
    ("equivariance eta --p 3 --x 1 --degree 1 --trials 10 --seed 1",
     '{"degree": 1, "failures": 0, "firstCounterexample": null, '
     '"identity": "eta-equivariance", "p": 3, "seed": 1, "trials": 10, "x": 1}'),
    ("equivariance delta --p 2 --x 1 --i-max 2 --trials 10",
     '{"checks": [{"name": "commutator-image-is-next-level", "passed": true}, '
     '{"detail": 2, "name": "commutator-determinant", "passed": true}, '
     '{"name": "commutator-commutes-with-point-matrix", "passed": true}, '
     '{"name": "scaled-inverse-integral", "passed": true}, '
     '{"name": "projection-commutes-with-commutator", "passed": true}], '
     '"failures": 0, "iMax": 2, "identity": "delta-equivariance", "p": 2, '
     '"seed": 0, "trials": 10, "x": 1}'),
    ("equivariance inflation --p 3 --x 1 --i 1 --trials 10",
     '{"failures": 0, "firstCounterexample": null, '
     '"identity": "inflation-equivariance", "level": 1, "p": 3, "seed": 0, '
     '"trials": 10, "x": 1}'),
])
def test_report_bytes_are_pinned(capsys, argv, expected):
    assert run(capsys, argv.split()) == (0, expected + "\n", "")


def test_over_budget_quotient_is_refused_from_its_order(capsys, tmp_path):
    # order 251^251: the lattice would take minutes to reduce
    code, out, err = run(capsys, ["group", "build", "--p", "251", "--x", "1",
                                  "--i", "0"])
    assert (code, out) == (3, "")
    assert err == ("error: group order " + str(251 ** 251) +
                   " exceeds enumeration budget 1048576\n")
    code, out, err = run(capsys, ["theorem", "--p", "251", "--x", "1",
                                  "--i-max", "1", "--max-degree", "1",
                                  "--cache-dir", str(tmp_path)])
    assert (code, out) == (3, "")
    assert err == ("error: level 0: group order " + str(251 ** 251) +
                   " exceeds enumeration budget 1048576\n")


def test_manifest_with_float_betti_is_recomputed(capsys, tmp_path):
    betti = ["betti", "--p", "2", "--x", "1", "--i", "0", "--cache-dir",
             str(tmp_path), "--max-degree"]
    run(capsys, betti + ["3"])
    (manifest,) = tmp_path.glob("*/manifest.json")
    cached = json.loads(manifest.read_text())
    floats = json.dumps({**cached, "betti": [1.0, 2.0, 3.0, 4.0]})
    manifest.write_text(floats)
    code, out, err = run(capsys, ["cache", "list", "--cache-dir", str(tmp_path)])
    assert (code, json.loads(out)["entries"], err) == (0, [], "")
    # a repeat request (once a hit) and a deeper one (once an extension)
    for degree, expected in (("3", [1, 2, 3, 4]), ("5", [1, 2, 3, 4, 5, 6])):
        manifest.write_text(floats)
        code, out, err = run(capsys, betti + [degree])
        assert (code, err) == (0, "")
        assert f'"betti": {expected}' in out
        assert json.loads(manifest.read_text())["betti"] == expected
