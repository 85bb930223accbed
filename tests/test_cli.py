"""Command-line surface: record shapes, exit codes, caps, configuration,
and byte-level reproducibility."""

import json
import time

import pytest

from drinfeld.cli import MAX_N, MAX_P, main
from drinfeld.projpoints import REP_SYSTEMS


MU = json.dumps({
    "level": 1,
    "entries": [
        {"point": {"level": 1, "rep": [1, 0]}, "coeff": 1},
        {"point": {"level": 1, "rep": [0, 1]}, "coeff": -1},
    ],
})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def records(out):
    return [json.loads(line) for line in out.splitlines() if line]


def test_points_enumeration(capsys):
    code, out = run(capsys, "points", "--d", "1", "--p", "3", "--n", "2")
    assert code == 0
    recs = records(out)
    assert len(recs) == 12
    assert recs[0] == {"p": 3, "d": 1, "level": 2, "rep": [1, 0]}


def test_invalid_prime_is_usage_error(capsys):
    code, _ = run(capsys, "points", "--d", "1", "--p", "4", "--n", "2")
    assert code == 2
    code, _ = run(capsys, "tau", "--p", "6", "--coords", "[1, [0,1]]")
    assert code == 2
    code, out = run(capsys, "dist", "check", "--p", "4", "--d", "1",
                    "--dist", MU)
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv", [
    ("tau", "--p", "1000000000000000003", "--coords", "[1, [0,1]]"),
    ("points", "--p", str(MAX_P + 2), "--d", "0", "--n", "1"),
], ids=["tau-1e18", "points-above-ceiling"])
def test_prime_ceiling_is_checked_before_the_primality_test(capsys,
                                                            monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("trial division started before the ceiling")

    monkeypatch.setattr("drinfeld.cli.is_prime", no_work)
    started = time.monotonic()
    code = main(list(argv))
    assert time.monotonic() - started < 1
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error: --p")
    assert "MAX_P" in captured.err


def test_prime_at_the_ceiling_runs(capsys):
    code, out = run(capsys, "points", "--p", str(MAX_P), "--d", "0",
                    "--n", "1")
    assert code == 0
    assert records(out) == [{"p": MAX_P, "d": 0, "level": 1, "rep": [1]}]


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_missing_argument_is_usage_error(capsys):
    code, _ = run(capsys, "points", "--d", "1", "--p", "3")
    assert code == 2


def test_count_cap_fails_fast(capsys, monkeypatch):
    monkeypatch.setenv("DRINFELD_MAX_COUNT", "5")
    code, _ = run(capsys, "points", "--d", "1", "--p", "3", "--n", "2")
    assert code == 2
    monkeypatch.setenv("DRINFELD_MAX_COUNT", "not-a-number")
    code, _ = run(capsys, "points", "--d", "1", "--p", "3", "--n", "2")
    assert code == 2


def test_tau_report_shape(capsys):
    code, out = run(
        capsys, "tau", "--p", "2", "--e", "2", "--N", "40",
        "--coords", "[1, [0,1]]",
    )
    assert code == 0
    (rec,) = records(out)
    assert rec["weights"] == ["1/2", "1/2"]
    assert rec["certified_level"] == 1
    assert [lat["hnf"] for lat in rec["simplex"]["chain"]] == [
        [[1, 0], [0, 1]], [[2, 0], [0, 1]]
    ]
    assert rec["point"]["field"] == {"p": 2, "e": 2, "f": 1, "N": 40}


@pytest.mark.parametrize("coords", [
    "[1, [0,1,0,5]]",
    "[1, [0,1], [0,0,1]]",
    '[1, {"coeffs": [0,1,0,0], "shift": 1}]',
    '[1, {"shift": 1}]',
    '[1, {"coeffs": [0,1,0], "shift": "a"}]',
    '[1, {"coeffs": [0,1,0], "shift": 1.5}]',
    "[1, [[0],1,0]]",
], ids=["long", "short", "long-shifted", "no-coeffs", "text-shift",
        "fractional-shift", "nested"])
def test_malformed_digit_list_is_usage_error(capsys, coords):
    code = main(["tau", "--p", "2", "--e", "3", "--N", "60", "--coords", coords])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error: --coords")


def test_cover_membership(capsys):
    code, out = run(
        capsys, "cover", "--p", "2", "--e", "2", "--N", "40",
        "--coords", "[1, [0,1]]", "--n", "1",
    )
    assert code == 0
    (rec,) = records(out)
    assert rec["member_open"] and rec["member_closed"]


def test_building_ball_and_dot(capsys, tmp_path):
    dot = tmp_path / "ball.dot"
    code, out = run(
        capsys, "building", "ball", "--p", "2", "--d", "1",
        "--radius", "1", "--dot", str(dot),
    )
    assert code == 0
    assert len(records(out)) == 4
    text = dot.read_text()
    assert text.startswith("graph ball {") and text.count("--") == 3


def test_building_neighbors_and_type(capsys):
    code, out = run(
        capsys, "building", "neighbors", "--p", "2",
        "--vertex", "[[1,0],[0,1]]",
    )
    assert code == 0
    assert len(records(out)) == 3
    code, out = run(
        capsys, "building", "type", "--p", "2",
        "--chain", "[[[1,0],[0,1]],[[2,0],[0,1]]]",
    )
    assert code == 0
    (rec,) = records(out)
    assert rec["type_vector"] == [1, 1]


@pytest.mark.parametrize("vertex", [
    "[]", "[[]]", "[[2.0,0],[0,1]]", "[[1.5,0],[0,1]]", "[[true,0],[0,1]]",
    "[[1,0],[0]]", '"x"', "[5]", "[[1,2],[2,4]]",
], ids=["empty", "empty-row", "float", "fraction", "bool", "ragged", "text",
        "flat", "rank-deficient"])
def test_malformed_vertex_is_usage_error(capsys, vertex):
    code = main(["building", "neighbors", "--p", "2", "--vertex", vertex])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error: --vertex")


@pytest.mark.parametrize("chain", [
    "[[]]", "[[[2.0,0],[0,1]]]", "[[[1,0],[0,1]],[[1.5,0],[0,1]]]",
    "[[[true,0],[0,1]]]", "[5]", '[{"scale": 0}]', '[{"hnf": [], "scale": 0}]',
    '[{"hnf": [[1,0],[0,1]], "scale": 1.5}]',
    '[{"hnf": [[1,0],[0,1]], "scale": true}]', "[[[1,2],[2,4]]]",
], ids=["empty-matrix", "float", "fraction-in-second", "bool", "flat",
        "no-hnf", "empty-hnf", "fractional-scale", "bool-scale",
        "rank-deficient"])
def test_malformed_chain_is_usage_error(capsys, chain):
    code = main(["building", "type", "--p", "2", "--chain", chain])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error: --chain")


def test_neighbor_count_is_capped_before_work(capsys, monkeypatch):
    # a 7 x 7 vertex at p = 5 has 666,124,286 neighbors
    def no_work(*args, **kwargs):
        raise AssertionError("enumeration started before the count check")

    monkeypatch.setattr("drinfeld.building.Lattice.neighbors", no_work)
    vertex = json.dumps([[int(i == j) for j in range(7)] for i in range(7)])
    code = main(["building", "neighbors", "--p", "5", "--vertex", vertex])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "666124286" in captured.err


def test_dist_round_trip(capsys, tmp_path):
    code, out = run(
        capsys, "dist", "random", "--p", "2", "--d", "1", "--n", "2",
        "--seed", "5",
    )
    assert code == 0
    (rec,) = records(out)
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(rec))
    code, out = run(
        capsys, "dist", "push", "--p", "2", "--d", "1",
        "--in", str(path), "--to", "1",
    )
    assert code == 0
    (pushed,) = records(out)
    assert pushed["level"] == 1
    assert sum(e["coeff"] for e in pushed["entries"]) == 0
    code, out = run(
        capsys, "dist", "check", "--p", "2", "--d", "1", "--in", str(path)
    )
    assert code == 0
    (checked,) = records(out)
    assert checked["mass_zero"] is True


def test_dist_check_rejects_nonzero_mass(capsys):
    bad = json.dumps({
        "level": 1,
        "entries": [{"point": {"level": 1, "rep": [1, 0]}, "coeff": 2}],
    })
    code, out = run(capsys, "dist", "check", "--p", "2", "--d", "1",
                    "--dist", bad)
    assert code == 1
    (rec,) = records(out)
    assert rec["mass_zero"] is False


def test_lambda_with_oracle(capsys):
    code, out = run(
        capsys, "lambda", "--p", "2",
        "--edge", "[[[1,0],[0,1]],[[2,0],[0,1]]]",
        "--pair", "[[1,0],[0,1]]", "--oracle",
    )
    assert code == 0
    (rec,) = records(out)
    assert rec["value"] == 1 and rec["oracle_value"] == 1 and rec["agrees"]


EDGE = "[[[1,0],[0,1]],[[2,0],[0,1]]]"


@pytest.mark.parametrize("pair", [
    "[1,2]", "[[1.5,0],[0,1]]", "[[true,0],[0,1]]", "[[1,0,0],[0,1,0]]",
    '["ab",[0,1]]', "[[0,0],[0,1]]", "[[],[0,1]]",
], ids=["flat", "fraction", "bool", "too-long", "text", "zero", "empty"])
def test_malformed_pair_is_usage_error(capsys, pair):
    code = main(["lambda", "--p", "2", "--edge", EDGE, "--pair", pair])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error: --pair")


def test_lambda_on_a_chain_that_is_not_an_edge_is_usage_error(capsys):
    # the refusal names --edge, not the --pair whose covectors lambda_edge
    # checks in the same call
    triangle = "[[[1,0,0],[0,1,0],[0,0,1]],[[2,0,0],[0,1,0],[0,0,1]]," \
        "[[2,0,0],[0,2,0],[0,0,1]]]"
    code = main(["lambda", "--p", "2", "--edge", triangle,
                 "--pair", "[[1,0,0],[0,1,0]]"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error: --edge")


def test_alpha_residue_on_a_chain_that_is_not_an_edge_is_usage_error(capsys):
    # the chain is refused as an --edge before any slope is taken, as lambda
    # refuses it, also when the locality guard is off
    triangle = "[[[1,0,0],[0,1,0],[0,0,1]],[[2,0,0],[0,1,0],[0,0,1]]," \
        "[[2,0,0],[0,2,0],[0,0,1]]]"
    mu = dist_random_d2(capsys)
    code = main(["alpha", "residue", "--p", "2", "--d", "2", "--dist", mu,
                 "--edge", triangle, "--allow-shallow"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error: --edge must be a chain of two")


def test_sweep_lambda_summary(capsys):
    code, out = run(capsys, "sweep-lambda", "--p", "2", "--d", "1",
                    "--radius", "1")
    assert code == 0
    recs = records(out)
    assert recs[-1]["edges"] == 6 and recs[-1]["disagreements"] == 0


def test_alpha_residue_agreement(capsys):
    dist = json.dumps({
        "level": 1,
        "entries": [
            {"point": {"level": 1, "rep": [1, 0]}, "coeff": 1},
            {"point": {"level": 1, "rep": [0, 1]}, "coeff": -1},
        ],
    })
    code, out = run(
        capsys, "alpha", "residue", "--p", "2", "--d", "1", "--dist", dist,
        "--edge", "[[[1,0],[0,1]],[[2,0],[0,1]]]",
    )
    assert code == 0
    (rec,) = records(out)
    assert rec["agree"] and rec["dlog_residue"] == rec["pairing"]


def dist_random_d2(capsys):
    code, out = run(capsys, "dist", "random", "--p", "2", "--d", "2",
                    "--n", "2")
    assert code == 0
    return out.strip()


def test_distribution_of_another_dimension_than_the_edge_is_usage_error(
        capsys):
    mu = dist_random_d2(capsys)
    code, out = run(capsys, "alpha", "residue", "--p", "2", "--d", "2",
                    "--dist", mu, "--edge", EDGE, "--allow-shallow")
    assert code == 2 and out == ""


def test_distribution_of_another_dimension_than_the_point_is_usage_error(
        capsys):
    mu = dist_random_d2(capsys)
    code, out = run(capsys, "alpha", "eval", "--p", "2", "--d", "2",
                    "--dist", mu, "--e", "2", "--N", "40",
                    "--coords", "[1, [0,1]]")
    assert code == 2 and out == ""


@pytest.mark.parametrize("coords", [
    "[1, [0, 1.5]]", '[1, {"coeffs": [0, 1.5]}]', "[1, [0, true]]",
    "[true, 1]", '[1, {"coeffs": "01"}]',
], ids=["fraction-digit", "fraction-coeff", "bool-digit", "bool-integer",
        "text-coeffs"])
def test_non_integer_coordinates_are_usage_errors(capsys, coords):
    code = main(["tau", "--p", "2", "--e", "2", "--N", "40", "--coords",
                 coords])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error: --coords")


def entry(rep, coeff):
    return {"point": {"level": 1, "rep": rep}, "coeff": coeff}


MALFORMED_DISTRIBUTIONS = {
    "text-coeff": {"level": 1, "entries": [entry([1, 0], "1"),
                                           entry([0, 1], -1)]},
    "fraction-coeff": {"level": 1, "entries": [entry([1, 0], 1.5),
                                               entry([0, 1], -1.5)]},
    "bool-coeff": {"level": 1, "entries": [entry([1, 0], True),
                                           entry([0, 1], -1)]},
    "entries-not-a-list": {"level": 1, "entries": 5},
    "top-level-list": [entry([1, 0], 1), entry([0, 1], -1)],
    "fraction-rep": {"level": 1, "entries": [entry([1, 0.5], 1),
                                             entry([0, 1], -1)]},
    "text-level": {"level": "1", "entries": []},
}


@pytest.mark.parametrize("name", MALFORMED_DISTRIBUTIONS)
def test_malformed_distribution_is_usage_error(capsys, name):
    dist = json.dumps(MALFORMED_DISTRIBUTIONS[name])
    code, out = run(capsys, "dist", "push", "--p", "2", "--d", "1",
                    "--dist", dist, "--to", "1")
    assert code == 2 and out == ""
    # dist check reports the same input as a record that is not mass zero
    code, out = run(capsys, "dist", "check", "--p", "2", "--d", "1",
                    "--dist", dist)
    assert code == 1
    (rec,) = records(out)
    assert rec["mass_zero"] is False


def test_missing_or_unparsable_distribution_file_is_usage_error(capsys,
                                                                tmp_path):
    missing = str(tmp_path / "missing.json")
    for argv in (("dist", "push", "--to", "1"), ("dist", "check")):
        code, out = run(capsys, *argv, "--p", "2", "--d", "1", "--in",
                        missing)
        assert code == 2 and out == ""
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, out = run(capsys, "dist", "push", "--p", "2", "--d", "1",
                    "--in", str(garbled), "--to", "1")
    assert code == 2 and out == ""


def test_alpha_converge_records(capsys):
    code, out = run(capsys, "alpha", "converge", "--p", "2",
                    "--families", "2")
    assert code == 0
    recs = records(out)
    assert len(recs) == 6
    assert all(r["pass"] for r in recs)


def test_alpha_equivariance_records(capsys):
    code, out = run(capsys, "alpha", "equivariance", "--p", "3",
                    "--translates", "2")
    assert code == 0
    recs = records(out)
    assert len(recs) == 2 and all(r["pass"] for r in recs)


@pytest.mark.parametrize("argv", [
    ("--translates", "0", "--i", "3", "--n", "2"),
    ("--i", "2", "--n", "2"),
], ids=["no-translates", "i-equals-n"])
def test_alpha_equivariance_checks_the_level_order_before_work(
        capsys, monkeypatch, argv):
    # these used to exit 0 with no records and 1 with "need i < level"
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the level order check")

    monkeypatch.setattr("drinfeld.cli.random_mass_zero", no_work)
    monkeypatch.setattr("drinfeld.certify._dual_pair", no_work)
    code = main(["alpha", "equivariance", "--p", "3", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "usage error: need --i < --n\n"


def test_rep_system_flag_takes_exactly_the_lift_systems(capsys):
    point = ("alpha", "eval", "--p", "2", "--d", "1", "--e", "2", "--N", "40",
             "--coords", "[1, [0,1]]", "--dist", MU)
    for system in REP_SYSTEMS:
        code, out = run(capsys, *point, "--rep-system", system)
        assert code == 0
        assert records(out)[0]["product"]["rep_system"] == system
    with pytest.raises(SystemExit) as err:
        main([*point, "--rep-system", "LEX"])
    assert err.value.code == 2


def test_reproducible_bytes(capsys):
    argv = ("dist", "random", "--p", "3", "--d", "1", "--n", "2",
            "--seed", "9")
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[drinfeld]\np = 3\nd = 1\nn = 2\n")
    code, out = run(capsys, "points", "--config", str(cfg))
    assert code == 0
    assert len(records(out)) == 12
    # explicit flags win over the file
    code, out = run(capsys, "points", "--config", str(cfg), "--n", "1")
    assert code == 0
    assert len(records(out)) == 4


def test_config_overrides_flag_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[drinfeld]\nseed = 5\nN = 40\n")
    dist = ("dist", "random", "--p", "3", "--d", "1", "--n", "2",
            "--config", str(cfg))
    (rec,) = records(run(capsys, *dist)[1])
    assert rec["seed"] == 5
    (rec,) = records(run(capsys, *dist, "--seed", "0")[1])
    assert rec["seed"] == 0
    tau = ("tau", "--p", "2", "--e", "2", "--coords", "[1, [0,1]]",
           "--config", str(cfg))
    (rec,) = records(run(capsys, *tau)[1])
    assert rec["point"]["field"]["N"] == 40
    (rec,) = records(run(capsys, *tau, "--N", "24")[1])
    assert rec["point"]["field"]["N"] == 24
    # a switch reads INI booleans, so "false" leaves it off
    lam = ("lambda", "--p", "2", "--edge", "[[[1,0],[0,1]],[[2,0],[0,1]]]",
           "--pair", "[[1,0],[0,1]]", "--config", str(cfg))
    for text, on in (("false", False), ("yes", True)):
        cfg.write_text(f"[drinfeld]\noracle = {text}\n")
        (rec,) = records(run(capsys, *lam)[1])
        assert ("oracle_value" in rec) == on
    cfg.write_text("[drinfeld]\noracle = maybe\n")
    assert run(capsys, *lam)[0] == 2


def test_config_keys_are_flag_names(capsys, tmp_path):
    mu = tmp_path / "mu.json"
    mu.write_text(MU)
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[drinfeld]\nin = {mu}\n")
    code, out = run(capsys, "dist", "check", "--p", "2", "--d", "1",
                    "--config", str(cfg))
    assert code == 0
    assert records(out)[0]["mass_zero"] is True
    # "-" and "_" are both accepted in key names
    point = ("alpha", "eval", "--p", "2", "--d", "1", "--e", "2", "--N", "40",
             "--coords", "[1, [0,1]]", "--dist", MU, "--config", str(cfg))
    products = []
    for key in ("rep-system", "rep_system"):
        for system in ("lex", "revlex"):
            cfg.write_text(f"[drinfeld]\n{key} = {system}\n")
            code, out = run(capsys, *point)
            assert code == 0
            products.append(records(out)[0]["product"])
    assert products[0] == products[2] != products[1] == products[3]


@pytest.mark.parametrize("argv, text", [
    (("points", "--d", "1", "--n", "2"), "p = abc"),
    (("alpha", "eval", "--p", "2", "--d", "1", "--coords", "[1, [0,1]]",
      "--dist", MU), "rep_system = foo"),
], ids=["p", "rep-system"])
def test_config_values_are_validated_like_flags(capsys, tmp_path,
                                                monkeypatch, argv, text):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the value check")

    monkeypatch.setattr("drinfeld.cli.enumerate_points", no_work)
    monkeypatch.setattr("drinfeld.cli.alpha_level", no_work)
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[drinfeld]\n{text}\n")
    with pytest.raises(SystemExit) as err:
        main([*argv, "--config", str(cfg)])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


def test_toml_config(capsys, tmp_path):
    pytest.importorskip("tomllib")
    cfg = tmp_path / "run.toml"
    cfg.write_text("[drinfeld]\nseed = 5\nN = 40\noracle = true\n"
                   "coords = [1, [0, 1]]\n")
    code, out = run(capsys, "dist", "random", "--p", "3", "--d", "1",
                    "--n", "2", "--config", str(cfg))
    assert code == 0 and records(out)[0]["seed"] == 5
    # a TOML array is passed on as JSON
    code, out = run(capsys, "tau", "--p", "2", "--e", "2",
                    "--config", str(cfg))
    assert code == 0
    (rec,) = records(out)
    assert rec["point"]["field"]["N"] == 40 and rec["certified_level"] == 1
    code, out = run(capsys, "lambda", "--p", "2",
                    "--edge", "[[[1,0],[0,1]],[[2,0],[0,1]]]",
                    "--pair", "[[1,0],[0,1]]", "--config", str(cfg))
    assert code == 0 and records(out)[0]["agrees"]


@pytest.mark.parametrize("name, text", [
    ("headerless.ini", "p = 3\n"),
    ("missing.ini", None),
    ("missing.toml", None),
    ("broken.toml", "p = = 3\n"),
], ids=["headerless-ini", "missing-ini", "missing-toml", "broken-toml"])
def test_unreadable_config_is_usage_error(capsys, tmp_path, name, text):
    cfg = tmp_path / name
    if text is not None:
        cfg.write_text(text)
    code = main(["points", "--d", "1", "--p", "3", "--n", "2",
                 "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage error:")


def test_certify_all_without_a_check_is_usage_error(capsys):
    # no criterion covers p = 5 in dimension 3: an empty bundle must not pass
    code = main(["certify-all", "--d", "3", "--p", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage error:")


def test_sweep_lambda_checks_the_ball_estimate(capsys, monkeypatch):
    # the estimate for this ball is 15 vertices
    monkeypatch.setenv("DRINFELD_MAX_COUNT", "10")
    code, out = run(capsys, "sweep-lambda", "--p", "2", "--d", "2",
                    "--radius", "1")
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv", [
    ("dist", "random", "--p", "3", "--d", "1", "--n", "2", "--size", "3"),
    ("alpha", "converge", "--p", "2", "--families", "3"),
    ("alpha", "equivariance", "--p", "3", "--translates", "3"),
])
def test_count_flags_are_capped_before_work(capsys, monkeypatch, argv):
    monkeypatch.setenv("DRINFELD_MAX_COUNT", "2")

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the cap check")

    monkeypatch.setattr("drinfeld.cli.random_mass_zero", no_work)
    monkeypatch.setattr("drinfeld.certify._dual_pair", no_work)
    code, out = run(capsys, *argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize("cap, argv", [
    ("DRINFELD_MAX_LEVEL", ("alpha", "equivariance", "--p", "3", "--n", "2",
                            "--translates", "1")),
    ("DRINFELD_MAX_DIM", ("dist", "random", "--p", "3", "--d", "2",
                          "--n", "1")),
    ("DRINFELD_MAX_LEVEL", ("tau", "--p", "2", "--e", "2", "--N", "40",
                            "--coords", "[1, [0,1]]", "--level", "2")),
], ids=["equivariance-n", "dist-random-d", "tau-level"])
def test_level_and_dimension_flags_are_capped_before_work(capsys, monkeypatch,
                                                          cap, argv):
    monkeypatch.setenv(cap, "1")

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the cap check")

    monkeypatch.setattr("drinfeld.cli.random_mass_zero", no_work)
    monkeypatch.setattr("drinfeld.cli.reduce_to_building", no_work)
    monkeypatch.setattr("drinfeld.certify._dual_pair", no_work)
    code, out = run(capsys, *argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv", [
    ("tau", "--p", "2", "--e", "2", "--coords", "[1, [0,1]]"),
    ("alpha", "converge", "--p", "2", "--families", "1"),
    ("alpha", "equivariance", "--p", "3", "--translates", "1"),
], ids=["tau", "alpha-converge", "alpha-equivariance"])
def test_working_digits_are_capped_before_work(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the --N check")

    monkeypatch.setattr("drinfeld.cli.FieldDesc", no_work)
    monkeypatch.setattr("drinfeld.certify._dual_pair", no_work)
    code = main([*argv, "--N", str(MAX_N + 1)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error: --N")


@pytest.mark.parametrize("argv", [
    ("dist", "random", "--p", "7919", "--d", "4", "--n", "6"),
    ("alpha", "converge", "--p", "7919", "--nprime", "6"),
    ("alpha", "equivariance", "--p", "7919", "--n", "6"),
], ids=["dist-random", "alpha-converge", "alpha-equivariance"])
def test_point_count_estimate_is_capped_before_work(capsys, monkeypatch, argv):
    # every flag is within its own cap, but P^d(Z/p^n) has far more than
    # DRINFELD_MAX_COUNT points
    def no_work(*args, **kwargs):
        raise AssertionError("enumeration started before the estimate check")

    monkeypatch.setattr("drinfeld.distributions.enumerate_points", no_work)
    monkeypatch.setattr("drinfeld.certify._dual_pair", no_work)
    code, out = run(capsys, *argv)
    assert code == 2 and out == ""


def test_count_flags_at_the_cap_run(capsys, monkeypatch):
    # P^1(Z/9) has 12 points, so 12 is the least cap these runs pass
    monkeypatch.setenv("DRINFELD_MAX_COUNT", "12")
    code, out = run(capsys, "dist", "random", "--p", "3", "--d", "1",
                    "--n", "2", "--size", "12")
    assert code == 0 and len(records(out)) == 1
    code, out = run(capsys, "alpha", "equivariance", "--p", "3",
                    "--translates", "12")
    assert code == 0 and len(records(out)) == 12


POINT_ARGS = ("--p", "2", "--e", "2", "--N", "40", "--coords", "[1, [0,1]]")


@pytest.mark.parametrize("flag, argv", [
    ("n", ("points", "--p", "2", "--d", "1", "--n", "0")),
    ("d", ("points", "--p", "2", "--d", "-1", "--n", "1")),
    ("n", ("dist", "random", "--p", "2", "--d", "1", "--n", "0")),
    ("size", ("dist", "random", "--p", "2", "--d", "1", "--n", "1",
              "--size", "-1")),
    ("coeff-bound", ("dist", "random", "--p", "2", "--d", "1", "--n", "1",
                     "--coeff-bound", "-1")),
    ("level", ("tau", *POINT_ARGS, "--level", "0")),
    ("level", ("tau", *POINT_ARGS, "--level", "-1")),
    ("n", ("cover", *POINT_ARGS, "--n", "0")),
    ("certified-level", ("alpha", "eval", "--d", "1", "--dist", MU,
                         *POINT_ARGS, "--certified-level", "0")),
    ("i", ("alpha", "converge", "--p", "2", "--i", "0")),
    ("nprime", ("alpha", "converge", "--p", "2", "--nprime", "0")),
    ("families", ("alpha", "converge", "--p", "2", "--families", "-1")),
    ("i", ("alpha", "equivariance", "--p", "3", "--i", "0")),
    ("n", ("alpha", "equivariance", "--p", "3", "--n", "0")),
    ("translates", ("alpha", "equivariance", "--p", "3",
                    "--translates", "-1")),
    ("radius", ("building", "ball", "--p", "2", "--d", "1",
                "--radius", "-1")),
    ("radius", ("sweep-lambda", "--p", "2", "--d", "1", "--radius", "-1")),
    ("e-oracle", ("lambda", "--p", "2", "--edge", "[[[1,0],[0,1]],[[2,0],[0,1]]]",
                  "--pair", "[[1,0],[0,1]]", "--oracle", "--e-oracle", "2")),
    ("e-oracle", ("sweep-lambda", "--p", "2", "--d", "1", "--e-oracle", "2")),
])
def test_flags_below_their_floor_are_usage_errors(capsys, flag, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"usage error: --{flag} must be at least")


@pytest.mark.parametrize("argv, text", [
    (("tau", "--p", "2", "--e", "5", "--coords", "[1, 1]"),
     "--p/--e/--f/--N: ramification e = 5 outside [1, 4]"),
    (("cover", "--p", "2", "--f", "4", "--coords", "[1, 1]", "--n", "1"),
     "--p/--e/--f/--N: residue degree f = 4 outside [1, 3]"),
    (("tau", "--p", "2", "--e", "2", "--N", "3", "--coords", "[1, 1]"),
     "--p/--e/--f/--N: precision N must be at least 2e"),
    (("alpha", "converge", "--p", "2", "--N", "3"),
     "--N: precision N must be at least 2e"),
    (("alpha", "equivariance", "--p", "3", "--N", "3"),
     "--N: precision N must be at least 2e"),
])
def test_field_flags_the_field_refuses_are_usage_errors(capsys, argv, text):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"usage error: {text}\n"


def test_points_of_dimension_zero(capsys):
    code, out = run(capsys, "points", "--p", "3", "--d", "0", "--n", "2")
    assert code == 0
    assert records(out) == [{"p": 3, "d": 0, "level": 2, "rep": [1]}]


def test_out_file_sink(capsys, tmp_path):
    path = tmp_path / "pts.jsonl"
    code, out = run(capsys, "points", "--d", "1", "--p", "2", "--n", "1",
                    "--out", str(path))
    assert code == 0 and out == ""
    lines = path.read_text().splitlines()
    assert len(lines) == 3
