"""End-to-end tests of the command-line driver and its certificates."""

import json

from latticeramsey.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_bound_subcommand(capsys):
    code, cert = run_cli(capsys, "bound", "--n", "2", "--c", "6.14")
    assert code == 0
    assert cert["outcome"] == "ok"
    rep = cert["result"]["report"]
    assert rep["k"] == 12 and rep["contradiction"] is True


def test_bound_minimal(capsys):
    code, cert = run_cli(capsys, "bound", "--n", "2", "--minimal")
    assert code == 0
    assert cert["result"]["minimal_k"] == 12


def test_bound_usage_error(capsys):
    code = main(["bound", "--n", "2"])
    assert code == 2


def test_construct_layered_then_verify_ramsey(tmp_path, capsys):
    out = tmp_path / "c.json"
    code, cert = run_cli(
        capsys, "construct", "layered", "--m", "1", "--n", "1", "-o", str(out)
    )
    assert code == 0 and out.exists()
    code, cert = run_cli(
        capsys, "verify", "--coloring", str(out), "--ramsey", "1,1", "--kind", "weak"
    )
    assert code == 0
    assert cert["result"]["ramsey"]["neither"] is True
    assert str(out) in cert["inputs"]


def test_verify_witness_exit_code(tmp_path, capsys):
    # an all-blue dense coloring of Q_2 contains a blue pair
    from latticeramsey.lattice import Coloring, dumps

    path = tmp_path / "allblue.json"
    path.write_text(dumps(Coloring.dense(2, range(4))))
    code, cert = run_cli(
        capsys, "verify", "--coloring", str(path), "--ramsey", "1,1", "--kind", "weak"
    )
    assert code == 1
    assert cert["outcome"] == "witness"
    assert cert["result"]["ramsey"]["blue_witness"] is not None


def test_embed_single_permutation(tmp_path, capsys):
    from latticeramsey.lattice import Coloring, dumps

    path = tmp_path / "allred.json"
    path.write_text(dumps(Coloring.dense(3, [])))
    code, cert = run_cli(
        capsys, "embed", "--coloring", str(path), "--n", "2", "--k", "1", "--pi", "3"
    )
    assert code == 0
    assert cert["result"]["images"][0] == []
    assert cert["result"]["levels"] == [0, 0, 0, 0]


def test_embed_sweep_all(tmp_path, capsys):
    from latticeramsey.lattice import Coloring, dumps

    blue = [(1 << j) - 1 for j in range(5)]
    path = tmp_path / "chain.json"
    path.write_text(dumps(Coloring.dense(4, blue)))
    code, cert = run_cli(
        capsys, "embed", "--coloring", str(path), "--n", "2", "--k", "2", "--all"
    )
    assert code in (0, 1)
    if code == 1:
        assert cert["result"]["injective"] is True


def test_ramsey_subcommand(capsys):
    code, cert = run_cli(
        capsys, "ramsey", "--m", "1", "--n", "1", "--kind", "induced", "--max-N", "3"
    )
    assert code == 0
    assert cert["result"]["value"] == 2
    assert cert["result"]["layered_lower_bound"] == 2


def test_construct_modp(tmp_path, capsys):
    out = tmp_path / "modp.json"
    code, cert = run_cli(
        capsys, "construct", "modp", "--n", "34", "--m", "2", "-o", str(out)
    )
    assert code == 0
    assert cert["result"]["params"]["k"] == 17
    assert cert["result"]["params"]["p"] == 37
    obj = json.loads(out.read_text())
    assert obj["blue_layers"] == [17, 20]
    assert obj["blue_modp"]["p"] == 37


def test_construct_lll_and_verify_conditions(tmp_path, capsys):
    out = tmp_path / "lll.json"
    code, cert = run_cli(
        capsys,
        "construct", "lll", "--n", "12", "--m", "4",
        "--p-incl", "0.1", "--seed", "1", "-o", str(out),
    )
    assert code == 0
    code, cert = run_cli(capsys, "verify", "--coloring", str(out), "--conditions")
    assert code == 0
    assert cert["result"]["conditions"]["ok"] is True
    code, cert = run_cli(
        capsys, "verify", "--coloring", str(out), "--blue-free", "4",
        "--red-bound", "12,4",
    )
    assert code == 0


def test_construct_modp_prime_override(tmp_path, capsys):
    out = tmp_path / "modp41.json"
    code, cert = run_cli(
        capsys,
        "construct", "modp", "--n", "34", "--m", "2", "--p", "41", "-o", str(out),
    )
    assert code == 0
    assert cert["result"]["params"]["p"] == 41
    obj = json.loads(out.read_text())
    assert obj["blue_modp"]["p"] == 41


def test_verify_distance_flag(tmp_path, capsys):
    out = tmp_path / "pairs.json"
    code, _ = run_cli(capsys, "construct", "pairs", "--n", "18", "-o", str(out))
    assert code == 0
    code, cert = run_cli(
        capsys, "verify", "--coloring", str(out), "--distance", "4"
    )
    assert code == 0
    assert cert["result"]["distance"]["ok"] is True


def test_construct_pairs_writes_the_pair_code_coloring(tmp_path, capsys):
    from latticeramsey.constructions import induced_q2_coloring

    out = tmp_path / "pairs.json"
    code, cert = run_cli(capsys, "construct", "pairs", "--n", "18", "-o", str(out))
    want = induced_q2_coloring(18).to_obj()
    assert code == 0
    assert cert["result"]["assignments"] == 380
    assert cert["result"]["coloring"] == want
    assert out.read_text() == json.dumps(want, sort_keys=True) + "\n"


def test_code_subcommand(capsys):
    code, cert = run_cli(
        capsys,
        "code", "--n", "34", "--m", "2", "--avoid", "35,36", "--y", "35",
    )
    assert code == 0
    member = cert["result"]["member"]
    assert len(member) == 18 and sum(member) % 37 == 0


def test_verify_code_statement(tmp_path, capsys):
    from latticeramsey.lattice import Coloring, dumps

    path = tmp_path / "any.json"
    path.write_text(dumps(Coloring.structured(5, blue_layers={1})))
    code, cert = run_cli(
        capsys,
        "verify", "--coloring", str(path), "--code-statement", "10,2,3,11,5",
    )
    assert code in (0, 1)
    assert "code_statement" in cert["result"]


def test_certificates_reproducible(tmp_path, capsys):
    out = tmp_path / "c.json"
    argv = ["construct", "layered", "--m", "2", "--n", "2", "-o", str(out)]
    code1, cert1 = run_cli(capsys, *argv)
    code2, cert2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    cert1.pop("wall_clock_s")
    cert2.pop("wall_clock_s")
    assert cert1 == cert2


def test_exhausted_budget_exit_code(capsys):
    code, cert = run_cli(
        capsys,
        "construct", "lll", "--n", "12", "--m", "4",
        "--p-incl", "0.1", "--seed", "1", "--max-resamples", "2",
    )
    assert code == 3
    assert cert["outcome"] == "exhausted"
    assert cert["result"]["violations"] > 0


def test_unknown_subcommand_is_usage(capsys):
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def test_missing_file_is_usage(capsys):
    assert main(["verify", "--coloring", "/nonexistent.json", "--conditions"]) == 2
    capsys.readouterr()
