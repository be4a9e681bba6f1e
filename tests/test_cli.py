"""End-to-end tests of the command-line driver and its certificates."""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from latticeramsey import __version__
from latticeramsey.cli import main
from latticeramsey.embedder import EXACT_FACTORIAL_MAX
from latticeramsey.lattice import Coloring, elements_of, layer
from latticeramsey.oracle import SearchExhausted

from helpers import dumps, low_block_q9, written


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


@pytest.mark.parametrize("n", ["100000000000000000", "1000000000000000000000"])
def test_bound_minimal_refuses_an_exact_factorial_past_the_cap(capsys, n):
    # the bisection meets a near tie that floats leave to factorial(k), k > 10^15
    assert main(["bound", "--n", n, "--minimal"]) == 2
    assert f"capped at k = {EXACT_FACTORIAL_MAX}" in usage_error_line(capsys)


def test_bound_reports_an_exact_decision(capsys):
    # log2 959! exceeds 8122 by 1.6e-4, too thin a margin for floats
    code, cert = run_cli(capsys, "bound", "--n", "3102", "--c", "3.586")
    assert code == 0
    rep = cert["result"]["report"]
    assert (rep["k"], rep["exponent"]) == (959, 8122)
    assert rep["method"] == "exact" and rep["contradiction"] is True


def test_bound_usage_error(capsys):
    code = main(["bound", "--n", "2"])
    assert code == 2


@pytest.mark.parametrize("c", ["inf", "-inf", "1e308", "nan", "1e306", "1e305", "-5", "-0.1", "-1e5"])
def test_bound_with_non_finite_ratio_is_usage(capsys, c):
    # c * n / log2(n) is infinite or NaN, k is negative, or log2 k! overflows
    # (inside lgamma at 1e306, in the division by ln 2 at 1e305); exit 1 would
    # claim a witness.  Written as two arguments, a value such as -inf or -1e5
    # must still be read as the value of --c, not as an option.
    for value in ([f"--c={c}"], ["--c", c]):
        assert main(["bound", "--n", "2", *value]) == 2
        assert f"c = {float(c)}" in usage_error_line(capsys)


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
    from latticeramsey.lattice import Coloring

    path = tmp_path / "allblue.json"
    path.write_text(dumps(Coloring.dense(2, range(4))))
    code, cert = run_cli(
        capsys, "verify", "--coloring", str(path), "--ramsey", "1,1", "--kind", "weak"
    )
    assert code == 1
    assert cert["outcome"] == "witness"
    assert cert["result"]["ramsey"]["blue_witness"] is not None


_Q1_IN_Q1 = {"dim": 1, "images": [[], [1]], "kind": "weak"}


@pytest.mark.parametrize(
    "coloring, digest, blue_witness, red_witness",
    [
        ('{"blue_hex": "0f", "n": 2, "repr": "dense"}',
         "894f2cd692d3272313d180a2c66d49cc515553f1342861b618e2582c0d7291a0", _Q1_IN_Q1, None),
        ('{"blue_hex": "00", "n": 3, "repr": "dense"}',
         "fedf41eab955edb343e55a77f2cec8886588421f015ecd0656ef099d9e084873", None, _Q1_IN_Q1),
    ],
    ids=["all-blue-q2", "all-red-q3"],
)
def test_verify_ramsey_certificate_keeps_its_bytes(
    tmp_path, monkeypatch, capsys, coloring, digest, blue_witness, red_witness
):
    monkeypatch.chdir(tmp_path)
    Path("c.json").write_text(coloring)
    argv = ["verify", "--coloring", "c.json", "--ramsey", "1,1"]
    assert main(argv) == 1
    want = {
        "command": argv,
        "inputs": {"c.json": digest},
        "outcome": "witness",
        "result": {
            "ramsey": {"blue_witness": blue_witness, "neither": False, "red_witness": red_witness}
        },
        "seeds": {},
        "version": __version__,
        "witness": None,
    }
    out = _WALL_CLOCK.sub("", capsys.readouterr().out)
    assert out == json.dumps(want, sort_keys=True, indent=2) + "\n"


def test_verify_ramsey_finds_all_blue_q10_without_recursion(tmp_path, capsys):
    # the copy search once recursed 2^10 + 1 frames deep here and crashed
    from latticeramsey.lattice import Coloring, mask_of
    from latticeramsey.oracle import CopyKind, CopyWitness

    path = tmp_path / "allblue.json"
    path.write_text(dumps(Coloring.dense(10, range(1 << 10))))
    code = main(["verify", "--coloring", str(path), "--ramsey", "10,1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    cert = json.loads(captured.out)
    assert cert["outcome"] == "witness"
    ramsey = cert["result"]["ramsey"]
    assert ramsey["red_witness"] is None
    blue = ramsey["blue_witness"]
    images = tuple(mask_of(elems) for elems in blue["images"])
    assert CopyWitness(CopyKind(blue["kind"]), blue["dim"], images).check()
    assert blue["dim"] == 10


def test_verify_ramsey_on_a_low_block_q9_finds_the_red_q6(tmp_path, capsys):
    # verify --ramsey 3,6 ran past 100 s on this coloring before the copy
    # search checked forward; now the red Q_6 comes within milliseconds.
    path = tmp_path / "lowblock9.json"
    path.write_text(dumps(low_block_q9()))
    code, cert = run_cli(capsys, "verify", "--coloring", str(path), "--ramsey", "3,6")
    assert code == 1
    ramsey = cert["result"]["ramsey"]
    assert ramsey["blue_witness"] is None
    assert ramsey["red_witness"]["dim"] == 6 and ramsey["red_witness"]["kind"] == "weak"


def test_embed_single_permutation(tmp_path, capsys):
    from latticeramsey.lattice import Coloring

    path = tmp_path / "allred.json"
    path.write_text(dumps(Coloring.dense(3, [])))
    code, cert = run_cli(
        capsys, "embed", "--coloring", str(path), "--n", "2", "--k", "1", "--pi", "3"
    )
    assert code == 0
    assert cert["result"]["images"][0] == []
    assert cert["result"]["levels"] == [0, 0, 0, 0]


@pytest.mark.parametrize("blue", [[], [0b101]])
def test_embed_empty_permutation_at_width_zero(tmp_path, capsys, blue):
    from latticeramsey.embedder import EmbedRecord
    from latticeramsey.lattice import Coloring

    path = tmp_path / "q3.json"
    path.write_text(dumps(Coloring.dense(3, blue)))
    sizes = ["embed", "--coloring", str(path), "--n", "3", "--k", "0"]
    code, record = run_cli(capsys, *sizes, "--pi", "")
    sweep_code, sweep = run_cli(capsys, *sizes, "--all")
    assert code == sweep_code == (1 if blue else 0)
    report = sweep["result"]
    if blue:  # the one permutation fails, with the record's failure chain
        chain = EmbedRecord.from_obj(record["result"]).failure_chain()
        assert report["failures"] == [{"perm": [], "chain": written(chain.to_obj())}]
    else:
        assert report["success"] == record["result"]


def test_embed_empty_permutation_at_positive_width_is_usage(tmp_path, capsys):
    from latticeramsey.lattice import Coloring

    path = tmp_path / "q3.json"
    path.write_text(dumps(Coloring.dense(3, [])))
    assert main(["embed", "--coloring", str(path), "--n", "2", "--k", "1", "--pi", ""]) == 2
    assert "bijection" in usage_error_line(capsys)


def test_embed_sweep_all(tmp_path, capsys):
    from latticeramsey.lattice import Coloring

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


def test_verify_counts_the_family_once(tmp_path, capsys, monkeypatch):
    from latticeramsey import lattice

    out = tmp_path / "lll.json"
    code, _ = run_cli(
        capsys,
        "construct", "lll", "--n", "12", "--m", "4",
        "--p-incl", "0.1", "--seed", "1", "-o", str(out),
    )
    assert code == 0
    calls = []
    count = lattice.event_counts

    def counted(members, ground):
        calls.append(ground)
        return count(members, ground)

    monkeypatch.setattr(lattice, "event_counts", counted)
    code, cert = run_cli(
        capsys, "verify", "--coloring", str(out), "--conditions", "--blue-free", "4",
        "--red-bound", "12,4",
    )
    assert code == 0 and sorted(cert["result"]) == ["blue_free", "conditions", "red_bound"]
    assert calls == [16]


def test_verify_scans_the_undersupplied_layer_once(tmp_path, capsys, monkeypatch):
    from latticeramsey import lattice

    out = tmp_path / "lll.json"
    code, _ = run_cli(
        capsys,
        "construct", "lll", "--n", "12", "--m", "4",
        "--p-incl", "0.1", "--seed", "1", "-o", str(out),
    )
    assert code == 0
    scans, calls = [], []
    scan, walk = lattice.event_violations, lattice.layer

    def scanned(ups, members, ground, weight):
        scans.append((ground, weight))
        return scan(ups, members, ground, weight)

    def counted(ground, size):
        calls.append((ground, size))
        return walk(ground, size)

    monkeypatch.setattr(lattice, "event_violations", scanned)
    monkeypatch.setattr(lattice, "layer", counted)
    # --blue-free and --red-bound read the oversubscribed tops and the
    # undersupplied bottoms off the family's cached violations instead of
    # scanning the conditions again.  The family is valid, so every 3-set
    # lies under two members, and that one scan does not walk their layer.
    code, cert = run_cli(
        capsys, "verify", "--coloring", str(out), "--conditions", "--blue-free", "4",
        "--red-bound", "12,4",
    )
    assert code == 0
    assert cert["result"]["blue_free"]["ok"] and cert["result"]["red_bound"]["ok"]
    assert scans == [(16, 4)] and calls == []


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


def test_verify_distance_past_its_key_work_is_usage(tmp_path, capsys, monkeypatch):
    # six 20-sets over [22] at bound 20: C(20, 11) keys a member, 1,007,760 in
    # all, refused before the pass takes its first combination
    from latticeramsey import verifier

    def unreached(*args):
        raise AssertionError("the pass started")

    monkeypatch.setattr(verifier, "combinations", unreached)
    extra = [(1 << 22) - 1 ^ 3 << i for i in range(6)]
    path = tmp_path / "w20.json"
    path.write_text(dumps(Coloring.structured(22, blue_layers={0}, blue_extra=extra)))
    assert main(["verify", "--coloring", str(path), "--distance", "20"]) == 2
    assert usage_error_line(capsys) == (
        "error: 1007760 subset keys, 6 members of C(20,11) each, exceed 1e+06\n"
    )


def test_construct_pairs_writes_the_pair_code_coloring(tmp_path, capsys):
    from latticeramsey.constructions import induced_q2_coloring

    out = tmp_path / "pairs.json"
    code, cert = run_cli(capsys, "construct", "pairs", "--n", "18", "-o", str(out))
    want = induced_q2_coloring(18).to_obj()
    assert code == 0
    assert cert["result"]["assignments"] == 380
    assert cert["result"]["coloring"] == want
    assert out.read_text() == json.dumps(want, sort_keys=True) + "\n"


def test_constructions_and_code_statement_keep_their_bytes(tmp_path, capsys):
    # digests of the -o files and of the statement's result as first written;
    # faster constructions and certifiers must reproduce them byte for byte
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    pinned = {
        ("construct", "pairs", "--n", "18"):
            "d9f358257060064ec74ce2231c647023e9da3ce6fdadf5b3aa69c6023e9d7776",
        ("construct", "lll", "--n", "24", "--m", "4", "--p-incl", "0.07", "--seed", "6"):
            "c0001c1ccd2711d69525e305857e09eb23ecde97f8920bddf77477e45d7fc897",
    }
    out = tmp_path / "coloring.json"
    for argv, digest in pinned.items():
        assert main([*argv, "-o", str(out)]) == 0
        capsys.readouterr()
        assert sha(out.read_text(encoding="utf-8")) == digest, argv
    code, cert = run_cli(
        capsys, "verify", "--coloring", str(out), "--code-statement", "36,2,17,37,37"
    )
    assert code == 0
    assert sha(json.dumps(cert["result"], sort_keys=True)) == (
        "6114e516d6345d7ddc24bfd42209fa069081d85d6293ccd6a0849316d2be736f"
    )


def test_code_subcommand(capsys):
    code, cert = run_cli(
        capsys,
        "code", "--n", "34", "--m", "2", "--avoid", "35,36", "--y", "35",
    )
    assert code == 0
    member = cert["result"]["member"]
    assert len(member) == 18 and sum(member) % 37 == 0


@pytest.mark.parametrize("y", ["0", "-3"])
def test_code_with_y_outside_the_ground_is_usage(capsys, y):
    assert main(["code", "--n", "34", "--m", "2", "--avoid", "35,36", "--y", y]) == 2
    assert f"y = {y} outside" in usage_error_line(capsys)


def test_verify_code_statement(tmp_path, capsys):
    from latticeramsey.lattice import Coloring

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
    assert cert["seeds"] == {"master": 1, "family": 11990938716539812860}
    assert cert["result"] == {
        "construction": "lll",
        "default_density": 0.10649638629044372,
        "density": 0.1,
        "resamples": 2,
        "violations": 330,
    }


def test_unknown_subcommand_is_usage(capsys):
    assert main(["nonsense"]) == 2
    usage_error_line(capsys)


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_empty_scan_range_is_usage(capsys, max_n):
    assert main(["ramsey", "--m", "1", "--n", "1", "--kind", "weak", f"--max-N={max_n}"]) == 2
    assert "max_N" in usage_error_line(capsys)


@pytest.mark.parametrize("m, n", [(9, 8), (1, 16)])
def test_layered_witness_over_the_cap_is_usage(capsys, m, n):
    # the layered witness is searched on the whole of Q_{m+n-1}, whatever
    # --max-N is; past the cap the run is refused before any search
    from latticeramsey.oracle import MAX_LAYERED_GROUND

    assert m + n - 1 == MAX_LAYERED_GROUND + 1
    start = time.monotonic()
    assert main(["ramsey", "--m", str(m), "--n", str(n), "--kind", "weak", "--max-N", "1"]) == 2
    assert time.monotonic() - start < 1
    assert f"m + n - 1 <= {MAX_LAYERED_GROUND}" in usage_error_line(capsys)


def test_layered_witness_at_the_cap_is_refuted_by_the_height_peel(capsys):
    # The witness is Q_15; its red side is 13 sets tall where Q_14 needs 15.
    # With the whole order of Q_15 built first, this run ended in a
    # MemoryError traceback and exit 1 under a 2.5 GB address-space limit.
    start = time.monotonic()
    argv = ["ramsey", "--m", "2", "--n", "14", "--kind", "weak", "--max-N", "1"]
    code, cert = run_cli(capsys, *argv)
    assert time.monotonic() - start < 1
    assert code == 0
    assert cert["result"]["layered_lower_bound"] == 16


def test_pattern_past_the_plan_cap_is_usage(tmp_path, capsys):
    # All of Q_15 is red, so Q_14 passes the height peel; its pattern plan
    # would hold O(4^14) ints, and the run ended in a MemoryError traceback
    from latticeramsey.lattice import Coloring
    from latticeramsey.oracle import MAX_PATTERN_DIM

    path = tmp_path / "red15.json"
    path.write_text(dumps(Coloring.structured(15, blue_layers=set())))
    start = time.monotonic()
    assert main(["verify", "--coloring", str(path), "--ramsey", "1,14"]) == 2
    assert time.monotonic() - start < 1
    assert f"at most {MAX_PATTERN_DIM}" in usage_error_line(capsys)


def test_pair_code_over_the_ground_cap_is_usage(capsys):
    # ground n + 2 = 72; the greedy scan once ran past 20 s before the
    # coloring refused the ground
    start = time.monotonic()
    assert main(["construct", "pairs", "--n", "70"]) == 2
    assert time.monotonic() - start < 1
    assert "ground size 72 outside [0, 64]" in usage_error_line(capsys)


def test_dense_lll_first_sample_is_usage(capsys):
    # about 7.1M oversubscribed 7-sets expected; the run once took 75 s and
    # 2.0 GiB to hold them before its first resample
    start = time.monotonic()
    assert main(["construct", "lll", "--n", "30", "--m", "6", "--p-incl", "0.9"]) == 2
    assert time.monotonic() - start < 1
    assert "oversubscribed 7-sets in the first sample" in usage_error_line(capsys)


def test_ramsey_check_on_q16_is_usage(tmp_path, capsys):
    # coloring_is_ramsey searches the whole cube, whose containment masks
    # take up to 2^(2N)/4 bytes, 1 GiB at N = 16, when a search takes every
    # position; the file is refused before its colors are read
    from latticeramsey.lattice import Coloring
    from latticeramsey.oracle import MAX_LAYERED_GROUND

    path = tmp_path / "q16.json"
    path.write_text(dumps(Coloring.structured(16, blue_layers={0, 8})))
    start = time.monotonic()
    assert main(["verify", "--coloring", str(path), "--ramsey", "2,2"]) == 2
    assert time.monotonic() - start < 1
    assert f"at most {MAX_LAYERED_GROUND}" in usage_error_line(capsys)


def test_malformed_thread_flag_is_usage(capsys):
    assert main(["--threads", "abc", "bound", "--n", "2", "--minimal"]) == 2
    assert "--threads" in usage_error_line(capsys)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "construct" in capsys.readouterr().out


def test_missing_file_is_usage(capsys):
    assert main(["verify", "--coloring", "/nonexistent.json", "--conditions"]) == 2
    capsys.readouterr()


def usage_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("output", ["missing/out.json", "."])
@pytest.mark.parametrize(
    "command",
    [
        "construct layered --m 1 --n 1",
        "embed --coloring {coloring} --n 1 --k 1 --pi 2",
        "ramsey --m 1 --n 1 --kind weak --max-N 2",
        "bound --n 2 --c 6.14",
        "code --n 34 --m 2 --avoid 35,36 --y 35",
    ],
)
def test_unwritable_output_is_usage(capsys, monkeypatch, tmp_path, command, output):
    # a file in a missing directory, or a directory: exit 2, not 1 ("witness
    # found"), and before the run, which may take minutes
    from latticeramsey import cli

    coloring = tmp_path / "q2.json"
    assert main(["construct", "layered", "--m", "1", "--n", "2", "-o", str(coloring)]) == 0
    capsys.readouterr()
    argv = shlex.split(command.format(coloring=coloring)) + ["-o", str(tmp_path / output)]

    def run_anyway(args, cert):
        raise AssertionError(f"{args.cmd} ran before its -o was refused")

    monkeypatch.setitem(cli._HANDLERS, argv[0], run_anyway)
    assert main(argv) == 2
    usage_error_line(capsys)


@pytest.mark.parametrize(
    "statement",
    [
        "10,2,3,0,5",  # p = 0
        "10,2,-1,11,5",  # k < 0
        "10,2,9,11,5",  # k exceeds the N - m elements left after removing Y
        "10,12,3,11,5",  # m > N
        "60,30,12,61,1",  # C(60, 30) sets Y, past ENUMERATION_LIMIT
        "45,5,20,47,1",  # C(45, 5) sets Y, the first N past it at m = 5
        "40,5,17,41,1",  # 1.3e8 table steps, C(40,5)m(k+1) + C(40,4)(k+1)p
        "34,4,14,47,1",  # 7,001,280 table steps, the least past the limit
    ],
)
def test_bad_code_statement_is_usage(tmp_path, capsys, statement):
    from latticeramsey.lattice import Coloring

    path = tmp_path / "any.json"
    path.write_text(dumps(Coloring.structured(5, blue_layers={1})))
    argv = ["verify", "--coloring", str(path), "--code-statement", statement]
    assert main(argv) == 2
    usage_error_line(capsys)


def test_code_statement_priced_by_its_lookups_runs(tmp_path, capsys):
    # 5.4e6 steps of lookups and top-part tables; one table per avoided set
    # would be 2.0e7, which was refused
    path = tmp_path / "any.json"
    path.write_text(dumps(Coloring.structured(5, blue_layers={1})))
    argv = ["verify", "--coloring", str(path), "--code-statement", "34,4,14,29,1"]
    assert main(argv) == 0
    result = json.loads(capsys.readouterr().out)["result"]["code_statement"]
    assert result["ok"] and result["pairs_checked"] == 185504  # C(34, 4) sets Y, 4 pairs each


@pytest.mark.parametrize(
    "construct, verify",
    [
        (["pairs", "--n", "12"], None),  # the greedy scan sticks below n = 18
        (["layered", "--m", "1", "--n", "1"], ["--blue-free", "1"]),  # no known shape
        (["modp", "--n", "34", "--m", "2"], ["--red-bound", "34,2"]),  # not low-block
    ],
)
def test_construction_and_shape_errors_are_usage(tmp_path, capsys, construct, verify):
    path = str(tmp_path / "c.json")
    code = main(["construct", *construct, "-o", path])
    if verify is not None:
        assert code == 0
        capsys.readouterr()
        code = main(["verify", "--coloring", path, *verify])
    assert code == 2
    usage_error_line(capsys)


def test_verify_reads_the_partial_layer_of_a_code_coloring(tmp_path, capsys):
    # the low-block coloring of test_low_block_certifiers_read_a_blue_code:
    # its partial layer is a weight-3 code mod 2, which enumerates
    from latticeramsey.lattice import Coloring, WeightedFamily, elements_of
    from naive import naive_check_conditions

    fam = WeightedFamily(7, 3, modp_p=2, modp_d=1)
    path = tmp_path / "code.json"
    path.write_text(dumps(Coloring.structured(7, blue_layers={0, 1, 4}, blue_code=fam)))
    argv = ["verify", "--coloring", str(path), "--conditions", "--blue-free", "3"]
    code, cert = run_cli(capsys, *argv, "--red-bound", "4,3")
    assert code == 1 and cert["result"]["blue_free"]["ok"] is False
    explicit = WeightedFamily(7, 3, members=tuple(fam.enumerated_members()))
    violations = naive_check_conditions(explicit)
    assert violations and cert["result"]["conditions"] == {
        "ok": False,
        "violations": [
            {"kind": kind, "set": elements_of(s), "count": cnt} for kind, s, cnt in violations
        ],
    }


@pytest.mark.parametrize("check", [["--conditions"], ["--distance", "4"], ["--blue-free", "3"]])
def test_code_plus_extras_coloring_is_usage(tmp_path, capsys, check):
    from latticeramsey.lattice import Coloring, WeightedFamily, mask_of

    fam = WeightedFamily(7, 3, modp_p=2, modp_d=1)
    extra = [mask_of([1, 2])]
    col = Coloring.structured(7, blue_layers={0, 1, 4}, blue_extra=extra, blue_code=fam)
    path = tmp_path / "mixed.json"
    path.write_text(dumps(col))
    assert main(["verify", "--coloring", str(path), *check]) == 2
    assert "single-weight" in usage_error_line(capsys)


@pytest.mark.parametrize(
    "partial",
    [{"blue_extra": [[]]}, {"blue_modp": {"weight": 0, "p": 3, "d": 1}}],
)
def test_weight_zero_partial_layer_conditions_are_usage(tmp_path, capsys, partial):
    path = tmp_path / "w0.json"
    path.write_text(json.dumps({"n": 4, "repr": "structured", "blue_layers": [2], **partial}))
    assert main(["verify", "--coloring", str(path), "--conditions"]) == 2
    assert "weight 0" in usage_error_line(capsys)


@pytest.mark.parametrize(
    "check, message",
    [
        (["--red-bound", "1,2,3"], "error: --red-bound needs n,m\n"),
        ([], "error: no verification requested\n"),
    ],
)
def test_verify_without_a_well_formed_check_is_usage(tmp_path, capsys, check, message):
    path = tmp_path / "q2.json"
    path.write_text(dumps(Coloring.structured(2, blue_layers={1})))
    assert main(["verify", "--coloring", str(path), *check]) == 2
    assert usage_error_line(capsys) == message


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--coloring", "{q2}", "--ramsey", "-1,2"], "pattern dimension must be >= 0"),
        (["verify", "--coloring", "{q9}", "--red-bound", "-2,2"], "red bound n = -2 is negative"),
        (
            ["verify", "--coloring", "{q2}", "--code-statement", "-36,2,17,37,37"],
            "ground size -36 is negative",
        ),
        (["embed", "--coloring", "{q2}", "--n", "1", "--k", "1", "--pi", "-1,2"], "not a bijection"),
        (["code", "--n", "34", "--m", "2", "--y", "2", "--avoid", "-1,2"], "element -1 outside [1, 64]"),
        (
            ["construct", "layered", "--m", "2", "--n", "3", "--blue-layers", "-1,2"],
            "blue layer -1 outside [0, 4]",
        ),
    ],
)
def test_list_value_starting_with_a_minus_reaches_its_check(tmp_path, capsys, argv, message):
    # argparse takes a separate "-1,2" for an option, not for the value of the
    # one before it; written apart or with "=", the value must reach its check.
    paths = {"q2": tmp_path / "q2.json", "q9": tmp_path / "q9.json"}
    paths["q2"].write_text(dumps(Coloring.structured(2, blue_layers={1})))
    paths["q9"].write_text(dumps(low_block_q9()))
    argv = [arg.format(**paths) for arg in argv]
    lines = []
    for form in (argv, [*argv[:-2], f"{argv[-2]}={argv[-1]}"]):
        assert main(form) == 2
        lines.append(usage_error_line(capsys))
    assert lines[0] == lines[1] and message in lines[0]
    assert "expected one argument" not in lines[0]


def test_list_option_missing_its_value_is_named(tmp_path, capsys):
    path = tmp_path / "q2.json"
    path.write_text(dumps(Coloring.structured(2, blue_layers={1})))
    assert main(["verify", "--ramsey", "--coloring", str(path)]) == 2
    assert "argument --ramsey: expected one argument" in usage_error_line(capsys)


def test_exhausted_scan_exits_three(capsys, monkeypatch):
    from latticeramsey import oracle

    monkeypatch.setattr(oracle, "_scan_ground", _search_exhausted)
    code, cert = run_cli(capsys, "ramsey", "--m", "1", "--n", "1", "--kind", "weak")
    assert (code, cert["outcome"]) == (3, "exhausted")
    assert cert["result"]["status"] == "exhausted"
    assert cert["result"]["value"] is None and cert["result"]["layered_lower_bound"] == 2


_LOW_BLOCK_64 = {"n": 64, "repr": "structured", "blue_layers": [*range(31), 33]}


@pytest.mark.parametrize(
    "argv, message",
    [
        # the (m-1)-sets of a 32-set family over [64]: C(64, 31), about 1.8e18
        (["verify", "--coloring", "{one_set}", "--conditions"], "layer C(64,31) too large"),
        (["verify", "--coloring", "{low_block}", "--blue-free", "32"], "layer C(64,31) too large"),
        (["verify", "--coloring", "{low_block}", "--red-bound", "32,32"], "layer C(64,31) too large"),
        # the resampler's first sample: C(60, 30), about 1.2e17 m-sets
        (["construct", "lll", "--n", "30", "--m", "30", "--max-resamples", "1"], "layer C(60,30) too large"),
        # a modulus outside [36, 70) is refused before trial division
        (
            ["construct", "modp", "--n", "34", "--m", "2", "--p", "1000000000000000003"],
            "modulus 1000000000000000003 outside [36, 70)",
        ),
    ],
)
def test_runs_that_would_not_finish_are_usage(tmp_path, capsys, argv, message):
    extra = {"blue_extra": [list(range(1, 33))]}
    paths = {"one_set": tmp_path / "one_set.json", "low_block": tmp_path / "low_block.json"}
    paths["one_set"].write_text(json.dumps({"n": 64, "repr": "structured", **extra}))
    paths["low_block"].write_text(json.dumps({**_LOW_BLOCK_64, **extra}))
    start = time.monotonic()
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert time.monotonic() - start < 2
    assert message in usage_error_line(capsys)


def _search_exhausted(*args):
    raise SearchExhausted(7)


@pytest.mark.parametrize(
    "outcome, code, command, exhaust_oracle",
    [
        ("ok", 0, "bound --n 2 --minimal", False),
        ("witness", 1, "verify --coloring {blue} --ramsey 1,1", False),
        ("unknown", 0, "ramsey --m 2 --n 2 --kind weak --max-N 3", False),
        ("exhausted", 3, "construct lll --n 12 --m 4 --p-incl 0.1 --max-resamples 2 -o {out}",
         False),
        ("exhausted", 3, "verify --coloring {blue} --ramsey 1,1", True),
    ],
    ids=["ok", "witness", "unknown", "exhausted-construct", "exhausted-verify"],
)
def test_each_outcome_maps_to_its_exit_code(
    tmp_path, monkeypatch, capsys, outcome, code, command, exhaust_oracle
):
    from latticeramsey import cli
    from latticeramsey.lattice import Coloring

    blue, out = tmp_path / "allblue.json", tmp_path / "out.json"
    blue.write_text(dumps(Coloring.dense(2, range(4))))
    if exhaust_oracle:
        monkeypatch.setattr(cli, "coloring_is_ramsey", _search_exhausted)
    got, cert = run_cli(capsys, *command.format(blue=blue, out=out).split())
    assert (got, cert["outcome"]) == (code, outcome) and cli.EXIT_CODES[outcome] == code
    # an exhausted construct has no coloring: -o stays unwritten, the certificate is on stdout
    assert not out.exists()
    if exhaust_oracle:
        assert cert["result"] == {"error": "search exhausted after 7 nodes"}


@pytest.mark.parametrize("threads", ["2", "0", "1000"])
def test_thread_flag_changes_no_result(capsys, threads):
    # --threads is accepted and ignored; (3,3) weak first avoids both copies
    # at N = 4 with coloring 279
    argv = ["ramsey", "--m", "3", "--n", "3", "--kind", "weak", "--max-N", "4"]
    code, plain = run_cli(capsys, *argv)
    code2, flagged = run_cli(capsys, "--threads", threads, *argv)
    assert code == code2 == 0
    assert flagged["result"] == plain["result"]
    assert plain["result"]["counterexamples"]["4"] == 279


def test_cli_imports_neither_numpy_nor_mpmath():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from latticeramsey.cli import main\n"
        "assert main(['bound', '--n', '2', '--minimal']) == 0\n"
        "assert main(['--threads', '2', 'ramsey', '--m', '3', '--n', '2', '--kind', 'weak', '--max-N', '4']) == 0\n"
        "print(sorted(set(sys.modules) & {'numpy', 'mpmath', 'multiprocessing'}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 3, "repr": "structured", "blue_layers": "ab"},
        {"n": 3, "repr": "dense", "blue_hex": 5},
        {"n": 5, "repr": "structured", "blue_layers": [6]},
        [1, 2],
        {"n": 2, "repr": "dense", "blue_hex": "zz"},
        {"n": 2, "repr": "dense", "blue_hex": "ff00"},
        {"n": 6, "repr": "structured", "blue_extra": [[0]]},
        {"n": 2, "repr": "structured", "blue_extra": [[1, 1]]},
        {"n": 2, "repr": "structured", "blue_extra": [[2, 1]]},
    ],
)
def test_malformed_coloring_file_is_usage(tmp_path, capsys, obj):
    # every refusal of the file's contents names the file
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", "--coloring", str(path), "--ramsey", "1,1"]) == 2
    assert usage_error_line(capsys).startswith(f"error: {path}: ")


def test_deeply_nested_coloring_file_is_usage(tmp_path, capsys):
    # json.loads runs out of stack on this; exit 1 would claim a witness
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert main(["verify", "--coloring", str(path), "--ramsey", "1,1"]) == 2
    assert usage_error_line(capsys) == f"error: {path}: JSON nested too deeply\n"


@pytest.mark.parametrize(
    "data, message",
    [
        (b'{"n": 5, ', "Expecting property name enclosed in double quotes"),
        (b'{"n": 5}\xff', "'utf-8' codec can't decode byte 0xff"),
    ],
)
def test_undecodable_coloring_file_names_the_file(tmp_path, capsys, data, message):
    path = tmp_path / "broken.json"
    path.write_bytes(data)
    assert main(["verify", "--coloring", str(path), "--ramsey", "1,1"]) == 2
    assert usage_error_line(capsys).startswith(f"error: {path}: {message}")


@pytest.mark.parametrize(
    "obj, field",
    [
        ({"n": 5}, "repr"),
        ({"n": 5, "repr": "structured", "blue_modp": {"p": 7, "d": 1}}, "blue_modp.weight"),
    ],
)
def test_missing_coloring_field_names_the_file_and_the_field(tmp_path, capsys, obj, field):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", "--coloring", str(path), "--ramsey", "1,1"]) == 2
    assert usage_error_line(capsys) == f"error: {path}: missing field {field}\n"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.text("abdensu", max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("np", max_size=2), inner),
    max_leaves=6,
)


@st.composite
def _coloring_objs(draw):
    """A coloring of Q_n, n <= 5, as JSON: dense, or structured with its blue
    sets off the layers on one layer w, often in a construction shape on Q_5;
    it may still be invalid (say, no extras at all)."""
    n = draw(st.integers(0, 5))
    if draw(st.integers(0, 2)) == 0:
        bits = draw(st.integers(0, (1 << (1 << n)) - 1)).to_bytes(((1 << n) + 7) // 8, "little")
        return {"n": n, "repr": "dense", "blue_hex": bits.hex()}
    if draw(st.booleans()):  # spread (m = 2) or low-block layers around layer w
        n, w = 5, draw(st.sampled_from([2, 3]))
        layers = draw(st.sampled_from([{w - 1, w + 2}, set(range(w - 1)) | {w + 1}]))
    else:
        w = draw(st.integers(0, n))
        layers = draw(st.sets(st.integers(0, n))) - {w}
    obj = {"n": n, "repr": "structured", "blue_layers": sorted(layers)}
    if draw(st.booleans()):
        p = draw(st.integers(2, 7))
        obj["blue_modp"] = {"weight": w, "p": p, "d": draw(st.integers(1, p))}
    else:
        sets = [elements_of(s) for s in layer(n, w)]
        obj["blue_extra"] = draw(st.lists(st.sampled_from(sets), max_size=8, unique_by=tuple))
    return obj


@st.composite
def _damaged(draw, obj):
    """obj with one field dropped or replaced by any JSON value."""
    key = draw(st.sampled_from(sorted(obj)))
    rest = {k: v for k, v in obj.items() if k != key}
    return rest if draw(st.booleans()) else {**rest, key: draw(_JSON)}


_COLORING_JSON = _coloring_objs() | _coloring_objs().flatmap(_damaged) | _JSON
_CHECKS = st.sampled_from([
    ["--red-bound", "3,2"], ["--blue-free", "2"], ["--conditions"], ["--ramsey", "1,1"],
    ["--red-bound", "2,3"], ["--blue-free", "3"], ["--distance", "4"], ["--ramsey", "0,2"],
    ["--code-statement", "6,2,1,7,3"], ["--ramsey", "2,1", "--kind", "induced"],
])


def _holds_witness(check: dict) -> bool:
    if "neither" in check:  # --ramsey
        return check["blue_witness"] is not None or check["red_witness"] is not None
    return check.get("witness") is not None or bool(check.get("violations"))


@settings(max_examples=300, deadline=None)
@given(obj=_COLORING_JSON, check=_CHECKS)
def test_verify_on_arbitrary_coloring_json_exits_cleanly(tmp_path_factory, obj, check):
    path = tmp_path_factory.getbasetemp() / "fuzz-coloring.json"
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--coloring", str(path), *check])
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    elif code != 3:
        checks = json.loads(out.getvalue())["result"]
        # exit 1 exactly when some check carries a witness or violations
        assert (code == 1) == any(map(_holds_witness, checks.values()))


def assert_exits_cleanly(argv: list[str]) -> None:
    """Run main(argv): an exit code in {0,1,2,3}, on exit 2 one `error:` line
    and no stdout, otherwise a certificate whose outcome matches the code
    (exit 0 is "ok", or "unknown" for a threshold above the scanned range)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        outcomes = {0: ("ok", "unknown"), 1: ("witness",), 3: ("exhausted",)}[code]
        assert json.loads(out.getvalue())["outcome"] in outcomes


@st.composite
def _embed_argv(draw, path: str, ground: int) -> list[str]:
    """An embed command line on a coloring of Q_ground: sizes that often add
    up to the ground, sometimes one of them spoiled or dropped, then up to two
    of --pi (often a true permutation), --all, --sample and --seed."""
    n = draw(st.integers(-1, ground + 1))
    k = ground - n if draw(st.booleans()) else draw(st.integers(-2, 6))
    sizes = {"--n": str(n), "--k": str(k)}
    if draw(st.integers(0, 3)) == 0:
        sizes[draw(st.sampled_from(sorted(sizes)))] = draw(
            st.sampled_from([None, "", "x", "2.0", "99"])
        )
    top = list(range(n + 1, n + max(k, 0) + 1))
    pi = st.permutations(top) | st.lists(st.integers(-1, 8), max_size=6)
    modes = st.one_of(
        pi.map(lambda image: ["--pi", ",".join(map(str, image))]),
        st.sampled_from([["--pi", text] for text in ("", " ", ",", "4,,5", "a,b", "3 4")]),
        st.just(["--all"]),
        st.integers(-2, 12).map(lambda count: ["--sample", str(count)]),
        st.integers(-3, 3).map(lambda seed: ["--seed", str(seed)]),
    )
    argv = ["embed", "--coloring", path]
    argv += [token for flag, value in sizes.items() if value is not None for token in (flag, value)]
    for mode in draw(st.lists(modes, min_size=min(draw(st.integers(0, 3)), 1), max_size=2)):
        argv += mode
    return argv


@settings(max_examples=300, deadline=None)
@given(ground=st.integers(0, 5), structured=st.booleans(), seed=st.integers(0, 2**16), data=st.data())
def test_embed_on_arbitrary_arguments_exits_cleanly(tmp_path_factory, ground, structured, seed, data):
    from latticeramsey.lattice import Coloring

    rng = random.Random(seed)
    coloring = Coloring.dense(ground, [s for s in range(1 << ground) if rng.random() < 0.2])
    if structured:
        coloring = Coloring.structured(ground, {rng.randrange(ground + 1)})
    path = tmp_path_factory.getbasetemp() / "fuzz-embed.json"
    path.write_text(dumps(coloring))
    assert_exits_cleanly(data.draw(_embed_argv(str(path), ground)))


@pytest.mark.parametrize("n, k, sample", [("1", "12", "200000"), ("1", "2000000", "1")])
def test_oversized_sample_sweep_is_refused_before_drawing(tmp_path, capsys, n, k, sample):
    from latticeramsey.lattice import Coloring

    path = tmp_path / "q3.json"
    path.write_text(dumps(Coloring.dense(3, [1, 6])))
    start = time.monotonic()
    assert main(["embed", "--coloring", str(path), "--n", n, "--k", k, "--sample", sample]) == 2
    assert time.monotonic() - start < 1
    usage_error_line(capsys)


def _flags(values: dict) -> list[str]:
    """Each flag as flag=value, or dropped when the value is None."""
    return [f"{flag}={value}" for flag, value in values.items() if value is not None]


@st.composite
def _code_argv(draw) -> list[str]:
    """A code command line: often a valid one (n >= 34, m in 2..4, the top m
    elements avoided and y one of them), else sizes and sets drawn freely;
    --k and --d often at their defaults, and sometimes one value spoiled or
    dropped."""
    if draw(st.booleans()):
        n, m = draw(st.integers(34, 60)), draw(st.integers(2, 4))
        avoid = list(range(n + 1, n + m + 1))
        y = draw(st.sampled_from(avoid))
    else:
        n, m = draw(st.integers(-1, 40)), draw(st.integers(-1, 5))
        avoid = draw(st.lists(st.integers(-1, n + m + 2), max_size=6))
        y = draw(st.integers(-3, n + m + 2))
    values = {
        "--n": str(n),
        "--m": str(m),
        "--k": draw(st.none() | st.integers(-2, 70).map(str)),
        "--d": draw(st.none() | st.integers(-2, 70).map(str)),
        "--avoid": ",".join(map(str, avoid)),
        "--y": str(y),
    }
    if draw(st.integers(0, 3)) == 0:
        values[draw(st.sampled_from(sorted(values)))] = draw(
            st.sampled_from([None, "", "x", "1.5", "3,,4"])
        )
    return ["code", *_flags(values)]


@settings(max_examples=300, deadline=None)
@given(argv=_code_argv())
def test_code_on_arbitrary_arguments_exits_cleanly(argv):
    assert_exits_cleanly(argv)


@st.composite
def _bound_argv(draw) -> list[str]:
    """A bound command line with --n up to 10^11, any float --c (or none) and
    --minimal on or off, sometimes with a value spoiled or dropped."""
    values = {
        "--n": str(draw(st.integers(-2, 10**11) | st.integers(-2, 64))),
        "--c": draw(st.none() | st.floats().map(repr) | st.floats(-10, 10).map(repr)),
    }
    if draw(st.integers(0, 4)) == 0:
        values[draw(st.sampled_from(sorted(values)))] = draw(st.sampled_from([None, "", "x", "1e", "2.5"]))
    argv = ["bound", *_flags(values)]
    return argv + ["--minimal"] if draw(st.booleans()) else argv


@settings(max_examples=300, deadline=None)
@given(argv=_bound_argv())
def test_bound_on_arbitrary_arguments_exits_cleanly(argv):
    assert_exits_cleanly(argv)


@st.composite
def _construct_argv(draw) -> list[str]:
    """A construct command line with --m up to 4 and at most 200 resamples:
    often only sizes in the variant's working range (--n up to 12 for layered
    and lll), else --n up to 12 and every value drawn freely (any float
    --p-incl, no valid variant) and sometimes one of them spoiled or dropped."""
    n_range = {"layered": (1, 12), "lll": (1, 12), "modp": (34, 40), "pairs": (18, 20)}
    variant = draw(st.sampled_from(sorted(n_range)))
    if draw(st.booleans()):
        values = {
            "--n": str(draw(st.integers(*n_range[variant]))),
            "--m": str(draw(st.integers(1, 4))),
            "--max-resamples": str(draw(st.integers(0, 200))),
        }
        return ["construct", variant, *_flags(values)]
    values = {
        "--n": str(draw(st.integers(-2, 12))),
        "--m": draw(st.none() | st.integers(-1, 4).map(str)),
        "--k": draw(st.none() | st.integers(-1, 6).map(str)),
        "--d": draw(st.none() | st.integers(-1, 6).map(str)),
        "--p": draw(st.none() | st.integers(-1, 13).map(str)),
        "--blue-layers": draw(
            st.none() | st.lists(st.integers(-1, 16), max_size=4).map(lambda ls: ",".join(map(str, ls)))
        ),
        "--seed": draw(st.none() | st.integers(-3, 3).map(str)),
        "--p-incl": draw(st.none() | st.floats().map(repr)),
        "--max-resamples": str(draw(st.integers(-1, 200))),
    }
    if draw(st.integers(0, 3)) == 0:
        values[draw(st.sampled_from(sorted(values)))] = draw(
            st.sampled_from([None, "", "x", "1.5", "3,,4"])
        )
    return ["construct", draw(st.sampled_from([variant, "other"])), *_flags(values)]


@settings(max_examples=300, deadline=None)
@given(argv=_construct_argv())
def test_construct_on_arbitrary_arguments_exits_cleanly(argv):
    assert_exits_cleanly(argv)


@st.composite
def _ramsey_argv(draw) -> list[str]:
    """A ramsey command line with --max-N at most 3: often a valid one with m
    and n at most 6, else values drawn freely (16 is past the layered cap)
    and sometimes one of them spoiled or dropped."""
    if draw(st.booleans()):
        dims = st.integers(1, 6)
        kind, max_n = st.sampled_from(["weak", "induced"]), st.integers(1, 3).map(str)
    else:
        dims = st.integers(-1, 6) | st.just(16)
        kind, max_n = st.sampled_from(["weak", "induced", "strong"]), st.none() | st.integers(-1, 3).map(str)
    values = {
        "--m": str(draw(dims)),
        "--n": str(draw(dims)),
        "--kind": draw(kind),
        "--max-N": draw(max_n),
    }
    if draw(st.integers(0, 3)) == 0:
        values[draw(st.sampled_from(sorted(values)))] = draw(st.sampled_from([None, "", "x", "1.5"]))
    return ["ramsey", *_flags(values)]


@settings(max_examples=300, deadline=None)
@given(argv=_ramsey_argv())
def test_ramsey_on_arbitrary_arguments_exits_cleanly(argv):
    assert_exits_cleanly(argv)


README = Path(__file__).resolve().parents[1] / "README.md"
# -o names the certificate file for these subcommands
CERT_OUTPUT_COMMANDS = {"embed", "ramsey", "bound", "code"}
# embed runs at n <= 8 on seeded colorings: one that fails, one that succeeds
EMBED_EXAMPLES = [
    ["embed", "--coloring", "dense.json", "--n", "8", "--k", "3", "--pi", "11,9,10"],
    ["embed", "--coloring", "sparse.json", "--n", "8", "--k", "3", "--pi", "10,11,9"],
    ["embed", "--coloring", "dense.json", "--n", "8", "--k", "3", "--all"],
    ["embed", "--coloring", "sparse.json", "--n", "8", "--k", "3", "--all"],
    ["embed", "--coloring", "dense.json", "--n", "8", "--k", "3", "--sample", "4", "--seed", "5"],
]


def readme_examples() -> list[list[str]]:
    lines = README.read_text(encoding="utf-8").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("latticeramsey ")]


def write_seeded_colorings():
    from latticeramsey.lattice import Coloring

    rng = random.Random(8)
    for name, density in (("dense.json", 0.3), ("sparse.json", 0.005)):
        blue = [s for s in range(1 << 11) if rng.random() < density]
        Path(name).write_text(dumps(Coloring.dense(11, blue)))


_WALL_CLOCK = re.compile(r'  "wall_clock_s": [^\n]*\n')
_COMMAND = re.compile(r'  "command": \[[^\]]*\],\n')


def without_run_fields(text: str) -> str:
    """Certificate text minus the wall clock and the command line."""
    return _COMMAND.sub("", _WALL_CLOCK.sub("", text))


# sha256 of without_run_fields(certificate) for each README example and each
# EMBED_EXAMPLES entry, in order; any change to a certificate's bytes shows here
CERT_SHA256 = {
    "bound --n 2 --c 6.14": "4e990881089eb616a5f8be8b71e7ca3b7a1d195ea3e431619d1de0056d1262e3",
    "bound --n 100000 --minimal": "8bf03ae8928aff92af938c46a6f967db9e6323435352b0b67219c28239a20f8d",
    "construct layered --m 1 --n 1 -o c.json": "adea2784f8dccd6fb002a6b3f5875db357aff0df41970e07245e2738f5f7e209",
    "verify --coloring c.json --ramsey 1,1 --kind weak": "12e76f3abfe27e7d0bddc37d0ee4a43a163bb7a214b467b82a52a18be36bae82",
    "construct pairs --n 18 -o pairs.json": "a1efc8bb68963c2684f572e8d4b8111155b81970583e4e353078eba5180d5961",
    "verify --coloring pairs.json --blue-free 2": "a01ee9b6677472e831c3a21971bee352f8f955f3476502a3701b629675bcbd16",
    "construct modp --n 34 --m 2 -o modp.json": "fe55527ff03ba2163c4db7df2040a36cde8541aaf21dba7c782fa75e7161b46d",
    "verify --coloring modp.json --code-statement 36,2,17,37,37": "a8028bf41b5d28a3f060449e8b770b9cd19c7b596bde300f035d55b2c79433bd",
    "code --n 34 --m 2 --avoid 35,36 --y 35": "b8c57a4496517374f5d40eac3868d76bdee7bb7fd7a8231636fd9603892bfaa5",
    "construct lll --n 40 --m 4 --p-incl 0.06 --seed 1 -o lll.json": "d73ccbea106f267e465b23bc8d548e7c53d289cd3a4ddd1ba14122592e8ac3b5",
    "verify --coloring lll.json --conditions --blue-free 4 --red-bound 40,4": "4b924cd9725e33d800dd7db0a09e8ff5bfd67b5eb18b26696ec3a7aa387a0e88",
    "construct layered --m 2 --n 3 --blue-layers 1,2 -o q4.json": "5d9d64babe9f3fc3a2b5d7726133bc7d87792e3c76307e8fc2771aecdb51fb76",
    "embed --coloring q4.json --n 2 --k 2 --pi 4,3": "0fc66758bae4c0e66fefce7cff42077825f7d120dd88db33569b8d2aa9844156",
    "embed --coloring q4.json --n 2 --k 2 --all": "32a57bb0835066306dcdf5eb1deda3b905bcea78c80497d3c052197f0edc1428",
    "ramsey --m 1 --n 1 --kind induced --max-N 4": "9bf3a975040e1ce4f5eef5541d968e3d20fa7dfa70aeff84eda4b883fa45144c",
    "ramsey --m 2 --n 2 --kind weak --max-N 4": "364a31ffc6095894f3c5854c66bc458b9d2fa47bf8d5a7384dc6daadf3a758b7",
    "embed --coloring dense.json --n 8 --k 3 --pi 11,9,10": "02506570984c886921f20359cecb2eb05397db14ebeb6042f11ea12bb7571970",
    "embed --coloring sparse.json --n 8 --k 3 --pi 10,11,9": "a1a66bac6c7d7e74da0b7a2473c470d520dc98eae5841559888ddb6eb3991ad6",
    "embed --coloring dense.json --n 8 --k 3 --all": "de7488ae84f69a684e762c044e42919a10ec01d001ea3975ab3ee32ea2076a0f",
    "embed --coloring sparse.json --n 8 --k 3 --all": "b0106fa10696d0f7b8099d509b2277625b89a1787d74c57ee7fba768d5a0c5a9",
    "embed --coloring dense.json --n 8 --k 3 --sample 4 --seed 5": "d333ec751d4a80d3c29b9b073663d8efe9e65a8ec6c2a8c92ef06b8ce5ca929f",
}


def test_certificates_are_canonical_and_match_their_output_files(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    write_seeded_colorings()
    examples = readme_examples()
    assert len(examples) >= 15
    codes = []
    digests = {}
    for argv in examples + EMBED_EXAMPLES:
        code = main(list(argv))
        out = capsys.readouterr().out
        codes.append(code)
        assert code in (0, 1), argv
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
        digests[" ".join(argv)] = hashlib.sha256(without_run_fields(out).encode()).hexdigest()
        if CERT_OUTPUT_COMMANDS & set(argv):
            assert main(argv + ["-o", "cert.json"]) == code
            assert capsys.readouterr().out == ""
            text = Path("cert.json").read_text(encoding="utf-8")
            assert json.loads(text)["command"] == argv + ["-o", "cert.json"]
            assert without_run_fields(text) == without_run_fields(out)
    assert codes[-len(EMBED_EXAMPLES) :] == [1, 0, 1, 0, 1]
    assert digests == CERT_SHA256


def test_one_parser_serves_every_main_call(tmp_path, capsys):
    from latticeramsey import cli
    from latticeramsey.constructions import low_block_layers
    from latticeramsey.lattice import Coloring, WeightedFamily

    assert cli._build_parser() is cli._build_parser()
    path = tmp_path / "low-block.json"
    fam = WeightedFamily(6, 2, modp_p=7, modp_d=1)
    path.write_text(dumps(Coloring.structured(6, low_block_layers(2), blue_code=fam)))
    sizes = ["--coloring", str(path), "--n", "3", "--k", "3"]
    # each run sets options that the next leaves unset, so kept state would show
    runs = [
        ["embed", *sizes, "--sample", "3", "--seed", "5"],
        ["embed", *sizes, "--all"],
        ["verify", "--coloring", str(path), "--ramsey", "1,1", "--kind", "weak"],
        ["verify", "--coloring", str(path), "--blue-free", "2"],
        ["bound", "--n", "2", "--c", "-inf"],
    ]

    def outcome(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, _WALL_CLOCK.sub("", captured.out), captured.err

    shared = [outcome(argv) for argv in runs]
    fresh = []
    for argv in runs:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 1, 0, 2]
