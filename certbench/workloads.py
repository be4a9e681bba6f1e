"""The three certificate-job workloads: inputs from a seed, jobs, output checks.

A workload is a fixed list of jobs (one "round").  The seed fills in the
inputs (colorings, densities, permutations, resampler seeds, avoided sets);
the shape of the list does not depend on it, so rounds cost about the same
for every seed.  Each job calls the package's public API, or ``cli.main``
in-process the way a script would, and returns (exit code or None, output
text).  Each job also has a check that re-derives what it can from the output
with code that does not reuse the machinery it checks.

Jobs look their entry points up through the module at call time
(``cli.main``, ``oracle.exhaustive_ramsey_number``), so a Tracer installed
after the jobs are built still sees every call.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import itertools
import json
import math
import random
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

from latticeramsey import cli, embedder, oracle, verifier
from latticeramsey.lattice import Chain, Coloring, Permutation, mask_of

ROOT = Path(__file__).resolve().parent.parent

Output = tuple[Optional[int], str]


@dataclass
class Job:
    label: str
    run: Callable[[], Output]
    # check(code, text, outputs of every job of the round by label) -> error or None
    check: Callable[[Optional[int], str, dict], Optional[str]]
    tampered: bool = False
    argv: Optional[list[str]] = None  # set for jobs that go through cli.main


def load_naive():
    """tests/naive.py: the repository's independent brute-force oracles."""
    spec = importlib.util.spec_from_file_location("naive", ROOT / "tests" / "naive.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_WALL = re.compile(r'"wall_clock_s": [^,\n}]*')


def normalize(text: str) -> str:
    """Drop the one field certificates may differ in between identical runs."""
    return _WALL.sub('"wall_clock_s": null', text)


def cli_job(label: str, argv: list[str], check) -> Job:
    """A job that runs ``latticeramsey <argv>`` in-process and captures its output."""

    def run() -> Output:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue() + err.getvalue()

    return Job(label, run, check, argv=list(argv))


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# -- independent helpers used by the checks ------------------------------------


def bits_of(elements) -> int:
    return sum(1 << (e - 1) for e in elements)


def dense_lookup(coloring_obj: dict) -> Callable[[int], bool]:
    raw = bytes.fromhex(coloring_obj["blue_hex"])
    return lambda s: bool((raw[s >> 3] >> (s & 7)) & 1)


def by_rank(n: int) -> list[int]:
    """Subsets of [n] by cardinality, then colex (= ascending masks)."""
    return sorted(range(1 << n), key=lambda a: (bin(a).count("1"), a))


def check_success_record(rec: dict, n: int, k: int, blue) -> Optional[str]:
    perm = rec["perm"]
    base = (1 << n) - 1
    for a, (img, lvl) in enumerate(zip(rec["images"], rec["levels"])):
        if img is None or not 0 <= lvl <= k:
            return f"subset {a} has no image in a successful record"
        want = a | bits_of(perm[:lvl])
        if bits_of(img) != want or want & base != a:
            return f"image of {a} is not A plus its permuted prefix"
        if blue(want):
            return f"image of {a} is blue"
    for a in range(1 << n):
        for i in range(n):
            if not a >> i & 1 and rec["levels"][a] > rec["levels"][a | 1 << i]:
                return f"levels not monotone at {a}"
    return None


def check_failure_chain(sets: list, perm: list, n: int, k: int, blue) -> Optional[str]:
    masks = [bits_of(s) for s in sets]
    if len(masks) != k + 1:
        return f"failure chain has {len(masks)} sets, expected {k + 1}"
    if not all(blue(s) for s in masks):
        return "failure chain has a red set"
    got = embedder.recover_permutation(Chain(tuple(masks)), n)
    if got != list(perm):
        return f"chain gives back {got}, not {perm}"
    return None


def valid_copy(images: list, dim: int, induced: bool, side) -> bool:
    """images (sorted element lists) form a copy of Q_dim with every set in side."""
    masks = [bits_of(s) for s in images]
    if len(masks) != 1 << dim or len(set(masks)) != len(masks):
        return False
    if not all(side(s) for s in masks):
        return False
    for q, r in itertools.permutations(range(1 << dim), 2):
        sub = masks[q] & ~masks[r] == 0
        if q & ~r == 0 and not sub:
            return False
        if induced and q & ~r and r & ~q and sub:
            return False
    return True


def expect(code: Optional[int], want: int, text: str) -> Optional[str]:
    if code != want:
        return f"exit code {code}, expected {want}: {text[:200]!r}"
    return None


# -- embed -------------------------------------------------------------------

# (command, n, k, blue-density regime).  Low density: the first permutation
# succeeds after a full level scan.  High density: every permutation fails
# early and failure propagates.  Mid density: failures found late.
EMBED_CLI = [
    ("pi", 13, 3, "low"),
    ("pi", 12, 4, "low"),
    ("pi", 13, 4, "mid"),
    ("pi", 11, 5, "high"),
    ("pi", 10, 3, "low"),
    ("pi", 11, 3, "mid"),
    ("pi", 12, 3, "mid"),
    ("all", 12, 3, "high"),
    ("all", 11, 4, "high"),
    ("all", 10, 4, "low"),
    ("sample", 12, 5, "high"),
]
# (n, regime, tampering) for verify_embedding re-checks at k = 3.  Honest
# records at n = 9 cost the same for every seed; there are enough of them
# that the median job is one.
EMBED_VERIFY = [
    (10, "low", None),
    (10, "mid", None),
    (9, "low", None),
    (9, "low", None),
    (9, "low", None),
    (9, "low", None),
    (9, "mid", None),
    (9, "high", None),
    (10, "low", "chain"),
    (10, "low", "level"),
    (9, "low", "image"),
    (9, "mid", "chain"),
]
# Blue share per regime; fixed, so a seed changes which sets are blue but not
# how many, and job costs stay close across seeds.
DENSITY = {"low": 0.002, "mid": 0.045, "high": 0.3}
SAMPLE_PERMS = 8


def random_coloring(rng: random.Random, ground: int, regime: str) -> Coloring:
    count = max(1, round(DENSITY[regime] * (1 << ground)))
    return Coloring.dense(ground, rng.sample(range(1 << ground), count))


def tamper(rec, kind: str, rng: random.Random):
    """A copy of an embedding record with one property broken."""
    n, k = rec.n, rec.k
    candidates = [a for a in range(1, 1 << n) if rec.images[a] is not None] or range(1, 1 << n)
    a = rng.choice(candidates)
    if kind == "chain":  # detected only by the last, chain-shape pass
        chains = list(rec.chains)
        sets = chains[a].sets
        chains[a] = Chain(sets[:-1] if sets else (a,))
        return replace(rec, chains=tuple(chains))
    if kind == "level":
        levels = list(rec.levels)
        levels[a] = levels[a] + 1 if levels[a] < k else levels[a] - 1
        return replace(rec, levels=tuple(levels))
    images = list(rec.images)  # "image": move the image to another top prefix
    lvl = rec.levels[a]
    images[a] = a | rec.perm.prefix_mask(lvl + 1 if lvl < k else lvl - 1)
    return replace(rec, images=tuple(images))


def embed_jobs(seed: int, workdir: Path, tiny: bool = False) -> list[Job]:
    rng = random.Random(f"certbench:embed:{seed}")
    shrink = 5 if tiny else 0
    jobs = []
    for idx, (mode, n, k, regime) in enumerate(EMBED_CLI):
        n -= shrink
        coloring = random_coloring(rng, n + k, regime)
        path = workdir / f"embed{idx}.json"
        path.write_text(json.dumps(coloring.to_obj()))
        argv = ["embed", "--coloring", str(path.relative_to(ROOT)), "--n", str(n), "--k", str(k)]
        if mode == "pi":
            perm = rng.sample(range(n + 1, n + k + 1), k)
            argv += ["--pi", ",".join(map(str, perm))]
        elif mode == "all":
            argv += ["--all"]
        else:
            argv += ["--sample", str(SAMPLE_PERMS), "--seed", str(rng.randrange(10**6))]
        blue = dense_lookup(coloring.to_obj())
        label = f"embed:{idx}:{mode}:n{n}k{k}:{regime}"
        jobs.append(cli_job(label, argv, _embed_cli_check(mode, n, k, blue)))
    for idx, (n, regime, kind) in enumerate(EMBED_VERIFY):
        n -= shrink
        k = 3
        coloring = random_coloring(rng, n + k, regime)
        perm = Permutation(n, k, tuple(rng.sample(range(n + 1, n + k + 1), k)))
        rec = embedder.embed_with_permutation(coloring, n, k, perm)
        if kind is not None:
            rec = tamper(rec, kind, rng)
        label = f"verify:{idx}:n{n}:{regime}:{kind or 'honest'}"
        jobs.append(
            Job(label, _verify_run(rec, coloring), _verify_check(kind is None), kind is not None)
        )
    return jobs


def _verify_run(rec, coloring) -> Callable[[], Output]:
    return lambda: (None, dumps(verifier.verify_embedding(rec, coloring).to_obj()))


def _verify_check(honest: bool):
    def check(code, text, outputs):
        ok = json.loads(text)["ok"]
        if ok != honest:
            return f"verify_embedding said ok={ok} on a {'honest' if honest else 'tampered'} record"
        return None

    return check


def _embed_cli_check(mode: str, n: int, k: int, blue):
    def check(code, text, outputs):
        if code not in (0, 1):
            return expect(code, 0, text)
        cert = json.loads(text)
        res = cert["result"]
        if cert["outcome"] != ("ok" if code == 0 else "witness"):
            return f"outcome {cert['outcome']} with exit code {code}"
        if mode == "pi":
            if code == 0:
                return check_success_record(res, n, k, blue)
            first = next(a for a in by_rank(n) if res["images"][a] is None)
            return check_failure_chain(res["chains"][first]["sets"], res["perm"], n, k, blue)
        for fail in res["failures"]:
            err = check_failure_chain(fail["chain"]["sets"], fail["perm"], n, k, blue)
            if err:
                return err
        if res["success"] is not None:
            if code != 0:
                return "sweep found an embedding but exited non-zero"
            err = check_success_record(res["success"], n, k, blue)
            if err:
                return err
        elif mode == "all" and res["perms_run"] != math.factorial(k):
            return f"sweep ran {res['perms_run']} of {math.factorial(k)} permutations"
        if res["perms_run"] != len(res["failures"]) + (res["success"] is not None):
            return "perms_run does not match the failures listed"
        return None

    return check


# -- ramsey -------------------------------------------------------------------

KINDS = ("weak", "induced")
PAIRS = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]
# max_N per (m, n).  These three would list all 2^16 colorings of Q_4 (4-8 s
# each), more than a whole measurement window, so they stop at N = 3.
FULL_Q4_SCANS = {(1, 3), (2, 2), (3, 1)}
POOL_ARGS = ["ramsey", "--m", "3", "--n", "2", "--kind", "weak", "--max-N", "4"]
# Seeded jobs each bundle many small checks, so their cost hardly depends on
# the seed and the median job is not a sub-millisecond one.
TRANSFORMS = 16  # per counterexample
# Random Q_5 colorings checked per job.  The two large batches cost about as
# much as the heaviest scans, whatever the seed, so the tail percentile falls
# among jobs of steady cost, not at the edge where the 2-worker scan, whose
# time depends on the second core, decides it.  The small ones (about 14 ms)
# sit with the (1,2) and (2,1) scans in the middle of the job list, where the
# median falls; 8 colorings a batch even out the cost of any one coloring.
Q5_BATCHES = (8, 8, 8, 8, 400, 400)


def scan_set() -> list[tuple[int, int, str, int]]:
    """The fixed scan list; it does not depend on the seed."""
    return [
        (m, n, kind, 3 if (m, n) in FULL_Q4_SCANS else 4)
        for kind in KINDS
        for m, n in PAIRS
    ]


def ramsey_jobs(seed: int, workdir: Path, tiny: bool = False) -> list[Job]:
    rng = random.Random(f"certbench:ramsey:{seed}")
    naive = load_naive()
    found: dict = {}  # (m, n, kind) -> (N, index) of the largest counterexample
    jobs = []
    scans = scan_set()
    if tiny:
        scans = [(m, n, kind, min(max_n, 3)) for m, n, kind, max_n in scans if m + n <= 4]
    for m, n, kind, max_n in scans:
        label = f"scan:{m},{n},{kind},N<={max_n}"
        jobs.append(Job(label, _scan_run(m, n, kind, max_n, found), _scan_check(m, n, kind, naive)))
    if not tiny:
        jobs.append(cli_job("cli:ramsey:serial", POOL_ARGS, _serial_check))
        jobs.append(cli_job("cli:ramsey:2-workers", ["--threads", "2", *POOL_ARGS], _pool_check))
    # Relabelled / complemented copies of each counterexample must still avoid
    # both copies.  Transforms are drawn per ground size now, used in the job.
    transforms = {
        ground: [(rng.sample(range(ground), ground), i % 2 == 1) for i in range(TRANSFORMS)]
        for ground in range(1, 5)
    }
    for m, n in sorted({(m, n) for m, n, _, _ in scans}):
        jobs.append(Job(f"relabel:{m},{n}", _relabel_run(m, n, found, transforms), _all_neither))
    for i, size in enumerate(Q5_BATCHES):
        size = min(size, 4) if tiny else size
        colorings, kind = [rng.getrandbits(32) for _ in range(size)], KINDS[i % 2]
        jobs.append(Job(f"q5:{i}:{kind}", _q5_run(colorings, kind), _q5_check(colorings, kind, naive)))
    return jobs


def _scan_run(m, n, kind, max_n, found) -> Callable[[], Output]:
    def run() -> Output:
        res = oracle.exhaustive_ramsey_number(m, n, oracle.CopyKind(kind), max_n=max_n)
        if res.counterexamples:
            ground = max(res.counterexamples)
            found[(m, n, kind)] = (ground, res.counterexamples[ground])
        return None, dumps(res.to_obj())

    return run


def _families(ground: int, index: int) -> tuple[list[int], list[int]]:
    blue = [s for s in range(1 << ground) if index >> s & 1]
    red = [s for s in range(1 << ground) if not index >> s & 1]
    return blue, red


def _scan_check(m, n, kind, naive):
    induced = kind == "induced"

    def has_copy(ground, index):
        blue, red = _families(ground, index)
        return naive.pair_logic_has_copy(blue, m, induced) or naive.pair_logic_has_copy(
            red, n, induced
        )

    def check(code, text, outputs):
        res = json.loads(text)
        if res["status"] != "complete":
            return f"scan status {res['status']}"
        if res["layered_lower_bound"] != m + n:
            return f"layered lower bound {res['layered_lower_bound']} != {m + n}"
        cx = {int(g): i for g, i in res["counterexamples"].items()}
        top = res["value"] if res["value"] is not None else res["max_N"] + 1
        if sorted(cx) != list(range(1, top)):
            return f"counterexamples {sorted(cx)} do not cover N < {top}"
        if m > 2 or n > 2:
            return None  # the naive oracles do not finish for Q_3 patterns
        for ground, index in cx.items():
            if has_copy(ground, index):
                return f"counterexample {index} of Q_{ground} holds a copy"
            if any(not has_copy(ground, j) for j in range(index)):
                return f"a coloring of Q_{ground} before {index} avoids both copies"
        if res["value"] is not None and res["value"] <= 3:
            ground = res["value"]
            if any(not has_copy(ground, j) for j in range(1 << (1 << ground))):
                return f"a coloring of Q_{ground} avoids both copies"
        return None

    return check


def _serial_check(code, text, outputs):
    return expect(code, 0, text)


def _pool_check(code, text, outputs):
    err = expect(code, 0, text)
    if err:
        return err
    serial_code, serial_text = outputs["cli:ramsey:serial"]
    if json.loads(text)["result"] != json.loads(serial_text)["result"]:
        return "2-worker scan result differs from the serial scan"
    return None


def _relabel_run(m, n, found, transforms) -> Callable[[], Output]:
    def run() -> Output:
        flags = []
        for kind in KINDS:
            ground, index = found[(m, n, kind)]
            full = (1 << ground) - 1
            for sigma, complement in transforms[ground]:
                bits = 0
                for s in range(1 << ground):
                    if index >> s & 1:
                        t = sum(1 << sigma[i] for i in range(ground) if s >> i & 1)
                        bits |= 1 << (full ^ t if complement else t)
                c = Coloring.dense_from_int(ground, bits)
                flags.append(oracle.coloring_is_ramsey(c, m, n, oracle.CopyKind(kind)).neither)
        return None, dumps(flags)

    return run


def _all_neither(code, text, outputs):
    if not all(json.loads(text)):
        return "a relabelled counterexample holds a copy"
    return None


def _q5_run(colorings: list[int], kind: str) -> Callable[[], Output]:
    copy_kind = oracle.CopyKind(kind)

    def run() -> Output:
        out = []
        for bits in colorings:
            c = Coloring.dense_from_int(5, bits)
            for m, n in PAIRS:
                o = oracle.coloring_is_ramsey(c, m, n, copy_kind)
                blue, red = o.blue_witness, o.red_witness
                out.append(
                    {
                        "bits": bits,
                        "m": m,
                        "n": n,
                        "blue": None if blue is None else blue.to_obj()["images"],
                        "red": None if red is None else red.to_obj()["images"],
                    }
                )
        return None, dumps(out)

    return run


def _q5_check(colorings: list[int], kind: str, naive):
    induced = kind == "induced"
    families = {bits: _families(5, bits) for bits in colorings}

    def check(code, text, outputs):
        rows = json.loads(text)
        if [row["bits"] for row in rows] != [b for b in colorings for _ in PAIRS]:
            return "rows do not match the colorings checked"
        for row in rows:
            bits, m, n = row["bits"], row["m"], row["n"]
            blue_fam, red_fam = families[bits]
            if row["blue"] is not None:
                if not valid_copy(row["blue"], m, induced, blue_fam.__contains__):
                    return f"invalid blue Q_{m} witness"
                continue
            if m <= 2 and naive.pair_logic_has_copy(blue_fam, m, induced):
                return f"missed a blue Q_{m}"
            if row["red"] is not None:
                if not valid_copy(row["red"], n, induced, red_fam.__contains__):
                    return f"invalid red Q_{n} witness"
            elif n <= 2 and naive.pair_logic_has_copy(red_fam, n, induced):
                return f"missed a red Q_{n}"
        return None

    return check


# -- certify ------------------------------------------------------------------

# (n, density, resampler seed or None to draw it from the workload seed) for
# `construct lll` at m = 4; every seed tried converged in about a second or
# less at these sizes.  At n = 24 the run time depends on the resampler seed
# (0.98-1.41 s over seeds 0-11), and these two runs are, with `construct
# pairs`, the three heaviest jobs, where the tail percentile falls.  So they
# are pinned to seeds 6 and 9 (1.18 and 1.13 s, the middle of that range),
# and the tail does not follow a drawn seed's luck; the n = 16 and n = 20
# runs draw theirs.
LLL_CONFIGS = [(16, 0.10, None), (20, 0.08, None), (24, 0.07, 6), (24, 0.07, 9)]
CODE_WITNESSES = 6
# check_code_statement(18, 2, STATEMENT_K, 19, d) holds for every residue d.
# The seed draws d, which does not change the cost; k does (by up to 40%),
# so it is fixed and the three statements tie at the median job.
SMALL_CODE_STATEMENTS = 3
STATEMENT_K = 8


def certify_jobs(seed: int, workdir: Path, tiny: bool = False) -> list[Job]:
    rng = random.Random(f"certbench:certify:{seed}")
    naive = load_naive()
    rel = lambda name: str((workdir / name).relative_to(ROOT))  # noqa: E731
    jobs = []
    configs = [(12, 0.12, None)] if tiny else LLL_CONFIGS
    for idx, (n, p, pinned) in enumerate(configs):
        path = rel(f"lll{idx}.json")
        build = ["construct", "lll", "--n", str(n), "--m", "4", "--p-incl", str(p)]
        build += ["--seed", str(rng.randrange(10**6) if pinned is None else pinned), "-o", path]
        jobs.append(cli_job(f"construct:lll:{idx}:n{n}", build, _lll_check(ROOT / path, n)))
        certs = ["--conditions", "--blue-free", "4", "--red-bound", f"{n},4"]
        jobs.append(cli_job(f"verify:lll:{idx}", ["verify", "--coloring", path, *certs], _verdict_ok))
    if not tiny:
        pairs = rel("pairs.json")
        jobs.append(cli_job("construct:pairs", ["construct", "pairs", "--n", "18", "-o", pairs], _built))
        blue_free = ["--blue-free", "2", "--kind", "induced"]
        jobs.append(cli_job("verify:pairs", ["verify", "--coloring", pairs, *blue_free], _verdict_ok))
        modp = rel("modp.json")
        jobs.append(cli_job("construct:modp", ["construct", "modp", "--n", "34", "--m", "2", "-o", modp], _built))
        statement = ["--code-statement", "36,2,17,37,37"]
        jobs.append(cli_job("verify:modp", ["verify", "--coloring", modp, *statement], _code_statement_ok))
    for i in range(CODE_WITNESSES):
        a, b = sorted(rng.sample(range(1, 37), 2))
        y = rng.choice((a, b))
        argv = ["code", "--n", "34", "--m", "2", "--avoid", f"{a},{b}", "--y", str(y)]
        jobs.append(cli_job(f"code:{i}", argv, _witness_check(bits_of((a, b)), y)))
    for i in range(SMALL_CODE_STATEMENTS):
        k, d = STATEMENT_K, rng.randint(1, 19)
        samples = []
        for _ in range(2):
            avoid = rng.sample(range(1, 19), 2)
            samples.append((avoid, rng.choice(avoid)))
        jobs.append(
            Job(f"code_statement:{i}", _code_statement_run(18, 2, k, 19, d),
                _small_statement_check(18, k, 19, d, samples, naive))
        )
    return jobs


def _built(code, text, outputs):
    err = expect(code, 0, text)
    if err:
        return err
    return None if json.loads(text)["outcome"] == "ok" else "construction outcome not ok"


def _verdict_ok(code, text, outputs):
    err = expect(code, 0, text)
    if err:
        return err
    cert = json.loads(text)
    bad = [name for name, res in cert["result"].items() if not res["ok"]]
    return f"certifier verdicts not ok: {bad}" if bad or cert["outcome"] != "ok" else None


def _code_statement_ok(code, text, outputs):
    err = _verdict_ok(code, text, outputs)
    if err:
        return err
    res = json.loads(text)["result"]["code_statement"]
    if res["pairs_checked"] != math.comb(36, 2) * 2 or not res["hypotheses_ok"]:
        return f"code statement checked {res['pairs_checked']} pairs"
    return None


def _lll_check(path: Path, n: int):
    m, ground = 4, n + 4

    def check(code, text, outputs):
        err = _built(code, text, outputs)
        if err:
            return err
        members = [bits_of(s) for s in json.loads(path.read_text())["blue_extra"]]
        if not members or any(bin(f).count("1") != m for f in members):
            return "family is empty or has sets of the wrong size"
        sup: dict[int, int] = {}
        sub: dict[int, int] = {}
        for f in members:
            for i in range(ground):
                bit = 1 << i
                key = (sup, f ^ bit) if f & bit else (sub, f | bit)
                key[0][key[1]] = key[0].get(key[1], 0) + 1
        lows = [sum(1 << e for e in c) for c in itertools.combinations(range(ground), m - 1)]
        if any(sup.get(s, 0) < 2 for s in lows):
            return "an (m-1)-set has fewer than two supersets"
        if any(cnt > m - 1 for cnt in sub.values()):
            return "an (m+1)-set has m subsets in the family"
        return None

    return check


def _witness_check(avoid: int, y: int):
    def check(code, text, outputs):
        err = _built(code, text, outputs)
        if err:
            return err
        res = json.loads(text)["result"]
        params, witness, member = res["params"], bits_of(res["witness"]), res["member"]
        if bin(witness).count("1") != params["k"] or witness & avoid:
            return "witness has the wrong size or meets the avoided set"
        if bits_of(member) != witness | 1 << (y - 1):
            return "member is not the witness plus y"
        if sum(member) % params["p"] != params["d"] % params["p"]:
            return "member is not in the residue code"
        return None

    return check


def _code_statement_run(ground, m, k, p, d) -> Callable[[], Output]:
    return lambda: (None, dumps(verifier.check_code_statement(ground, m, k, p, d).to_obj()))


def _small_statement_check(ground, k, p, d, samples, naive):
    def check(code, text, outputs):
        if not json.loads(text)["ok"]:
            return "code statement failed"
        for avoid, y in samples:
            rest = [e for e in range(1, ground + 1) if e not in avoid]
            want = naive.naive_dp_count(rest, k, p, d - y)
            got = verifier.dp_count(mask_of(rest), k, p, (d - y) % p)
            if got != want or want < 1:
                return f"residue count {got} != naive {want} for Y={avoid}, y={y}"
        return None

    return check


WORKLOADS = {"embed": embed_jobs, "ramsey": ramsey_jobs, "certify": certify_jobs}
