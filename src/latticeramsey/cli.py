"""Command-line driver producing reproducible JSON certificates.

Subcommands: construct, verify, embed, ramsey, bound, code.  Every run emits a
certificate object recording the command, package version, seeds, input file
digests, the outcome, and the result payload; identical runs produce
byte-identical certificates except for the wall-clock field.

Each handler fills the certificate's result and returns an outcome; `main`
alone records it, emits the certificate and maps it to the exit code:
"ok" 0 (property holds / artifact produced), "witness" 1 (witness or
counterexample found), "unknown" 0 (threshold above the scanned range),
"exhausted" 3 (search or resample budget exhausted).  A usage error, an
unwritable `-o` among them, exits 2 with one `error:` line on stderr; an `-o`
that is a directory or lies in a missing one is refused before the run.
`construct -o` names the coloring file; every other `-o` names the
certificate file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from functools import cache
from typing import Optional

from . import __version__
from .lattice import Coloring, Permutation, elements_of, json_pieces, mask_of
from .oracle import (
    CopyKind,
    SearchExhausted,
    coloring_is_ramsey,
    exhaustive_ramsey_number,
)
from .embedder import (
    counting_bound,
    embed_with_permutation,
    minimal_k,
    sweep_permutations,
)
from . import constructions as cons
from . import verifier as ver

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3
EXIT_CODES = {
    "ok": EXIT_OK,
    "witness": EXIT_WITNESS,
    "unknown": EXIT_OK,
    "exhausted": EXIT_EXHAUSTED,
}


def derive_seed(master: int, counter: int) -> int:
    """Deterministic per-task sub-seed from one master seed.

    Sub-task i uses the first 8 bytes of sha256("{master}:{i}"), so adding
    tasks never perturbs the streams of existing ones.
    """
    digest = hashlib.sha256(f"{master}:{counter}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _load_coloring(path: str, cert: _Certificate) -> Coloring:
    """The coloring in a JSON file; its sha256 goes into the certificate's inputs."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        coloring = Coloring.from_obj(json.loads(text))
    except ValueError as exc:  # not UTF-8, not JSON, or not a coloring
        raise ValueError(f"{path}: {exc}") from None
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc.args[0]}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    cert.obj["inputs"][path] = hashlib.sha256(text.encode()).hexdigest()
    return coloring


def _write(path: str, pieces: list[str]) -> None:
    """Write text pieces to a new or truncated UTF-8 file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)


class _Certificate:
    def __init__(self, argv: list[str]):
        self.started = time.monotonic()
        self.obj: dict = {
            "command": argv,
            "version": __version__,
            "seeds": {},
            "inputs": {},
            "outcome": None,
            "result": None,
            "witness": None,
        }

    def emit(self, out_path: Optional[str]) -> None:
        """Write the certificate as sorted, indent-2 JSON, piece by piece."""
        self.obj["wall_clock_s"] = round(time.monotonic() - self.started, 6)
        pieces = json_pieces(self.obj)
        pieces.append("\n")
        if out_path:
            _write(out_path, pieces)
        else:
            sys.stdout.writelines(pieces)


def _parse_int_list(text: str, count: Optional[int] = None, usage: str = "") -> list[int]:
    """Comma- or space-separated ints; exactly `count` of them if given."""
    vals = [int(x) for x in text.replace(",", " ").split()]
    if count is not None and len(vals) != count:
        raise ValueError(usage)
    return vals


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as a ValueError, which `main` reports in one line."""

    def error(self, message: str):
        raise ValueError(message)


def _glued(argv: list[str]) -> list[str]:
    """argv with each `--c VALUE` written `--c=VALUE`, since argparse takes a
    separate value such as -inf or -1e5 for an option, not for bound's float."""
    out: list[str] = []
    for arg in argv:
        if out[-1:] == ["--c"]:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


@cache  # parse_args leaves the parser as it was, so one serves every main call
def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="latticeramsey",
        description="Boolean-lattice coloring constructions, embeddings, and verification",
    )
    ap.add_argument(
        "--threads",
        type=int,
        help="accepted and ignored: every scan runs in one process",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("construct", help="build a coloring and write it as JSON")
    c.add_argument("variant", choices=["layered", "pairs", "modp", "lll"])
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--m", type=int)
    c.add_argument("--k", type=int)
    c.add_argument("--d", type=int)
    c.add_argument("--p", type=int, help="modp: prime override")
    c.add_argument("--blue-layers", type=str, help="layered: explicit blue layer indices")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--p-incl", type=float, help="lll: membership density override")
    c.add_argument("--max-resamples", type=int, default=10**6)
    c.add_argument("-o", "--output", type=str, help="write the coloring JSON here")

    v = sub.add_parser("verify", help="run structural checks against a coloring file")
    v.add_argument("--coloring", type=str, required=True)
    v.add_argument("--blue-free", type=int, help="certify no blue copy of this dimension")
    v.add_argument(
        "--kind",
        choices=["induced", "weak"],
        default="weak",
        help="copy kind for --ramsey only (default weak); --blue-free certifies weak copies",
    )
    v.add_argument("--conditions", action="store_true", help="check the family conditions")
    v.add_argument("--distance", type=int, help="check pairwise distance of the extras")
    v.add_argument(
        "--code-statement", type=str, help="N,m,k,p,d: exact coverage counts"
    )
    v.add_argument(
        "--red-bound", type=str, help="n,m: red supersets-per-bottom certificate"
    )
    v.add_argument("--ramsey", type=str, help="m,n: exhaustive oracle on this coloring")

    e = sub.add_parser("embed", help="run the recursive embedder")
    e.add_argument("--coloring", type=str, required=True)
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--k", type=int, required=True)
    g = e.add_mutually_exclusive_group(required=True)
    g.add_argument("--pi", type=str, help="comma-separated image of [n+1..n+k]")
    g.add_argument("--all", action="store_true", help="sweep all k! permutations")
    g.add_argument("--sample", type=int, help="sweep this many sampled permutations")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("-o", "--output", type=str, help="write the certificate here")

    r = sub.add_parser("ramsey", help="exhaustive tiny-scale threshold scan")
    r.add_argument("--m", type=int, required=True)
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--kind", choices=["induced", "weak"], required=True)
    r.add_argument("--max-N", type=int, default=4, dest="max_n")
    r.add_argument("-o", "--output", type=str, help="write the certificate here")

    b = sub.add_parser("bound", help="exact factorial-versus-power counting bound")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--c", type=float)
    b.add_argument("--minimal", action="store_true", help="report the least usable k")
    b.add_argument("-o", "--output", type=str, help="write the certificate here")

    w = sub.add_parser("code", help="constructive witness for the residue code")
    w.add_argument("--n", type=int, required=True)
    w.add_argument("--m", type=int, required=True)
    w.add_argument("--k", type=int)
    w.add_argument("--d", type=int)
    w.add_argument("--avoid", type=str, required=True, help="the m-set Y, e.g. '35,36'")
    w.add_argument("--y", type=int, required=True, help="element of Y to re-add")
    w.add_argument("-o", "--output", type=str, help="write the certificate here")

    return ap


def _cmd_construct(args, cert: _Certificate) -> str:
    if args.variant != "pairs" and args.m is None:
        raise ValueError(f"{args.variant} construction needs --m")
    if args.variant == "layered":
        blue = _parse_int_list(args.blue_layers) if args.blue_layers else None
        coloring = cons.layered_coloring(args.m, args.n, blue)
        cert.obj["result"] = {"construction": "layered"}
    elif args.variant == "pairs":
        code = cons.greedy_pair_code(args.n)
        coloring = cons.pair_code_coloring(code)
        cert.obj["result"] = {
            "construction": "pairs",
            "k": code.k,
            "assignments": len(code.assignments),
            "feasible": code.feasible,
            "candidates_per_pair": code.candidates_per_pair,
            "max_blocked": code.max_blocked,
        }
    elif args.variant == "modp":
        params = cons.weak_parameters(args.n, args.m, args.k, args.d, args.p)
        coloring = cons.weak_construction(params)
        cert.obj["result"] = {
            "construction": "modp",
            "params": params.to_obj(),
        }
    else:  # lll
        seed = derive_seed(args.seed, 0)
        cert.obj["seeds"] = {"master": args.seed, "family": seed}
        cfg = cons.LllConfig(
            args.n,
            args.m,
            p_inclusion=args.p_incl,
            seed=seed,
            max_resamples=args.max_resamples,
        )
        cert.obj["result"] = result = {
            "construction": "lll",
            "density": cfg.density,
            "default_density": cons.LllConfig.default_density(args.n, args.m),
        }
        fam = cons.lll_family(cfg)  # on exhaustion no coloring exists, so -o stays unwritten
        coloring = cons.probabilistic_coloring(args.n, args.m, fam)
        result["members"] = len(fam.members)
    cert.obj["result"]["coloring"] = obj = coloring.to_obj()
    if args.output:
        # json.dumps takes the C encoder, which json.dump never does
        _write(args.output, [json.dumps(obj, sort_keys=True), "\n"])
        cert.obj["result"]["written"] = args.output
    return "ok"


def _cmd_verify(args, cert: _Certificate) -> str:
    coloring = _load_coloring(args.coloring, cert)
    results: dict = {}
    if args.blue_free is not None:
        results["blue_free"] = ver.certify_blue_free(coloring, args.blue_free)
    if args.conditions:
        results["conditions"] = ver.check_conditions(coloring.partial_layer)
    if args.distance is not None:
        results["distance"] = ver.check_min_distance(coloring.partial_layer, args.distance)
    if args.code_statement:
        vals = _parse_int_list(args.code_statement, 5, "--code-statement needs N,m,k,p,d")
        results["code_statement"] = ver.check_code_statement(*vals)
    if args.red_bound:
        n, m = _parse_int_list(args.red_bound, 2, "--red-bound needs n,m")
        results["red_bound"] = ver.certify_red_singleton_bound(coloring, n, m)
    if args.ramsey:
        m, n = _parse_int_list(args.ramsey, 2, "--ramsey needs m,n")
        results["ramsey"] = coloring_is_ramsey(coloring, m, n, CopyKind(args.kind))
    if not results:
        raise ValueError("no verification requested")
    cert.obj["result"] = {name: res.to_obj() for name, res in results.items()}
    return "ok" if all(res.ok for res in results.values()) else "witness"


def _cmd_embed(args, cert: _Certificate) -> str:
    coloring = _load_coloring(args.coloring, cert)
    n, k = args.n, args.k
    if args.pi is not None:  # "" is the empty permutation, for k = 0
        perm = Permutation(n, k, tuple(_parse_int_list(args.pi)))
        rec = embed_with_permutation(coloring, n, k, perm)
        cert.obj["result"] = rec.to_obj()
        return "ok" if rec.succeeded else "witness"
    if args.all:
        report = sweep_permutations(coloring, n, k, mode="all")
    else:
        seed = derive_seed(args.seed, 0)
        cert.obj["seeds"] = {"master": args.seed, "sweep": seed}
        report = sweep_permutations(
            coloring, n, k, mode="sample", sample_count=args.sample, seed=seed
        )
    cert.obj["result"] = report.to_obj()
    return "ok" if report.success is not None else "witness"


def _cmd_ramsey(args, cert: _Certificate) -> str:
    kind = CopyKind(args.kind)
    result = exhaustive_ramsey_number(args.m, args.n, kind, max_n=args.max_n)
    cert.obj["result"] = result.to_obj()
    if result.status == "exhausted":
        return "exhausted"
    return "ok" if result.value is not None else "unknown"


def _cmd_bound(args, cert: _Certificate) -> str:
    result: dict = {"n": args.n}
    if args.c is not None:
        result["report"] = counting_bound(args.n, args.c).to_obj()
    if args.minimal:
        result["minimal_k"] = minimal_k(args.n)
    if args.c is None and not args.minimal:
        raise ValueError("bound needs --c and/or --minimal")
    cert.obj["result"] = result
    return "ok"


def _cmd_code(args, cert: _Certificate) -> str:
    params = cons.weak_parameters(args.n, args.m, args.k, args.d)
    code = cons.modp_code(params.ground, params.k, params.d, params.p)
    avoid = mask_of(_parse_int_list(args.avoid))
    witness = cons.code_witness(
        params.ground, params.m, params.k, code, avoid, args.y
    )
    cert.obj["result"] = {
        "params": params.to_obj(),
        "avoid": elements_of(avoid),
        "y": args.y,
        "witness": elements_of(witness),
        "member": elements_of(witness | (1 << (args.y - 1))),
    }
    return "ok"


_HANDLERS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "embed": _cmd_embed,
    "ramsey": _cmd_ramsey,
    "bound": _cmd_bound,
    "code": _cmd_code,
}


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    cert = _Certificate(argv)
    try:
        args = _build_parser().parse_args(_glued(argv))
        out = getattr(args, "output", None)
        if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
            raise ValueError(f"-o {out} is a directory or lies in a missing one")
        try:
            outcome = _HANDLERS[args.cmd](args, cert)
        except (SearchExhausted, cons.ResampleBudgetExceeded) as exc:
            outcome = "exhausted"  # the result so far, plus what the budget got through
            cert.obj["result"] = (cert.obj["result"] or {}) | exc.fields
        cert.obj["outcome"] = outcome
        # construct -o names the coloring file, so its certificate goes to stdout
        cert.emit(None if args.cmd == "construct" else out)
    except SystemExit:  # --help has been printed
        return EXIT_OK
    except (ValueError, OverflowError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_CODES[outcome]


if __name__ == "__main__":
    raise SystemExit(main())
