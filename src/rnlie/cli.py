"""Command line interface.

Subcommands: ricci, derivations, torus, nice, moment, hull,
orbit-sample, certify, cone, degenerate, corpus.  Output is JSON with
sorted keys (CSV for orbit-sample and for cone with --format csv), so
identical arguments and seed give byte-identical output.  Numbers are
emitted as strings: rationals as "p/q", floats with 17 significant
digits.  Bracket triples appear 1-based, matching the file format.

Exit codes: 0 success, 1 usage error, 2 precondition failure,
3 inconclusive result, 4 numerical failure (a value past float range
among them).
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

import numpy as np

from . import io as _io
from .brackets import Bracket
from .certify import (Infeasible, SrnCertificate, certify_srn_nice,
                      certify_srn_sampled, necessary_condition)
from .cone import EXACT, cone_section, weyl_invariance_check
from .corpus import _NEEDS_PARAM, corpus, corpus_names
from .curvature import extension_bracket, koszul_oracle, ricci_extension
from .degeneration import (PREDICATES, PinchingResult, diagonal_power_curve,
                           heintze_degeneration, pinching_transfer, trajectory)
from .derivations import derivation_space, diagonal_torus
from .errors import NumericalError, PreconditionError
from .moment import (GROUP_TAGS, moment_map, nice_basis_check, orbit_sample,
                     weight_polytope)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_INCONCLUSIVE = 3
EXIT_NUMERICAL = 4


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures remapped to exit code 1."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _scalar(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _vec(v):
    return [_scalar(x) for x in v]


def _mat(M):
    return [[_scalar(x) for x in row] for row in M]


def _triple(t):
    return [t[0] + 1, t[1] + 1, t[2] + 1]


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _corpus_entry(text: str):
    """The corpus entry named `name[:param]`, e.g. heisenberg:5 or tricky5."""
    name, _, param = text.partition(":")
    if not param:
        return corpus(name)
    try:
        value = int(param)
    except ValueError as exc:
        raise PreconditionError(
            f"bad parameter {param!r} in {text!r}; expected an integer") from exc
    return corpus(name, value)


def _load_bracket(args) -> Bracket:
    if args.file is not None:
        return _io.load_algebra(args.file)
    return _corpus_entry(args.algebra).bracket


def _parse_derivation(text: str) -> np.ndarray:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"derivation must be JSON: {exc.msg}") from exc
    if not isinstance(data, list) or not data:
        raise PreconditionError("derivation must be a nonempty JSON list")

    def num(x):
        if isinstance(x, (str, int, float)) and not isinstance(x, bool):
            try:
                return float(Fraction(x) if isinstance(x, str) else x)
            except (ValueError, ZeroDivisionError, OverflowError):
                pass
        raise PreconditionError(f"bad derivation entry {x!r}")

    if isinstance(data[0], list):
        if any(not isinstance(row, list) or len(row) != len(data[0]) for row in data):
            raise PreconditionError("derivation rows must be lists of equal length")
        return np.array([[num(x) for x in row] for row in data])
    return np.diag([num(x) for x in data])


def _add_algebra_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--algebra", help="corpus name, e.g. heisenberg:3 or tricky5")
    g.add_argument("--file", help="path to an algebra JSON file")


def _cmd_ricci(args) -> int:
    b = _load_bracket(args)
    if args.derivation is None:
        rep = koszul_oracle(b)
        sym = 0.5 * (rep.ricci + rep.ricci.T)
        _emit({"ricci": _mat(rep.ricci), "scalar": _scalar(rep.scalar),
               "eigenvalues": _vec(np.linalg.eigvalsh(sym))})
        return EXIT_OK
    D = _parse_derivation(args.derivation)
    block = ricci_extension(D, b)
    oracle = koszul_oracle(extension_bracket(D, b)).ricci
    _emit({"ricci": _mat(block.assembled()),
           "eigenvalues": _vec(block.eigenvalues()),
           "lambda_max": _scalar(block.lambda_max),
           "oracle_delta": _scalar(np.abs(oracle - block.assembled()).max())})
    return EXIT_OK


def _cmd_derivations(args) -> int:
    b = _load_bracket(args)
    kind = "rational" if b.is_rational else "float"
    basis = derivation_space(b, scalars=kind)
    _emit({"scalars": kind, "dimension": len(basis),
           "basis": [_mat(M) for M in basis]})
    return EXIT_OK


def _cmd_torus(args) -> int:
    b = _load_bracket(args)
    t = diagonal_torus(b)
    _emit({"dimension": t.dim, "basis": [_vec(row) for row in t.basis],
           "trace_functional": _vec(t.trace_functional()),
           "multiplicity_free": t.multiplicity_free})
    return EXIT_OK


def _cmd_nice(args) -> int:
    b = _load_bracket(args)
    rep = nice_basis_check(b)
    _emit({"nice": rep.ok,
           "multiple_targets": [[[i + 1, j + 1], [k + 1 for k in ks]]
                                for (i, j), ks in rep.multiple_targets],
           "overlapping_pairs": [[[p[0] + 1, p[1] + 1], [q[0] + 1, q[1] + 1],
                                  k + 1] for p, q, k in rep.overlapping_pairs]})
    return EXIT_OK


def _cmd_moment(args) -> int:
    b = _load_bracket(args)
    mv = moment_map(b)
    _emit({"matrix": _mat(mv.matrix), "diagonal": _vec(mv.diagonal),
           "trace": _scalar(float(np.trace(mv.matrix))),
           "offdiagonal_max": _scalar(mv.offdiagonal_max())})
    return EXIT_OK


def _cmd_hull(args) -> int:
    b = _load_bracket(args)
    poly = weight_polytope(b)
    _emit({"ambient_dim": poly.ambient_dim, "dim": poly.dim,
           "triples": [_triple(t) for t in poly.triples],
           "vertices": [_triple(t) for t in poly.vertices],
           "face_count": poly.face_count(),
           "faces": [[_triple(t) for t in face] for face in poly.hull_faces]})
    return EXIT_OK


def _cmd_orbit_sample(args) -> int:
    b = _load_bracket(args)
    D = _parse_derivation(args.derivation) if args.derivation else None
    sample = orbit_sample(args.group, b, count=args.count, seed=args.seed,
                          derivation=D)
    diags = sample.diagonals()
    header = "index," + ",".join(f"d{i + 1}" for i in range(b.dim))
    lines = [header]
    for r, row in enumerate(diags):
        lines.append(f"{r}," + ",".join(_scalar(x) for x in row))
    print("\n".join(lines))
    return EXIT_OK


def _certify_payload(res):
    if isinstance(res, SrnCertificate):
        coeffs = []
        for key in sorted(res.coefficients):
            shown = _triple(key) if isinstance(key, tuple) else key
            coeffs.append([shown, _scalar(res.coefficients[key])])
        return {"result": "Certificate", "method": res.method,
                "margin": _scalar(res.margin), "coefficients": coeffs}, EXIT_OK
    if isinstance(res, Infeasible):
        return {"result": "Infeasible", "method": res.method,
                "margin": _scalar(res.margin),
                "dual": _vec(res.dual)}, EXIT_OK
    return {"result": "Unknown", "margin": _scalar(res.margin),
            "reason": res.reason}, EXIT_INCONCLUSIVE


def _cmd_certify(args) -> int:
    b = _load_bracket(args)
    D = _parse_derivation(args.derivation)
    method = args.method
    if method == "necessary":
        _emit({"result": "NecessaryCondition",
               "passes": necessary_condition(D, b)})
        return EXIT_OK
    if method == "auto":
        method = "nice" if nice_basis_check(b).ok else "sampled"
    if method == "sampled":
        sample = orbit_sample("TorusCentralizer", b, count=args.sample_count,
                              seed=args.seed)
        res = certify_srn_sampled(D, b, sample)
    else:
        res = certify_srn_nice(D, b)
    payload, code = _certify_payload(res)
    _emit(payload)
    return code


def _cmd_cone(args) -> int:
    b = _load_bracket(args)
    try:
        level = Fraction(args.trace_level)
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"bad trace level {args.trace_level!r}") from exc
    section = cone_section(b, level, resolution=args.resolution,
                           seed=args.seed)
    if args.exact and section.exactness != EXACT:
        raise PreconditionError(
            f"exact section demanded but the result is {section.exactness}")
    if args.format == "csv":
        d = len(section.vertices[0]) if section.vertices else 0
        lines = [",".join(f"c{i + 1}" for i in range(d))]
        for v in section.vertices:
            lines.append(",".join(_scalar(x) for x in v))
        print("\n".join(lines))
        return EXIT_OK
    rep = weyl_invariance_check(section)
    _emit({"trace_level": _scalar(level), "exactness": section.exactness,
           "vertices": [_vec(v) for v in section.vertices],
           "weyl_report": {"ok": rep.ok,
                           "actions_checked": rep.actions_checked,
                           "worst_distance": _scalar(rep.worst_distance)}})
    return EXIT_OK


def _parse_curve(text: str, b: Bracket):
    kind, _, rest = text.partition(":")
    if kind == "diag":
        try:
            exps = [int(x) if float(x) == int(float(x)) else float(x)
                    for x in rest.split(",")]
        except (ValueError, OverflowError) as exc:  # int() of nan, of inf
            raise PreconditionError(f"bad exponent list {rest!r}") from exc
        return diagonal_power_curve(b, exps)
    if kind == "heintze":
        return heintze_degeneration(_parse_derivation(rest), b)
    raise PreconditionError(
        f"unknown curve {text!r}; use diag:<exponents> or heintze:<derivation>")


def _cmd_degenerate(args) -> int:
    b = _load_bracket(args)
    curve = _parse_curve(args.curve, b)
    rows = trajectory(curve, t_max=min(args.t_max, 2 ** 12))
    payload = {"trajectory": [{"t": _scalar(r.t), "norm": _scalar(r.norm),
                               "lambda_max": _scalar(r.lambda_max),
                               "scalar": _scalar(r.scalar)} for r in rows]}
    code = EXIT_OK
    if args.predicate is not None:
        res = pinching_transfer(curve, args.predicate, t_max=args.t_max)
        if isinstance(res, PinchingResult):
            payload["pinching"] = {"result": "Transfer", "index": res.index,
                                   "t": _scalar(res.t),
                                   "value": _scalar(res.value)}
        else:
            payload["pinching"] = {"result": "NotReached",
                                   "best_value": _scalar(res.best_value),
                                   "reason": res.reason}
            code = EXIT_INCONCLUSIVE
    _emit(payload)
    return code


def _cmd_corpus(args) -> int:
    if args.name is None:
        _emit({"entries": [{"name": n, "needs_parameter": n in _NEEDS_PARAM}
                           for n in corpus_names()]})
        return EXIT_OK
    sys.stdout.write(_io.dumps_algebra(_corpus_entry(args.name).bracket))
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    p = _Parser(prog="rnlie", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    def cmd(name, func, help_text):
        q = sub.add_parser(name, help=help_text, parents=[common])
        q.set_defaults(func=func)
        return q

    q = cmd("ricci", _cmd_ricci, "Ricci data of an algebra or an extension")
    _add_algebra_flags(q)
    q.add_argument("--derivation", help="JSON diagonal or matrix; if given, "
                   "report the rank-one extension")

    q = cmd("derivations", _cmd_derivations, "basis of the derivation algebra")
    _add_algebra_flags(q)

    q = cmd("torus", _cmd_torus, "diagonal torus of derivations")
    _add_algebra_flags(q)

    q = cmd("nice", _cmd_nice, "nice basis check")
    _add_algebra_flags(q)

    q = cmd("moment", _cmd_moment, "moment map value of the bracket")
    _add_algebra_flags(q)

    q = cmd("hull", _cmd_hull, "weight polytope of the structure constants")
    _add_algebra_flags(q)

    q = cmd("orbit-sample", _cmd_orbit_sample,
            "CSV of sampled diagonal moment values (columns: index, d1..dn)")
    _add_algebra_flags(q)
    q.add_argument("--group", choices=list(GROUP_TAGS), default="TorusCentralizer")
    q.add_argument("--count", type=int, default=32)
    q.add_argument("--derivation", help="needed for DerivationCentralizer")

    q = cmd("certify", _cmd_certify, "Ricci-negativity certificate for a "
            "derivation")
    _add_algebra_flags(q)
    q.add_argument("--derivation", required=True)
    q.add_argument("--method", default="auto",
                   choices=["auto", "nice", "sampled", "necessary"])
    q.add_argument("--sample-count", type=int, default=32)

    q = cmd("cone", _cmd_cone, "certified cone section at a trace level")
    _add_algebra_flags(q)
    q.add_argument("--trace-level", required=True)
    q.add_argument("--resolution", type=int, default=64)
    q.add_argument("--exact", action="store_true",
                   help="fail unless the exact regime applies")
    q.add_argument("--format", choices=["json", "csv"], default="json")

    q = cmd("degenerate", _cmd_degenerate, "curve trajectory and curvature "
            "transfer")
    _add_algebra_flags(q)
    q.add_argument("--curve", required=True,
                   help="diag:<w1,..,wn> or heintze:<derivation JSON>")
    q.add_argument("--predicate", choices=list(PREDICATES), default=None)
    q.add_argument("--t-max", type=int, default=2 ** 20)

    q = cmd("corpus", _cmd_corpus, "list corpus entries or emit one as JSON")
    q.add_argument("--name", default=None,
                   help="entry name, e.g. heisenberg:5; omit to list")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PreconditionError, OSError) as ex:
        print(json.dumps({"error": str(ex), "kind": "precondition"}),
              file=sys.stderr)
        return EXIT_PRECONDITION
    except (NumericalError, OverflowError) as ex:
        print(json.dumps({"error": str(ex), "kind": "numerical"}),
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
