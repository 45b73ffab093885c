"""Batch command surface with machine-readable JSON output.

Every run echoes its inputs, seed and versions, and every numeric claim in
the results carries a provenance string naming the rule or oracle that
produced it.  Output is deterministic for a fixed configuration apart from
the timestamp field.  Exit codes: 0 success, 1 usage or shape errors,
2 a verification suite found a counterexample or a certificate was
rejected.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction
from math import isqrt

import numpy as np

from . import __version__
from .alphabets import circle_grid, parse_alphabet
from .coindex import (
    EquivariantMapCert,
    IndexReport,
    apply_certificate,
    index_of_join_of_finite,
    verify_certificate,
)
from .complexes import SimplicialComplex, _is_prime, join_power
from .errors import NeededRangeError, NonFreeActionError, ResourceCapError, ShapeError
from .homology import betti_numbers
from .shiftspaces import (
    SubshiftSpec,
    Separation,
    mismatch_shift,
    neighbor_gap_shift,
    orbit_decompose,
    periodic_point_complex,
)
from .torusgrid import (
    TorusGridSpec,
    build_approx,
    canonical_certificate_P2,
    separated_torus_spec,
    stability_check,
    z_torus_spec,
)
from .verify import LEMMA_IDS, run_lemma_check


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit(2); usage errors are exit 1 here
        raise _UsageError(message)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise _UsageError(f"bad rational {text!r}: {e}")


def _word_spec(family: str, m: int, q: int, n: int, delta: Fraction) -> SubshiftSpec:
    if n < 1:
        raise _UsageError(f"N must be >= 1, got {n}")
    if family == "Sigma":
        return mismatch_shift(m)
    if family == "Z":
        return neighbor_gap_shift(circle_grid(q), Fraction(1, 2))
    if family == "Y":
        return neighbor_gap_shift(circle_grid(q), Fraction(1), exact=True)
    if family == "XS":
        alpha = parse_alphabet(f"S^{n}:q={q}" if n > 1 else f"S:q={q}")
        return SubshiftSpec(alpha, Separation(m, delta))
    raise _UsageError(f"unknown family {family!r}; known: Sigma, Z, Y, XS")


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"{what} must be an integer, got {text!r}") from None


def _token_params(token: str) -> tuple[str, dict[str, str]]:
    """"Z:p=5,q=8" -> ("Z", {"p": "5", "q": "8"}); a repeated key is refused."""
    head, _, rest = token.partition(":")
    params = {}
    if rest:
        for piece in rest.split(","):
            key, _, val = piece.partition("=")
            key = key.strip()
            if not val:
                raise _UsageError(f"bad token parameter {piece!r} in {token!r}")
            if key in params:
                raise _UsageError(f"repeated key {key!r} in {token!r}")
            params[key] = val.strip()
    return head, params


def _parse_join_token(token: str) -> tuple[SubshiftSpec, int]:
    """"Sigma:m=2,p=7" or "Z:p=5,q=8" -> (word spec, period)."""
    head, params = _token_params(token)
    m = _int(params.pop("m", "1"), "m")
    p = _int(params.pop("p", "0"), "p")
    q = _int(params.pop("q", "8"), "q")
    n = _int(params.pop("N", "1"), "N")
    delta = _fraction(params.pop("delta", "1/2"))
    if params:
        raise _UsageError(f"unknown keys in join token: {sorted(params)}")
    if p < 1:
        raise _UsageError("join token needs p=<period>")
    return _word_spec(head, m, q, n, delta), p


def _emit(doc: dict, output: str | None) -> None:
    doc = dict(doc)
    doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _envelope(args, results: dict, provenance: list[str]) -> dict:
    """The output document; its inputs are the parsed arguments other than
    the seed, the output path and the parser's own entries."""
    return {
        "command": args.command,
        "inputs": {k: v for k, v in vars(args).items() if k not in ("command", "func", "seed", "output")},
        "seed": args.seed,
        "results": results,
        "provenance": provenance,
        "versions": {
            "zpindex": __version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
    }


def _add_word_args(sub, **p_options):
    """The word spec and period options of count, enumerate and orbits."""
    sub.add_argument("--family", required=True)
    sub.add_argument("--m", type=int, default=1)
    sub.add_argument("--p", type=int, **p_options)
    sub.add_argument("--q", type=int, default=8)
    sub.add_argument("--N", type=int, default=1)
    sub.add_argument("--delta", default="1/2")


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0, help="seed recorded in output and used by randomized suites")
    sub.add_argument("--output", default="-", help="output path, or - for stdout")


def _orbit_count(spec: SubshiftSpec, p: int, count: int) -> int:
    """Shift orbits of the period-p points by Burnside's lemma, from counts
    only.  The k-th shift power fixes exactly the points whose period divides
    gcd(k, p), and phi(p/d) of the k in [0, p) have gcd d, so the orbits
    number (1/p) * sum over d | p of phi(p/d) * count(d)."""
    if count == 0:
        return 0  # each period-d point, d | p, repeated is a period-p point
    divisors = [d for d in range(1, isqrt(p) + 1) if p % d == 0]
    divisors += [p // d for d in divisors if d * d != p]
    primes = [d for d in divisors if _is_prime(d)]
    total = 0
    for d in divisors:
        phi = k = p // d
        for r in primes:
            if k % r == 0:
                phi -= phi // r
        total += phi * (count if d == p else spec.count_periodic(d))
    if total % p:
        raise ShapeError(f"orbit sum {total} not divisible by period {p}")
    return total // p


# -- subcommand implementations ----------------------------------------------------


def _cmd_count(args) -> tuple[dict, int]:
    spec = _word_spec(args.family, args.m, args.q, args.N, _fraction(args.delta))
    ps = [_int(x, "--p-list entry") for x in args.p_list.split(",")] if args.p_list else [args.p]
    if any(p < 1 for p in ps):
        raise _UsageError("periods must be >= 1")
    rows = []
    for p in ps:
        c = spec.count_periodic(p)
        rows.append({"family": args.family, "m": args.m, "p": p, "count": c,
                     "orbits": _orbit_count(spec, p, c)})
    results: dict = {"counts": rows}
    if len(rows) == 1:
        results["count"] = rows[0]["count"]
    prov = ["count = trace(A^(p/g))^g for the one-step letter matrix A and g = gcd(m!, p); exact integers"]
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=["family", "m", "p", "count", "orbits"])
            w.writeheader()
            w.writerows(rows)
        prov.append(f"csv written to {args.csv}")
    return _envelope(args, results, prov), 0


def _cmd_enumerate(args) -> tuple[dict, int]:
    spec = _word_spec(args.family, args.m, args.q, args.N, _fraction(args.delta))
    words = spec.enumerate_periodic(args.p, method=args.method)
    results = {"count": len(words), "words": [w.text() for w in words]}
    prov = ["level-by-level search with exact rational constraint checks; lexicographic order"]
    return _envelope(args, results, prov), 0


def _cmd_orbits(args) -> tuple[dict, int]:
    spec = _word_spec(args.family, args.m, args.q, args.N, _fraction(args.delta))
    words = spec.enumerate_periodic(args.p)
    dec = orbit_decompose(words, args.p)
    results = {
        "n_orbits": dec.n_orbits,
        "free": dec.free,
        "orbit_representatives": [o[0].text() for o in dec.orbits],
        "orbit_sizes": [len(o) for o in dec.orbits],
    }
    if dec.witness is not None:
        results["short_orbit_witness"] = dec.witness.text()
    prov = ["orbits from explicit shift closure of the enumerated period-p set"]
    return _envelope(args, results, prov), 0


def _cmd_verify_lemma(args) -> tuple[dict, int]:
    if args.trials < 0:
        raise _UsageError(f"--trials must be >= 0, got {args.trials}")
    alphabet = parse_alphabet(args.alphabet) if args.alphabet else None
    res = run_lemma_check(
        args.id,
        seed=args.seed,
        m=args.m,
        alphabet=alphabet,
        delta=_fraction(args.delta),
        trials=args.trials,
        p=args.p,
        q=args.q,
        copies=args.copies,
        ell=args.field or None,
    )
    prov = [f"property suite for statement {args.id} with seed {args.seed}"]
    doc = _envelope(args, res.to_json(), prov)
    return doc, 0 if res.passed else 2


# copies a join may take: the index report lists every factor, and a join of
# nonempty factors passes the join cell cap from 24 copies on
_JOIN_FACTOR_CAP = 10**5


def _join_factor(args) -> tuple[SimplicialComplex, int]:
    if args.copies < 1:
        raise _UsageError(f"--copies must be >= 1, got {args.copies}")
    if args.copies > _JOIN_FACTOR_CAP:
        raise ResourceCapError(
            f"--copies {args.copies} is above the join factor cap ({_JOIN_FACTOR_CAP}); nothing was built"
        )
    spec, p = _parse_join_token(args.join_of)
    return periodic_point_complex(spec, p), p


def _cmd_homology(args) -> tuple[dict, int]:
    if args.input:
        with open(args.input) as fh:
            c = SimplicialComplex.from_json(json.load(fh))
        p = c.p
        prov = [f"complex loaded from {args.input}"]
    else:
        if not args.join_of:
            raise _UsageError("homology needs --join-of or --input")
        base, p = _join_factor(args)
        prov = [f"factor: period-{p} point set of {args.join_of} with {base.n_vertices} points"]
        c = join_power(base, args.copies)
        if args.copies > 1:
            prov.append(f"join of {args.copies} copies: {c.total_cells()} cells")
    field = args.field if args.field else p
    bv = betti_numbers(c, field)
    results = {
        "cells_by_dim": {str(d): n for d, n in c.cell_counts().items()},
        "free": None if c.action is None else c.is_free,
        **bv.to_json(),
    }
    prov.append(f"reduced Betti numbers by exact column reduction over F_{field}")
    return _envelope(args, results, prov), 0


def _cmd_index(args) -> tuple[dict, int]:
    base, p = _join_factor(args)
    report = index_of_join_of_finite([base] * args.copies)
    results = {"report": report.to_json()}
    if report.exact:
        results["exact"] = report.coind_lower
    prov = list(report.provenance)
    return _envelope(args, results, prov), 0


def _torus_spec_from_args(args) -> TorusGridSpec:
    if args.family == "Z":
        return z_torus_spec(args.p, args.q)
    if args.family == "XSN":
        if args.N < 1:
            raise _UsageError(f"N must be >= 1, got {args.N}")
        return separated_torus_spec(args.p, args.q, args.N, _fraction(args.delta))
    raise _UsageError(f"unknown torus family {args.family!r}; known: Z, XSN")


def _cmd_approx_z(args) -> tuple[dict, int]:
    if args.cap is not None and args.cap < 1:
        raise _UsageError(f"--cap must be >= 1, got {args.cap}")
    spec = _torus_spec_from_args(args)
    c = build_approx(spec, cell_cap=args.cap)
    field = args.field if args.field else spec.p
    bv = betti_numbers(c, field)
    results = {
        "spec": spec.token(),
        "resolution": spec.q,
        "vertices": c.n_vertices,
        "cells_by_dim": {str(d): n for d, n in c.cell_counts().items()},
        "free": c.is_free,
        **bv.to_json(),
    }
    prov = [
        f"inner vertex-wise cubical approximation at resolution q={spec.q}",
        f"reduced Betti numbers by exact column reduction over F_{field}",
    ]
    if args.stability:
        rep = stability_check(spec, field, cell_cap=args.cap)
        results["stability"] = rep.to_json()
        prov.append("stability: profiles at q and 2q compared, never merged")
    return _envelope(args, results, prov), 0


def _cmd_certify(args) -> tuple[dict, int]:
    if args.cert:
        with open(args.cert) as fh:
            cert = EquivariantMapCert.from_json(json.load(fh))
        if not args.target:
            raise _UsageError("--cert needs --target, e.g. Z:p=2,q=8")
        head, params = _token_params(args.target)
        unknown = sorted(set(params) - {"p", "q"})
        if unknown:
            raise _UsageError(f"unknown keys in target token: {unknown}")
        if head != "Z" or _int(params.get("p", "0"), "p") != 2 or "q" not in params:
            raise _UsageError("certificate targets support Z:p=2,q=<res> for now")
        q = _int(params["q"], "q")
        target = build_approx(z_torus_spec(2, q))
        prov = [f"certificate loaded from {args.cert}; target rebuilt from {args.target}"]
    else:
        q = args.q
        target = build_approx(z_torus_spec(2, q))
        cert = canonical_certificate_P2(q, target=target)
        prov = [f"canonical antipodal certificate for the period-2 approximation at q={q}"]
    rep = verify_certificate(cert, target)
    results = {"certificate": cert.to_json(), "verification": rep.to_json()}
    code = 0
    if rep.accepted:
        updated = apply_certificate(rep, IndexReport.nonempty_free(cert.p))
        results["coind_lower"] = updated.coind_lower
        results["report"] = updated.to_json()
        prov.append(f"coindex lower bound {updated.coind_lower} from the accepted certificate")
    else:
        code = 2
        prov.append("certificate rejected; see verification.reason and witness")
    if args.save_cert:
        with open(args.save_cert, "w") as fh:
            json.dump(cert.to_json(), fh, sort_keys=True, indent=2)
        prov.append(f"certificate written to {args.save_cert}")
    return _envelope(args, results, prov), code


@functools.cache  # built once per process; parse_args keeps no state between calls
def build_parser() -> _Parser:
    parser = _Parser(prog="zpindex", allow_abbrev=False, description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("count", allow_abbrev=False, help="count periodic points via the transfer matrix")
    _add_word_args(sp, default=0)
    sp.add_argument("--p-list", dest="p_list", default="")
    sp.add_argument("--csv", default="")
    _add_common(sp)
    sp.set_defaults(func=_cmd_count)

    sp = subs.add_parser("enumerate", allow_abbrev=False, help="enumerate periodic points")
    _add_word_args(sp, required=True)
    sp.add_argument("--method", choices=["auto", "direct", "recoded"], default="auto")
    _add_common(sp)
    sp.set_defaults(func=_cmd_enumerate)

    sp = subs.add_parser("orbits", allow_abbrev=False, help="decompose periodic points into shift orbits")
    _add_word_args(sp, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_orbits)

    sp = subs.add_parser("verify-lemma", allow_abbrev=False, help="run a property suite for one proven statement")
    sp.add_argument("--id", required=True, choices=list(LEMMA_IDS))
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--alphabet", default="")
    sp.add_argument("--delta", default="1/2")
    sp.add_argument("--trials", type=int, default=500)
    sp.add_argument("--p", type=int, default=5)
    sp.add_argument("--q", type=int, default=8)
    sp.add_argument("--copies", type=int, default=2)
    sp.add_argument("--field", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_verify_lemma)

    sp = subs.add_parser("homology", allow_abbrev=False, help="reduced Betti numbers of a join or a stored complex")
    sp.add_argument("--join-of", dest="join_of", default="")
    sp.add_argument("--copies", type=int, default=1)
    sp.add_argument("--input", default="")
    sp.add_argument("--field", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_homology)

    sp = subs.add_parser("index", allow_abbrev=False, help="exact index/coindex report for a join of finite free sets")
    sp.add_argument("--join-of", dest="join_of", required=True)
    sp.add_argument("--copies", type=int, default=1)
    _add_common(sp)
    sp.set_defaults(func=_cmd_index)

    sp = subs.add_parser("approx-z", allow_abbrev=False, help="cubical approximation of a periodic-point set on the torus grid")
    sp.add_argument("--family", default="Z")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--N", type=int, default=1)
    sp.add_argument("--delta", default="1/2")
    sp.add_argument("--field", type=int, default=0)
    sp.add_argument("--stability", action="store_true")
    sp.add_argument("--cap", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_approx_z)

    sp = subs.add_parser("certify", allow_abbrev=False, help="build or verify an equivariant-map certificate")
    sp.add_argument("--q", type=int, default=8)
    sp.add_argument("--cert", default="")
    sp.add_argument("--target", default="")
    sp.add_argument("--save-cert", dest="save_cert", default="")
    _add_common(sp)
    sp.set_defaults(func=_cmd_certify)

    return parser


build_parser()  # built as the module loads, so no command pays for it


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        doc, code = args.func(args)
        _emit(doc, args.output)
        return code
    except _UsageError as e:
        error = {"type": "usage", "reason": str(e)}
    except NeededRangeError as e:
        error = {"type": "needed-range", "reason": str(e),
                 "needed": list(e.needed), "missing": list(e.missing)}
    except NonFreeActionError as e:
        error = {"type": "non-free-action", "reason": str(e),
                 "witness": list(map(str, e.witness)) if e.witness else None}
    except ResourceCapError as e:
        error = {"type": "resource-cap", "reason": str(e)}
    except (ShapeError, json.JSONDecodeError) as e:
        error = {"type": "shape", "reason": str(e)}
    except OSError as e:
        error = {"type": "io", "reason": str(e)}
    _emit({"error": error}, None)
    return 1


if __name__ == "__main__":
    sys.exit(main())
