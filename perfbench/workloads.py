"""Workloads of the zpindex benchmark: job lists, exact-answer oracles and
recorded result digests.

A job is one call of ``zpindex.cli.main(argv)``.  Each job carries an
``expect`` function that pairs values read from the job's ``results`` object
with expected values.  Expected values are derived independently wherever a
formula exists:

* a Sigma m=1 period-p set has 2^p + 2(-1)^p points (the trace of (J - I)^p
  for the 3-letter mismatch matrix); for m=2 and p prime to 2 the recoding
  k -> 2k mod p gives the same count;
* a free Z_p action on n points has n/p orbits, each of size p;
* the k-fold join of an n-point set has C(k, d+1) n^(d+1) cells in dimension
  d and reduced Betti numbers (0, ..., 0, (n-1)^k);
* every Betti vector satisfies the reduced Euler identity.

Where no formula exists the values recorded at the seed commit are used
(the torus approximations' Betti numbers and vertex counts, the certificate's
coindex bound).  On top of that, each job's whole ``results`` object is
hashed and compared with the digest recorded at the seed commit, so any
change of a library result is a failure.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from math import comb
from typing import Callable

DEFAULT_SEED = 0

Expectation = tuple[str, object, object]  # (label, got, expected)


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    expect: Callable[[dict], list[Expectation]]
    seeded: bool = False  # argv carries the benchmark seed, so the digest is per seed

    @property
    def text(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_jobs: Callable[[int], list[Job]]
    full_coverage: bool  # top-level spans must cover >= 95% of the traced wall time


def results_digest(results) -> str:
    """sha256 of the canonical (sorted-key, compact) JSON of a results object."""
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- independent formulas ----------------------------------------------------------


def sigma1_count(p: int) -> int:
    return 2**p + 2 * (-1) ** p


def _alternating(values) -> int:
    return sum((-1) ** d * v for d, v in enumerate(values))


def _euler(r: dict) -> list[Expectation]:
    cells = [r["cells_by_dim"][str(d)] for d in range(len(r["cells_by_dim"]))]
    return [("reduced Euler identity", _alternating(r["reduced_betti"]), _alternating(cells) - 1)]


def _word_letters(text: str) -> list[int]:
    """"Z3:[0,1,2]" or "S:q=8:[0,2,4]" -> [0, 1, 2]."""
    return json.loads(text.rpartition(":")[2])


# -- expectations per command ------------------------------------------------------


def _join_homology(n: int, copies: int, field: int):
    def expect(r):
        return [
            ("cells_by_dim", r["cells_by_dim"],
             {str(d): comb(copies, d + 1) * n ** (d + 1) for d in range(copies)}),
            ("reduced_betti", r["reduced_betti"], [0] * (copies - 1) + [(n - 1) ** copies]),
            ("connectivity", r["connectivity"], copies - 2),
            ("field", r["field"], field),
            ("free", r["free"], True),
            *_euler(r),
        ]
    return expect


def _approx(p: int, q: int, vertices: int, betti: list[int]):
    """Recorded values: no closed formula gives these approximations' homology."""
    def expect(r):
        out = [
            ("reduced_betti", r["reduced_betti"], betti),
            ("vertices", r["vertices"], vertices),
            ("cells_by_dim.0", r["cells_by_dim"]["0"], vertices),
            ("spec", r["spec"], f"Z:p={p},q={q}"),
            ("field", r["field"], p),
            ("free", r["free"], True),
            *_euler(r),
        ]
        if "stability" in r:
            s = r["stability"]
            out += [
                ("stability.agree", s["agree"], True),
                ("stability.coarse", s["coarse"]["reduced_betti"], betti),
                ("stability.fine", s["fine"]["reduced_betti"], betti),
                ("stability.refined_resolution", s["refined_resolution"], 2 * q),
            ]
        return out
    return expect


def _orbits(words: int, p: int):
    def expect(r):
        reps = r["orbit_representatives"]
        return [
            ("n_orbits", r["n_orbits"], words // p),
            ("free", r["free"], True),
            ("orbit_sizes", r["orbit_sizes"], [p] * (words // p)),
            ("representatives sorted and distinct", reps, sorted(set(reps))),
        ]
    return expect


def _count_sigma1(ps: list[int]):
    def expect(r):
        return [("counts", r["counts"], [
            {"family": "Sigma", "m": 1, "p": p, "count": sigma1_count(p),
             "orbits": sigma1_count(p) // p} for p in ps])]
    return expect


def _enumerate_sigma2(p: int):
    def expect(r):
        words = [_word_letters(w) for w in r["words"]]
        separated = sum(all(w[k] != w[(k + 2) % p] for k in range(p)) for w in words)
        return [
            ("count", r["count"], sigma1_count(p)),
            ("distinct words", len(set(r["words"])), sigma1_count(p)),
            ("words with x[k] != x[k+2]", separated, sigma1_count(p)),
        ]
    return expect


def _verify(lemma: str, trials: int, details: dict | None = None):
    def expect(r):
        out = [
            ("lemma", r["lemma"], lemma),
            ("passed", r["passed"], True),
            ("failures", r["failures"], 0),
            ("trials", r["trials"], trials),
        ]
        for key, value in (details or {}).items():
            out.append((f"details.{key}", r["details"][key], value))
        return out
    return expect


def _index(copies: int, p: int):
    def expect(r):
        rep = r["report"]
        k = copies - 1
        return [
            ("exact", r["exact"], k),
            ("report.exact", rep["exact"], True),
            ("report bounds", [rep["ind_lower"], rep["ind_upper"], rep["coind_lower"], rep["coind_upper"]], [k] * 4),
            ("report.p", rep["p"], p),
        ]
    return expect


def _certify(coind_lower: int):
    def expect(r):
        return [
            ("verification.accepted", r["verification"]["accepted"], True),
            ("coind_lower", r["coind_lower"], coind_lower),
        ]
    return expect


# -- workloads ---------------------------------------------------------------------

# Vertex counts of the Z-family torus approximations are the period-p word
# counts of the Z family at resolution q, recorded at the seed commit.  For
# p = 2 they follow from q * (q/2 + 1), which the table restates.
Z_WORDS = {(5, 8): 17960, (3, 16): 2928, (2, 16): 16 * 9, (2, 64): 64 * 33}


def _args(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def _join3_sigma7(seed: int) -> list[Job]:
    return [Job(_args("homology --join-of Sigma:m=1,p=7 --copies 3"), _join_homology(sigma1_count(7), 3, 7))]


def _torus_z5q8(seed: int) -> list[Job]:
    return [Job(_args("approx-z --family Z --p 5 --q 8"), _approx(5, 8, Z_WORDS[5, 8], [0, 5, 4, 0, 0, 0]))]


def _orbits_z5q8(seed: int) -> list[Job]:
    return [Job(_args("orbits --family Z --p 5 --q 8"), _orbits(Z_WORDS[5, 8], 5))]


def _mix_small(seed: int) -> list[Job]:
    ps = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    return [
        Job(_args("count --family Sigma --m 1 --p-list " + ",".join(map(str, ps))), _count_sigma1(ps)),
        Job(_args("enumerate --family Sigma --m 2 --p 7"), _enumerate_sigma2(7)),
        Job(_args("orbits --family Sigma --m 1 --p 11"), _orbits(sigma1_count(11), 11)),
        Job(_args(f"verify-lemma --id 3.1 --m 2 --alphabet Z3 --trials 4000 --seed {seed}"),
            _verify("3.1", 4000, {"seed": seed}), seeded=True),
        Job(_args(f"verify-lemma --id 3.2 --m 2 --alphabet S:q=12 --trials 4000 --seed {seed}"),
            _verify("3.2", 4000, {"seed": seed}), seeded=True),
        Job(_args("verify-lemma --id 4.1 --m 2 --p 7"), _verify("4.1", 3, {"period_p_points": sigma1_count(7)})),
        Job(_args("verify-lemma --id 4.2 --m 1 --p 5 --copies 3"),
            _verify("4.2", 4, {"points": sigma1_count(5), "betti": [0, 0, (sigma1_count(5) - 1) ** 3]})),
        Job(_args("verify-lemma --id embed-1.5 --p 3 --q 16"),
            _verify("embed-1.5", Z_WORDS[3, 16], {"words": Z_WORDS[3, 16], "transported_coind_lower": 0})),
        Job(_args("index --join-of Sigma:m=2,p=7 --copies 3"), _index(3, 7)),
        Job(_args("homology --join-of Sigma:m=1,p=5 --copies 3"), _join_homology(sigma1_count(5), 3, 5)),
        Job(_args("approx-z --family Z --p 3 --q 16"), _approx(3, 16, Z_WORDS[3, 16], [0, 3, 2, 0])),
        Job(_args("approx-z --family Z --p 2 --q 16 --stability"), _approx(2, 16, Z_WORDS[2, 16], [0, 1, 0])),
        Job(_args("approx-z --family Z --p 2 --q 64"), _approx(2, 64, Z_WORDS[2, 64], [0, 1, 0])),
        Job(_args("certify --q 64"), _certify(1)),
    ]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "join3-sigma7",
            "The paper's headline case: 3-fold join of the 126-point period-7 set, ~2M triangles; "
            "join construction, boundary assembly and top-dimension rank dominate.",
            _join3_sigma7, True),
        Workload(
            "torus-z5q8",
            "Cubical complex of 372,880 cells over six dimensions; rank work spread over d = 1..4 "
            "with real reduction, so a change tuned to the join still shows here.",
            _torus_z5q8, True),
        Workload(
            "orbits-z5q8",
            "Enumeration and orbit decomposition of 17960 words only; bypasses complexes and homology, "
            "so changes there should not move it.",
            _orbits_z5q8, True),
        Workload(
            "mix-small",
            "14 small jobs in one process, the only workload covering seqmaps, verify and coindex; "
            "fixed per-call costs show here as losses.",
            _mix_small, False),
    ]
}


# Digests of each job's ``results`` at the seed commit, benchmark seed DEFAULT_SEED,
# keyed by the job's argv text.
RECORDED_DIGESTS = {
    "count --family Sigma --m 1 --p-list 2,3,5,7,11,13,17,19,23":
        "38ab3b5f19e33763f808e443cead92b1983116207177dbe680fc5b0563edd885",
    "enumerate --family Sigma --m 2 --p 7":
        "6ab56298ea4438e8dcb20ab9db36df8c4925128fcf0912712368e9d910f4c07f",
    "orbits --family Sigma --m 1 --p 11":
        "b42b452c360d1126eaaefe6aa88f1e2ec077ad6ebb48bf160a38bc6bdba59737",
    "verify-lemma --id 3.1 --m 2 --alphabet Z3 --trials 4000 --seed 0":
        "e7ff2b9b5b87855a8f6e426572e368095215d3f8b6a0b2dd963f8d8b2dc3c363",
    "verify-lemma --id 3.2 --m 2 --alphabet S:q=12 --trials 4000 --seed 0":
        "71287f996bfc151fa2eeeb3cb30030f91bce9d298a3ffd0f1a68a88313e1a222",
    "verify-lemma --id 4.1 --m 2 --p 7":
        "ee753ffe17ff6ab0d093b6c2f1645c75ec6a059a2a49e6a0b6b6067caa46744c",
    "verify-lemma --id 4.2 --m 1 --p 5 --copies 3":
        "351826f36fdc5fa1e4b2a4a6592b2928db1b06ab9d24e14d2c7917e33c0ee9f5",
    "verify-lemma --id embed-1.5 --p 3 --q 16":
        "299ac6356242895b73728057290c28fd603ab84d7cd1641468bc02025da6aa5f",
    "index --join-of Sigma:m=2,p=7 --copies 3":
        "ae09be100be0868048faf33a70c3a7edad1ae6eaa8dc2a09c34a33ef085617a8",
    "homology --join-of Sigma:m=1,p=5 --copies 3":
        "20fc9f7256f4e2376d31622f0f4971447632afd84e80b8fa976e9541219e684f",
    "approx-z --family Z --p 3 --q 16":
        "ffa8ce3739fac8ca390d70b22ed86d1703399a0847493802571ab3783f4a3fce",
    "approx-z --family Z --p 2 --q 16 --stability":
        "2c7538f38648167d3fb9323a2b9f1568f56c75f59b691d1175dfd74804171fa5",
    "approx-z --family Z --p 2 --q 64":
        "37df7def1970ead795872395233c242669ae9a88dab6d15ac07ecc130c69058d",
    "certify --q 64":
        "1681e73cd7a51549a9c652f67ccfdb7141787d912d7e6b45680f3ffb2dcb6257",
    "orbits --family Z --p 5 --q 8":
        "80c214e6d2c9d7f143cd3b13a44732e7581141361ae928672f2f0a2a64b1267a",
    "approx-z --family Z --p 5 --q 8":
        "12a46c5727fa0d3399b0977f692d7a3606dd169b90443347c5d25dd1d33d96ad",
    "homology --join-of Sigma:m=1,p=7 --copies 3":
        "b2bf98fc4b8815d583aa454ea299bed7f6c41b1eb95818a391dd78777d6e2891",
}
