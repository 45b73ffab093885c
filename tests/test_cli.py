import contextlib
import copy
import csv
import functools
import io
import json
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zpindex.alphabets import parse_alphabet
from zpindex.cli import build_parser, main
from zpindex.shiftspaces import Separation, SubshiftSpec, mismatch_shift, orbit_decompose


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_count_example(capsys):
    code, doc = run(capsys, "count", "--family", "Sigma", "--m", "1", "--p", "7")
    assert code == 0
    assert doc["results"]["count"] == 126
    assert doc["seed"] == 0
    assert doc["provenance"]
    assert "zpindex" in doc["versions"]


def test_count_sweep_csv(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code, doc = run(
        capsys, "count", "--family", "Sigma", "--m", "1",
        "--p-list", "2,3,5,7,11", "--csv", str(path),
    )
    assert code == 0
    counts = [row["count"] for row in doc["results"]["counts"]]
    assert counts == [6, 6, 30, 126, 2046]
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["count"] for r in rows] == ["6", "6", "30", "126", "2046"]
    assert [r["orbits"] for r in rows] == ["3", "2", "6", "18", "186"]
    assert set(rows[0]) == {"family", "m", "p", "count", "orbits"}


def test_enumerate_and_orbits(capsys):
    code, doc = run(capsys, "enumerate", "--family", "Z", "--p", "2", "--q", "8")
    assert code == 0 and doc["results"]["count"] == 40
    assert doc["results"]["words"][0] == "S:q=8:[0,2]"

    code, doc = run(capsys, "orbits", "--family", "Sigma", "--p", "5")
    assert code == 0
    assert doc["results"]["n_orbits"] == 6 and doc["results"]["free"] is True


def test_verify_lemma_passes(capsys):
    code, doc = run(
        capsys, "verify-lemma", "--id", "3.2", "--m", "2", "--alphabet", "Z3",
        "--trials", "120", "--seed", "1",
    )
    assert code == 0
    assert doc["results"]["failures"] == 0
    assert doc["results"]["lemma"] == "3.2"
    assert doc["results"]["trials"] == 120

    code, doc = run(capsys, "verify-lemma", "--id", "4.1", "--m", "2", "--p", "7")
    assert code == 0 and doc["results"]["passed"] is True

    code, doc = run(capsys, "verify-lemma", "--id", "embed-1.5", "--p", "3", "--q", "8")
    assert code == 0 and doc["results"]["failures"] == 0


def test_homology_command(capsys):
    code, doc = run(capsys, "homology", "--join-of", "Sigma:m=1,p=5", "--copies", "2")
    assert code == 0
    assert doc["results"]["reduced_betti"] == [0, 841]
    assert doc["results"]["free"] is True
    assert doc["results"]["cells_by_dim"] == {"0": 60, "1": 900}


def test_homology_input_file(capsys, tmp_path):
    from zpindex.complexes import standard_join_model

    path = tmp_path / "model.json"
    path.write_text(json.dumps(standard_join_model(3, 2).to_json()))
    code, doc = run(capsys, "homology", "--input", str(path), "--field", "3")
    assert code == 0
    assert doc["results"]["reduced_betti"] == [0, 4]


def test_index_command(capsys):
    code, doc = run(capsys, "index", "--join-of", "Sigma:m=2,p=7", "--copies", "3")
    assert code == 0
    assert doc["results"]["exact"] == 2
    assert doc["results"]["report"]["exact"] is True


def test_approx_z_command(capsys):
    code, doc = run(capsys, "approx-z", "--p", "2", "--q", "8", "--family", "Z", "--stability")
    assert code == 0
    res = doc["results"]
    assert res["vertices"] == 40
    assert res["reduced_betti"] == [0, 1, 0]
    assert res["free"] is True
    assert res["stability"]["agree"] is True


def test_approx_z_stability_builds_each_resolution_once(capsys, monkeypatch):
    from zpindex import cli, torusgrid

    built = []
    for mod in (cli, torusgrid):
        build = mod.build_approx
        monkeypatch.setattr(mod, "build_approx", lambda spec, cell_cap=None, build=build:
                            built.append(spec.q) or build(spec, cell_cap=cell_cap))
    code, doc = run(capsys, "approx-z", "--p", "2", "--q", "8", "--stability")
    assert code == 0 and doc["results"]["stability"]["coarse"] == doc["results"]["stability"]["fine"]
    assert built == [8, 16]


def test_the_uint8_word_boundary_answers_every_command(capsys):
    # 256 letters are the most a uint8 word array holds
    code, doc = run(capsys, "certify", "--q", "256")
    assert code == 0 and doc["results"]["coind_lower"] == 1
    code, doc = run(capsys, "approx-z", "--family", "Z", "--p", "2", "--q", "256")
    assert code == 0 and doc["results"]["vertices"] == 256 * 129 and doc["results"]["free"]
    code, doc = run(capsys, "enumerate", "--family", "Z", "--p", "2", "--q", "256")
    words = doc["results"]["words"]
    assert code == 0 and len(words) == 256 * 129
    assert words[0] == "S:q=256:[0,64]" and words[-1] == "S:q=256:[255,191]"
    code, doc = run(capsys, "orbits", "--family", "Z", "--p", "2", "--q", "256")
    reps = doc["results"]["orbit_representatives"]
    assert code == 0 and doc["results"]["free"] and 2 * len(reps) == len(words)
    assert set(reps) <= set(words)


def test_certify_roundtrip(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, doc = run(capsys, "certify", "--q", "8", "--save-cert", str(path))
    assert code == 0
    assert doc["results"]["coind_lower"] == 1
    assert doc["results"]["verification"]["accepted"] is True

    code, doc = run(capsys, "certify", "--cert", str(path), "--target", "Z:p=2,q=8")
    assert code == 0 and doc["results"]["verification"]["accepted"] is True


def test_certify_tampered_exits_2(capsys, tmp_path):
    path = tmp_path / "cert.json"
    run(capsys, "certify", "--q", "8", "--save-cert", str(path))
    doc = json.loads(path.read_text())
    doc["vertex_map"][0], doc["vertex_map"][1] = doc["vertex_map"][1], doc["vertex_map"][0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, "certify", "--cert", str(bad), "--target", "Z:p=2,q=8")
    assert code == 2
    assert out["results"]["verification"]["accepted"] is False
    assert out["results"]["verification"]["witness"] is not None


@functools.lru_cache(maxsize=1)
def _saved_certificate() -> str:
    """The text of the certificate that ``certify --q 8 --save-cert`` writes."""
    from zpindex.torusgrid import build_approx, canonical_certificate_P2, z_torus_spec

    return json.dumps(canonical_certificate_P2(8, target=build_approx(z_torus_spec(2, 8))).to_json())


def _set(key, value, inside=False):
    def mutate(doc):
        (doc["domain"] if inside else doc)[key] = value
    return mutate


# each once ended in a traceback or was accepted after truncating or coercing a
# value; each is now one shape error naming the key and what it found
CERT_MUTATIONS = {
    "vertex_map null": (_set("vertex_map", None), "'vertex_map'", "found null"),
    "p a list": (_set("p", [2]), "'p'", "found an array"),
    "domain an integer": (_set("domain", 5), "'domain'", "found an integer"),
    "domain p a string": (_set("p", "x", inside=True), "'p'", "found a string"),
    "maximal cells nested": (lambda d: d["domain"].update(
        maximal_cells=[[c] for c in d["domain"]["maximal_cells"]]), "'maximal_cells'",
        "found an array in an array in an array"),
    "n a float": (_set("n", 1.9), "'n'", "found a number"),
    "p a float": (_set("p", 2.7), "'p'", "found a number"),
    "p a numeric string": (_set("p", "2"), "'p'", "found a string"),
    "vertex_map floats": (lambda d: d.update(vertex_map=[v + 0.5 for v in d["vertex_map"]]),
                          "'vertex_map'", "found a number in an array"),
    "domain action a float": (lambda d: d["domain"]["action"].__setitem__(0, 4.5), "'action'",
                              "found a number in an array"),
    "n a boolean": (_set("n", True), "'n'", "found a boolean"),
    "target_ref an integer": (_set("target_ref", 5), "'target_ref'", "found an integer"),
    "domain vertices integers": (lambda d: d["domain"].update(
        vertices=list(range(len(d["domain"]["vertices"])))), "'vertices'",
        "found an integer in an array"),
    "domain another string": (_set("domain", "join"), "'domain'", "found the string 'join'"),
    "domain action past int64": (lambda d: d["domain"]["action"].__setitem__(0, 2**70), "'action'",
                                 "in [0, 8), found 1180591620717411303424 in an array"),
    "domain cell vertex negative": (lambda d: d["domain"]["maximal_cells"][0].__setitem__(0, -1),
                                    "'maximal_cells'", "found -1 in an array in an array"),
}


@pytest.mark.parametrize("name", sorted(CERT_MUTATIONS))
def test_certificate_documents_are_read_exactly(capsys, tmp_path, name):
    mutate, key, found = CERT_MUTATIONS[name]
    path = tmp_path / "cert.json"
    doc = json.loads(_saved_certificate())
    mutate(doc)
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "certify", "--cert", str(path), "--target", "Z:p=2,q=8")
    assert code == 1 and out["error"]["type"] == "shape"
    assert key in out["error"]["reason"] and out["error"]["reason"].endswith(found)


@pytest.mark.parametrize("doc", [[1, 2], "cert", None, 3])
def test_certificate_documents_must_be_objects(capsys, tmp_path, doc):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "certify", "--cert", str(path), "--target", "Z:p=2,q=8")
    assert code == 1 and out["error"]["type"] == "shape"
    assert out["error"]["reason"].startswith("certificate document must be an object, found ")


def test_an_exactly_read_certificate_writes_the_document_it_read(tmp_path, capsys):
    from zpindex.coindex import EquivariantMapCert

    path = tmp_path / "cert.json"
    run(capsys, "certify", "--q", "8", "--save-cert", str(path))
    doc = json.loads(path.read_text())
    assert doc == json.loads(_saved_certificate())
    assert EquivariantMapCert.from_json(doc).to_json() == doc
    del doc["domain"]["kind"]  # optional: a complex document is simplicial by default
    assert EquivariantMapCert.from_json(doc).to_json()["domain"]["kind"] == "simplicial"


CERT_PATHS = [("p",), ("n",), ("domain",), ("vertex_map",), ("target_ref",), ("vertex_map", 0),
              ("domain", "kind"), ("domain", "p"), ("domain", "vertices"), ("domain", "action"),
              ("domain", "maximal_cells"), ("domain", "vertices", 0), ("domain", "action", 0),
              ("domain", "maximal_cells", 0), ("domain", "maximal_cells", 0, 0)]
CERT_VALUES = [None, True, 0, 1, 2, -1, 7, 2**70, 1.5, 2.0, "2", "x", "join(Zp)^{n+1}", [], [2],
               [[0, 1]], [1.5], {}, {"p": 2}]


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(CERT_PATHS), st.sampled_from(["drop", "set", "nest"]),
                          st.sampled_from(CERT_VALUES)), min_size=1, max_size=3))
# the one [2] that sampled_from draws, set at a path and then at an entry of
# that value: unless each edit stores a copy, the list comes to contain itself
@example([(("vertex_map",), "set", CERT_VALUES[CERT_VALUES.index([2])]),
          (("vertex_map", 0), "set", CERT_VALUES[CERT_VALUES.index([2])])])
def test_mutated_certificate_gives_one_json_document(edits):
    # each edit drops, replaces or nests the value at a path, where the path exists
    import tempfile

    doc = json.loads(_saved_certificate())
    for path, op, value in edits:
        parent = doc
        for step in path[:-1]:
            ok = isinstance(parent, dict) and step in parent or (
                isinstance(parent, list) and isinstance(step, int) and step < len(parent))
            parent = parent[step] if ok else None
        last = path[-1]
        if not (isinstance(parent, dict) and last in parent
                or isinstance(parent, list) and isinstance(last, int) and last < len(parent)):
            continue
        if op == "drop":
            del parent[last]
        else:
            parent[last] = copy.deepcopy(value) if op == "set" else [parent[last]]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        path.write_text(json.dumps(doc))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["certify", "--cert", str(path), "--target", "Z:p=2,q=8"])
    assert code in (0, 1, 2), edits
    out = json.loads(buf.getvalue())
    assert ("error" in out) == (code == 1), edits
    if code != 1:
        # read, not coerced: the certificate's own fields are the document's
        cert = out["results"]["certificate"]
        assert {k: cert[k] for k in ("p", "n", "vertex_map", "target_ref")} == {
            k: doc[k] for k in ("p", "n", "vertex_map", "target_ref")}, edits


def test_usage_errors_exit_1(capsys, tmp_path):
    code, doc = run(capsys, "count", "--family", "Sigma", "--bogus", "1")
    assert code == 1 and doc["error"]["type"] == "usage"

    code, doc = run(capsys, "count", "--family", "Nope", "--p", "3")
    assert code == 1 and doc["error"]["type"] == "usage"

    code, doc = run(capsys, "verify-lemma", "--id", "9.9")
    assert code == 1

    code, doc = run(capsys, "enumerate", "--family", "Z", "--p", "2", "--q", "6")
    assert code == 1 and doc["error"]["type"] == "shape"

    code, doc = run(capsys, "count", "--family", "Sigma", "--p-list", "2,x")
    assert code == 1 and doc["error"]["type"] == "usage"

    code, doc = run(capsys, "homology", "--join-of", "Sigma:m=x,p=5")
    assert code == 1 and doc["error"]["type"] == "usage"

    # a repeated key once silently won: this answered for p = 3
    code, doc = run(capsys, "index", "--join-of", "Sigma:m=1,p=5,p=3")
    assert code == 1 and doc["error"] == {
        "type": "usage", "reason": "repeated key 'p' in 'Sigma:m=1,p=5,p=3'"}

    path = tmp_path / "cert.json"
    run(capsys, "certify", "--q", "8", "--save-cert", str(path))
    code, doc = run(capsys, "certify", "--cert", str(path), "--target", "Z:p=2")
    assert code == 1 and doc["error"]["type"] == "usage"

    # an unknown or repeated target key was once ignored or won silently
    code, doc = run(capsys, "certify", "--cert", str(path), "--target", "Z:p=2,q=8,foo=1")
    assert code == 1 and doc["error"] == {
        "type": "usage", "reason": "unknown keys in target token: ['foo']"}
    code, doc = run(capsys, "certify", "--cert", str(path), "--target", "Z:p=2,q=8,q=16")
    assert code == 1 and doc["error"] == {
        "type": "usage", "reason": "repeated key 'q' in 'Z:p=2,q=8,q=16'"}

    cert = json.loads(path.read_text())
    del cert["domain"]
    bad = tmp_path / "no-domain.json"
    bad.write_text(json.dumps(cert))
    code, doc = run(capsys, "certify", "--cert", str(bad), "--target", "Z:p=2,q=8")
    assert code == 1 and doc["error"]["type"] == "shape"

    bad.write_text("{not json")
    code, doc = run(capsys, "certify", "--cert", str(bad), "--target", "Z:p=2,q=8")
    assert code == 1 and doc["error"]["type"] == "shape"

    # each once printed an answer: the homology of one copy, and "passed" on -3 trials
    code, doc = run(capsys, "homology", "--join-of", "Sigma:m=1,p=5", "--copies", "0")
    assert code == 1 and doc["error"] == {"type": "usage", "reason": "--copies must be >= 1, got 0"}

    code, doc = run(capsys, "verify-lemma", "--id", "3.2", "--alphabet", "Z3", "--trials", "-3")
    assert code == 1 and doc["error"] == {"type": "usage", "reason": "--trials must be >= 0, got -3"}

    # the k-fold join's own refusal text, given before the period-p set is
    # enumerated: this period would meet the word letter cap
    code, doc = run(capsys, "verify-lemma", "--id", "4.2", "--m", "1", "--p", "100000007", "--copies", "0")
    assert code == 1 and doc["error"] == {"type": "shape", "reason": "need at least one copy, got 0"}

    # each once printed the N = 1 count, 96, while echoing the N it was given
    for n in ("0", "-2"):
        code, doc = run(capsys, "count", "--family", "XS", "--N", n, "--q", "8", "--p", "3")
        assert code == 1 and doc["error"] == {"type": "usage", "reason": f"N must be >= 1, got {n}"}

    code, doc = run(capsys, "homology", "--join-of", "XS:N=0,p=3", "--copies", "2")
    assert code == 1 and doc["error"] == {"type": "usage", "reason": "N must be >= 1, got 0"}

    # each was once a shape error, where the same value elsewhere is a usage error
    for copies in ("0", "-2"):
        code, doc = run(capsys, "index", "--join-of", "Sigma:m=1,p=5", "--copies", copies)
        assert code == 1 and doc["error"] == {"type": "usage", "reason": f"--copies must be >= 1, got {copies}"}
    for n in ("0", "-1"):
        code, doc = run(capsys, "approx-z", "--family", "XSN", "--p", "2", "--q", "8", "--N", n)
        assert code == 1 and doc["error"] == {"type": "usage", "reason": f"N must be >= 1, got {n}"}

    # each was once refused as a resource cap that "exceeds the cell cap (-5)"
    for cap in ("0", "-5"):
        code, doc = run(capsys, "approx-z", "--p", "2", "--q", "8", "--cap", cap)
        assert code == 1 and doc["error"] == {"type": "usage", "reason": f"--cap must be >= 1, got {cap}"}
    code, doc = run(capsys, "approx-z", "--p", "2", "--q", "8", "--cap", "128")
    assert code == 0 and doc["results"]["vertices"] == 40  # 128 cells: the cap is inclusive


def test_join_cell_cap_refuses_before_building(capsys):
    # 2046 period-11 points, three copies: about 8.6e9 cells predicted
    t0 = time.perf_counter()
    code, doc = run(capsys, "homology", "--join-of", "Sigma:m=1,p=11", "--copies", "3")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and doc["error"]["type"] == "resource-cap"
    assert "8577357822" in doc["error"]["reason"] and "10000000" in doc["error"]["reason"]
    # a join of 30-point factors passes the cap at the fifth; the count stops there,
    # where the product over all factors would have too many digits to print
    code, doc = run(capsys, "homology", "--join-of", "Sigma:m=1,p=5", "--copies", "100000")
    assert code == 1 and doc["error"]["type"] == "resource-cap"
    assert doc["error"]["reason"].startswith("join of 100000 complexes would have at least 28629150 cells")


def test_join_factor_cap_refuses_before_listing_the_factors(capsys):
    code, doc = run(capsys, "index", "--join-of", "Sigma:m=1,p=5", "--copies", "100000")
    assert code == 0 and doc["results"]["exact"] == 99999  # the cap is inclusive
    for command, copies in [("index", "100001"), ("homology", "100001"), ("index", str(10**12))]:
        t0 = time.perf_counter()
        code, doc = run(capsys, command, "--join-of", "Sigma:m=1,p=5", "--copies", copies)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1 and doc["error"]["type"] == "resource-cap"
        assert f"--copies {copies} is above the join factor cap (100000)" in doc["error"]["reason"]


def test_count_digit_cap_refuses_before_the_matrix_power(capsys, tmp_path):
    # 2^p + 2(-1)^p has 4303 digits at p = 14293; Python writes at most 4300
    for argv in (["--p", "14293"], ["--p", "100003"],
                 ["--p-list", "5,100003", "--csv", str(tmp_path / "c.csv")]):
        t0 = time.perf_counter()
        code, doc = run(capsys, "count", "--family", "Sigma", "--m", "1", *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1 and doc["error"]["type"] == "resource-cap", argv
        assert "2^" in doc["error"]["reason"] and "(4300)" in doc["error"]["reason"]
    assert not (tmp_path / "c.csv").exists()


def test_count_at_the_digit_cap_still_prints(capsys):
    code, doc = run(capsys, "count", "--family", "Sigma", "--m", "1", "--p", "14281")
    assert code == 0
    count = doc["results"]["count"]
    assert count == 2**14281 - 2 and len(str(count)) == 4300


def test_verify_window_cap_refuses_before_the_first_trial(capsys):
    for lemma in ("3.1", "3.2"):
        t0 = time.perf_counter()
        code, doc = run(capsys, "verify-lemma", "--id", lemma, "--m", "9",
                        "--alphabet", "Z3", "--trials", "1")
        assert time.perf_counter() - t0 < 1.0
        assert code == 1 and doc["error"]["type"] == "resource-cap"
        assert "2540160" in doc["error"]["reason"] and "1000000" in doc["error"]["reason"]


def test_section_suites_above_the_pair_table_cap_keep_their_output(capsys):
    # 4096 letters have 2^24 pairs, past the pair table cap: the suites then run
    # on the Alphabet operations, and print what they printed on letter tuples
    for lemma in ("3.1", "3.2"):
        _, doc = run(capsys, "verify-lemma", "--id", lemma, "--m", "2", "--alphabet",
                     "S:q=4096", "--trials", "200")
        doc.pop("timestamp")
        doc["versions"] = {"zpindex": doc["versions"]["zpindex"]}
        assert doc == {
            "command": "verify-lemma",
            "inputs": {"alphabet": "S:q=4096", "copies": 2, "delta": "1/2", "field": 0,
                       "id": lemma, "m": 2, "p": 5, "q": 8, "trials": 200},
            "provenance": [f"property suite for statement {lemma} with seed 0"],
            "results": {"details": {"alphabet": "S:q=4096", "m": 2, "seed": 0}, "failures": 0,
                        "lemma": lemma, "passed": True, "trials": 200},
            "seed": 0,
            "versions": {"zpindex": "0.1.0"},
        }


def test_letter_pair_table_cap_refuses_before_comparing(capsys):
    # S^5:q=8 has 32768 letters: about 1.07e9 exact metric comparisons
    for command in ("count", "enumerate", "orbits"):
        t0 = time.perf_counter()
        code, doc = run(capsys, command, "--family", "XS", "--N", "5", "--q", "8", "--p", "5")
        assert time.perf_counter() - t0 < 1.0
        assert code == 1 and doc["error"]["type"] == "resource-cap", command
        assert "1073741824" in doc["error"]["reason"] and "(1048576)" in doc["error"]["reason"]


def test_large_grids_are_refused_at_the_node_cap(capsys):
    # 40^5 = 1.024e8 grid points; a vertex mask once held about 8 GB of index arrays
    t0 = time.perf_counter()
    code, doc = run(capsys, "approx-z", "--p", "5", "--q", "40")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and doc["error"] == {
        "type": "resource-cap", "reason": "search level 4 would reach 69214440 nodes, above the "
        "node cap (10000000); nothing was enumerated"}


@pytest.mark.parametrize("argv,error", [
    (["approx-z", "--p", "1000000000000000003", "--q", "8"], "would reach 2^63"),
    (["homology", "--join-of", "Sigma:m=1,p=3", "--field", "1000000000000000003"], None),
    (["homology", "--join-of", "Sigma:m=1,p=3", "--field", "9223372036854775837"],
     "9223372036854775836 fits no signed numpy type"),
    (["homology", "--join-of", "Sigma:m=1,p=3", "--field", "18446744073709551629"],
     "primality is decided only below 2^64"),
], ids=["approx-prime-p", "field-prime", "field-above-int64", "field-above-2^64"])
def test_large_primes_are_decided_at_once(capsys, argv, error):
    # trial division ran past 15 s on the first two, whose number is prime
    t0 = time.perf_counter()
    code, doc = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    if error is None:
        assert code == 0 and doc["results"]["reduced_betti"] == [5]
    else:
        assert code == 1 and doc["error"]["type"] == "shape" and error in doc["error"]["reason"]


def test_power_work_cap_refuses_before_the_pair_table(capsys):
    # 17 products of 512x512 matrices, 2281701376 multiply-adds; p = 5 needs 3
    t0 = time.perf_counter()
    code, doc = run(capsys, "count", "--family", "XS", "--N", "3", "--q", "8", "--p", "1021")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and doc["error"]["type"] == "resource-cap"
    assert "2281701376" in doc["error"]["reason"] and "(1000000000)" in doc["error"]["reason"]


def test_deep_period_searches_refuse_before_filling_memory(capsys):
    # the first two once printed a RecursionError traceback and now stop at the
    # node cap; the third, a period above the word letter cap, once built lists
    # of p entries before any cap
    for argv, cap in ((["enumerate", "--family", "Sigma", "--m", "1", "--p", "1500"], "node cap"),
                      (["orbits", "--family", "Z", "--p", "997", "--q", "8"], "node cap"),
                      (["enumerate", "--family", "XS", "--q", "8", "--delta", "1", "--p", "100000007"],
                       "word letter cap")):
        t0 = time.perf_counter()
        code, doc = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1 and doc["error"]["type"] == "resource-cap", argv
        assert cap in doc["error"]["reason"]


@pytest.mark.parametrize("argv,spec", [
    ("--family Sigma --m 1", mismatch_shift(1)),
    ("--family Sigma --m 2", mismatch_shift(2)),
    ("--family Sigma --m 3", mismatch_shift(3)),
    ("--family XS --q 8", SubshiftSpec(parse_alphabet("S:q=8"), Separation(1, Fraction(1, 2)))),
    ("--family XS --N 2 --q 4",
     SubshiftSpec(parse_alphabet("S^2:q=4"), Separation(1, Fraction(1, 2)))),
])
def test_orbit_counts_of_composite_periods_match_orbit_decompose(capsys, argv, spec):
    ps = [1, 4, 6, 8, 9, 10, 12]
    code, doc = run(capsys, "count", *argv.split(), "--p-list", ",".join(map(str, ps)))
    assert code == 0
    for p, row in zip(ps, doc["results"]["counts"], strict=True):
        assert row["count"] == spec.count_periodic(p)
        if row["count"] <= 20000:
            assert row["orbits"] == orbit_decompose(spec.enumerate_periodic(p), p).n_orbits, p


@pytest.mark.parametrize("p", [24, 1024])
def test_count_of_a_composite_period_enumerates_nothing(capsys, p):
    # the 2^p + 2 period-p points pass the word letter cap, which once refused both
    # runs; Burnside's lemma needs only the counts of the divisors of p
    t0 = time.perf_counter()
    code, doc = run(capsys, "count", "--family", "Sigma", "--m", "1", "--p", str(p))
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    divisors = [d for d in range(1, p + 1) if p % d == 0]
    phi = {k: sum(1 for j in range(k) if gcd(j, k) == 1) for k in divisors}
    orbits = sum(phi[p // d] * (2**d + 2 * (-1) ** d) for d in divisors) // p
    assert doc["results"]["counts"] == [
        {"family": "Sigma", "m": 1, "p": p, "count": 2**p + 2, "orbits": orbits}]


def test_section_suites_refuse_a_delta_above_the_diameter(capsys):
    # no two letters of Z3 are 2 apart: the rejection sampler once drew forever
    for lemma in ("3.1", "3.2"):
        t0 = time.perf_counter()
        code, doc = run(capsys, "verify-lemma", "--id", lemma, "--m", "2", "--alphabet", "Z3",
                        "--delta", "2")
        assert time.perf_counter() - t0 < 1.0
        assert code == 1 and doc["error"] == {
            "type": "shape", "reason": "delta 2 exceeds alphabet diameter 1"}


def test_section_suites_refuse_a_delta_of_zero_or_below(capsys):
    # d >= 0 holds for every pair: --delta 0 once printed "passed": true, while
    # count --family XS refused it as a separation family
    for lemma in ("3.1", "3.2"):
        for delta in ("0", "-1"):
            code, doc = run(capsys, "verify-lemma", "--id", lemma, "--m", "2", "--alphabet", "Z3",
                            "--delta", delta)
            assert code == 1 and doc["error"] == {
                "type": "shape", "reason": "separation family needs delta > 0"}, (lemma, delta)
    code, doc = run(capsys, "count", "--family", "XS", "--delta", "0", "--p", "3")
    assert code == 1 and doc["error"] == {
        "type": "shape", "reason": "separation family needs delta > 0"}


def test_composite_period_is_a_shape_error(capsys):
    # Z/4 acts on the 18 period-4 points with Z/2 stabilisers: no exact index
    code, doc = run(capsys, "index", "--join-of", "Sigma:m=1,p=4", "--copies", "2")
    assert code == 1 and doc["error"]["type"] == "shape"
    assert "results" not in doc


@pytest.mark.parametrize("lemma,m", [("3.1", "1"), ("3.2", "0"), ("3.1", "-1")])
def test_section_suites_below_level_two_are_shape_errors(capsys, lemma, m):
    code, doc = run(capsys, "verify-lemma", "--id", lemma, "--m", m, "--alphabet", "Z3",
                    "--trials", "5")
    assert code == 1 and doc["error"]["type"] == "shape"
    assert doc["error"]["reason"] == f"section needs m >= 2, got {m}"


def test_determinism_up_to_timestamp(capsys):
    def canon(doc):
        doc = dict(doc)
        doc.pop("timestamp")
        return json.dumps(doc, sort_keys=True)

    _, a = run(capsys, "verify-lemma", "--id", "3.1", "--m", "2", "--alphabet",
               "S:q=12", "--trials", "60", "--seed", "9")
    _, b = run(capsys, "verify-lemma", "--id", "3.1", "--m", "2", "--alphabet",
               "S:q=12", "--trials", "60", "--seed", "9")
    assert canon(a) == canon(b)

    _, c = run(capsys, "approx-z", "--p", "2", "--q", "8")
    _, d = run(capsys, "approx-z", "--p", "2", "--q", "8")
    assert canon(c) == canon(d)


def test_consecutive_calls_print_what_fresh_calls_print(capsys):
    """``main`` builds its parser once per process: usage errors after a
    successful job, and jobs after those, print what they print on a parser
    built afresh for the call."""
    argvs = [
        ["count", "--family", "Sigma", "--p", "7", "--seed", "3"],
        ["count", "--family", "Sigma", "--p", "7", "--bogus"],
        ["approx-z", "--p", "2"],
        ["frobnicate"],
        [],
        ["approx-z", "--p", "2", "--q", "8"],
        ["count", "--family", "Sigma", "--p", "5"],
        ["verify-lemma", "--id", "9.9"],
    ]

    def call(argv):
        code, doc = run(capsys, *argv)
        doc.pop("timestamp")
        return code, doc

    build_parser.cache_clear()
    consecutive = [call(argv) for argv in argvs]
    assert build_parser.cache_info().misses == 1
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(call(argv))
    assert consecutive == fresh
    assert [code for code, _ in consecutive] == [0, 1, 1, 1, 1, 0, 0, 1]
    assert consecutive[6][1]["seed"] == 0


def test_inputs_echo_every_argument_but_seed_and_output(capsys, tmp_path):
    cases = [
        ("count --family Sigma --m 1 --p 7",
         {"N": 1, "csv": "", "delta": "1/2", "family": "Sigma", "m": 1, "p": 7, "p_list": "", "q": 8}),
        ("enumerate --family Sigma --m 2 --p 7",
         {"N": 1, "delta": "1/2", "family": "Sigma", "m": 2, "method": "auto", "p": 7, "q": 8}),
        ("orbits --family Sigma --m 1 --p 11",
         {"N": 1, "delta": "1/2", "family": "Sigma", "m": 1, "p": 11, "q": 8}),
        ("verify-lemma --id 4.1 --m 2 --p 7",
         {"alphabet": "", "copies": 2, "delta": "1/2", "field": 0, "id": "4.1", "m": 2, "p": 7,
          "q": 8, "trials": 500}),
        ("homology --join-of Sigma:m=1,p=5 --copies 3",
         {"copies": 3, "field": 0, "input": "", "join_of": "Sigma:m=1,p=5"}),
        ("index --join-of Sigma:m=2,p=7 --copies 3", {"copies": 3, "join_of": "Sigma:m=2,p=7"}),
        ("approx-z --family Z --p 3 --q 16",
         {"N": 1, "cap": None, "delta": "1/2", "family": "Z", "field": 0, "p": 3, "q": 16,
          "stability": False}),
        ("certify --q 8", {"cert": "", "q": 8, "save_cert": "", "target": ""}),
    ]
    for argv, inputs in cases:
        path = tmp_path / "out.json"
        assert main([*argv.split(), "--seed", "4", "--output", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["command"] == argv.split()[0] and doc["seed"] == 4
        assert doc["inputs"] == inputs, argv


def test_output_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code = main(["count", "--family", "Sigma", "--p", "3", "--output", str(path)])
    assert code == 0
    assert json.loads(path.read_text())["results"]["count"] == 6


# -- argv mutation: whatever the input, one JSON document and exit 0, 1 or 2 -------

VALID_ARGVS = [
    ["count", "--family", "Sigma", "--m", "1", "--p", "5"],
    ["enumerate", "--family", "Sigma", "--p", "3"],
    ["orbits", "--family", "Sigma", "--p", "3"],
    ["verify-lemma", "--id", "4.1", "--m", "1", "--p", "3"],
    ["verify-lemma", "--id", "3.2", "--m", "2", "--alphabet", "Z3", "--trials", "5"],
    ["homology", "--join-of", "Sigma:m=1,p=3", "--copies", "2"],
    ["index", "--join-of", "Sigma:m=1,p=3", "--copies", "2"],
    ["approx-z", "--p", "2", "--q", "8"],
]
# tokens that may be inserted; no option that writes a file, no help, and no
# value that turns a small job into a large one
VOCABULARY = [
    "count", "homology", "index", "orbits", "--family", "Sigma", "Z", "Y", "XS", "Nope",
    "--m", "--p", "--q", "--N", "--copies", "--field", "--delta", "--seed", "--trials",
    "--id", "9.9", "--join-of", "Sigma:m=1,p=3", "Sigma:m=x,p=5", "Z:p=2", "Sigma:p",
    "--p-list", "2,x", "--stability", "--cap", "--bogus", "0", "1", "2", "3", "-1",
    "x", "1/0", "",
]


def mutate(argv: list[str], ops) -> list[str]:
    out = list(argv)
    for kind, i, j, token in ops:
        if kind == "insert":
            out.insert(i % (len(out) + 1), token)
        elif not out:
            continue
        elif kind == "drop":
            del out[i % len(out)]
        elif kind == "swap":
            i, j = i % len(out), j % len(out)
            out[i], out[j] = out[j], out[i]
        else:
            out[i % len(out)] = token
    return out


OPS = st.lists(
    st.tuples(st.sampled_from(["swap", "drop", "insert", "replace"]),
              st.integers(0, 15), st.integers(0, 15), st.sampled_from(VOCABULARY)),
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(VALID_ARGVS), OPS)
def test_mutated_argv_gives_one_json_document(argv, ops):
    argv = mutate(argv, ops)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code in (0, 1, 2), argv
    doc = json.loads(buf.getvalue())
    assert isinstance(doc, dict), argv
    assert ("error" in doc) == (code == 1), argv


def test_benchmark_child_runs_and_traces_the_homology_layer():
    """The benchmark's child process drives the CLI and wraps library functions by
    name; a renamed one must fail here, not only in a traced benchmark run."""
    root = Path(__file__).resolve().parent.parent
    argvs = [["homology", "--join-of", "Sigma:m=1,p=3", "--copies", "2"],
             ["approx-z", "--family", "Z", "--p", "2", "--q", "8"]]
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), str(root / "src"), "1", json.dumps(argvs)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert [job["exit"] for job in out["jobs"]] == [0, 0]
    names = {span[0] for span in out["spans"]}
    assert {"homology.boundary_matrices", "homology.rank_d1", "homology.compose_check"} <= names
