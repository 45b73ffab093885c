import contextlib
import csv
import io
import json
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from zpindex.cli import main


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

    path = tmp_path / "cert.json"
    run(capsys, "certify", "--q", "8", "--save-cert", str(path))
    code, doc = run(capsys, "certify", "--cert", str(path), "--target", "Z:p=2")
    assert code == 1 and doc["error"]["type"] == "usage"

    cert = json.loads(path.read_text())
    del cert["domain"]
    bad = tmp_path / "no-domain.json"
    bad.write_text(json.dumps(cert))
    code, doc = run(capsys, "certify", "--cert", str(bad), "--target", "Z:p=2,q=8")
    assert code == 1 and doc["error"]["type"] == "shape"

    bad.write_text("{not json")
    code, doc = run(capsys, "certify", "--cert", str(bad), "--target", "Z:p=2,q=8")
    assert code == 1 and doc["error"]["type"] == "shape"


def test_join_cell_cap_refuses_before_building(capsys):
    # 2046 period-11 points, three copies: about 8.6e9 cells predicted
    t0 = time.perf_counter()
    code, doc = run(capsys, "homology", "--join-of", "Sigma:m=1,p=11", "--copies", "3")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and doc["error"]["type"] == "resource-cap"
    assert "8577357822" in doc["error"]["reason"] and "10000000" in doc["error"]["reason"]


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


def test_deep_period_searches_refuse_before_filling_memory(capsys):
    # each once printed a RecursionError traceback; orbits of a composite p enumerate
    for argv in (["enumerate", "--family", "Sigma", "--m", "1", "--p", "1500"],
                 ["orbits", "--family", "Z", "--p", "997", "--q", "8"],
                 ["count", "--family", "Sigma", "--m", "1", "--p", "1024"]):
        t0 = time.perf_counter()
        code, doc = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1 and doc["error"]["type"] == "resource-cap", argv
        assert "word letter cap" in doc["error"]["reason"]


def test_composite_period_is_a_shape_error(capsys):
    # Z/4 acts on the 18 period-4 points with Z/2 stabilisers: no exact index
    code, doc = run(capsys, "index", "--join-of", "Sigma:m=1,p=4", "--copies", "2")
    assert code == 1 and doc["error"]["type"] == "shape"
    assert "results" not in doc


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
