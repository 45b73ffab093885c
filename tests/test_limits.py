"""Size ladders over the CLI, each value run in a memory-limited child process.

A ladder walks one size parameter of one subcommand upward, about 8x a
step.  Each value runs alone in a fresh child that limits its own address
space to 1 GiB before it starts, with one BLAS thread and a timeout of a few
seconds.  The run must print one JSON document and either exit 0, exit 2
rejecting a certificate, or exit 1 refusing with ``resource-cap``, ``shape``
or ``usage``: a traceback, a ``MemoryError`` or a timeout fails the test.  A
ladder stops at its first refusal, and the step where it stops is pinned, so
a cap that moves shows.
The child's own peak RSS, read when it is reaped, bounds the steps that
must be refused before their allocation, and the answers whose memory is
pinned.
"""
from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
ADDRESS_SPACE = 1 << 30
TIMEOUT_S = 8


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


# Forks the CLI child from a bare interpreter (no site) and reports the
# child's own peak RSS, read by wait4 when it is reaped.  A forked child's
# ru_maxrss starts at its parent's RSS at the fork, so forking from the test
# process, whose RSS grows with the tests before, would count that instead.
LAUNCHER = """
import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable, "-m", "zpindex.cli", *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
sys.stderr.write(f"\\npeak KiB {usage.ru_maxrss}")
sys.exit(os.waitstatus_to_exitcode(status))
"""


def run_limited(argv: list[str]) -> tuple[str | None, float]:
    """Run the CLI on argv in a limited child: None when it answered,
    "rejected" when it rejected a certificate, else the type of its refusal,
    and the child's own peak RSS in MiB."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-S", "-c", LAUNCHER, *argv], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=env, preexec_fn=_limit_address_space,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the launcher and the CLI child
        proc.communicate()
        raise
    stderr, _, peak_kib = stderr.rpartition("\npeak KiB ")
    assert "Traceback" not in stderr and "MemoryError" not in stdout, (argv, stderr[-2000:])
    doc = json.loads(stdout)
    peak_mib = int(peak_kib) / 1024
    if proc.returncode in (0, 2):
        assert "results" in doc, argv
        return (None if proc.returncode == 0 else "rejected"), peak_mib
    assert proc.returncode == 1, (argv, proc.returncode)
    assert doc["error"]["type"] in {"resource-cap", "shape", "usage"}, (argv, doc)
    return doc["error"]["type"], peak_mib


APPROX = ["approx-z", "--family"]
# (fixed arguments, the walked parameter, its values, the outcome of each step)
# the --q ladders start above q = 8, which the --p ladder walks
LADDERS = {
    "Z:p=2 --q": (APPROX + ["Z", "--p", "2"], "--q", ["64", "512", "4096"],
                  [None, None, "resource-cap"]),  # 4096^2 letter pairs
    "Z:p=3 --q": (APPROX + ["Z", "--p", "3"], "--q", ["64", "512"],
                  [None, "resource-cap"]),  # the node cap: 512^3 letters tried at the last level
    "Z:p=5 --q": (APPROX + ["Z", "--p", "5"], "--q", ["64"],
                  ["resource-cap"]),  # the node cap
    "XSN:p=2,q=8 --N": (APPROX + ["XSN", "--p", "2", "--q", "8"], "--N", ["1", "2", "3", "4"],
                        [None, None, "resource-cap"]),  # the cell cap at N = 3
    "Z:q=8 --p": (APPROX + ["Z", "--q", "8"], "--p", ["2", "3", "5", "7"],
                  [None, None, None, "resource-cap"]),  # the cell cap at p = 7
    "XSN:p=3,N=2,delta=1 --q": (APPROX + ["XSN", "--p", "3", "--N", "2", "--delta", "1"], "--q",
                                ["8", "16", "32"], [None, None, "resource-cap"]),  # the node cap
    "XSN:p=3,q=8,N=2 --delta": (APPROX + ["XSN", "--p", "3", "--q", "8", "--N", "2"], "--delta",
                                ["1", "1/2"], [None, "resource-cap"]),  # the cell cap
}


# the same for the word, count, join and section commands; the values left
# out of a ladder are named with their reasons in CHANGES.md
COMMAND_LADDERS = {
    "enumerate Sigma --p": (["enumerate", "--family", "Sigma"], "--p", ["11", "128"],
                            [None, "resource-cap"]),  # the word letter cap
    "orbits Z:q=8 --p": (["orbits", "--family", "Z", "--q", "8"], "--p", ["2", "16"],
                         [None, "resource-cap"]),  # the word letter cap
    "count Sigma --p": (["count", "--family", "Sigma"], "--p", ["10", "1000", "100000"],
                        [None, None, "resource-cap"]),  # the count digit cap
    "count XS:q=8,p=2 --N": (["count", "--family", "XS", "--q", "8", "--p", "2"], "--N",
                             ["1", "2", "3", "4"],
                             [None, None, None, "resource-cap"]),  # 4096^2 letter pairs
    "homology Sigma:m=1,p=5 --copies": (["homology", "--join-of", "Sigma:m=1,p=5"], "--copies",
                                        ["1", "3", "9"],
                                        [None, None, "resource-cap"]),  # the join cell cap
    "homology Sigma:m=1,p=7 --copies": (["homology", "--join-of", "Sigma:m=1,p=7"], "--copies",
                                        ["3", "4"],
                                        [None, "resource-cap"]),  # 2M triangles, then the cap
    "homology Sigma:m=1,p=11 --copies": (["homology", "--join-of", "Sigma:m=1,p=11"], "--copies",
                                         ["2", "3"],
                                         [None, "resource-cap"]),  # the join cell cap
    "index Sigma:m=1,p=5 --copies": (["index", "--join-of", "Sigma:m=1,p=5"], "--copies",
                                     ["1000", "1000000"],
                                     [None, "resource-cap"]),  # the join factor cap
    "verify 3.1 --m": (["verify-lemma", "--id", "3.1", "--trials", "2"], "--m", ["2", "16"],
                       [None, "resource-cap"]),  # the section window cap
    "verify 4.2 Sigma:m=1,p=7 --copies": (["verify-lemma", "--id", "4.2", "--m", "1", "--p", "7"],
                                          "--copies", ["1", "2", "3", "4"],
                                          [None, None, None, "resource-cap"]),  # the join cell cap
    "verify embed-1.5 p=3 --q": (["verify-lemma", "--id", "embed-1.5", "--p", "3"], "--q",
                                 ["16", "32", "64", "128", "256"],
                                 [None, None, None, None, "resource-cap"]),  # the node cap: 256^3
}


# steps whose memory is pinned: the child's peak RSS bound, in MiB, for steps
# refused before their allocation and for answers whose tables set the peak
# (an interpreter with numpy and zpindex.cli loaded takes about 32 MiB)
STEP_PEAKS_MIB = {
    # the 3-fold join of the period-7 set, 2M triangles on 47,628 edges, with
    # the triangles' keys and faces generated from the factors on read, in
    # cache-sized blocks, takes about 33.4 MiB, against 53 when its uint16
    # faces were stored, 64 with int32 faces, 81 when the keys were stored too
    # and 150 when rows and int64 faces were stored as well
    "homology Sigma:m=1,p=7 --copies": {"3": 40},
    # the 2-fold join of the period-11 set, 4.2M edges generated from its
    # vertices: about 33.2 MiB, against 65 with stored uint16 faces and 81
    # with int32 ones
    "homology Sigma:m=1,p=11 --copies": {"2": 40},
    "verify 4.2 Sigma:m=1,p=7 --copies": {"4": 40},  # the 3-fold join alone takes 33.5 MiB
    # 1,335,168 words at q = 128 take about 164 MiB, with no labels; 256 is refused
    "verify embed-1.5 p=3 --q": {"128": 190, "256": 40},
    # the benchmark torus, 372,880 cells, answers in about 45 MiB (47 with int64
    # keys, 55 when its move and growth tables were dense over every axis); p = 7
    # is refused at the cell cap once its 917,168 vertices, whose keys fit int32,
    # are moved: about 100 MiB (107 with int64 keys)
    "Z:q=8 --p": {"5": 49, "7": 110},
    # refused at the cell cap once the lower dimensions are built: about 131
    # MiB at N = 3 (1,462,272 edges) and 92 MiB at delta = 1/2 (873,216 edges)
    "XSN:p=2,q=8 --N": {"3": 145},
    "XSN:p=3,q=8,N=2 --delta": {"1/2": 102},
}


def walk(name, ladder) -> list[str | None]:
    """The outcome of each step of a ladder, up to its first refusal; a step
    with a peak bound must stay under it."""
    fixed, param, values, _ = ladder
    got = []
    for value in values:
        outcome, peak_mib = run_limited(fixed + [param, value])
        got.append(outcome)
        bound = STEP_PEAKS_MIB.get(name, {}).get(value)
        assert bound is None or peak_mib <= bound, (value, peak_mib)
        if got[-1] is not None:
            break
    return got


@pytest.mark.parametrize("name", sorted(LADDERS))
def test_approximation_ladder_answers_or_refuses_within_memory(name):
    assert walk(name, LADDERS[name]) == LADDERS[name][3]


# a fresh child: the session fixtures would build this 2^24-point grid's
# approximation again through the general constructor, inside the traced peak
SPARSE_PEAK = """
import tracemalloc
from fractions import Fraction
from zpindex.torusgrid import build_approx, separated_torus_spec
spec = separated_torus_spec(3, 16, 2, Fraction(1))
tracemalloc.start()
cells = build_approx(spec).total_cells()
print(cells, tracemalloc.get_traced_memory()[1])
"""


def test_sparse_approximation_memory_follows_the_cells_not_the_grid():
    # 47616 cells on 16^6 grid points: a boolean vertex mask would take 16 MiB,
    # and one int32 table over the grid 64 MiB more
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SPARSE_PEAK], capture_output=True, text=True,
                          env=env, preexec_fn=_limit_address_space, timeout=TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr[-2000:]
    cells, peak = map(int, proc.stdout.split())
    assert cells == 47616
    assert peak < 48 << 20, peak


# the same for the benchmark torus: its growth tables hold only the slots a
# cell is read at, along the axes above its top bit
TORUS_PEAK = """
import tracemalloc
from zpindex.torusgrid import build_approx, z_torus_spec
spec = z_torus_spec(5, 8)
tracemalloc.start()
cells = build_approx(spec).total_cells()
print(cells, tracemalloc.get_traced_memory()[1])
"""


def test_torus_growth_tables_hold_only_the_slots_that_are_read():
    # 372,880 cells keep about 7.9 MB of keys and faces; the build peaked
    # at 21.1 MB with tables dense over all five axes, 12.6 MB with int64 keys,
    # and takes about 10.9 MB
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", TORUS_PEAK], capture_output=True, text=True,
                          env=env, preexec_fn=_limit_address_space, timeout=TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr[-2000:]
    cells, peak = map(int, proc.stdout.split())
    assert cells == 372880
    assert peak < 11 << 20, peak


@pytest.mark.parametrize("name", sorted(COMMAND_LADDERS))
def test_command_ladder_answers_or_refuses_within_memory(name):
    assert walk(name, COMMAND_LADDERS[name]) == COMMAND_LADDERS[name][3]


# the orbit of 100000007 points once ended in a MemoryError, and that of
# 1000003 points took 1.2 s and 227 MiB to build before the primes were compared
@pytest.mark.parametrize("p", [100000007, 1000003])
def test_standard_model_certificate_domain_at_a_large_prime(tmp_path, p):
    # the one-copy model of a p-point orbit is rejected against the period-2
    # target before it is built
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps({"p": p, "n": 0, "domain": "join(Zp)^{n+1}",
                                "vertex_map": [0, 1], "target_ref": "Z:p=2,q=8"}))
    got, peak_mib = run_limited(["certify", "--cert", str(cert), "--target", "Z:p=2,q=8"])
    assert got == "rejected"
    assert peak_mib <= 40, peak_mib


def test_standard_model_certificate_is_refused_before_the_join(tmp_path):
    # join(Z_2)^21 would have 3^21 - 1 cells; building its first 14 factors
    # would take 894 MiB before their keys overflowed
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps({"p": 2, "n": 20, "domain": "join(Zp)^{n+1}",
                                "vertex_map": [0, 1], "target_ref": "Z:p=2,q=8"}))
    outcome, peak_mib = run_limited(["certify", "--cert", str(cert), "--target", "Z:p=2,q=8"])
    assert outcome == "resource-cap"
    assert peak_mib <= 40, peak_mib
