"""zpindex benchmark: time to a verified exact answer on fixed CLI workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--tamper]

Workloads are defined in ``workloads.py``: join3-sigma7, torus-z5q8,
orbits-z5q8 and mix-small.  This process runs a closed loop: it starts
one fresh child process per pass over the workload's job list, one after
another, while another pass as long as the last still fits in ``--seconds``
(at least one pass).  Before the
passes it starts a few children that only import ``zpindex.cli``, so that
set-up time has several samples in every run.  Inputs are fixed; the seed
feeds only the ``--seed`` of the randomized verify jobs.

Every job's ``results`` is checked against exact expected values and against
the digest recorded at the seed commit.  A job fails on a nonzero exit code,
an exception, a wrong value or a digest mismatch.

End-to-end metrics (``--trace 0``), medians over the run's samples:
  setup_s      spawn of a child until ``import zpindex.cli`` has returned
  wall_s       one pass, first ``main(argv)`` call to last JSON document parsed
  peak_rss_mb  ``ru_maxrss`` of a pass's child at its end
``failed_frac`` (failed jobs / attempted jobs) is printed beside them and must
be 0; the final JSON line carries it as ``failed`` and ``attempted``.

With ``--trace 1`` the run adds one traced pass in which every public layer
function records a span (see ``child.py``) and prints per-layer metrics: self
time per span name, rises of the RSS high-water mark, exact counts, and the
CLI residual, which is the traced wall time not covered by top-level spans.

``--tamper`` changes one expected value of the first job, to show that the
checks catch a wrong answer: the run must then report failed_frac > 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with run
metadata, per-pass figures and spans is written to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from workloads import DEFAULT_SEED, RECORDED_DIGESTS, WORKLOADS, Job, results_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
MIN_COVERAGE = 0.95

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB")]

_RANK_DIMS = range(1, 6)
_CELL_DIMS = range(0, 6)
PER_LAYER = (
    [(n, "s") for n in [
        "shiftspaces.enumerate_s", "shiftspaces.orbit_decompose_s",
        "shiftspaces.periodic_point_complex_s", "shiftspaces.count_periodic_s",
        "complexes.join_s", "complexes.is_free_s",
        "torusgrid.build_approx_s", "torusgrid.stability_check_s",
        "homology.boundary_matrices_s", "homology.compose_check_s", "homology.assembly_s",
        "homology.rank_s", *[f"homology.rank_d{d}_s" for d in _RANK_DIMS],
        "coindex.index_of_join_s", "coindex.verify_certificate_s", "coindex.canonical_certificate_s",
        *[f"verify.lemma-{i}_s" for i in ("3.1", "3.2", "4.1", "4.2", "embed-1.5")],
        "cli.residual_s", "cli.trace_overhead_s",
    ]]
    + [(n, "MiB") for n in ["complexes.join_rss_rise_mb", "torusgrid.build_rss_rise_mb",
                            "homology.boundary_rss_rise_mb"]]
    + [(n, "count") for n in [
        "shiftspaces.words", "shiftspaces.orbits", "complexes.cells", "torusgrid.cells",
        *[f"homology.cells_d{d}" for d in _CELL_DIMS],
        "homology.nnz", *[f"homology.nnz_d{d}" for d in _RANK_DIMS],
        *[f"homology.rank_d{d}" for d in _RANK_DIMS],
        "verify.trials",
    ]]
    + [("cli.coverage", "ratio")]
)


# -- child processes -----------------------------------------------------------------


def spawn(argvs: list[list[str]], trace: bool = False) -> tuple[float | None, dict | None]:
    """Run one child; returns (set-up seconds, its JSON line), None where it failed."""
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), "1" if trace else "0", json.dumps(argvs)]
    t_spawn = time.perf_counter()
    # unbuffered, so that reading the ready line leaves the rest for communicate()
    with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, bufsize=0) as proc:
        ready = proc.stdout.readline().decode()
        setup = time.perf_counter() - t_spawn
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, None
    if ready.strip() != "ready" or proc.returncode != 0 or not out.strip():
        return None, None
    return setup, json.loads(out.decode().strip().splitlines()[-1])


# -- checks --------------------------------------------------------------------------


def _short(value, limit: int = 80) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def check_job(job: Job, outcome: dict | None, seed: int, tamper: bool) -> list[str]:
    """Reasons the job failed; empty when its results are exactly right."""
    if outcome is None:
        return ["child process failed"]
    if outcome["exit"] != 0 or outcome["results"] is None:
        return [f"exit {outcome['exit']}: {outcome['error']}"]
    results = outcome["results"]
    try:
        expectations = job.expect(results)
    except (KeyError, IndexError, TypeError, ValueError) as e:
        return [f"results lack an expected field: {e!r}"]
    if tamper:
        label, got, expected = expectations[0]
        expectations[0] = (label, got, {"tampered": expected})
    reasons = [f"{label}: got {_short(got)}, expected {_short(expected)}"
               for label, got, expected in expectations if got != expected]
    if not job.seeded or seed == DEFAULT_SEED:
        digest = results_digest(results)
        recorded = RECORDED_DIGESTS.get(job.text)
        if digest != recorded:
            reasons.append(f"results digest {digest[:16]} differs from the recorded {str(recorded)[:16]}")
    return reasons


def check_pass(jobs: list[Job], out: dict | None, seed: int, tamper: bool) -> list[list[str]]:
    outcomes = out["jobs"] if out is not None else [None] * len(jobs)
    return [check_job(job, o, seed, tamper and i == 0) for i, (job, o) in enumerate(zip(jobs, outcomes))]


def span_problems(spans: list, wall: float) -> list[str]:
    """Spans must nest inside their parents, and top-level ones must not overlap."""
    problems = []
    last_end = 0.0
    for name, start, end, parent, _, probe in spans:
        if probe:
            continue
        if parent is None:
            if start < last_end or end > wall:
                problems.append(f"top-level span {name} overlaps another or leaves the pass")
            last_end = end
        elif start < spans[parent][1] or end > spans[parent][2]:
            problems.append(f"span {name} leaves its parent {spans[parent][0]}")
    return problems


# -- metrics -------------------------------------------------------------------------


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def layer_metrics(traced: dict, untraced_wall: float) -> dict[str, float]:
    spans = traced["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    self_s: Counter = Counter()
    rss: Counter = Counter()
    for i, (name, start, end, _, rise, _) in enumerate(spans):
        self_s[name] += end - start - covered[i]
        rss[name] += rise
    wall = traced["wall_s"]
    top = sum(end - start for _, start, end, parent, _, probe in spans if parent is None and not probe)
    m: dict[str, float] = {name: 0 for name, _ in PER_LAYER}
    for name, value in self_s.items():
        if f"{name}_s" in m:
            m[f"{name}_s"] = value
    m.update({k: v for k, v in traced["counts"].items() if k in m})
    m["homology.assembly_s"] = m["homology.boundary_matrices_s"] - m["homology.compose_check_s"]
    m["homology.rank_s"] = sum(v for k, v in self_s.items() if k.startswith("homology.rank_d"))
    m["complexes.join_rss_rise_mb"] = rss["complexes.join"]
    m["torusgrid.build_rss_rise_mb"] = rss["torusgrid.build_approx"]
    m["homology.boundary_rss_rise_mb"] = rss["homology.boundary_matrices"]
    m["cli.residual_s"] = wall - top
    m["cli.coverage"] = top / wall
    m["cli.trace_overhead_s"] = wall - untraced_wall
    return m


# -- run metadata ----------------------------------------------------------------------


def run_metadata(versions: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() or None
    # a checkout without git history is still identified by the hash of its sources
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        **versions,
    }


# -- main ----------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="zpindex benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tamper", action="store_true", help="change one expected value; the run must fail")
    args = ap.parse_args(argv)
    if not (SRC / "zpindex" / "cli.py").is_file():
        print(f"no zpindex sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    jobs = workload.make_jobs(args.seed)
    argvs = [list(job.argv) for job in jobs]

    setups = []
    for _ in range(SETUP_PROBES):
        setup, out = spawn([])
        if out is None:
            print("a set-up probe failed to import zpindex", file=sys.stderr)
            return 2
        setups.append(setup)

    passes = []
    pass_s = 0.0
    t_start = time.perf_counter()
    # start another pass only while one more, as long as the last, fits in the window
    while not passes or time.perf_counter() - t_start + pass_s <= args.seconds:
        t_pass = time.perf_counter()
        setup, out = spawn(argvs)
        pass_s = time.perf_counter() - t_pass
        passes.append(out)
        if setup is not None:
            setups.append(setup)
    traced = spawn(argvs, trace=True)[1] if args.trace else None

    verdicts = [check_pass(jobs, out, args.seed, args.tamper) for out in passes + ([traced] if args.trace else [])]
    attempted = sum(len(v) for v in verdicts)
    failed = sum(bool(reasons) for v in verdicts for reasons in v)
    problems = [f"job {i + 1} ({jobs[i].text}): {r}" for v in verdicts for i, reasons in enumerate(v) for r in reasons]

    good = [out for out in passes if out is not None]
    walls = [out["wall_s"] for out in good] or [float("nan")]
    rss = [out["peak_rss_mb"] for out in good] or [float("nan")]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
    }
    layers = None
    if traced is not None:
        layers = layer_metrics(traced, end_to_end["wall_s"])
        problems += span_problems(traced["spans"], traced["wall_s"])
        if workload.full_coverage and layers["cli.coverage"] < MIN_COVERAGE:
            problems.append(f"top-level spans cover {layers['cli.coverage']:.3f} of the traced wall, "
                            f"below {MIN_COVERAGE}")
    correct = not problems

    meta = run_metadata(good[0]["versions"] if good else {})
    print(f"# zpindex benchmark: workload {workload.name}, seed {args.seed}, "
          f"seconds {args.seconds:g}, trace {args.trace}" + (", TAMPERED" if args.tamper else ""))
    print(f"# why: {workload.why}")
    print("# run: " + ", ".join(f"{k}={v}" for k, v in meta.items()))
    for name, xs, unit in [("setup_s", setups, "s"), ("wall_s", walls, "s"), ("peak_rss_mb", rss, "MiB")]:
        q1, med, q3 = quartiles(xs)
        print(f"{name:<14} {med:12.6f} {unit:<6} median of n={len(xs)}; q1 {q1:.6f}, q3 {q3:.6f}")
    print(f"{'failed_frac':<14} {failed / attempted:12.6f} {'ratio':<6} {failed} failed of {attempted} jobs attempted")
    if layers is not None:
        for name, unit in PER_LAYER:
            print(f"  {name:<36} {layers[name]:>16.6f} {unit}")
    for p in problems:
        print(f"# FAIL {p}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tamper": args.tamper, "meta": meta, "correct": correct, "attempted": attempted, "failed": failed,
        "problems": problems, "setup_s": setups, "end_to_end": end_to_end, "per_layer": layers,
        "passes": [None if out is None else {
            "wall_s": out["wall_s"], "peak_rss_mb": out["peak_rss_mb"],
            "digests": [results_digest(j["results"]) for j in out["jobs"]]} for out in passes],
        "spans": traced["spans"] if traced is not None else None,
    }
    record_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    units = dict(PER_LAYER if args.trace else END_TO_END)
    values = layers if args.trace else end_to_end
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()} if values else {}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
