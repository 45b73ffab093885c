"""One benchmark pass: a fresh process that runs a list of CLI calls.

Usage: python3 child.py <src-dir> <trace 0|1> <json list of argv lists>

The process imports ``zpindex.cli`` from <src-dir>, prints ``ready`` so the
parent can time set-up, then runs every argv through ``zpindex.cli.main``
with standard output captured, parses each JSON document, and prints one
JSON line: wall time, peak RSS and each job's exit code and results.

With trace 1 the public functions of each layer are wrapped, in this
process only, so that every call records a span (name, start, end, parent,
rise of the RSS high-water mark) and the counts read from its return value.
The library itself is not changed.  After the pass, a probe span re-runs
only the boundary composition check of every chain complex built, through
the public ``ChainComplexFp`` constructor.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import platform
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


class Tracer:
    """Spans kept in memory as [name, start, end, parent, rss_rise_mb, probe]."""

    def __init__(self):
        self.spans: list[list] = []
        self.open: list[int] = []
        self.counts: Counter = Counter()
        self.chains: list = []  # every ChainComplexFp built, for the composition probe

    @contextlib.contextmanager
    def span(self, name: str, probe: bool = False):
        parent = self.open[-1] if self.open else None
        rec = [name, 0.0, 0.0, parent, 0.0, probe]
        self.spans.append(rec)
        self.open.append(len(self.spans) - 1)
        rss0 = _maxrss_mb()
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            rec[4] = _maxrss_mb() - rss0
            self.open.pop()

    def wrap(self, fn, name, count=None):
        """``fn`` recording a span per call; ``name`` may be a function of the call's
        arguments and ``count(counts, result, *args)`` reads counts from its result."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name(*args, **kwargs) if callable(name) else name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, out, *args)
            return out
        return traced


def _replace_everywhere(original, traced) -> None:
    """Point every name bound to ``original`` in a loaded zpindex module at ``traced``."""
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("zpindex"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, traced)


def install_spans(tracer: Tracer) -> None:
    from zpindex import coindex, complexes, homology, shiftspaces, torusgrid, verify

    def count_words(c, out, *_):
        c["shiftspaces.words"] += len(out)

    def count_orbits(c, out, *_):
        c["shiftspaces.orbits"] += out.n_orbits

    def count_join(c, out, *_):
        c["complexes.cells"] += out.total_cells()

    def count_approx(c, out, *_):
        c["torusgrid.cells"] += out.total_cells()

    def count_chain(c, cc, *_):
        tracer.chains.append(cc)
        for d, n in enumerate(cc.n_cells):
            c[f"homology.cells_d{d}"] += n
        for d, b in enumerate(cc.boundaries, start=1):
            c[f"homology.nnz_d{d}"] += int(b.indptr[-1])
            c["homology.nnz"] += int(b.indptr[-1])

    def count_rank(c, out, _cc, d):
        c[f"homology.rank_d{d}"] += out

    def count_trials(c, out, *_):
        c["verify.trials"] += out.trials

    functions = [
        (shiftspaces.orbit_decompose, "shiftspaces.orbit_decompose", count_orbits),
        (shiftspaces.periodic_point_complex, "shiftspaces.periodic_point_complex", None),
        (complexes.join_complex, "complexes.join", count_join),
        (torusgrid.build_approx, "torusgrid.build_approx", count_approx),
        (torusgrid.stability_check, "torusgrid.stability_check", None),
        (torusgrid.canonical_certificate_P2, "coindex.canonical_certificate", None),
        (homology.boundary_matrices, "homology.boundary_matrices", count_chain),
        (coindex.index_of_join_of_finite, "coindex.index_of_join", None),
        (coindex.verify_certificate, "coindex.verify_certificate", None),
        (verify.run_lemma_check, lambda lemma, *a, **k: f"verify.lemma-{lemma}", count_trials),
    ]
    for fn, name, count in functions:
        _replace_everywhere(fn, tracer.wrap(fn, name, count))

    spec = shiftspaces.SubshiftSpec
    spec.enumerate_periodic = tracer.wrap(spec.enumerate_periodic, "shiftspaces.enumerate", count_words)
    spec.count_periodic = tracer.wrap(spec.count_periodic, "shiftspaces.count_periodic")
    chain = homology.ChainComplexFp
    chain.rank = tracer.wrap(chain.rank, lambda cc, d: f"homology.rank_d{d}", count_rank)
    for cls in (complexes.SimplicialComplex, complexes.CubicalComplex):
        cls.is_free = property(tracer.wrap(cls.is_free.fget, "complexes.is_free"))


def run_pass(cli, argvs: list[list[str]]) -> dict:
    jobs = []
    t0 = time.perf_counter()
    for argv in argvs:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            doc = json.loads(buf.getvalue())
            jobs.append({"exit": code, "results": doc.get("results"), "error": doc.get("error")})
        except Exception as e:  # a crash fails this job; the pass goes on with the next one
            jobs.append({"exit": None, "results": None, "error": traceback.format_exception_only(e)[-1].strip()})
    t1 = time.perf_counter()
    return {"t0": t0, "wall_s": t1 - t0, "peak_rss_mb": _maxrss_mb(), "jobs": jobs}


def main() -> int:
    src, trace, argvs = Path(sys.argv[1]).resolve(), sys.argv[2] == "1", json.loads(sys.argv[3])
    sys.path.insert(0, str(src))
    import zpindex.cli as cli

    if Path(cli.__file__).resolve().parent != src / "zpindex":
        print(f"zpindex imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    tracer = Tracer()
    if trace:
        install_spans(tracer)
    out = run_pass(cli, argvs)
    out["versions"] = {"python": platform.python_version(), "numpy": sys.modules["numpy"].__version__}
    if trace:
        from zpindex.homology import ChainComplexFp

        for cc in tracer.chains:
            with tracer.span("homology.compose_check", probe=True):
                ChainComplexFp(cc.ell, cc.n_cells, cc.boundaries)
        t0 = out["t0"]
        out["spans"] = [[n, s - t0, e - t0, *rest] for n, s, e, *rest in tracer.spans]
        out["counts"] = dict(tracer.counts)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
