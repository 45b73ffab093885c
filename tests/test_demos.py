"""Every narrative script in demos/ runs to the end through the public API and
prints exactly the text it printed when its digest was recorded."""
import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# sha256 of each demo's stdout; the demos are seeded and print no timing, so a
# changed digest is a changed result
DIGESTS = {
    "01_periodic_points.py": "a8b163f0f9b3ce9b0157db078af921f961e36c0f411e34e5f7fc97b154e07402",
    "02_block_codes.py": "ea5cc0d534924b02b870ef0b90a3e53d7cc8efabe59f8bb2a8ab1f07b7b5b124",
    "03_joins_and_homology.py": "d425965f3e7f6cb7735b7a882022579600a5fdd811bf39742b99241de1b0e48d",
    "04_torus_approximation.py": "777e7cbf51f2873621b776c6abf16bd02d8c976f627c1d66d6c6b411a154f5c8",
    "05_index_reports.py": "5f9f36add1c7bd321d8d1fc3980b584c8f4cf4604fa3f51da37b08dfa64c6a13",
}


def test_all_demos_are_found():
    assert [p.name for p in DEMOS] == sorted(DIGESTS)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(path), run_name="__main__")
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == DIGESTS[path.name]
