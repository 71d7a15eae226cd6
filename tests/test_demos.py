"""Each demo runs cleanly and prints exactly its recorded output.

The demos are deterministic, so the SHA-256 of stdout pins every line they
print; a change that alters a normal form, a verdict or a count shows here.
After a deliberate change to a demo's output, record the new digest.
"""

import hashlib
import pathlib
import subprocess
import sys

import pytest

from conftest import child_env

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

STDOUT_SHA256 = {
    "01_rewriting_basics.py": "e1c2bd12bda61503d9eb753a61ca2d20fe7aaee73d96d5b78a6b8ce9efd0a06d",
    "02_variety_presentations.py": "a870b81b3e0e631cc8e5fbbf3191d0a1a41fcd5a161dc4896e628550de70897b",
    "03_amalgamated_products.py": "ebb3cfae14e195396a2d9f0526efbea3e5915b428a873caff24fd7037923113e",
    "04_codescent.py": "c46c905e4ae4b6458f9d78e3550db9da503c5bb5c3e33dbcc50da9b5d2ecbcf2",
}


def test_every_demo_has_a_recorded_digest():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output_is_unchanged(name):
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True, env=child_env())
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
