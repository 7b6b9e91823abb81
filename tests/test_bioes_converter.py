"""S13 BIOES→ck converter — byte-compared against the reference script
(`preprocess_partial_ner/bioes_chunking.py`) on a CoNLL-style fixture."""

from __future__ import annotations

import subprocess
import sys

import pytest

FIXTURE = """EU S-ORG
rejects O
German S-MISC
call O
to O
boycott O
British B-MISC
lamb E-MISC
. O

Peter B-PER
Blackburn E-PER
-DOCSTART-
The O
European B-ORG
Union I-ORG
Commission E-ORG
said O
"""

REF = "/root/reference/preprocess_partial_ner/bioes_chunking.py"


def _run_reference(tmp_path, ignore_misc: bool) -> str:
    inp = tmp_path / "in.txt"
    out = tmp_path / "out.ck"
    inp.write_text(FIXTURE)
    cmd = [sys.executable, REF, "--input", str(inp), "--output", str(out)]
    if ignore_misc:
        cmd.append("--ignore_misc")
    subprocess.run(cmd, check=True)
    return out.read_text()


@pytest.mark.requires_reference(REF)
def test_bioes_to_ck_byte_parity(tmp_path):
    from autoner_ray.functions.ck import bioes_to_ck

    lines = FIXTURE.splitlines(keepends=True)
    for ignore_misc in (False, True):
        want = _run_reference(tmp_path, ignore_misc)
        got = bioes_to_ck(lines, ignore_misc=ignore_misc)
        assert got == want
