"""Golden-byte conformance: our trie+segmentDP+.ck vs the compiled reference.

Compiles ``/root/reference/src/generate.cpp`` (read-only sources) into /tmp,
runs it on a prefix of the BC5CDR corpus with the real dictionaries, and
byte-compares its ``.ck`` output with ours. This pins every quirk at once:
case-variant insertion, stopword removal order, the ``noLowercases`` leak,
FILTERED inclusive-r, DP tie-breaking, ``.ck`` wrapper placement.
"""

import shutil
import subprocess
from pathlib import Path

import pytest

from autoner_ray.functions.ck import to_ck
from autoner_ray.state.trie import build_trie, segment_dp

REF = Path("/root/reference")
REPO = Path(__file__).resolve().parents[1]
WORK = Path("/tmp/refrun")


def _read_lines(p: Path) -> list[str]:
    return p.read_text().splitlines()


@pytest.fixture(scope="module")
def ref_binary():
    if shutil.which("g++") is None:
        pytest.skip("no g++")
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / "data").mkdir(exist_ok=True)
    shutil.copy(REF / "data/stopwords.txt", WORK / "data/stopwords.txt")
    binary = WORK / "generate_ref"
    if not binary.exists():
        subprocess.run(
            [
                "g++", "-O2", "-std=c++11", "-fopenmp",
                "-I", str(REF / "src"),
                str(REF / "src/generate.cpp"),
                "-o", str(binary),
            ],
            check=True,
            capture_output=True,
        )
    return binary


@pytest.fixture(scope="module")
def corpus_prefix() -> Path:
    """The FULL BC5CDR raw text (361,768 lines) — whole-corpus parity."""
    p = WORK / "raw_full.txt"
    WORK.mkdir(parents=True, exist_ok=True)
    if not p.exists():
        p.write_text((REF / "data/BC5CDR/raw_text.txt").read_text())
    return p


@pytest.mark.requires_reference(REF)
def test_ck_bytes_match_reference(ref_binary, corpus_prefix):
    out_ref = WORK / "ref.ck"
    subprocess.run(
        [
            str(ref_binary),
            str(corpus_prefix),
            str(REF / "data/BC5CDR/dict_core.txt"),
            str(REF / "data/BC5CDR/dict_full.txt"),
            str(out_ref),
        ],
        cwd=WORK,  # binary loads data/stopwords.txt relative to cwd
        check=True,
        capture_output=True,
    )
    ref_ck = out_ref.read_text()

    tokens = [
        line if line else "\n" for line in _read_lines(corpus_prefix)
    ]
    trie = build_trie(
        _read_lines(REF / "data/BC5CDR/dict_core.txt"),
        _read_lines(REF / "data/BC5CDR/dict_full.txt"),
        _read_lines(REF / "data/stopwords.txt"),
    )
    segs = segment_dp(trie, tokens)
    ours = to_ck(tokens, segs) + "\n"  # generate.cpp:38 adds a trailing \n
    assert ours == ref_ck


@pytest.mark.requires_reference(REF / "data/BC5CDR")
def test_published_dictionary_match_f1_reproduced():
    """The README's Dictionary Match row (README.md:38: P 93.93 /
    R 58.35 / F1 71.98 on the BC5CDR test split) must reproduce EXACTLY
    from this engine's kernels against the shipped gold file."""
    import json
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "eval_bc5cdr_dictmatch.py")],
        capture_output=True, text=True, check=True,
    )
    rows = [json.loads(l) for l in proc.stdout.strip().splitlines()]
    test_row = next(r for r in rows if r["split"] == "test")
    assert test_row["precision"] == 93.93
    assert test_row["recall"] == 58.35
    assert test_row["f1"] == 71.98
