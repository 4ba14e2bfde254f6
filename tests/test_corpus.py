"""The byte-identity corpus of ``tests/corpus.py`` against its committed digests.

Every corpus run (174 configs, 26 CLI runs each) is made in this process
and its record hashed as ``python tests/corpus.py --digest`` does.  A run
whose digest differs from ``tests/corpus.sha256`` is named; ``python
tests/corpus.py OUTDIR`` in two checkouts and ``diff -r`` show how it moved.
"""

from pathlib import Path

import corpus

DIGESTS = Path(__file__).resolve().parent / "corpus.sha256"


def test_every_corpus_run_matches_its_digest(tmp_path):
    expected = corpus.read_digests(DIGESTS)
    got = {path: corpus.digest(record) for path, record, _ in corpus.records(tmp_path)}
    runs = expected.keys() | got.keys()
    moved = sorted(path for path in runs if expected.get(path) != got.get(path))
    assert not moved, (
        f"{len(moved)} of {len(got)} corpus runs moved from tests/corpus.sha256 "
        "(regenerate with: python tests/corpus.py --digest tests/corpus.sha256):\n"
        + "\n".join(moved)
    )
