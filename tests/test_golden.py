"""Seeded runs still give the exact bytes recorded in tests/data/golden.json.

The file holds one digest set per OPENBLAS_NUM_THREADS setting in
make_golden.SETTINGS; this test recomputes every set in a fresh
interpreter started with its setting, whatever setting it runs under, and
compares each exactly. See tests/make_golden.py for what each digest
covers and how to regenerate the file.
"""

import json

import make_golden


def test_golden_corpus_digests_are_unchanged():
    doc = json.loads(make_golden.GOLDEN.read_text(encoding="utf-8"))
    assert sorted(doc) == sorted(make_golden.SETTINGS), (
        f"recorded settings {sorted(doc)}, expected {sorted(make_golden.SETTINGS)}")
    failures = []
    for setting, recorded in sorted(doc.items()):
        got = make_golden.compute_at(setting)
        want = recorded["digests"]
        differ = sorted(k for k in want.keys() | got["digests"].keys()
                        if want.get(k) != got["digests"].get(k))
        if differ:
            failures.append(f"OPENBLAS_NUM_THREADS={setting}: golden digests differ: {differ}\n"
                            f"  recorded in: {recorded['environment']}\n"
                            f"  running in:  {got['environment']}")
    assert not failures, "\n".join(failures)
