"""Seeded runs still give the exact bytes recorded in tests/data/golden.json.

The file holds one digest set per OPENBLAS_NUM_THREADS setting; this test
compares against the set of the setting it runs under, and fails when no
set is recorded for it. See tests/make_golden.py for what each digest
covers and how to regenerate the file.
"""

import json

import make_golden


def test_golden_corpus_digests_are_unchanged():
    doc = json.loads(make_golden.GOLDEN.read_text(encoding="utf-8"))
    setting = make_golden.setting()
    assert setting in doc, (
        f"no golden digests recorded for OPENBLAS_NUM_THREADS={setting}; "
        f"recorded settings: {sorted(doc)}")
    recorded = doc[setting]
    got = make_golden.compute()
    differ = sorted(k for k in recorded["digests"].keys() | got.keys()
                    if recorded["digests"].get(k) != got.get(k))
    assert not differ, (
        f"golden digests differ: {differ}\n"
        f"recorded in: {recorded['environment']}\n"
        f"running in:  {make_golden.environment()}")
