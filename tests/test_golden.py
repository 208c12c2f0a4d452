"""Seeded runs still give the exact bytes recorded in tests/data/golden.json.

See tests/make_golden.py for what each digest covers and how to
regenerate the file.
"""

import json

import make_golden


def test_golden_corpus_digests_are_unchanged():
    doc = json.loads(make_golden.GOLDEN.read_text(encoding="utf-8"))
    got = make_golden.compute()
    differ = sorted(k for k in doc["digests"].keys() | got.keys()
                    if doc["digests"].get(k) != got.get(k))
    assert not differ, (
        f"golden digests differ: {differ}\n"
        f"recorded in: {doc['environment']}\n"
        f"running in:  {make_golden.environment()}")
