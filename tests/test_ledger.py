import numpy as np

from spheremat import spheres
from spheremat.ledger import all_entries, run_ledger


def test_every_entry_passes():
    results = run_ledger()
    assert results, "ledger must not be empty"
    for r in results:
        assert r.ok, f"{r.key}: {r.detail}"


def test_entries_have_unique_keys_and_claims():
    entries = all_entries()
    keys = [e.key for e in entries]
    assert len(keys) == len(set(keys))
    assert all(e.claim for e in entries)


def test_psi_circle_entry_checks_the_librarys_psi_map(monkeypatch):
    (entry,) = [e for e in all_entries() if e.key == "psi-circle"]
    assert entry.check()[0]
    # x + 2<x,y>y, the wrong sign: at x = 1 it is 2 + y^2, which winds 0
    monkeypatch.setattr(
        spheres, "psi_map", lambda x: lambda pts: x[None, :] + 2.0 * (pts @ x)[:, None] * pts
    )
    ok, detail = entry.check()
    assert not ok
    assert detail == "circle reflection wound ((0,),)"
