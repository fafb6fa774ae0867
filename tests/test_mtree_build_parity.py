"""The one M-tree write path builds, byte for byte, what the two copies did.

``tests/fixtures/mtree_build_parity.json`` holds, for every cell of the
matrix in :mod:`tests.mtree_build_parity_recipe`, the digest of the built
structure and what the build and a run of dynamic inserts charged, recorded
on the commit *before* ``MTree._insert/_split`` and
``PagedMTree._register_insert/_split_page`` became one insert and one
split.  Replaying the recipe must reproduce it exactly.
"""

from __future__ import annotations

import json

from .mtree_build_parity_recipe import FIXTURE_PATH, compute_parity


def test_every_cell_matches_the_recorded_baseline() -> None:
    stored = json.loads(FIXTURE_PATH.read_text())
    fresh = json.loads(json.dumps(compute_parity()))
    assert set(fresh["cells"]) == set(stored["cells"])
    for key, want in stored["cells"].items():
        for field, recorded in want.items():
            assert fresh["cells"][key][field] == recorded, f"{key}: {field} drifted"
