"""Golden digests: every corpus run must render the pinned trace and metrics
bytes, so a behaviour change cannot pass by changing two runs alike."""

import runpy

from conftest import REPO_ROOT

PIN_SCRIPT = REPO_ROOT / "scripts" / "pin_goldens.py"
TABLE = REPO_ROOT / "tests" / "golden_digests.txt"


def test_corpus_matches_golden_digests():
    pinned = TABLE.read_text().splitlines()
    fresh = runpy.run_path(str(PIN_SCRIPT))["golden_lines"]()
    changed = sorted(set(pinned).symmetric_difference(fresh))
    assert fresh == pinned, (
        f"{len(changed)} golden lines differ:\n" + "\n".join(changed) +
        "\nA deliberate behaviour change must re-pin with "
        "`python3 scripts/pin_goldens.py` and say so; nothing else may "
        "edit tests/golden_digests.txt.")
