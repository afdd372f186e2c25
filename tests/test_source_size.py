"""The source-size cap: src/wickchaos/*.py totals at most 2372 lines, as `wc -l` counts them.

Also: the canonical form's pruning threshold is read in core.py only, where
ChaosExpansion._from_arrays prunes every term table.
"""

from pathlib import Path

SOURCE_LINE_CAP = 2372
SRC = Path(__file__).resolve().parents[1] / "src" / "wickchaos"


def test_source_stays_within_the_line_cap():
    files = sorted(SRC.glob("*.py"))
    assert files
    lines = {f.name: f.read_bytes().count(b"\n") for f in files}
    total = sum(lines.values())
    assert total <= SOURCE_LINE_CAP, f"src/wickchaos/*.py has {total} lines (cap {SOURCE_LINE_CAP}): {lines}"


def test_prune_eps_is_read_in_core_only():
    assert [f.name for f in sorted(SRC.glob("*.py")) if "PRUNE_EPS" in f.read_text()] == ["core.py"]
