"""The source-size cap: src/wickchaos/*.py totals at most 2214 lines, as `wc -l` counts them."""

from pathlib import Path

SOURCE_LINE_CAP = 2214


def test_source_stays_within_the_line_cap():
    files = sorted((Path(__file__).resolve().parents[1] / "src" / "wickchaos").glob("*.py"))
    assert files
    lines = {f.name: f.read_bytes().count(b"\n") for f in files}
    total = sum(lines.values())
    assert total <= SOURCE_LINE_CAP, f"src/wickchaos/*.py has {total} lines (cap {SOURCE_LINE_CAP}): {lines}"
