"""No line of the package is wider than 98 characters, so that its line
count measures code and not how densely it is packed."""
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "plectic"
WIDTH = 98


def test_no_source_line_is_wider_than_the_cap():
    wide = [f"{path.name}:{n} ({len(line)})"
            for path in sorted(PACKAGE.glob("*.py"))
            for n, line in enumerate(path.read_text("utf-8").splitlines(), start=1)
            if len(line) > WIDTH]
    assert not wide, f"lines wider than {WIDTH} characters:\n" + "\n".join(wide)
