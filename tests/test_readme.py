"""README.md names library objects in backticks, as `module.name` or
`Class.attr`; each must exist in sconv, so a rename or a deletion cannot
leave the README behind."""

import importlib
import re
from pathlib import Path

import pytest

import sconv

README = Path(__file__).resolve().parent.parent / "README.md"
NOT_SCONV = {"csv", "json"}  # standard-library modules the README cites


def dotted_references() -> list[str]:
    """The dotted head of every inline code span outside fenced blocks."""
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    heads = (re.match(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", span) for span in
             re.findall(r"`([^`]+)`", text))
    return sorted({m.group(0) for m in heads if m and m.group(0).split(".")[0] not in NOT_SCONV})


REFERENCES = dotted_references()


def test_readme_has_references():
    assert len(REFERENCES) >= 16


@pytest.mark.parametrize("ref", REFERENCES)
def test_readme_reference_resolves(ref):
    head, *rest = ref.split(".")
    try:
        obj = sconv if head == "sconv" else importlib.import_module(f"sconv.{head}")
    except ModuleNotFoundError:
        obj = getattr(sconv, head)  # a class the package exports
    for part in rest:
        obj = getattr(obj, part)
