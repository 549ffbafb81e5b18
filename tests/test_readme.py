"""The README's public API list against ``twobridge.__all__``."""

import re
from pathlib import Path

import twobridge

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_the_public_api_section_lists_every_public_name_once():
    section = README[README.index("\n## Public API\n") :]
    section = section[: section.index("\n## ", 1)]
    listed = re.findall(r"^- `(\w+)", section, re.M)
    assert sorted(listed) == sorted(twobridge.__all__)
