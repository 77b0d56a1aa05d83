"""README.md's usage examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order_in_one_namespace():
    # the second block reads the energy the first one sets
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["sol"].unitarity_defect < 1e-8
    assert len(namespace["table"].reflected) == namespace["wire"].lead_modes
