"""`tools/code_lines.py`: the code-line count of the package."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line

import math  # a trailing comment


class Box:
    """Class docstring."""

    def area(self, w,
             h):
        """Function docstring,

        over three lines."""
        label = """not a
        docstring"""
        return max(  # a multi-line call
            w * h,
            0,
        ), label
'''


def test_counts_code_lines_only():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # import, class, def (2 lines), the string (2 lines), the call (4 lines)
    assert module.count_code_lines(SOURCE) == 10
