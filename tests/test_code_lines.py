"""The rule of `code_lines.py`, pinned on a short source text: blank
lines, comments and docstrings are not code; every line of a multi-line
statement or string literal is."""

from code_lines import code_lines

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not stop a line being code

# a comment line


class A:
    """Class docstring."""

    x = """a string that is not a docstring
# still code

"""

    def f(self, y):
        """Function docstring."""
        return (y +
                1)
'''


def test_counts_code_lines_only():
    # import, class, x = (4 lines), def, return (2 lines)
    assert code_lines(SOURCE) == 9


def test_empty_and_docstring_only_sources_have_no_code():
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
