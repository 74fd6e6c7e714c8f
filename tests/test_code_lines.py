"""tools/code_lines.py, the code-line counter the BENCH files and CI use."""

import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


SOURCE = textwrap.dedent('''\
    """Module docstring,
    two lines."""

    # A comment line.
    import os  # a trailing comment keeps its line


    class A:
        """Class docstring."""

        def f(self):
            """Method docstring."""
            text = """a string
    that is not a docstring"""
            return text


    async def g():
        """Coroutine docstring."""
        await h(
            1,
        )
    ''')


def test_counts_code_and_skips_blank_comment_and_docstring_lines():
    # import, class, def, two string lines, return, async def, await, 1, ).
    assert load_tool().code_lines(SOURCE) == 10


def test_counts_the_files_directly_under_a_directory(tmp_path, capsys):
    tool = load_tool()
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "c.py").write_text("w = 4\n")
    assert tool.main([str(tmp_path), str(tmp_path / "a.py")]) == 0
    assert capsys.readouterr().out == f"3 {tmp_path}\n2 {tmp_path / 'a.py'}\n5 total\n"
    assert tool.main([]) == 2
