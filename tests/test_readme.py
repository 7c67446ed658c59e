"""The README's Library example runs as written and shows the values its
`# value` comments claim, so API drift in the example fails here."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_values():
    code = library_block()
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(code).readline)
                if tok.type == tokenize.COMMENT}
    namespace, checked = {}, []
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
            got = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            expected = ast.literal_eval(comments[stmt.end_lineno])
            assert got == expected, ast.get_source_segment(code, stmt)
            checked.append(expected)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert checked and len(checked) == len(comments)  # every comment was a checked value
