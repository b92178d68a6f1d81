"""The README's library quick tour runs as written, and each expression
whose line carries a comment evaluates to what the comment shows."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    """The first ``python`` block after the quick-tour heading."""
    section = README.read_text().split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def line_comments(code: str) -> dict:
    """Each comment's text, by line number."""
    tokens = tokenize.generate_tokens(io.StringIO(code).readline)
    return {tok.start[0]: tok.string.lstrip("# ").strip()
            for tok in tokens if tok.type == tokenize.COMMENT}


def shown(comment: str) -> re.Pattern:
    """The repr a comment shows, with ``...`` standing for any text."""
    return re.compile(".*".join(map(re.escape, comment.split("..."))))


def test_readme_quick_tour_values_and_types():
    code = quick_tour()
    comments = line_comments(code)
    namespace = {}
    checked = []
    for node in ast.parse(code).body:
        source = ast.get_source_segment(code, node)
        comment = comments.get(node.end_lineno)
        if isinstance(node, ast.Expr) and comment is not None:
            value = eval(source, namespace)
            # numpy scalars print as np.float64(...), so the repr also
            # checks that every number is a Python int or float.
            assert shown(comment).fullmatch(repr(value)), (source, value)
            checked.append(source)
        else:
            exec(source, namespace)
    assert checked == ["diag.pairs(1)",
                       "bottleneck(diag.pairs(1), other.pairs(1))"]
