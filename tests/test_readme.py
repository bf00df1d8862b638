"""The library tour in README.md runs and gives the values its comments state."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_matches_its_comments():
    [tour] = [block.split("\n", 1)[1] for block in README.read_text().split("```")[1::2]
              if block.startswith("python\n")]
    names, values = {}, []
    for stmt in ast.parse(tour).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), names))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), names)
    q, env = names["q"], names["env"]
    assert q.quotient.basis_names == ("x~",)
    assert values == [(1, 1, 1), (1, 1, 0)]  # the loday and CE Betti numbers
    assert env.degrees() == (0, 1, 2)
    assert (env.dim(0), env.dim(1), env.dim(2)) == (1, 2, 1)
