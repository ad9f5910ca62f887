"""Count the lines of src/greedylsq/*.py by kind and print a table.

Each line is blank, docstring (inside a module, class or function
docstring, per ``ast``), comment-only, or else code, checked in that
order.  Run from anywhere: ``python tools/src_size.py``.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "greedylsq"
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree):
    """The 1-based line numbers of every module, class or function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path):
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            counts["blank"] += 1
        elif number in docs:
            counts["docstring"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main():
    rows = [(path.name, count(path)) for path in sorted(SRC.glob("*.py"))]
    total = {kind: sum(c[kind] for _, c in rows) for kind in KINDS}
    rows.append(("total", total))
    print(f"{'file':<16}{'lines':>7}" + "".join(f"{kind:>11}" for kind in KINDS))
    for name, c in rows:
        print(f"{name:<16}{sum(c.values()):>7}" + "".join(f"{c[kind]:>11}" for kind in KINDS))


if __name__ == "__main__":
    main()
