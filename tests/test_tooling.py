import ast
import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "higgspec"


def test_package_imports_only_the_standard_library():
    # higgspec has no runtime dependencies: every import names a standard
    # library module or higgspec itself (a relative import)
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            top = {name.partition(".")[0] for name in names}
            outside += [f"{path.name}: {t}" for t in sorted(top - sys.stdlib_module_names - {"higgspec"})]
    assert outside == []


def test_readme_lists_every_export():
    # every name src/higgspec/__init__.py imports is backticked in the README's
    # export paragraph, alone or as a call such as `poly_gcd(*polys)`; the
    # paragraph also backticks expressions, so only this direction is checked
    readme = (SRC.parents[1] / "README.md").read_text()
    start = readme.index("The package exports only")
    paragraph = readme[start : readme.index("\n\n", readme.index("\n- ", start))]
    exported = {
        alias.asname or alias.name
        for node in ast.parse((SRC / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(name for name in exported if not re.search(f"`{name}[`(]", paragraph)) == []
