import ast
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
