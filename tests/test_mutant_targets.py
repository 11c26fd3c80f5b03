"""Every planted mutant of tests/mutants.py still has its target.

The mutation run takes minutes, so a change that moves a mutant's old
text or renames a test it names shows here first: the old text must occur
exactly once in its module, the new text must differ from it, and each
named test file, and each test named in it, must exist.
"""

import ast
import importlib.util
from pathlib import Path

MUTANTS = Path(__file__).resolve().parent / "mutants.py"


def load_mutants():
    spec = importlib.util.spec_from_file_location("planted_mutants", MUTANTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_has_its_target():
    mutants = load_mutants()
    names = [name for name, *_ in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for name, module, old, new, tests in mutants.MUTANTS:
        text = (mutants.ROOT / "src" / "tropmom" / module).read_text()
        assert text.count(old) == 1 and new != old, name
        for test in tests:
            path, _, func = test.partition("::")
            source = mutants.ROOT / path
            assert source.is_file(), (name, test)
            if func:
                tree = ast.parse(source.read_text())
                defined = {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
                assert func.partition("[")[0] in defined, (name, test)
