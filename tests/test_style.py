import ast
from pathlib import Path

import matchcore

SRC = Path(matchcore.__file__).parent


def test_no_tuple_of_generator():
    # tuple(<genexpr>) builds its result in a size-10 tuple, resizes it and
    # frees the spare into a per-size free list; over many requests those
    # lists fill up and hold memory.  tuple([...]) allocates exactly once.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "tuple"
                and any(isinstance(a, ast.GeneratorExp) for a in node.args)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
