import ast
import dataclasses
from pathlib import Path

import matchcore
from matchcore import simplex

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


def test_variant_compared_only_where_bounds_are_declared():
    # Every variant is a b-general game with particular bounds, declared
    # once by gamelp.priced; the LPs, the dual's optimality test, the
    # imputation map and the dual-image test are emitted from that
    # declaration.  A comparison on
    # ``.variant`` anywhere else in these modules grows a ladder back.
    allowed = {("gamelp.py", "priced"), ("bmatching.py", "in_dual_image")}
    found = []
    for name in ("gamelp.py", "bmatching.py"):
        for top in ast.parse((SRC / name).read_text()).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if not isinstance(node, ast.Compare):
                    continue
                sides = [node.left, *node.comparators]
                if not any(isinstance(s, ast.Attribute) and s.attr == "variant" for s in sides):
                    continue
                guard = any(isinstance(s, ast.Name) and s.id == "B_VARIANTS" for s in sides)
                if (name, owner) not in allowed or (owner == "in_dual_image" and not guard):
                    found.append(f"{name}:{node.lineno} in {owner}")
    assert found == []


def test_cli_never_compares_the_variant():
    # Core membership has one path for all six variants
    # (GameAnalysis.membership); a ``.variant`` comparison in the CLI
    # would grow a second one back.
    found = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))
        if isinstance(node, ast.Compare)
        and any(
            isinstance(side, ast.Attribute) and side.attr == "variant"
            for side in [node.left, *node.comparators]
        )
    ]
    assert found == []


def _read_off_a_session(node) -> bool:
    """Is ``node`` read off a ``GameAnalysis(...)`` call, as in
    ``GameAnalysis(g).x``, ``GameAnalysis(g).f(q)`` or
    ``GameAnalysis(g).labels[0][q]``?"""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "GameAnalysis"
        ):
            return True
    return False


def fresh_session_wrappers(src: Path) -> list[str]:
    """Module-level functions that return a fact of a session they build."""
    found = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.FunctionDef):
                found += [
                    f"{path.name}:{top.name}"
                    for node in ast.walk(top)
                    if isinstance(node, ast.Return) and _read_off_a_session(node.value)
                ]
    return found


def test_no_fresh_session_wrappers():
    # The session is the one way to ask a game's facts.  A function that
    # builds GameAnalysis(...) and returns one of its facts gives that fact
    # a second name and a second set of caps, and a caller who loops over
    # it solves the game once per call.
    assert fresh_session_wrappers(SRC) == []


def references(name):
    """Each reference to ``name`` in the package, a call or an alias, as
    ``file:top-level owner``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", "<module>")
            found += [
                f"{path.name}:{owner}"
                for node in ast.walk(top)
                if (isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
            ]
    return found


def test_only_the_worth_oracle_lists_optima():
    # The session counts the optimal matchings and lists none: the listing
    # search is the independent oracle behind analysis.worth.  Any other
    # reference, a call or an alias, would bring a listing back.
    assert references("brute_force_optima") == ["analysis.py:worth"]


def test_only_the_listing_oracle_runs_the_search():
    # integer_search is the plain listing search behind brute_force_optima;
    # every other optimum, Birkhoff's covering matchings among them, is
    # read off the residual table.  Any other reference would bring a
    # second engine back.
    assert references("integer_search") == ["matchings.py:brute_force_optima"]


def test_the_session_runs_no_search_of_its_own():
    # The session reads a game's worth and the count of its optima from
    # one recursion, chosen by the game's bounds.  The listing search, its
    # oracle wrapper and a counting search beside it are oracles; a
    # name of one in the class body would give the session a second
    # engine for the same fact.
    oracles = {"integer_search", "brute_force_optima", "count_optima"}
    tree = ast.parse((SRC / "analysis.py").read_text())
    (session,) = [
        top for top in tree.body
        if isinstance(top, ast.ClassDef) and top.name == "GameAnalysis"
    ]
    found = [
        f"analysis.py:{node.lineno}"
        for node in ast.walk(session)
        if (isinstance(node, ast.Name) and node.id in oracles)
        or (isinstance(node, ast.Attribute) and node.attr in oracles)
    ]
    assert found == []


def test_the_session_builds_one_table_class():
    # Every game's worth, count and coalition worths come from one table
    # class, built in _table with no predicate on the bounds; a test there,
    # or a ``.variant`` read in _table, _optima or _coalition_worth, would
    # let a game pick a second table for the same facts.
    classes = {
        top.name: {f.name for f in top.body if isinstance(f, ast.FunctionDef)}
        for top in ast.parse((SRC / "matchings.py").read_text()).body
        if isinstance(top, ast.ClassDef)
    }
    assert [c for c, names in classes.items() if {"count", "worth"} <= names] == ["ResidualTable"]
    tree = ast.parse((SRC / "analysis.py").read_text())
    (session,) = [
        top for top in tree.body
        if isinstance(top, ast.ClassDef) and top.name == "GameAnalysis"
    ]
    methods = {
        node.name: node for node in session.body
        if isinstance(node, ast.FunctionDef)
        and node.name in ("_table", "_optima", "_coalition_worth")
    }
    assert sorted(methods) == ["_coalition_worth", "_optima", "_table"]
    built = [
        node.func.id for node in ast.walk(methods["_table"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in classes
    ]
    assert built == ["ResidualTable"]
    found = [
        f"analysis.py:{node.lineno} in {name}"
        for name, method in methods.items()
        for node in ast.walk(method)
        if (isinstance(node, ast.Attribute) and node.attr == "variant")
        or (name == "_table" and isinstance(node, (ast.If, ast.IfExp, ast.Compare, ast.BoolOp)))
    ]
    assert found == []


def test_dual_image_rows_come_from_the_dual_lp():
    # in_dual_image reads every column, its owners and its objective term
    # from gamelp.dual_columns, and substitutes the vertex cap prices into
    # the dual's cover rows, each column entering the rows of the edges it
    # is owned by; its rows are all "<=".  A ">=" row written in bmatching,
    # or a dual column named there, would be a second copy of the dual LP.
    # The core system's coalition rows (system_lp) are not dual rows.
    found = []
    for top in ast.parse((SRC / "bmatching.py").read_text()).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
                continue
            if (node.value == ">=" and owner != "system_lp") or any(
                node.value.startswith(p) for p in ("y[", "y_lo[", "z[", "z_lo[")
            ):
                found.append(f"bmatching.py:{node.lineno} in {owner}")
    assert found == []


PRICE_FAMILY_NAMES = {
    "vertex_upper", "vertex_lower", "edge_upper", "edge_lower",
    "cap_left", "cap_right", "floor_left", "floor_right",
}


def test_bmatching_names_no_price_family():
    # gamelp.dual_columns is the one code that knows the price families,
    # and a dual prices each column at its name.  The map from duals to
    # profits and the report's [dual] section read every price through the
    # columns, and a split is one share, so a family or split part named in
    # bmatching or reports (an identifier, an attribute or a string) would
    # write a family out again.  GameAnalysis keeps no second map for
    # single-use games.
    found = []
    for module in ("bmatching.py", "reports.py"):
        for node in ast.walk(ast.parse((SRC / module).read_text())):
            names = [
                getattr(node, attr)
                for attr in ("id", "attr", "arg", "name", "value")
                if isinstance(getattr(node, attr, None), str)
            ]
            found += [
                f"{module}:{node.lineno}: {n}" for n in names if n in PRICE_FAMILY_NAMES
            ]
    assert found == []
    assert not hasattr(matchcore.GameAnalysis, "core_imputation")


def test_simplex_builds_fractions_only_for_the_answer():
    # The pivots, the feasibility check and the objective run in integers:
    # a value is an integer over one denominator until the read-out builds
    # the answer's fractions.  _assert_feasible, which takes a dict of
    # fractions from a caller, and the module's shared ZERO may build them
    # too; a Fraction(...) call anywhere else would bring Fraction
    # arithmetic back into the solver.
    allowed = {"_read_out", "_assert_feasible"}
    found = []
    for top in ast.parse((SRC / "simplex.py").read_text()).body:
        owner = getattr(top, "name", "<module>")
        if isinstance(top, ast.Assign) and [t.id for t in top.targets] == ["ZERO"]:
            continue
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Fraction"
                and owner not in allowed
            ):
                found.append(f"simplex.py:{node.lineno} in {owner}")
    assert found == []


def test_only_the_search_nests_a_function():
    # integer_search's closure is the one recursion in matchings.py; it
    # breaks its own reference cycle.  Every other search there is a table
    # method, so a nested function elsewhere would grow a private
    # recursion back.
    nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    found = []
    for top in ast.walk(ast.parse((SRC / "matchings.py").read_text())):
        if not isinstance(top, nested[:2]) or top.name == "integer_search":
            continue
        found += [
            f"matchings.py:{node.lineno} in {top.name}"
            for node in ast.walk(top)
            if node is not top and isinstance(node, nested)
        ]
    assert found == []


def test_one_tableau_runs_every_phase_2():
    # A Tableau is a feasible basis of an LP, and its optimize is the
    # kernel's one phase 2 and one read-out of a basic solution: solve_lp
    # hands it the basis that phase 1 found, and an answer carries the
    # tableau of its final basis, from which a later optimize warm-starts.
    # A _read_out call anywhere else, or a class beside the LP
    # and its answer holding a tableau, would be a second copy of phase 2.
    tree = ast.parse((SRC / "simplex.py").read_text())
    found = []
    for top in tree.body:
        scopes = top.body if isinstance(top, ast.ClassDef) else [top]
        for scope in scopes:
            owner = getattr(scope, "name", "<module>")
            if scope is not top:
                owner = f"{top.name}.{owner}"
            found += [
                owner
                for node in ast.walk(scope)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "_read_out"
            ]
    assert found == ["Tableau.optimize"]
    classes = [top.name for top in tree.body if isinstance(top, ast.ClassDef)]
    assert classes == ["LinearProgram", "LPSolution", "Tableau"]
    fields = {
        cls.__name__: [f.name for f in dataclasses.fields(cls)]
        for cls in (simplex.LinearProgram, simplex.LPSolution)
    }
    assert fields == {
        "LinearProgram": [
            "variables", "objective", "maximize", "constraints", "nonnegative", "row_labels",
        ],
        "LPSolution": ["status", "values", "objective_value", "tableau"],
    }


def test_one_connected_set_enumerator():
    # games._connected_masks is the one enumerator of connected vertex
    # sets, and its work follows its output: connected_coalitions wraps it,
    # and the session reads its masks, not the frozensets.  A second
    # caller, or a range over all 1 << n subsets anywhere in the package,
    # would bring back a 2^n flood fill.
    assert references("_connected_masks") == [
        "analysis.py:GameAnalysis", "games.py:connected_coalitions",
    ]
    assert references("connected_coalitions") == []

    def shifts_or_powers(node):
        return any(
            isinstance(n, ast.BinOp) and isinstance(n.op, (ast.LShift, ast.Pow))
            for n in ast.walk(node)
        )

    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "range"
        and any(shifts_or_powers(arg) for arg in node.args)
    ]
    assert found == []


def test_one_payment_path_for_both_payment_variants():
    # Every payment answer of both payment variants is read from the
    # core's octagon (matchings.core_octagon).  A ``.variant`` comparison
    # in the session's payment methods, or a face query on the session,
    # would grow the second path back.
    tree = ast.parse((SRC / "analysis.py").read_text())
    (session,) = [
        top for top in tree.body
        if isinstance(top, ast.ClassDef) and top.name == "GameAnalysis"
    ]
    names = ("vertex_payment", "edge_payment", "profit_bounds", "payments")
    methods = [f for f in session.body if isinstance(f, ast.FunctionDef) and f.name in names]
    assert sorted([f.name for f in methods]) == sorted(names)
    found = [
        f"analysis.py:{node.lineno} in {f.name}"
        for f in methods
        for node in ast.walk(f)
        if isinstance(node, ast.Compare)
        and any(
            isinstance(side, ast.Attribute) and side.attr == "variant"
            for side in [node.left, *node.comparators]
        )
    ]
    assert found == []
    assert not hasattr(matchcore.GameAnalysis, "face")
