"""Independent oracle for sweep verdicts.

It rebuilds H and K for one grid point (m, r, c) from the catalog's
manifest text with its own expression evaluator and its own bivariate
polynomial arithmetic, fixes the spectator variable at a point far
outside the interpolation sample range, and takes the Sylvester
determinant in the eliminated variable by Gaussian elimination over
Fraction.  It imports nothing from resverify: only the manifest text is
shared, and the caller passes it in.
"""

from __future__ import annotations

import ast
import random
from fractions import Fraction

# manifest entries the sweep polynomials are built from
SWEEP_NAMES = ("P", "Q", "R2", "conic2", "Hgen", "NumDerF", "DenDerF")


class BiPoly:
    """Polynomial in f and k: {(i, j): coefficient of f^i k^j}."""

    __slots__ = ("t",)

    def __init__(self, terms=None):
        self.t = {e: c for e, c in (terms or {}).items() if c}

    @staticmethod
    def lift(value) -> "BiPoly":
        if isinstance(value, BiPoly):
            return value
        return BiPoly({(0, 0): Fraction(value)})

    def __add__(self, other):
        out = dict(self.t)
        for e, c in BiPoly.lift(other).t.items():
            out[e] = out.get(e, 0) + c
        return BiPoly(out)

    def __neg__(self):
        return BiPoly({e: -c for e, c in self.t.items()})

    def __sub__(self, other):
        return self + (-BiPoly.lift(other))

    def __mul__(self, other):
        out: dict = {}
        for (i1, j1), c1 in self.t.items():
            for (i2, j2), c2 in BiPoly.lift(other).t.items():
                e = (i1 + i2, j1 + j2)
                out[e] = out.get(e, 0) + c1 * c2
        return BiPoly(out)

    def __pow__(self, n: int):
        out = BiPoly.lift(1)
        for _ in range(n):
            out = out * self
        return out

    def derivative(self, axis: int) -> "BiPoly":
        out = {}
        for e, c in self.t.items():
            if e[axis]:
                d = list(e)
                d[axis] -= 1
                out[tuple(d)] = c * e[axis]
        return BiPoly(out)

    def univariate(self, var: str, spectator_value) -> list:
        """Ascending coefficients in var after fixing the other variable."""
        axis = 0 if var == "f" else 1
        deg = max((e[axis] for e in self.t), default=-1)
        out = [Fraction(0)] * (deg + 1)
        for e, c in self.t.items():
            out[e[axis]] += c * Fraction(spectator_value) ** e[1 - axis]
        while out and not out[-1]:
            out.pop()
        return out

    def degree(self, var: str) -> int:
        axis = 0 if var == "f" else 1
        return max((e[axis] for e in self.t), default=-1)


_BINOPS = {ast.Add: lambda a, b: BiPoly.lift(a) + b,
           ast.Sub: lambda a, b: BiPoly.lift(a) - b,
           ast.Mult: lambda a, b: BiPoly.lift(a) * b}


def _evaluate(node, env: dict):
    if isinstance(node, ast.Expression):
        return _evaluate(node.body, env)
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return Fraction(node.value)
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        value = BiPoly.lift(_evaluate(node.operand, env))
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.BinOp):
        left = _evaluate(node.left, env)
        right = _evaluate(node.right, env)
        if isinstance(node.op, ast.Div):
            # the grammar allows division only inside rational literals
            if not (isinstance(left, Fraction) and isinstance(right, Fraction)):
                raise ValueError("division outside a rational literal")
            return left / right
        if isinstance(node.op, ast.Pow):
            return BiPoly.lift(left) ** int(right)
        return _BINOPS[type(node.op)](left, right)
    raise ValueError(f"unsupported expression node {ast.dump(node)}")


def sweep_pair(manifest_text: str, mm: int, rr: int, cc: int) -> tuple[BiPoly, BiPoly]:
    """H and K of the sweep at (m, r, c), as polynomials in f and k."""
    exprs = {}
    for line in manifest_text.splitlines():
        name, sep, expr = line.partition(":=")
        if sep and name.strip() in SWEEP_NAMES:
            exprs[name.strip()] = expr.strip()
    env = {"m": Fraction(mm), "r": Fraction(rr), "c": Fraction(cc),
           "f": BiPoly({(1, 0): Fraction(1)}), "k": BiPoly({(0, 1): Fraction(1)})}
    for name in SWEEP_NAMES:
        tree = ast.parse(exprs[name].replace("^", "**"), mode="eval")
        env[name] = BiPoly.lift(_evaluate(tree, env))
    h = env["Hgen"] * Fraction(1, mm - rr)
    k = h.derivative(0) * env["NumDerF"] + h.derivative(1) * env["DenDerF"]
    return h, k


def sylvester_det(a: list, b: list) -> Fraction:
    """Resultant of two univariate polynomials (ascending coefficients)
    as the determinant of their Sylvester matrix, rows of a on top."""
    da, db = len(a) - 1, len(b) - 1
    n = da + db
    rows = []
    for i in range(db):
        rows.append([Fraction(0)] * i + a[::-1] + [Fraction(0)] * (n - da - 1 - i))
    for i in range(da):
        rows.append([Fraction(0)] * i + b[::-1] + [Fraction(0)] * (n - db - 1 - i))
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        head = rows[col][col]
        det *= head
        for i in range(col + 1, n):
            factor = rows[i][col] / head
            if factor:
                row_i, row_c = rows[i], rows[col]
                for j in range(col, n):
                    row_i[j] -= factor * row_c[j]
    return det


def evaluation_point(seed: int, h: BiPoly, k: BiPoly, var: str) -> int:
    """A seeded spectator value far beyond the interpolation samples
    (1..~200) at which neither input drops degree in var."""
    rng = random.Random(seed)
    while True:
        x0 = rng.randrange(10_000, 1_000_000)
        if (len(h.univariate(var, x0)) - 1 == h.degree(var)
                and len(k.univariate(var, x0)) - 1 == k.degree(var)):
            return x0


def resultant_at(manifest_text: str, case: tuple[int, int, int], var: str,
                 seed: int) -> tuple[int, Fraction]:
    """(x0, Res_var(H, K) at spectator = x0) for one sweep case."""
    h, k = sweep_pair(manifest_text, *case)
    x0 = evaluation_point(seed, h, k, var)
    return x0, sylvester_det(h.univariate(var, x0), k.univariate(var, x0))


def check_case(expected: tuple[int, Fraction], coeffs: dict[int, Fraction]) -> str | None:
    """Compare a returned resultant, given as {spectator degree:
    coefficient}, with the oracle value; a message on mismatch."""
    x0, want = expected
    got = sum((Fraction(c) * Fraction(x0) ** e for e, c in coeffs.items()), Fraction(0))
    if got != want:
        return f"resultant at spectator={x0} is {got}, Sylvester determinant is {want}"
    return None
