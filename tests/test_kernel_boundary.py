"""Only `poly` and `kernels` touch the packed term dicts and keys.

Every other package module works through `MultiPoly` operations: it
references none of the raw-dict or key-layout names below, as a name,
an attribute, an import or an identifier string.  A raw-dict side path
beside `MultiPoly` (an integer one, say), or exponent arithmetic on the
packed keys, would have to reach for them.
"""

import ast

from test_unused_helpers import PACKAGE, _references

RAW_NAMES = {"_d", "_raw", "GUARD_MASK", "add_dicts", "diff_dict",
             "subst_dict", "mul_dicts", "addmul_term", "decode_key",
             "encode_exponents", "_SHIFTS", "_DEG_SHIFT", "_FIELD_MASK"}
OWNERS = {"poly.py", "kernels.py"}


def test_raw_dicts_stay_in_poly_and_kernels():
    checked, crossings = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in OWNERS:
            continue
        checked += 1
        tree = ast.parse(path.read_text(encoding="utf-8"))
        crossings += [f"{path.name}:{line} {name}"
                      for name, line in _references(tree) if name in RAW_NAMES]
    assert checked >= 6  # the scan saw the package
    assert not crossings
