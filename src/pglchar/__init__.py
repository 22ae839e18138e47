"""Exact decomposition of Ind(1) from PGSp_n, PGO_n^+ and PGO_n^- into
irreducible characters of PGL_n(F_q), for even n and odd prime powers q.

Three independent computational routes (closed formulas on irreducible
labels, closed formulas on basic characters, and brute-force involution
counting) are cross-checked against each other.  Group orders check the
totals: sum(mult * degree) must be the index of the subgroup.  Double cosets,
counted as orbits on forms, give sum(mult * mult) for a pair of subgroups.

The exported names are imported from their modules on first use, so
importing the package (or one module of it, such as the CLI) loads no other.
"""

__version__ = "0.1.0"

# The module that defines each exported name.
_EXPORTS = {
    name: module
    for module, names in (
        ("errors", ("CapacityError", "InvariantViolation", "QContext", "q_context")),
        ("formulas", ("DecompositionReport", "decompose")),
        ("params", ("MultiPartition", "make_label", "parse_label")),
        ("partitions", ("Partition", "partitions_of")),
        ("subgroups", ("Subgroup",)),
        ("symchar", ("chi",)),
    )
    for name in names
}
__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
