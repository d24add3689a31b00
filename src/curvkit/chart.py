"""Coordinate charts: named coordinates plus the symbols a metric may use."""

from __future__ import annotations

from .expr import ExprError, Record

# symbols every chart knows without declaration
BUILTIN_CONSTANTS = ("c", "G", "pi")


class ChartError(ExprError):
    pass


class Chart(Record):
    """Immutable chart: coordinate names, declared scalar functions with
    their argument lists, and declared constant symbols."""

    __slots__ = ("coords", "functions", "constants")

    def __init__(self, coords: tuple[str, ...],
                 functions: dict[str, tuple[str, ...]] | None = None,
                 constants: tuple[str, ...] = ()):
        self.coords = coords
        self.functions = {} if functions is None else functions
        self.constants = constants
        if len(self.coords) < 2:
            raise ChartError("a chart needs at least two coordinates")
        names: list[str] = list(self.coords)
        names.extend(self.functions)
        names.extend(self.constants)
        names.extend(BUILTIN_CONSTANTS)
        seen = set()
        for n in names:
            if not n.isidentifier():
                raise ChartError(f"bad symbol name {n!r}")
            if n in seen:
                raise ChartError(f"symbol {n!r} declared more than once")
            seen.add(n)
        for f, args in self.functions.items():
            if not args:
                raise ChartError(f"function {f!r} has no arguments")
            for a in args:
                if a not in self.coords:
                    raise ChartError(
                        f"function {f!r} depends on {a!r}, which is not a coordinate")
            if len(set(args)) != len(args):
                raise ChartError(f"function {f!r} repeats an argument")

    @property
    def dim(self) -> int:
        return len(self.coords)
