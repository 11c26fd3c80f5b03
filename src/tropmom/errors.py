"""Error taxonomy shared by the library and the command line tool.

SchemaError: malformed input (bad JSON, wrong field, inconsistent dimensions).
PreconditionError: well-formed input outside a mathematical hypothesis.
ResourceLimitError: input exceeds a configured size guard.
"""

from __future__ import annotations


class SchemaError(ValueError):
    pass


class PreconditionError(ValueError):
    pass


class ResourceLimitError(RuntimeError):
    pass


def guard_size(size: int, limit: int) -> None:
    """Refuse a set of points of the given exact size above the limit.
    Where the size has a closed form it is checked before the set is
    built."""
    if size > limit:
        raise ResourceLimitError(
            f"extension support has {size} points, exceeding the limit "
            f"of {limit}; raise max_extension_points to proceed"
        )
