"""Error taxonomy shared by the library and the command line tool.

SchemaError: malformed input (bad JSON, wrong field, inconsistent dimensions).
PreconditionError: well-formed input outside a mathematical hypothesis.
ResourceLimitError: input exceeds a configured size guard.
"""

from __future__ import annotations

from typing import Optional


class SchemaError(ValueError):
    pass


class PreconditionError(ValueError):
    pass


class ResourceLimitError(RuntimeError):
    pass


def guard_size(size: int, limit: Optional[int]) -> None:
    """Refuse a set of points of the given exact size above the limit, if
    there is one.  The set's builder checks its size before listing it."""
    if limit is not None and size > limit:
        raise ResourceLimitError(
            f"extension support has {size} points, exceeding the limit "
            f"of {limit}; raise max_extension_points to proceed"
        )
