"""Shared helpers for collective algorithm implementations."""

from __future__ import annotations

import typing as _t

from ...errors import MPIError
from ...sim import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..comm import RankComm

__all__ = ["combine", "default_op", "lowest_set_bit", "floor_pow2"]


def default_op(a: _t.Any, b: _t.Any) -> _t.Any:
    """Element-wise/arithmetic sum; identity-tolerant of ``None``.

    ``None`` models "timing-only" collectives where callers did not
    pass data: combining anything with ``None`` keeps the other value.
    """
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def combine(ctx: "RankComm", op: _t.Callable[[_t.Any, _t.Any], _t.Any] | None,
            a: _t.Any, b: _t.Any, size: int) -> _t.Generator[Event, object, _t.Any]:
    """Combine two buffers, paying the reduction CPU cost."""
    work = ctx.reduce_work(size)
    if work:
        yield from ctx.node.cpu.compute(work)
    return (op or default_op)(a, b)


def lowest_set_bit(x: int) -> int:
    """The value of ``x``'s lowest set bit (``x`` must be > 0)."""
    if x <= 0:
        raise MPIError(f"lowest_set_bit needs x > 0, got {x}")
    return x & -x


def floor_pow2(x: int) -> int:
    """Largest power of two <= ``x`` (``x`` must be > 0)."""
    if x <= 0:
        raise MPIError(f"floor_pow2 needs x > 0, got {x}")
    return 1 << (x.bit_length() - 1)
