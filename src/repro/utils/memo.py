"""Memoized ``repr`` for frozen dataclasses that key caches.

The plan cache, the knob cache and ``SweepPoint.key()`` key on the
``repr`` of a problem's parts (:meth:`repro.pipeline.StencilProblem.cache_key`).
A campaign's problems share one stencil and one boundary object, so their
``repr`` is printed once per instance instead of once per problem.
"""

from __future__ import annotations

from typing import Callable, TypeVar

C = TypeVar("C", bound=type)


def memoized_repr(cls: C) -> C:
    """Make ``cls``'s (dataclass-generated) ``__repr__`` print once per instance.

    Apply it above ``@dataclass(frozen=True)``: the text is the generated
    ``repr``, byte for byte, kept in the instance ``__dict__`` on first use.
    Only for frozen classes whose fields are immutable once
    ``__post_init__`` returns.
    """
    generated: Callable[[object], str] = cls.__repr__

    def __repr__(self: object) -> str:
        text = self.__dict__.get("_repr")
        if text is None:
            text = generated(self)
            object.__setattr__(self, "_repr", text)
        return text

    __repr__.__qualname__ = f"{cls.__qualname__}.__repr__"
    setattr(cls, "__repr__", __repr__)
    return cls

