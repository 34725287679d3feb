"""Immutable records, the one base of every value class in orbibraid.

A record's fields are slots, named in order by ``__match_args__``;
equality, hashing and repr go by the fields, as a frozen dataclass's do,
and every assignment or deletion raises ``FrozenInstanceError``.  A class
may hold more slots than fields (an object's strand count, a morphism's
types), which no comparison reads; constructors write every slot with
``set_slot``.  pickle rebuilds a record through ``__init__`` from its
fields (a DSL tree from its ``tree_key``, one node per distinct subtree),
so a copy has passed the constructor's checks and holds no cache; copy
does too, but a DSL node, immutable, is its own copy (``dsl.objects``).
"""

from __future__ import annotations

set_slot = object.__setattr__  # writes a slot past the __setattr__ that refuses every caller


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self.__match_args__, values, strict=True):
            set_slot(self, name, value)

    def __setattr__(self, name, value=None):
        from dataclasses import FrozenInstanceError  # loaded only to refuse a write

        raise FrozenInstanceError(f"cannot change field {name!r}")

    __delattr__ = __setattr__

    def fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __eq__(self, other):
        return self.fields() == other.fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self.fields())

    def __reduce__(self):
        return type(self), self.fields()

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__match_args__)})"
