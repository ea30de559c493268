"""`Frozen`, the base of the library's immutable values.

A value is a plain class with `__slots__` and an explicit `__init__`, which
sets each slot with `object.__setattr__`; a value that keeps a cache
(connectivity, kappa, the Galois answer) fills it the same way once asked.
Any other assignment or deletion raises `AttributeError`.
"""


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
