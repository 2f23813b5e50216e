"""Constructors and value equality built from a class's ``__slots__``.

A ``Slotted`` class names each of its fields once, in ``__slots__``:

* A class that declares slots gets ``__init__(self, <slots>)``, its bases'
  slots first, in declaration order. ``_defaults`` gives the trailing
  parameters that have a default, and ``_initial`` the slots that are not
  parameters, as literal source text: ``"[]"`` gives each instance a new list.
* A class that sets ``_key``, a tuple of slot names, is equal to an instance
  of its class whose key fields are equal, and hashed by its key fields.
* A class that defines ``__init__``, ``__eq__`` or ``__hash__`` keeps it, so
  ``__hash__ = None`` keeps a keyed class unhashable. A class that declares
  no slot keeps its base's constructor.

Each method is generated source, compiled once per class, so it runs the
stores and comparisons a hand-written one would; ``help()`` shows its
parameters without annotations.
"""

from __future__ import annotations


def all_slots(cls: type) -> list[str]:
    """The slots of ``cls`` and its bases, the bases' first."""
    return [name for c in reversed(cls.__mro__) for name in c.__dict__.get("__slots__", ())]


class Slotted:
    __slots__ = ()
    _defaults: dict[str, object] = {}
    _initial: dict[str, str] = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        own, methods = cls.__dict__, []
        if own.get("__slots__") and "__init__" not in own:
            slots = all_slots(cls)
            params = "".join(
                f", {n}=_defaults[{n!r}]" if n in cls._defaults else f", {n}"
                for n in slots if n not in cls._initial
            )
            stores = "".join(f"\n    self.{n} = {cls._initial.get(n, n)}" for n in slots)
            methods.append(f"def __init__(self{params}):{stores}")
        key = own.get("_key")
        if key and "__eq__" not in own:
            same = "".join(f" and self.{n} == other.{n}" for n in key)
            methods.append(f"def __eq__(self, other):\n    return isinstance(other, _cls){same}")
        if key and "__hash__" not in own:
            fields = ", ".join(f"self.{n}" for n in key)
            fields = fields if len(key) == 1 else f"({fields})"
            methods.append(f"def __hash__(self):\n    return hash({fields})")
        made: dict = {}
        if methods:
            namespace = {"__name__": cls.__module__, "_defaults": cls._defaults, "_cls": cls}
            exec("\n".join(methods), namespace, made)
        for name, method in made.items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
