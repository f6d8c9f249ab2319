"""Frozen value records, built without dataclass code generation.

A subclass names its compared fields, in order, in `_fields`. Its `__init__`
checks the arguments and stores every field, derived ones too, with one
`self.__dict__.update(...)`. ==, hash and repr read `_fields` only, and ==
holds only within one class. The plain `__dict__` makes copy and pickle work.

`DataclassFields`, set as a record's `__dataclass_fields__`, lets
`dataclasses.replace` and `fields` accept it: on first read it imports
`dataclasses` and caches the field table of `make_dataclass(name, _fields)` on
the class, and `replace` then calls `__init__`, so every check runs again.
"""


class Record:
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"


class DataclassFields:
    def __get__(self, instance, owner):
        import dataclasses

        made = dataclasses.make_dataclass(owner.__name__, owner._fields)
        table = {field.name: field for field in dataclasses.fields(made)}
        owner.__dataclass_fields__ = table
        return table
