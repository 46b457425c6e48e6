"""The extension (ADT) registry of the object algebra.

Moa is *extensible*: each structure (LIST, BAG, SET, ...) is provided
by an extension that contributes its operators.  The paper's central
observation (Step 2) is that optimizers must be able to *reason over
operators defined in extensions* — including across two distinct
extensions.  To make that possible, every registered operator carries
machine-readable metadata (:attr:`OperatorDef.properties`) that the
inter-object optimizer layer consumes without knowing the extension's
internals:

``kind``
    ``"filter"`` (content-based selection), ``"conversion"``
    (structure-to-structure, content preserving), ``"reorder"``
    (sort-like), ``"topn"``, ``"aggregate"``, or ``"generic"``.
``content_preserving``
    conversions only: the element multiset is unchanged.
``target_extension``
    conversions only: name of the produced structure.
``order_sensitive``
    result depends on input element order (e.g. ``slice`` on a LIST).

This is exactly the registry-published knowledge the paper asks for:
"the new inter-object optimizer layer will be responsible for
coordinating optimization between operators on distinct extensions".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..errors import UnknownExtensionError, UnknownOperatorError
from .types import StructureType

#: valid operator kinds, as consumed by the optimizer layers
OPERATOR_KINDS = ("filter", "conversion", "reorder", "topn", "aggregate", "generic")


@dataclass
class OperatorDef:
    """One operator contributed by an extension.

    Parameters
    ----------
    name:
        Operator name as used in expressions (``select``, ``topn``...).
    extension:
        Owning extension name (``LIST``...), filled in on registration.
    result_type:
        ``(arg_types, scalars) -> StructureType`` — static typing rule.
        ``arg_types`` are the structure types of the *value* arguments;
        ``scalars`` the literal scalar parameters (may contain None for
        non-literal scalars).
    build:
        ``(plans, scalars, arg_types) -> PhysicalOp`` — flattening rule
        producing a physical operator over the argument plans.
    properties:
        Optimizer-facing metadata, see module docstring.
    """

    name: str
    result_type: Callable
    build: Callable
    extension: str = "?"
    properties: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.properties.get("kind", "generic")

    def qualified_name(self) -> str:
        return f"{self.extension}.{self.name}"


class Extension:
    """A named bundle of operators over one structure kind."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.operators: dict[str, OperatorDef] = {}

    def register(self, opdef: OperatorDef) -> OperatorDef:
        opdef.extension = self.name
        if opdef.kind not in OPERATOR_KINDS:
            raise UnknownOperatorError(
                f"operator {opdef.qualified_name()} declares unknown kind {opdef.kind!r}"
            )
        self.operators[opdef.name] = opdef
        return opdef

    def operator(self, name: str) -> OperatorDef:
        try:
            return self.operators[name]
        except KeyError:
            raise UnknownOperatorError(
                f"extension {self.name!r} has no operator {name!r} "
                f"(available: {sorted(self.operators)})"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self.operators


class Registry:
    """Maps structure kinds to extensions and dispatches operators.

    A fresh registry is empty; :func:`repro.algebra.builtin.install`
    populates it with the built-in LIST/BAG/SET/TUPLE extensions.  Tests
    can build private registries to model third-party extensions.
    """

    def __init__(self) -> None:
        self.extensions: dict[str, Extension] = {}

    def extension(self, name: str) -> Extension:
        try:
            return self.extensions[name]
        except KeyError:
            raise UnknownExtensionError(
                f"no extension named {name!r} registered (have: {sorted(self.extensions)})"
            ) from None

    def add_extension(self, name: str) -> Extension:
        if name not in self.extensions:
            self.extensions[name] = Extension(name)
        return self.extensions[name]

    def register(self, extension_name: str, opdef: OperatorDef) -> OperatorDef:
        return self.add_extension(extension_name).register(opdef)

    def operator_for(self, stype: StructureType, op_name: str) -> OperatorDef:
        """Dispatch ``op_name`` on the extension providing ``stype``."""
        return self.extension(stype.extension_name).operator(op_name)

    def all_operators(self) -> list[OperatorDef]:
        return [
            opdef
            for extension in self.extensions.values()
            for opdef in extension.operators.values()
        ]


_default_registry: Registry | None = None


def default_registry() -> Registry:
    """The process-wide registry with the built-in extensions installed."""
    global _default_registry
    if _default_registry is None:
        from . import builtin

        registry = Registry()
        builtin.install(registry)
        _default_registry = registry
    return _default_registry
