"""The MiniJS object model: objects, prototypes, functions, watch().

The design point that matters most for the reproduction is that
**prototypes are ordinary mutable objects**: the instrumentation works
by assigning over ``Interface.prototype.method``, exactly as the
paper's extension does, and every instance created before or after the
assignment sees the shim through its prototype chain.

``JSObject.watch`` implements Firefox's non-standard ``Object.watch``
semantics (the handler sees ``(property, old, new)`` and its return
value becomes the stored value) — the mechanism the paper uses to count
property writes on singleton objects (section 4.2.2).
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.minijs.interpreter import Interpreter

#: Global prototype-shape epoch for the compiled engine's inline caches
#: (a 1-element list so hot closures can read it without an attribute
#: chain).  Every *layout* mutation of an object that sits on some
#: prototype chain — adding or deleting an own key, or re-linking its
#: ``prototype`` — bumps the epoch, invalidating every cached
#: prototype-chain walk at once.  Value *overwrites* never bump: caches
#: remember the owning object, not the value, and re-read the live
#: property dict on every hit.
PROTO_EPOCH = [0]


def bump_proto_epoch() -> None:
    """Invalidate all prototype-chain inline caches.

    Host code that bulk-assigns into ``properties`` dicts directly
    (bypassing :meth:`JSObject.set`) on objects that may already sit on
    a live prototype chain must call this once afterwards.
    """
    PROTO_EPOCH[0] += 1


class _Undefined:
    """The single ``undefined`` value."""

    _instance: Optional["_Undefined"] = None

    def __new__(cls) -> "_Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undefined"

    def __bool__(self) -> bool:
        return False


class _Null:
    """The single ``null`` value."""

    _instance: Optional["_Null"] = None

    def __new__(cls) -> "_Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "null"

    def __bool__(self) -> bool:
        return False


UNDEFINED = _Undefined()
NULL = _Null()

#: Watch handler: (interpreter, property, old value, new value) -> stored.
WatchHandler = Callable[["Interpreter", str, Any, Any], Any]


class JSObject:
    """A MiniJS object: own properties plus a prototype link."""

    __slots__ = ("properties", "_proto", "class_name", "_watchers",
                 "host_data", "is_prototype")

    def __init__(
        self,
        prototype: Optional["JSObject"] = None,
        class_name: str = "Object",
    ) -> None:
        self.properties: Dict[str, Any] = {}
        #: True once this object sits on some other object's prototype
        #: chain.  Layout mutations of flagged objects bump
        #: :data:`PROTO_EPOCH`; unflagged objects (the overwhelming
        #: majority) mutate freely without invalidating inline caches.
        self.is_prototype = False
        self._proto = prototype
        if prototype is not None and not prototype.is_prototype:
            prototype.is_prototype = True
        self.class_name = class_name
        self._watchers: Dict[str, Any] = {}
        #: Slot for host substrates (the DOM node behind a wrapper, ...).
        self.host_data: Any = None

    @property
    def prototype(self) -> Optional["JSObject"]:
        return self._proto

    @prototype.setter
    def prototype(self, value: Optional["JSObject"]) -> None:
        if value is not None and not value.is_prototype:
            value.is_prototype = True
        if self.is_prototype:
            # Re-linking an object that is itself on a live chain
            # changes what every downstream lookup resolves to.
            PROTO_EPOCH[0] += 1
        self._proto = value

    # -- property protocol -------------------------------------------------

    def get(self, name: str) -> Any:
        """Prototype-chain lookup; absent -> undefined."""
        obj: Optional[JSObject] = self
        while obj is not None:
            if name in obj.properties:
                return obj.properties[name]
            obj = obj._proto
        return UNDEFINED

    def has(self, name: str) -> bool:
        obj: Optional[JSObject] = self
        while obj is not None:
            if name in obj.properties:
                return True
            obj = obj._proto
        return False

    def has_own(self, name: str) -> bool:
        return name in self.properties

    def set(self, name: str, value: Any,
            interp: Optional["Interpreter"] = None) -> None:
        """Assign an own property, routing through any watchpoint.

        Firefox semantics: the watch handler runs on every assignment
        to the watched property (whether or not the property existed),
        and the value it returns is what actually gets stored.
        """
        handler = self._watchers.get(name)
        if handler is not None:
            old = self.properties.get(name, UNDEFINED)
            value = handler(interp, name, old, value)
        if self.is_prototype and name not in self.properties:
            PROTO_EPOCH[0] += 1
        self.properties[name] = value

    def delete(self, name: str) -> bool:
        if name in self.properties:
            del self.properties[name]
            if self.is_prototype:
                PROTO_EPOCH[0] += 1
            return True
        return False

    def own_keys(self) -> List[str]:
        return list(self.properties.keys())

    # -- Object.watch ------------------------------------------------------

    def watch(self, name: str, handler: WatchHandler) -> None:
        """Install a watchpoint on a property (Firefox Object.watch)."""
        self._watchers[name] = handler

    def unwatch(self, name: str) -> None:
        self._watchers.pop(name, None)

    def watched_properties(self) -> List[str]:
        return list(self._watchers.keys())

    def __repr__(self) -> str:
        return "<JSObject %s (%d own)>" % (
            self.class_name, len(self.properties)
        )


class JSFunction(JSObject):
    """A callable MiniJS value.

    Either a *host* function (backed by a Python callable receiving
    ``(interpreter, this, args)``) or a *declared* function (params +
    body + captured environment).  Both kinds carry a ``prototype``
    property so they work with ``new``.
    """

    __slots__ = ("name", "params", "body", "closure", "host_call",
                 "compiled")

    def __init__(
        self,
        name: str = "",
        params: Sequence[str] = (),
        body: Optional[list] = None,
        closure: Any = None,
        host_call: Optional[Callable[..., Any]] = None,
        function_prototype: Optional[JSObject] = None,
    ) -> None:
        super().__init__(prototype=function_prototype, class_name="Function")
        self.name = name
        # Read-only: host functions (hundreds per page) share the
        # default empty tuple instead of each allocating a list.
        self.params = params
        self.body = body
        self.closure = closure
        self.host_call = host_call
        #: ``(code, defining_frame)`` once the closure-compiled engine
        #: has lowered this function; ``None`` for host functions and
        #: for tree-engine functions that were never compiled.
        self.compiled: Any = None
        # Declared functions get a fresh .prototype object for `new`.
        # Host functions skip it (they are created by the hundred per
        # page; the rare `new hostFn()` falls back to Object.prototype).
        if host_call is None:
            self.properties["prototype"] = JSObject(
                class_name=name or "Object"
            )

    @property
    def is_host(self) -> bool:
        return self.host_call is not None

    def __repr__(self) -> str:
        flavor = "host" if self.is_host else "js"
        return "<JSFunction %s (%s)>" % (self.name or "<anonymous>", flavor)


class JSArray(JSObject):
    """A MiniJS array; elements live in a Python list."""

    __slots__ = ("elements",)

    def __init__(self, elements: Optional[List[Any]] = None,
                 prototype: Optional[JSObject] = None) -> None:
        super().__init__(prototype=prototype, class_name="Array")
        self.elements: List[Any] = list(elements or [])

    def get(self, name: str) -> Any:
        if name == "length":
            return float(len(self.elements))
        if name.lstrip("-").isdigit():
            index = int(name)
            if 0 <= index < len(self.elements):
                return self.elements[index]
            return UNDEFINED
        return super().get(name)

    def set(self, name: str, value: Any,
            interp: Optional["Interpreter"] = None) -> None:
        if name == "length":
            new_len = int(value)
            if new_len < len(self.elements):
                del self.elements[new_len:]
            else:
                self.elements.extend(
                    [UNDEFINED] * (new_len - len(self.elements))
                )
            return
        if name.lstrip("-").isdigit():
            index = int(name)
            if index >= 0:
                while len(self.elements) <= index:
                    self.elements.append(UNDEFINED)
                self.elements[index] = value
                return
        super().set(name, value, interp)

    def __repr__(self) -> str:
        return "<JSArray len=%d>" % len(self.elements)


# -- for-in enumeration ----------------------------------------------------

def forin_keys(obj: Any) -> List[str]:
    """Snapshot the ``for (k in obj)`` key list before the body runs.

    Both engines share this so their enumeration order is identical:
    array indexes first (as strings), then any own string-keyed
    properties, in insertion order.
    """
    if isinstance(obj, JSArray):
        return [str(i) for i in range(len(obj.elements))] + obj.own_keys()
    if isinstance(obj, JSObject):
        return obj.own_keys()
    return []


def forin_key_live(obj: Any, key: str) -> bool:
    """True if a snapshotted for-in key still exists on ``obj``.

    The key list is snapshotted up front, so mid-loop mutation can
    never raise or duplicate keys; this liveness re-check is what makes
    deleted properties and truncated array tails *skip* instead of
    yielding a stale key (matching real engines' for-in semantics).
    """
    if isinstance(obj, JSArray) and key.lstrip("-").isdigit():
        return 0 <= int(key) < len(obj.elements)
    return key in obj.properties


# -- conversions -----------------------------------------------------------

def to_boolean(value: Any) -> bool:
    if value is UNDEFINED or value is NULL:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value != 0.0 and value == value  # NaN is falsy
    if isinstance(value, str):
        return bool(value)
    return True  # objects, functions, arrays


# JS ToNumber accepts exactly these string shapes (after trimming):
# unsigned hex (a sign prefix on hex is NaN, unlike Python's int()),
# signed decimal with optional exponent, and the Infinity literals.
# Anything else — including Python-isms like "inf", "nan" and
# underscore separators that float() would happily parse — is NaN.
_HEX_LITERAL = re.compile(r"0[xX][0-9a-fA-F]+\Z")
_DECIMAL_LITERAL = re.compile(
    r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z"
)


def to_number(value: Any) -> float:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, float):
        return value
    if value is UNDEFINED:
        return float("nan")
    if value is NULL:
        return 0.0
    if isinstance(value, str):
        text = value.strip()
        if not text:
            return 0.0
        if _HEX_LITERAL.match(text):
            return float(int(text, 16))
        if _DECIMAL_LITERAL.match(text):
            return float(text)
        if text in ("Infinity", "+Infinity"):
            return float("inf")
        if text == "-Infinity":
            return float("-inf")
        return float("nan")
    if isinstance(value, JSArray):
        if not value.elements:
            return 0.0
        if len(value.elements) == 1:
            return to_number(value.elements[0])
        return float("nan")
    return float("nan")  # plain objects


def to_int(value: Any, default: int = 0) -> int:
    """ToNumber then truncate; NaN/Infinity fall back to ``default``.

    Host-function argument handling: page scripts pass garbage, and a
    garbage index must not crash the browser.
    """
    number = to_number(value)
    if number != number or number in (float("inf"), float("-inf")):
        return default
    return int(number)


def to_string(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_number(value)
    if isinstance(value, str):
        return value
    if value is UNDEFINED:
        return "undefined"
    if value is NULL:
        return "null"
    if isinstance(value, JSArray):
        return ",".join(
            "" if e is UNDEFINED or e is NULL else to_string(e)
            for e in value.elements
        )
    if isinstance(value, JSFunction):
        return "function %s() { [native code] }" % value.name
    if isinstance(value, JSObject):
        return "[object %s]" % value.class_name
    return str(value)


def format_number(value: float) -> str:
    """Render a float the way JavaScript renders numbers."""
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "Infinity"
    if value == float("-inf"):
        return "-Infinity"
    if value == int(value) and abs(value) < 1e21:
        return str(int(value))
    return repr(value)


def type_of(value: Any) -> str:
    if value is UNDEFINED:
        return "undefined"
    if value is NULL:
        return "object"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, float):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, JSFunction):
        return "function"
    return "object"


def js_repr(value: Any) -> str:
    """Debug rendering used by error messages and tests."""
    if isinstance(value, str):
        return '"%s"' % value
    return to_string(value)


def js_equals_strict(left: Any, right: Any) -> bool:
    """The ``===`` comparison."""
    if type_of(left) != type_of(right):
        return False
    if isinstance(left, float) and isinstance(right, float):
        return left == right
    if left is UNDEFINED or left is NULL:
        return left is right
    if isinstance(left, (str, bool)):
        return left == right
    return left is right


def js_equals_loose(left: Any, right: Any) -> bool:
    """The ``==`` comparison (the coercion subset MiniJS supports)."""
    if type_of(left) == type_of(right):
        return js_equals_strict(left, right)
    if (left is NULL and right is UNDEFINED) or (
        left is UNDEFINED and right is NULL
    ):
        return True
    if isinstance(left, bool):
        return js_equals_loose(to_number(left), right)
    if isinstance(right, bool):
        return js_equals_loose(left, to_number(right))
    if isinstance(left, float) and isinstance(right, str):
        return left == to_number(right)
    if isinstance(left, str) and isinstance(right, float):
        return to_number(left) == right
    return False
