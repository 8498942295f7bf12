"""DOM bindings: expose the WebIDL feature surface to MiniJS.

:class:`DomRealm` turns one parsed HTML document plus one MiniJS
interpreter into a live page realm:

* every registry interface gets a global constructor and a prototype
  object, chained per the WebIDL inheritance graph — so the measuring
  extension can shim ``Interface.prototype.member`` exactly as the
  paper's extension does in Firefox;
* feature methods are host functions: a behavioral implementation for
  the core DOM surface (createElement, querySelector, appendChild,
  addEventListener, getContext, Storage, XHR, ...) and an inert stub for
  the long tail — both equally instrumentable, because instrumentation
  wraps whatever sits on the prototype;
* the singleton globals (``window`` — which *is* the global object —
  ``document``, ``navigator``, ``screen``, ``history``, ``location``,
  ``performance``, ``crypto``, ``localStorage``) are instances of their
  interfaces, so property-write features are observable via ``watch``;
* a virtual timer queue models setTimeout/setInterval/rAF so pages can
  schedule work the browser then flushes.

Stub host functions are stateless and shared across realms (a pure
speed optimization; instrumentation never mutates them, only the
per-realm prototype slots that point at them).
"""

from __future__ import annotations

import gc
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.sandbox import BudgetExceeded
from repro.dom.events import EventManager
from repro.dom.node import DomNode, ELEMENT_NODE
from repro.minijs.errors import MiniJSError
from repro.minijs.interpreter import Interpreter
from repro.minijs.objects import (
    JSArray,
    JSFunction,
    JSObject,
    NULL,
    UNDEFINED,
    to_string,
)
from repro.webidl.registry import Feature, FeatureRegistry

#: HTML tag -> wrapper interface.
TAG_INTERFACES: Dict[str, str] = {
    "canvas": "HTMLCanvasElement",
    "video": "HTMLVideoElement",
    "audio": "HTMLAudioElement",
    "input": "HTMLInputElement",
    "a": "HTMLAnchorElement",
    "img": "HTMLImageElement",
    "table": "HTMLTableElement",
    "textarea": "HTMLTextAreaElement",
    "button": "HTMLButtonElement",
    "iframe": "HTMLIFrameElement",
    "script": "HTMLScriptElement",
    "link": "HTMLLinkElement",
    "meta": "HTMLMetaElement",
    "ol": "HTMLOListElement",
    "label": "HTMLLabelElement",
    "fieldset": "HTMLFieldSetElement",
    "object": "HTMLObjectElement",
    "map": "HTMLMapElement",
    "area": "HTMLAreaElement",
    "tr": "HTMLTableRowElement",
    "td": "HTMLTableCellElement",
    "th": "HTMLTableCellElement",
    "svg": "SVGSVGElement",
    "form": "HTMLFormElement",
}

#: Singleton interface -> global variable name (mirrors the corpus map).
SINGLETONS: Dict[str, str] = {
    "Window": "window",
    "Document": "document",
    "Navigator": "navigator",
    "Screen": "screen",
    "History": "history",
    "Location": "location",
    "Performance": "performance",
    "Crypto": "crypto",
    "Storage": "localStorage",
}

# Shared inert stubs, keyed by feature name (see module docstring).
_STUB_CACHE: Dict[str, JSFunction] = {}


def _stub_for(feature_name: str) -> JSFunction:
    stub = _STUB_CACHE.get(feature_name)
    if stub is None:
        stub = JSFunction(
            name=feature_name.rsplit(".", 1)[-1],
            host_call=lambda interp, this, args: UNDEFINED,
        )
        _STUB_CACHE[feature_name] = stub
    return stub


#: registry id -> (instance member templates, static member templates):
#: interface -> {member: shared stub}.  Realms bulk-copy these instead of
#: looping over all 1,392 features per page load.
_MEMBER_TEMPLATES: Dict[int, Tuple[dict, dict]] = {}


def _member_templates(registry: FeatureRegistry) -> Tuple[dict, dict]:
    key = id(registry)
    cached = _MEMBER_TEMPLATES.get(key)
    if cached is not None:
        return cached
    instance: Dict[str, Dict[str, JSFunction]] = {}
    static: Dict[str, Dict[str, JSFunction]] = {}
    for feature in registry.features():
        if feature.kind != "method":
            continue  # attributes are plain data properties
        bucket = static if feature.static else instance
        bucket.setdefault(feature.interface, {})[feature.member] = _stub_for(
            feature.name
        )
    _MEMBER_TEMPLATES.clear()  # one registry at a time is the norm
    _MEMBER_TEMPLATES[key] = (instance, static)
    return instance, static


class Timer:
    """One scheduled callback."""

    __slots__ = ("fire_at", "fn", "interval", "timer_id", "cancelled")

    def __init__(self, fire_at: float, fn: Any, interval: Optional[float],
                 timer_id: int) -> None:
        self.fire_at = fire_at
        self.fn = fn
        self.interval = interval
        self.timer_id = timer_id
        self.cancelled = False


def _construct_interface(
    interp: Interpreter, this: Any, args: List[Any]
) -> Any:
    # `new Interface()` runs through Interpreter.construct, which
    # already allocated `this` with the right prototype; returning
    # undefined keeps that instance.  One function serves every
    # interface constructor of every realm.
    return UNDEFINED


def release_page() -> None:
    """Free the realm of the page that just ended.

    A realm is a cyclic graph of a few thousand objects (prototypes,
    constructors, host closures, DOM nodes with parent and wrapper
    links) that only the cyclic collector can free.  Call this once
    the page is unreachable: it flushes the inline-cache sites that
    would keep the graph alive, then collects the two young
    generations, where a just-ended page's objects still are.  A full
    collection would also walk every long-lived object (the lowered
    code shared by all pages) and cost many times more.
    """
    from repro.minijs.codegen import flush_inline_caches

    flush_inline_caches()
    gc.collect(1)


class DomRealm:
    """A live page: document tree + MiniJS realm + DOM bindings."""

    def __init__(
        self,
        registry: FeatureRegistry,
        root: DomNode,
        seed: int = 0,
        url: str = "http://example.com/",
        network_hook: Optional[Callable[[str, str], None]] = None,
        step_limit: Optional[int] = None,
        storage: Optional[Dict[str, str]] = None,
        meter: Optional[Any] = None,
        engine: str = "compiled",
    ) -> None:
        from repro.minijs.codegen import (
            flush_inline_caches,
            interpreter_class,
        )

        # Backstop for realms built outside a crawler (tests, tools,
        # examples): compiled-code inline caches may still pin the
        # previous realm's prototype graph, and cross-realm hits are
        # impossible (fresh prototype identities per realm).  This is
        # too late to keep that graph out of the old GC generation;
        # crawlers call release_page() as each page ends for that.
        flush_inline_caches()
        kwargs = {} if step_limit is None else {"step_limit": step_limit}
        self.interp = interpreter_class(engine)(seed=seed, **kwargs)
        # Site-level resource budgets (repro.core.sandbox): the meter
        # spans the whole visit and rides on the interpreter so every
        # script, handler and timer in this realm charges against it.
        self.interp.meter = meter
        self.registry = registry
        self.url = url
        self.network_hook = network_hook or (lambda url, kind: None)
        # localStorage: the caller (browser) passes the origin's shared
        # jar so values persist across the pages of a visit; standalone
        # realms get a private one.
        self.storage: Dict[str, str] = (
            storage if storage is not None else {}
        )
        self.timers: List[Timer] = []
        #: Page-level errors raised by timer callbacks (stringified
        #: MiniJS errors, including step-limit exhaustion); the browser
        #: folds these into the visit's script_errors.
        self.timer_errors: List[str] = []
        self._timer_seq = 0
        self.prototypes: Dict[str, JSObject] = {}
        self.constructors: Dict[str, JSFunction] = {}
        #: feature names with per-realm behavioral implementations (the
        #: measuring extension must wrap these individually).
        self.behavior_features: set = set()

        # Document node: parent of <html>, target of document-level events.
        self.document_node = DomNode(ELEMENT_NODE, "#document")
        self.document_node.append_child(root)
        self.root = root

        self.events = EventManager(self.interp)
        self._build_interfaces()
        self._install_singletons()
        self._install_behaviors()
        self._install_page_utilities()

    # ------------------------------------------------------------------
    # Interface construction
    # ------------------------------------------------------------------

    def _build_interfaces(self) -> None:
        interp = self.interp
        # Pass 1: prototype objects.
        for name in self.registry.interfaces():
            self.prototypes[name] = JSObject(class_name=name)
        # Pass 2: chain them.
        for name, proto in self.prototypes.items():
            parent = self.registry.interface(name).parent
            if parent and parent in self.prototypes:
                proto.prototype = self.prototypes[parent]
            else:
                proto.prototype = interp.object_prototype
        # Window.prototype backs the global object itself.
        window_proto = self.prototypes.get("Window")
        if window_proto is not None:
            interp.global_object.prototype = window_proto
            interp.global_object.class_name = "Window"
        # Pass 3: constructors + members (bulk-copied from templates).
        instance_members, static_members = _member_templates(self.registry)
        for name, proto in self.prototypes.items():
            members = instance_members.get(name)
            if members:
                proto.properties.update(members)
            ctor = self._make_constructor(name, proto)
            statics = static_members.get(name)
            if statics:
                ctor.properties.update(statics)
            self.constructors[name] = ctor
            interp.global_object.properties[name] = ctor

    def _make_constructor(self, name: str, proto: JSObject) -> JSFunction:
        ctor = JSFunction(
            name=name,
            host_call=_construct_interface,
            function_prototype=self.interp.function_prototype,
        )
        ctor.properties["prototype"] = proto
        proto.properties["constructor"] = ctor
        return ctor

    def new_instance(self, interface: str) -> JSObject:
        """Allocate an instance of an interface (engine-side `new`)."""
        proto = self.prototypes.get(interface, self.interp.object_prototype)
        return JSObject(prototype=proto, class_name=interface)

    # ------------------------------------------------------------------
    # Node wrappers
    # ------------------------------------------------------------------

    def wrap(self, node: DomNode) -> JSObject:
        """The MiniJS wrapper for a DOM node (cached per node)."""
        if node.wrapper is not None:
            return node.wrapper
        if node is self.document_node:
            interface = "Document"
        elif node.node_type == ELEMENT_NODE:
            interface = TAG_INTERFACES.get(node.tag, "HTMLElement")
            if interface not in self.prototypes:
                interface = "Element"
        else:
            interface = "Text"
        if interface not in self.prototypes:
            interface = "Node" if "Node" in self.prototypes else "Element"
        wrapper = self.new_instance(interface)
        wrapper.host_data = node
        node.wrapper = wrapper
        return wrapper

    def node_of(self, value: Any) -> Optional[DomNode]:
        if isinstance(value, JSObject) and isinstance(value.host_data, DomNode):
            return value.host_data
        return None

    # ------------------------------------------------------------------
    # Singletons
    # ------------------------------------------------------------------

    def _install_singletons(self) -> None:
        interp = self.interp
        g = interp.global_object
        self.singletons: Dict[str, JSObject] = {}

        document = self.wrap(self.document_node)
        self.singletons["Document"] = document
        g.properties["document"] = document

        for interface, global_name in SINGLETONS.items():
            if interface in ("Window", "Document"):
                continue
            if interface not in self.prototypes:
                # Browser plumbing outside the instrumented surface
                # (e.g. Location): synthesize a bare interface so the
                # global still exists the way pages expect.
                proto = JSObject(
                    prototype=interp.object_prototype, class_name=interface
                )
                self.prototypes[interface] = proto
                ctor = self._make_constructor(interface, proto)
                self.constructors[interface] = ctor
                g.properties[interface] = ctor
            instance = self.new_instance(interface)
            self.singletons[interface] = instance
            g.properties[global_name] = instance

        # window, self: the global object itself.
        g.properties["window"] = g
        g.properties["self"] = g
        self.singletons["Window"] = g

        # Handy non-feature data properties pages expect to exist.
        body = self.root.find_first("body")
        head = self.root.find_first("head")
        if body is not None:
            document.properties["body"] = self.wrap(body)
        if head is not None:
            document.properties["head"] = self.wrap(head)
        document.properties["documentElement"] = self.wrap(self.root)
        navigator = self.singletons.get("Navigator")
        if navigator is not None:
            navigator.properties["userAgent"] = (
                "Mozilla/5.0 (X11; Linux x86_64; rv:46.0) Gecko/20100101 "
                "Firefox/46.0"
            )
        location = self.singletons.get("Location")
        if location is not None:
            location.properties["href"] = self.url

    def singleton_for(self, interface: str) -> Optional[JSObject]:
        return self.singletons.get(interface)

    # ------------------------------------------------------------------
    # Behavioral feature implementations
    # ------------------------------------------------------------------

    def _behavior(self, feature_name: str,
                  fn: Callable[[Interpreter, Any, List[Any]], Any]) -> None:
        """Install a behavioral host implementation for a feature."""
        if feature_name not in self.registry:
            return
        feature = self.registry.feature(feature_name)
        target = (
            self.constructors[feature.interface]
            if feature.static
            else self.prototypes[feature.interface]
        )
        target.properties[feature.member] = self.interp.host_function(
            feature.member, fn
        )
        self.behavior_features.add(feature_name)

    def _install_behaviors(self) -> None:
        realm = self

        def this_node(this: Any) -> Optional[DomNode]:
            return realm.node_of(this)

        def arg_node(args: List[Any], index: int) -> Optional[DomNode]:
            if index < len(args):
                return realm.node_of(args[index])
            return None

        # --- Document ---------------------------------------------------
        def create_element(interp, this, args):
            tag = to_string(args[0]) if args else "div"
            node = DomNode(ELEMENT_NODE, tag)
            return realm.wrap(node)

        def create_text_node(interp, this, args):
            from repro.dom.node import TEXT_NODE

            node = DomNode(TEXT_NODE, text=to_string(args[0]) if args else "")
            return realm.wrap(node)

        def get_element_by_id(interp, this, args):
            element_id = to_string(args[0]) if args else ""
            node = realm.root.get_element_by_id(element_id)
            return realm.wrap(node) if node is not None else NULL

        def query_selector(interp, this, args):
            selector = to_string(args[0]) if args else "*"
            scope = this_node(this) or realm.root
            found = scope.query_selector_all(selector)
            return realm.wrap(found[0]) if found else NULL

        def query_selector_all(interp, this, args):
            selector = to_string(args[0]) if args else "*"
            scope = this_node(this) or realm.root
            found = scope.query_selector_all(selector)
            return interp.new_array([realm.wrap(n) for n in found])

        self._behavior("Document.prototype.createElement", create_element)
        self._behavior("Document.prototype.createTextNode", create_text_node)
        self._behavior("Document.prototype.getElementById", get_element_by_id)
        for owner in ("Document", "Element", "DocumentFragment"):
            self._behavior(
                "%s.prototype.querySelector" % owner, query_selector
            )
            self._behavior(
                "%s.prototype.querySelectorAll" % owner, query_selector_all
            )

        # --- Node tree editing -------------------------------------------
        def append_child(interp, this, args):
            parent = this_node(this)
            child = arg_node(args, 0)
            if parent is not None and child is not None:
                parent.append_child(child)
            return args[0] if args else UNDEFINED

        def insert_before(interp, this, args):
            parent = this_node(this)
            child = arg_node(args, 0)
            reference = arg_node(args, 1)
            if parent is not None and child is not None:
                parent.insert_before(child, reference)
            return args[0] if args else UNDEFINED

        def remove_child(interp, this, args):
            parent = this_node(this)
            child = arg_node(args, 0)
            if parent is not None and child is not None:
                parent.remove_child(child)
            return args[0] if args else UNDEFINED

        def replace_child(interp, this, args):
            parent = this_node(this)
            new_child = arg_node(args, 0)
            old_child = arg_node(args, 1)
            if parent is not None and new_child is not None and (
                old_child is not None
            ):
                parent.insert_before(new_child, old_child)
                parent.remove_child(old_child)
            return args[1] if len(args) > 1 else UNDEFINED

        def clone_node(interp, this, args):
            node = this_node(this)
            if node is None:
                return NULL
            from repro.minijs.objects import to_boolean

            deep = to_boolean(args[0]) if args else False
            return realm.wrap(node.clone(deep=deep))

        def has_child_nodes(interp, this, args):
            node = this_node(this)
            return bool(node is not None and node.children)

        def contains(interp, this, args):
            node = this_node(this)
            other = arg_node(args, 0)
            if node is None or other is None:
                return False
            return any(candidate is other for candidate in node.walk())

        self._behavior("Node.prototype.appendChild", append_child)
        self._behavior("Node.prototype.insertBefore", insert_before)
        self._behavior("Node.prototype.removeChild", remove_child)
        self._behavior("Node.prototype.replaceChild", replace_child)
        self._behavior("Node.prototype.cloneNode", clone_node)
        self._behavior("Node.prototype.hasChildNodes", has_child_nodes)
        self._behavior("Node.prototype.contains", contains)

        # --- Element attributes -------------------------------------------
        def get_attribute(interp, this, args):
            node = this_node(this)
            name = to_string(args[0]) if args else ""
            if node is None or name not in node.attributes:
                return NULL
            return node.attributes[name]

        def set_attribute(interp, this, args):
            node = this_node(this)
            if node is not None and len(args) >= 2:
                node.attributes[to_string(args[0])] = to_string(args[1])
            return UNDEFINED

        def remove_attribute(interp, this, args):
            node = this_node(this)
            if node is not None and args:
                node.attributes.pop(to_string(args[0]), None)
            return UNDEFINED

        def matches(interp, this, args):
            node = this_node(this)
            if node is None or not args:
                return False
            return node.matches_selector(to_string(args[0]))

        def closest(interp, this, args):
            node = this_node(this)
            if node is None or not args:
                return NULL
            selector = to_string(args[0])
            current = node
            while current is not None:
                if current.matches_selector(selector):
                    return realm.wrap(current)
                current = current.parent
            return NULL

        def insert_adjacent_html(interp, this, args):
            node = this_node(this)
            if node is None or len(args) < 2:
                return UNDEFINED
            from repro.dom.html import HtmlParseError, parse_html

            position = to_string(args[0]).lower()
            try:
                fragment_root = parse_html(to_string(args[1]))
            except HtmlParseError:
                return UNDEFINED
            body = fragment_root.find_first("body")
            children = list(body.children) if body is not None else []
            for child in children:
                if position == "beforeend":
                    node.append_child(child)
                elif position == "afterbegin":
                    node.insert_before(
                        child, node.children[0] if node.children else None
                    )
                elif position == "beforebegin" and node.parent is not None:
                    node.parent.insert_before(child, node)
                elif position == "afterend" and node.parent is not None:
                    siblings = node.parent.children
                    index = siblings.index(node)
                    reference = (
                        siblings[index + 1]
                        if index + 1 < len(siblings) else None
                    )
                    node.parent.insert_before(child, reference)
            return UNDEFINED

        self._behavior("Element.prototype.getAttribute", get_attribute)
        self._behavior("Element.prototype.setAttribute", set_attribute)
        self._behavior("Element.prototype.removeAttribute", remove_attribute)
        self._behavior("Element.prototype.matches", matches)
        self._behavior("Element.prototype.closest", closest)
        self._behavior(
            "Element.prototype.insertAdjacentHTML", insert_adjacent_html
        )

        # --- Events --------------------------------------------------------
        def add_event_listener(interp, this, args):
            node = this_node(this)
            target_node = node or realm.document_node
            if len(args) >= 2 and isinstance(args[1], JSFunction):
                event_type = to_string(args[0])
                target_node.listeners.setdefault(event_type, []).append(
                    args[1]
                )
            return UNDEFINED

        def remove_event_listener(interp, this, args):
            node = this_node(this) or realm.document_node
            if len(args) >= 2:
                event_type = to_string(args[0])
                handlers = node.listeners.get(event_type, [])
                if args[1] in handlers:
                    handlers.remove(args[1])
            return UNDEFINED

        def dispatch_event(interp, this, args):
            node = this_node(this) or realm.document_node
            if args and isinstance(args[0], JSObject):
                event_type = to_string(args[0].get("type"))
                realm.events.dispatch(node, event_type)
            return True

        def create_event(interp, this, args):
            return realm.events.make_event("", NULL)

        self._behavior(
            "EventTarget.prototype.addEventListener", add_event_listener
        )
        self._behavior(
            "EventTarget.prototype.removeEventListener", remove_event_listener
        )
        self._behavior("EventTarget.prototype.dispatchEvent", dispatch_event)
        self._behavior("Document.prototype.createEvent", create_event)

        # Document and Element inherit the EventTarget surface in real
        # browsers; here the prototype chains don't join EventTarget, so
        # mirror the behaviors where pages actually call them — but only
        # when those features exist on the mirrored interface.  (They do
        # not in this corpus, so addEventListener lives on EventTarget
        # and pages reach it through generic instances; element-level
        # registration uses DOM0 handlers, which is what the synthetic
        # web emits anyway.)

        # --- Canvas ---------------------------------------------------------
        def get_context(interp, this, args):
            return realm.new_instance("CanvasRenderingContext2D")

        self._behavior("HTMLCanvasElement.prototype.getContext", get_context)

        def to_data_url(interp, this, args):
            return "data:image/png;base64,iVBORw0KGgo="

        self._behavior("HTMLCanvasElement.prototype.toDataURL", to_data_url)

        # --- Storage ---------------------------------------------------------
        def storage_get(interp, this, args):
            key = to_string(args[0]) if args else ""
            value = realm.storage.get(key)
            return NULL if value is None else value

        def storage_set(interp, this, args):
            if len(args) >= 2:
                realm.storage[to_string(args[0])] = to_string(args[1])
            return UNDEFINED

        def storage_remove(interp, this, args):
            if args:
                realm.storage.pop(to_string(args[0]), None)
            return UNDEFINED

        def storage_clear(interp, this, args):
            realm.storage.clear()
            return UNDEFINED

        def storage_key(interp, this, args):
            from repro.minijs.objects import to_int

            index = to_int(args[0], -1) if args else 0
            keys = list(realm.storage)
            return keys[index] if 0 <= index < len(keys) else NULL

        self._behavior("Storage.prototype.getItem", storage_get)
        self._behavior("Storage.prototype.setItem", storage_set)
        self._behavior("Storage.prototype.removeItem", storage_remove)
        self._behavior("Storage.prototype.clear", storage_clear)
        self._behavior("Storage.prototype.key", storage_key)

        # --- Network-touching features ---------------------------------------
        def xhr_open(interp, this, args):
            if isinstance(this, JSObject) and len(args) >= 2:
                this.properties["_url"] = to_string(args[1])
            return UNDEFINED

        def xhr_send(interp, this, args):
            if isinstance(this, JSObject):
                url = this.properties.get("_url")
                if isinstance(url, str):
                    realm.network_hook(url, "xhr")
            return UNDEFINED

        def fetch(interp, this, args):
            if args:
                realm.network_hook(to_string(args[0]), "fetch")
            return realm.interp.new_object("Promise")

        def send_beacon(interp, this, args):
            if args:
                realm.network_hook(to_string(args[0]), "beacon")
            return True

        self._behavior("XMLHttpRequest.prototype.open", xhr_open)
        self._behavior("XMLHttpRequest.prototype.send", xhr_send)
        self._behavior("Window.prototype.fetch", fetch)
        self._behavior("Navigator.prototype.sendBeacon", send_beacon)

        # --- Timing ------------------------------------------------------------
        def performance_now(interp, this, args):
            return interp.clock_ms % 1_000_000

        self._behavior("Performance.prototype.now", performance_now)

        def request_animation_frame(interp, this, args):
            if args and isinstance(args[0], JSFunction):
                realm.schedule(args[0], delay_ms=16.0)
            realm._timer_seq += 1
            return float(realm._timer_seq)

        self._behavior(
            "Window.prototype.requestAnimationFrame", request_animation_frame
        )

        # --- Misc -----------------------------------------------------------
        def get_computed_style(interp, this, args):
            return realm.new_instance("CSSStyleDeclaration")

        self._behavior("Window.prototype.getComputedStyle", get_computed_style)

        def get_selection(interp, this, args):
            return realm.new_instance("Selection")

        self._behavior("Window.prototype.getSelection", get_selection)
        self._behavior("Document.prototype.getSelection", get_selection)

        def get_random_values(interp, this, args):
            if args and isinstance(args[0], JSArray):
                for i in range(len(args[0].elements)):
                    args[0].elements[i] = float(interp.rng.randrange(256))
            return args[0] if args else UNDEFINED

        self._behavior("Crypto.prototype.getRandomValues", get_random_values)

        def bounding_rect(interp, this, args):
            rect = interp.new_object("DOMRect")
            for prop, value in (
                ("top", 0.0), ("left", 0.0), ("width", 100.0),
                ("height", 20.0),
            ):
                rect.properties[prop] = value
            return rect

        self._behavior(
            "Element.prototype.getBoundingClientRect", bounding_rect
        )

    # ------------------------------------------------------------------
    # Page utilities (not features: plain browser plumbing)
    # ------------------------------------------------------------------

    def _install_page_utilities(self) -> None:
        interp = self.interp
        realm = self

        def timer_callable(fn: Any) -> Optional[JSFunction]:
            """A schedulable handler: a function, or a string body.

            String bodies — ``setTimeout("poll()", 500)``, the
            eval-style legacy form — are compiled through the shared
            content-addressed cache, so a page re-arming the same
            string every tick parses it exactly once per process.
            """
            if isinstance(fn, JSFunction):
                return fn
            if isinstance(fn, str) and fn.strip():
                from repro.minijs.compile import compile_source
                from repro.minijs.errors import JSLexError, JSParseError

                try:
                    program = compile_source(fn)
                except (JSLexError, JSParseError):
                    return None  # real browsers throw at fire time; we drop
                return JSFunction(
                    name="timeout",
                    body=program.body,
                    closure=interp.global_env,
                    function_prototype=interp.function_prototype,
                )
            return None

        def set_timeout(interp_, this, args):
            fn = timer_callable(args[0] if args else UNDEFINED)
            from repro.minijs.objects import to_int

            delay = float(to_int(args[1])) if len(args) > 1 else 0.0
            if fn is not None:
                return float(realm.schedule(fn, delay_ms=max(0.0, delay)))
            return -1.0

        def set_interval(interp_, this, args):
            fn = timer_callable(args[0] if args else UNDEFINED)
            from repro.minijs.objects import to_int

            delay = float(to_int(args[1])) if len(args) > 1 else 0.0
            if fn is not None:
                return float(
                    realm.schedule(
                        fn, delay_ms=max(1.0, delay), interval=max(1.0, delay)
                    )
                )
            return -1.0

        def clear_timer(interp_, this, args):
            from repro.minijs.objects import to_int

            if args:
                timer_id = to_int(args[0], -1)
                for timer in realm.timers:
                    if timer.timer_id == timer_id:
                        timer.cancelled = True
            return UNDEFINED

        g = interp.global_object
        g.properties["setTimeout"] = interp.host_function(
            "setTimeout", set_timeout
        )
        g.properties["setInterval"] = interp.host_function(
            "setInterval", set_interval
        )
        g.properties["clearTimeout"] = interp.host_function(
            "clearTimeout", clear_timer
        )
        g.properties["clearInterval"] = interp.host_function(
            "clearInterval", clear_timer
        )

        console = interp.new_object("Console")
        self.console_log: List[str] = []

        def log(interp_, this, args):
            self.console_log.append(" ".join(to_string(a) for a in args))
            return UNDEFINED

        for name in ("log", "warn", "error", "info", "debug"):
            console.properties[name] = interp.host_function(name, log)
        g.properties["console"] = console

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def schedule(
        self, fn: JSFunction, delay_ms: float, interval: Optional[float] = None
    ) -> int:
        self._timer_seq += 1
        self.timers.append(
            Timer(
                fire_at=self.interp.clock_ms + delay_ms,
                fn=fn,
                interval=interval,
                timer_id=self._timer_seq,
            )
        )
        return self._timer_seq

    def flush_timers(self, max_tasks: int = 32) -> int:
        """Run due-and-future timers in order, up to ``max_tasks``.

        The virtual clock jumps to each timer's fire time, so a page's
        500 ms analytics beacon runs during the 30-second visit just as
        it would in a real browser.
        """
        executed = 0
        while executed < max_tasks:
            pending = [t for t in self.timers if not t.cancelled]
            if not pending:
                break
            timer = min(pending, key=lambda t: t.fire_at)
            self.timers.remove(timer)
            if timer.interval is not None and not timer.cancelled:
                # Re-arm intervals, bounded by max_tasks overall.
                self.timers.append(
                    Timer(
                        fire_at=timer.fire_at + timer.interval,
                        fn=timer.fn,
                        interval=timer.interval,
                        timer_id=timer.timer_id,
                    )
                )
            meter = self.interp.meter
            if meter is not None and timer.fire_at > self.interp.clock_ms:
                # The clock jump below fast-forwards virtual time; the
                # deadline budget must see it (a page napping through
                # `setTimeout(fn, 3600000)` spends an hour of its
                # deadline in one flush) — and check before running the
                # callback.
                meter.advance_clock_ms(
                    timer.fire_at - self.interp.clock_ms
                )
                meter.check_deadline()
            self.interp.clock_ms = max(self.interp.clock_ms, timer.fire_at)
            try:
                self.interp.call_function(timer.fn, self.interp.global_object,
                                          [])
            except BudgetExceeded:
                # Site-isolation budgets must abort the visit; only the
                # page's own errors are survivable.
                raise
            except MiniJSError as error:
                # The page's own errors (thrown values, TypeErrors, a
                # callback blowing the per-script step limit) must not
                # crash the visit — but they are recorded, never
                # silently swallowed.  Anything else (a Python bug in
                # host bindings) propagates: the survey's per-site
                # containment turns it into a structured site failure
                # instead of a miscounted "clean" visit.
                self.timer_errors.append(str(error))
            executed += 1
        return executed
