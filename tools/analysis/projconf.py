"""Project configuration for the graph rule families (``layers.toml``).

The layer map, the NVMe boundary, the wall-clock blessing list, the
latch vocabulary and the hook registry all live in one declarative TOML
file so a reviewer can audit the whole-program contract without reading
rule code.  Python 3.11+ parses it with :mod:`tomllib`; on 3.10 (still
in the CI matrix) a minimal built-in parser covers the subset this file
uses — tables, arrays of tables, string arrays, strings and booleans.
"""

import os
import re

try:
    import tomllib as _toml
except ImportError:  # Python 3.10
    _toml = None

DEFAULT_CONFIG_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "layers.toml"
)

_KEY_RE = re.compile(r"^([A-Za-z0-9_-]+)\s*=\s*(.+)$")


def _parse_value(text, lines):
    """Parse a scalar or (possibly multi-line) array value."""
    text = text.strip()
    if text.startswith("["):
        while not _balanced(text):
            text += " " + next(lines).split("#", 1)[0].strip()
        inner = text.strip()[1:-1]
        items = [item.strip() for item in _split_items(inner)]
        return [_parse_scalar(item) for item in items if item]
    return _parse_scalar(text.split("#", 1)[0].strip())


def _balanced(text):
    return text.count("[") == text.count("]")


def _split_items(inner):
    items, depth, current = [], 0, ""
    for char in inner:
        if char == "," and depth == 0:
            items.append(current)
            current = ""
            continue
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        current += char
    if current.strip():
        items.append(current)
    return items


def _parse_scalar(text):
    text = text.strip()
    if text in ("true", "false"):
        return text == "true"
    if len(text) >= 2 and text[0] in "\"'" and text[-1] == text[0]:
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        return text


def _mini_toml(source):
    """Parse the subset of TOML that ``layers.toml`` uses."""
    document = {}
    current = document
    lines = iter(source.splitlines())
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[["):
            name = stripped[2:-2].strip()
            document.setdefault(name, []).append({})
            current = document[name][-1]
            continue
        if stripped.startswith("["):
            name = stripped[1:-1].strip()
            current = document.setdefault(name, {})
            continue
        match = _KEY_RE.match(stripped)
        if match is None:
            continue
        current[match.group(1)] = _parse_value(match.group(2), lines)
    return document


class ProjectConfig:
    """Typed view over the parsed ``layers.toml`` document."""

    def __init__(self, document, path=DEFAULT_CONFIG_PATH):
        self.path = path
        layers = document.get("layers", [])
        #: layer name -> index (0 is lowest)
        self.layer_index = {}
        #: dotted module prefix -> layer name
        self.prefix_layer = {}
        self.layer_names = []
        for index, layer in enumerate(layers):
            name = layer.get("name", "layer%d" % index)
            self.layer_names.append(name)
            self.layer_index[name] = index
            for prefix in layer.get("modules", ()):
                self.prefix_layer[prefix] = name
        boundary = document.get("boundary", {})
        self.boundary_package = boundary.get("package", "")
        self.boundary_public = tuple(boundary.get("public", ()))
        self.boundary_allowed = tuple(boundary.get("allowed_importers", ()))
        wall = document.get("wall_clock", {})
        self.blessed_modules = tuple(wall.get("blessed", ()))
        self.taint_sources = frozenset(wall.get("sources", ()))
        self.sink_methods = frozenset(wall.get("sink_methods", ()))
        self.sink_constructors = frozenset(wall.get("sink_constructors", ()))
        latches = document.get("latches", {})
        self.acquire_effects = frozenset(latches.get("acquire_effects", ()))
        self.release_effects = frozenset(latches.get("release_effects", ()))
        self.release_many_effects = frozenset(
            latches.get("release_many_effects", ())
        )
        self.parent_release_effects = frozenset(
            latches.get("parent_release_effects", ())
        )
        self.acquire_methods = frozenset(latches.get("acquire_methods", ()))
        self.release_methods = frozenset(latches.get("release_methods", ()))
        self.release_many_methods = frozenset(
            latches.get("release_many_methods", ())
        )
        self.page_source_effects = frozenset(
            latches.get("page_source_effects", ())
        )
        self.cleanup_name_patterns = tuple(
            latches.get("cleanup_name_patterns", ())
        )
        hooks = document.get("hooks", {})
        #: registered "Class.slot" observer entries, and bare slot names
        self.observers = frozenset(hooks.get("observers", ()))
        self.observer_slots = frozenset(
            entry.rpartition(".")[2] for entry in self.observers
        )
        self.decision_slots = frozenset(
            entry.rpartition(".")[2] for entry in hooks.get("decisions", ())
        )
        self.decision_binder = hooks.get("binder", "")
        self.callback_receivers = frozenset(
            hooks.get("callback_receivers", ())
        )

    # -- layer queries --------------------------------------------------

    def layer_of(self, module):
        """Layer name for a dotted module, by longest-prefix match.

        A single-segment entry (the bare root package, ``"repro"``)
        matches only that exact module — otherwise it would swallow
        every new subpackage and defeat the unmapped-module drift
        check.
        """
        best, best_len = None, -1
        for prefix, layer in self.prefix_layer.items():
            if module == prefix or (
                "." in prefix and module.startswith(prefix + ".")
            ):
                if len(prefix) > best_len:
                    best, best_len = layer, len(prefix)
        return best

    def may_import(self, from_module, to_module):
        """True when the layer map allows ``from_module -> to_module``.

        Returns ``None`` when either side is unmapped (the caller
        reports unmapped modules separately).
        """
        from_layer = self.layer_of(from_module)
        to_layer = self.layer_of(to_module)
        if from_layer is None or to_layer is None:
            return None
        return self.layer_index[to_layer] <= self.layer_index[from_layer]

    # -- boundary queries -----------------------------------------------

    def boundary_violation(self, importer, imported):
        """True when ``importer`` reaches an internal boundary module."""
        package = self.boundary_package
        if not package:
            return False
        if not (imported == package or imported.startswith(package + ".")):
            return False
        for public in self.boundary_public:
            if imported == public or imported.startswith(public + "."):
                return False
        for allowed in self.boundary_allowed:
            if importer == allowed or importer.startswith(allowed + "."):
                return False
        return True

    def is_blessed(self, module):
        return module in self.blessed_modules


def load_config(path=None):
    path = path or DEFAULT_CONFIG_PATH
    with open(path, "rb") as handle:
        raw = handle.read()
    if _toml is not None:
        document = _toml.loads(raw.decode("utf-8"))
    else:
        document = _mini_toml(raw.decode("utf-8"))
    return ProjectConfig(document, path)


_DEFAULT = None


def default_config():
    """The committed ``layers.toml``, parsed once per process."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = load_config()
    return _DEFAULT
