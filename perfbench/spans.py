"""Per-layer tracing from outside the package.

A :class:`Tracer` wraps public functions of hornlab's modules and rebinds
every module-level reference to them (``from .x import f`` copies, package
re-exports and the defining module's own global), so calls made inside
the package are seen too.  Each wrapped call is a span: its self time is
its duration minus the time covered by wrapped calls made inside it.
Nothing is installed until :meth:`Tracer.install`; :meth:`Tracer.remove`
puts every original back.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from hornlab.errors import HornlabError

MARK = "_perfbench_wrapper"


#: the benchmark's own modules that call into hornlab
CALLERS = ("workloads", "layers")


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hornlab" or name.startswith("hornlab.")
                                  or name in CALLERS)]


def installed_wrappers() -> list[str]:
    """Names of module globals, in hornlab and in the benchmark's callers,
    that are currently wrappers."""
    found = []
    for mod in _modules():
        for attr, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{attr}")
    return found


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.edges: Counter = Counter()  # (parent span, child span) -> calls
        self._stack: list[list] = []  # [name, time covered by child spans]
        self._restore: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def wrap(self, name, fn, post=None, errors=None):
        """Span-recording wrapper; ``post(tracer, result)`` may replace the
        result, ``errors`` maps an exception type to the counter it bumps."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except HornlabError as exc:
                for etype, counter in (errors or {}).items():
                    if isinstance(exc, etype):
                        tracer.counts[counter] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += dt - frame[1]
                tracer.edges[(parent, name)] += 1
                if stack:
                    stack[-1][1] += dt
            return post(tracer, result) if post is not None else result

        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, True)
        return wrapper

    def install(self, targets):
        """Wrap ``(module, attr, span name, post, errors)`` targets."""
        modules = _modules()
        for module, attr, name, post, errors in targets:
            orig = getattr(module, attr)
            wrapper = self.wrap(name, orig, post, errors)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, orig))

    def remove(self):
        for mod, key, orig in reversed(self._restore):
            setattr(mod, key, orig)
        self._restore.clear()

    def children_of(self, parent: str, prefix: str) -> int:
        return sum(n for (p, c), n in self.edges.items()
                   if p == parent and c.startswith(prefix))
