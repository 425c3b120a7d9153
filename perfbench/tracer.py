"""Outside-in span tracer for lefkit.

The tracer wraps public functions of the loaded ``lefkit`` modules from the
outside: it rebinds every module attribute that refers to the function, so
calls through ``from .x import f`` aliases and module-global lookups are
traced alike.  Nothing under ``src/`` knows about it.

A span is a list ``[name, start, end, parent, task, info]``: ``parent`` is
the index of the enclosing span (-1 at the root), ``task`` the label the
harness set before the call, and ``info`` whatever the target's info
function extracted from the arguments and result.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

NAME, START, END, PARENT, TASK, INFO = range(6)

# Leaf spans of a name seen more often than this are written out folded per
# (name, parent); e.g. contract runs about 36k times per hilbert instance.
HOT_SPANS = 1000


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.task = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """Wrap each ``(module, function, info)`` target of ``lefkit``.

        A target the loaded code no longer has is skipped: its metrics then
        read zero instead of the benchmark failing.
        """
        modules = [m for key, m in sys.modules.items()
                   if key == "lefkit" or key.startswith("lefkit.")]
        for module_name, fn_name, info in targets:
            original = getattr(sys.modules.get(f"lefkit.{module_name}"), fn_name, None)
            if original is None:
                continue
            traced = self._wrap(f"{module_name}.{fn_name}", original, info)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write(self, path: Path, meta: dict) -> None:
        """Write the spans as JSON, folding hot leaf spans per parent."""
        spans, own = self.spans, self.self_times()
        t0 = spans[0][START] if spans else 0.0
        has_child = {s[PARENT] for s in spans}
        counts = Counter(s[NAME] for s in spans)
        kept, folded = [], defaultdict(lambda: [0, 0.0])
        for k, s in enumerate(spans):
            if counts[s[NAME]] > HOT_SPANS and k not in has_child:
                fold = folded[(s[NAME], s[PARENT])]
                fold[0] += 1
                fold[1] += own[k]
                continue
            kept.append({"id": k, "name": s[NAME], "parent": s[PARENT],
                         "task": s[TASK], "start": round(s[START] - t0, 6),
                         "end": round(s[END] - t0, 6), "self_s": round(own[k], 6),
                         "info": s[INFO]})
        payload = dict(meta, spans=kept, folded=[
            {"name": name, "parent": parent, "calls": calls, "self_s": round(t, 6)}
            for (name, parent), (calls, t) in folded.items()
        ])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")
