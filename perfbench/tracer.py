"""Spans and counts recorded around the engine's public functions, from outside.

``Tracer.wrap`` replaces a function or method by a wrapper that counts its
calls and, at a layer boundary, records a span (name, start, end, parent,
operation).  A call made from inside the same layer is counted but folded
into the caller's span, unless the function is marked ``always`` because a
metric needs its own inclusive time.  Aggregates are kept as the spans
close: self time per layer (a span's duration minus the time its child
spans cover) and the inclusive time of each name, counted only for the
outermost span of that name.  The raw spans stay in memory in flat arrays
and are written out at the end.
"""

import base64
import json
import time
from array import array

NEVER, BOUNDARY, ALWAYS = "never", "boundary", "always"


class Tracer:
    def __init__(self):
        self.on = False
        self.names = []
        self.layer_of = []
        self.ids = {}
        self.calls = []
        self.inclusive = []
        self.active = []
        self.self_time = {}
        self.counters = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.stack_layer = [None]
        self.child_time = [0.0]
        self.op = -1
        self._root = -1
        self.restore = []

    def name_id(self, name, layer):
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.calls.append(0)
            self.inclusive.append(0.0)
            self.active.append(0)
            self.self_time.setdefault(layer, 0.0)
        return nid

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def peak(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    # ------------------------------------------------------------ spans

    def push(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.stack_layer.append(self.layer_of[nid])
        self.child_time.append(0.0)
        self.active[nid] += 1
        self.span_start.append(time.perf_counter())
        return idx

    def pop(self, idx):
        end = time.perf_counter()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        nid = self.span_name[idx]
        self.stack.pop()
        self.stack_layer.pop()
        children = self.child_time.pop()
        self.child_time[-1] += duration
        self.self_time[self.layer_of[nid]] += duration - children
        self.active[nid] -= 1
        if not self.active[nid]:
            self.inclusive[nid] += duration

    def begin(self, op):
        """Open the root span of one benchmark operation and start recording."""
        self.op = op
        self.on = True
        self._root = self.push(self.name_id("bench.op", "bench"))

    def end(self):
        self.pop(self._root)
        self.on = False

    # -------------------------------------------------------- wrapping

    def wrap(self, owner, attr, name, layer, span=BOUNDARY, hook=None, select=None):
        """Replace owner.attr by a recording wrapper; undone by unwrap_all().

        select(args) -> suffix splits one function's calls and spans by its
        argument (for example by coefficient field); hook(tracer, args,
        result) derives counts from a completed call.
        """
        fn = getattr(owner, attr)
        if select is None:
            nid = self.name_id(name, layer)
            pick = None
        else:
            cache = {}

            def pick(args):
                key = select(args)
                if key not in cache:
                    cache[key] = self.name_id("%s.%s" % (name, key), layer)
                return cache[key]

            nid = None
        calls = self.calls
        tracer = self

        if span == NEVER:
            def wrapper(*args, **kwargs):
                if tracer.on:
                    calls[nid] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                if not tracer.on:
                    return fn(*args, **kwargs)
                n = nid if pick is None else pick(args)
                calls[n] += 1
                if span == BOUNDARY and tracer.stack_layer[-1] == layer:
                    result = fn(*args, **kwargs)
                else:
                    idx = tracer.push(n)
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        tracer.pop(idx)
                if hook is not None:
                    hook(tracer, args, result)
                return result

        wrapper.__wrapped__ = fn
        self.patch(owner, attr, wrapper)
        return fn, wrapper

    def patch(self, owner, attr, value):
        """Set owner.attr to value until unwrap_all()."""
        self.restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unwrap_all(self):
        while self.restore:
            owner, attr, fn = self.restore.pop()
            setattr(owner, attr, fn)

    # ---------------------------------------------------------- results

    def calls_of(self, name):
        nid = self.ids.get(name)
        return self.calls[nid] if nid is not None else 0

    def inclusive_ms(self, name):
        nid = self.ids.get(name)
        return self.inclusive[nid] * 1e3 if nid is not None else 0.0

    def self_ms(self, layer):
        return self.self_time.get(layer, 0.0) * 1e3

    @property
    def span_count(self):
        return len(self.span_start)

    def write(self, path, meta):
        """Spans as base64 of their flat arrays, with the name table and counts."""
        def pack(arr):
            return base64.b64encode(arr.tobytes()).decode("ascii")

        doc = dict(meta)
        doc.update({
            "names": self.names,
            "layers": self.layer_of,
            "calls": dict(zip(self.names, self.calls)),
            "counters": self.counters,
            "spans": {
                "count": self.span_count,
                "name": pack(self.span_name),
                "parent": pack(self.span_parent),
                "op": pack(self.span_op),
                "start": pack(self.span_start),
                "end": pack(self.span_end),
                "format": "int32 name, parent and op; float64 start and end (perf_counter s)",
            },
        })
        with open(path, "w") as fh:
            json.dump(doc, fh)
