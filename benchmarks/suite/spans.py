"""Layer spans recorded from outside the program, for the traced run.

:class:`LayerTracer` replaces public functions and methods of the
``repro`` layers with wrappers named after the span they stand for.
Nothing under ``src/`` knows it is being traced; the wrappers only
observe, so a traced run must give the same simulated digest as an
untraced one (the suite checks this).

* Every wrapper counts its calls exactly.
* With ``keep_records`` it also records each span: name, start, end,
  parent span and request ID (from an ``HttpRequest`` argument, else the
  parent's).  A generator function then returns a proxy that times each
  resume and passes sent values, thrown exceptions, ``close`` and the
  return value straight through.  Records are kept for one request in
  ``sample_every`` and for every ``mgmt.`` span.

Self time per span comes from :class:`StackSampler`, not from the
wrappers: timing every call would cost more than many of the calls
themselves.  Every ``interval`` seconds the sampler walks the
interrupted stack to the innermost frame of a span function and counts
one sample for that span, so a span's self time is its time minus the
time of spans nested in it.  A stack with no span frame counts for
``<layer>.other`` when its innermost ``repro`` frame outside the kernel
belongs to that layer (a scheduled callback, say), and otherwise for
the kernel's dispatch loop (``""``).  A sample taken inside the wrappers
themselves counts as tracing overhead (``"trace"``).
"""

from __future__ import annotations

import dis
import inspect
import json
import os
import signal
import time
from collections import Counter

__all__ = ["LayerTracer", "StackSampler"]

clock = time.perf_counter_ns
THIS_FILE = __file__

#: opcode of a function or generator entry (-1 where it does not exist)
_RESUME = dis.opmap.get("RESUME", -1)

# a span record: name, id, parent id, request id, start ns, end ns
_NAME, _ID, _PARENT, _REQ, _START, _END = range(6)


class LayerTracer:
    """Call-counting (and optionally recording) wrappers."""

    def __init__(self, request_type, sample_every: int = 64,
                 keep_records: bool = False):
        self.request_type = request_type
        self.sample_every = sample_every
        self.keep_records = keep_records
        #: span name -> exact call count
        self.calls: Counter = Counter()
        #: code object of every span function -> span name (for sampling)
        self.codes: dict = {}
        self.records: list[list] = []
        self._open: list[list] = []
        self._next_id = 0

    # -- installing -----------------------------------------------------------
    def patch(self, owner, attr: str, name: str) -> bool:
        """Wrap ``owner.attr`` (a class or module attribute) as span
        ``name``; returns False when it is not a plain function there."""
        fn = self._function(owner, attr)
        if fn is None:
            return False
        setattr(owner, attr, self.wrap(fn, name))
        return True

    def attribute(self, owner, attr: str, name: str) -> bool:
        """Count samples inside ``owner.attr`` toward span ``name``
        without wrapping it (for the kernel's cheapest, hottest calls)."""
        fn = self._function(owner, attr)
        if fn is None:
            return False
        self.codes[fn.__code__] = name
        return True

    @staticmethod
    def _function(owner, attr: str):
        fn = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        return fn if inspect.isfunction(fn) else None

    def wrap(self, fn, name: str):
        """A wrapper around ``fn`` (a function or bound method)."""
        code = getattr(fn, "__code__", None) or fn.__func__.__code__
        self.codes[code] = name
        self.calls[name] += 0
        calls = self.calls
        if not self.keep_records:
            def traced(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
        elif inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                calls[name] += 1
                return self._proxy(fn(*args, **kwargs),
                                   self._record(name, args))
        else:
            def traced(*args, **kwargs):
                calls[name] += 1
                record = self._record(name, args)
                self._open.append(record)
                record[_START] = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record[_END] = clock()
                    self._open.pop()
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def reset(self) -> None:
        """Zero the counts and drop the records (the phase boundary)."""
        for name in self.calls:
            self.calls[name] = 0
        self.records = []

    # -- span records ---------------------------------------------------------
    def _record(self, name: str, args) -> list:
        parent = self._open[-1] if self._open else None
        req = 0
        for arg in args:
            if type(arg) is self.request_type:
                req = arg.request_id
                break
        if not req and parent is not None:
            req = parent[_REQ]
        self._next_id += 1
        record = [name, self._next_id,
                  parent[_ID] if parent is not None else 0, req, 0, 0]
        if name.startswith("mgmt.") or (req and req % self.sample_every == 0):
            self.records.append(record)
        return record

    def _proxy(self, gen, record: list):
        """Drive ``gen`` one resume at a time, stamping the record."""
        opened = self._open
        send, throw = gen.send, gen.throw
        value = None
        error = None
        while True:
            opened.append(record)
            if not record[_START]:
                record[_START] = clock()
            try:
                item = send(value) if error is None else throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                record[_END] = clock()
                opened.pop()
            error = None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:
                value = None
                error = exc

    def write_records(self, directory: str, filename: str,
                      origin_ns: int) -> str:
        """Write the sampled span records as JSON lines; returns the path."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, filename)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps({
                    "id": rec[_ID], "name": rec[_NAME],
                    "parent": rec[_PARENT], "request_id": rec[_REQ],
                    "start_ns": rec[_START] - origin_ns,
                    "end_ns": rec[_END] - origin_ns}) + "\n")
        return path


class StackSampler:
    """Wall-clock stack sampler attributing samples to spans (module doc).

    ``ITIMER_REAL`` is used because the CPU-time timers tick at the
    kernel's scheduler rate (a few hundred per second); the measured
    child is one busy process, so wall time is its CPU time.
    """

    #: repro packages whose frames name a layer when no span encloses them
    LAYER_OF_PACKAGE = {"net": "net", "core": "core", "cluster": "cluster",
                        "mgmt": "mgmt", "workload": "workload",
                        "content": "workload"}

    def __init__(self, codes: dict, interval: float = 2e-4):
        self.codes = codes
        self.interval = interval
        self.samples: Counter = Counter()
        self._layer: dict = {}
        self._bytecode: dict = {}

    @staticmethod
    def available() -> bool:
        return hasattr(signal, "setitimer") and hasattr(signal, "SIGALRM")

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self) -> dict:
        """The samples so far, zeroing the count."""
        samples, self.samples = dict(self.samples), Counter()
        return samples

    def _layer_of(self, code) -> str:
        layer = self._layer.get(code)
        if layer is None:
            parts = code.co_filename.replace("\\", "/").split("/")
            package = parts[-2] if len(parts) > 2 and \
                parts[-3] == "repro" else ""
            layer = self._layer[code] = self.LAYER_OF_PACKAGE.get(package, "")
        return layer

    def _on_sample(self, signum, frame) -> None:
        if frame is None:
            return
        # The interpreter runs signal handlers at its next check point,
        # most often a function or generator entry (RESUME); the time up
        # to it was spent in the frame that made the call.
        code = frame.f_code
        raw = self._bytecode.get(code)
        if raw is None:
            raw = self._bytecode[code] = code.co_code
        lasti = frame.f_lasti
        if (0 <= lasti < len(raw) and raw[lasti] == _RESUME
                and frame.f_back is not None):
            frame = frame.f_back
        if frame.f_code.co_filename == THIS_FILE:
            self.samples["trace"] += 1
            return
        codes = self.codes
        fallback = ""
        while frame is not None:
            code = frame.f_code
            name = codes.get(code)
            if name is not None:
                self.samples[name] += 1
                return
            if not fallback:
                fallback = self._layer_of(code)
            frame = frame.f_back
        self.samples[f"{fallback}.other" if fallback else ""] += 1
