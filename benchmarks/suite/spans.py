"""Span tracing from outside the program under test.

Nothing in ``src/repro`` knows about tracing.  :class:`Tracer` replaces
public methods *on their classes* (``rpc.py`` tests ``type(node) is
Nic``, so subclassing would change the lane taken) with wrappers that
record a span — name, start, end, parent, transaction id — and restores
them in :meth:`Tracer.uninstall`.  Wrappers must be installed before the
world is built: servers collect bound handlers in ``__init__`` and the
socket pump aliases ``Message.unpack`` when its thread starts.

A wrapper does as little as it can while the clock runs: it appends the
span's name index and start time to its thread's event log on the way
in and the negated end time on the way out (0.6 us per span on
sim_echo; keeping the books inside the wrapper cost 1.4 us and more
than doubled a traced echo).  :meth:`Tracer.fold` turns the logs into
the books — calls, self time, parent/child pair counts, kept durations
— and the measuring loop calls it between slices, outside the timed
region.

Spans of the first ``full_transactions`` transactions are kept whole;
after that only per-name aggregates grow, so a ten-second traced run
stays in memory.  A transaction is one outermost span on the thread that
created the tracer (the one that drives the workload).

Self time is a span's duration minus its child spans.  A wrapper costs
time itself: the part between its two clock reads (``inner``) lands in
its own span, the rest (``outer``) in its parent's self time, and
:meth:`Tracer.self_ns` subtracts both.  What one wrapper costs in all is
priced by ``run.py`` from the difference between the traced and the
untraced run; :func:`measure_span_cost` on a no-op only supplies the
inner/outer split.  (Pricing in situ by wrapping every span point twice
and reading the outer wrapper's self time was tried and dropped: the
second wrapper runs right after the first, on warm caches, and read
0.8 us where the first one cost 1.4.)
"""

import inspect
import sys
import threading
import time
from array import array

_now = time.perf_counter_ns

#: Pair counts are keyed ``parent * _KEY + child``; more names than this
#: would alias.
_KEY = 4096


#: The wrapper, as source: it is compiled once per span point with the
#: wrapped function's own parameter list.  A ``*args, **kwargs`` wrapper
#: costs every call site its specialised, inlined call (measured on
#: sim_echo: 0.3 us per span); one with the same named parameters is
#: called, and calls on, the way the function was.  Names are prefixed
#: so that no parameter can shadow them.
_WRAPPER = """\
def traced({parameters}):
    try:
        _t_log = _t_tls.log
    except AttributeError:
        _t_log = _t_tls.log = _t_new_log()
    _t_log(_t_index)
    _t_log(_t_now())
    try:
        return _t_fn({arguments})
    finally:
        _t_log(-_t_now())
"""
#: Appended for ``weigh``: after the span has ended.
_WEIGH = """\
        _t_weight[_t_index] += _t_weigh({positional})
"""


def _signature_of(fn):
    """``(parameter list, argument list, defaults)``: the first two as
    source text, the third the values the first refers to by name.
    ``fn``'s own parameters when all are ordinary named ones and none
    could shadow the wrapper's names, else ``*args, **kwargs``."""
    generic = ("*args, **kwargs", "*args, **kwargs", {})
    try:
        parameters = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        return generic
    for parameter in parameters:
        if (parameter.kind is not parameter.POSITIONAL_OR_KEYWORD
                or parameter.name.startswith("_t_")):
            return generic
    return (
        ", ".join(p.name if p.default is p.empty
                  else "%s=_t_default_%s" % (p.name, p.name)
                  for p in parameters),
        ", ".join(p.name for p in parameters),
        {"_t_default_" + p.name: p.default
         for p in parameters if p.default is not p.empty},
    )


class _Log:
    """One thread's event log and what folding it has left open."""

    __slots__ = ("events", "names", "starts", "child", "driver")

    def __init__(self, driver):
        #: ``index, start`` per span entered and ``-end`` per span left.
        self.events = []
        #: Spans entered and not yet left when the log was last folded:
        #: their name indexes, start times and child-time accumulators.
        self.names = []
        self.starts = []
        self.child = []
        self.driver = driver


class Tracer:
    def __init__(self, full_transactions=2000):
        self.full_transactions = full_transactions
        self.names = []
        self._index = {}
        self._keep = set()  # name indexes whose durations are kept
        self._patched = []  # (owner, attribute, original), in install order
        self._tls = threading.local()
        self._logs = []
        self._tls.log = self._new_log(driver=True)
        self.calls = []
        self.raw_self_ns = []
        self.weight = []
        self.pairs = {}
        self.durations = {}
        self.spans = []
        self.reset()

    def _new_log(self, driver=False):
        """A log for the calling thread; returns its ``append``."""
        log = _Log(driver)
        self._logs.append(log)
        return log.events.append

    def reset(self):
        """Forget everything recorded (wrappers stay installed, and a
        span another thread is inside of stays open).  The columns are
        cleared in place: the wrappers hold references."""
        self.fold()
        for column in (self.calls, self.raw_self_ns, self.weight):
            column[:] = [0] * len(self.names)
        self.pairs.clear()
        self.durations.clear()
        del self.spans[:]
        self.transactions = 0
        #: Wall time inside outermost spans on the driving thread; what
        #: is left of the measured phase is the harness's own.
        self.driver_root_ns = 0

    # -- wrapping -------------------------------------------------------

    def _name_index(self, name):
        index = self._index.get(name)
        if index is None:
            if len(self.names) >= _KEY:
                raise ValueError("too many span names")
            index = self._index[name] = len(self.names)
            self.names.append(name)
            for column in (self.calls, self.raw_self_ns, self.weight):
                column.append(0)
        return index

    def wrap(self, fn, name, keep_durations=False, weigh=None):
        """A callable that runs ``fn`` inside a span called ``name``.

        ``keep_durations`` stores the duration of every span that is
        not inside another of the same name (a replicated ``trans``
        calls ``trans`` once per candidate; the transaction is the
        outer one); ``weigh(args)`` adds a per-call integer (bytes
        written, say) to the name's ``weight``.
        """
        index = self._name_index(name)
        if keep_durations:
            self._keep.add(index)
        parameters, arguments, defaults = _signature_of(fn)
        source = _WRAPPER.format(parameters=parameters, arguments=arguments)
        if weigh is not None:
            source += _WEIGH.format(
                positional="args" if arguments.startswith("*")
                else "(%s,)" % arguments)
        namespace = {
            "_t_fn": fn, "_t_index": index, "_t_tls": self._tls,
            "_t_new_log": self._new_log, "_t_now": _now,
            "_t_weight": self.weight, "_t_weigh": weigh,
        }
        namespace.update(defaults)
        exec(compile(source, "<span %s>" % name, "exec"), namespace)
        traced = namespace["traced"]
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        command = getattr(fn, "_amoeba_command", None)
        if command is not None:
            # ObjectServer finds its handlers by this attribute.
            traced._amoeba_command = command
        return traced

    # -- folding --------------------------------------------------------

    def fold(self):
        """Enter every logged event into the books.  Safe while other
        threads log: a list's slice, ``del`` and ``append`` each happen
        under the interpreter lock, and a span still open stays on its
        log's stack for the next fold."""
        for log in list(self._logs):
            if log.events:
                self._fold_log(log)

    def _fold_log(self, log):
        events = log.events
        batch = events[:]
        count = len(batch)
        names, starts, child = log.names, log.starts, log.child
        calls, raw_self_ns, pairs = self.calls, self.raw_self_ns, self.pairs
        keep, driver = self._keep, log.driver
        position = 0
        while position < count:
            value = batch[position]
            if value >= 0:
                if position + 1 == count:
                    break  # the start time has not been logged yet
                names.append(value)
                starts.append(batch[position + 1])
                child.append(0)
                position += 2
                continue
            position += 1
            end = -value
            index = names.pop()
            start = starts.pop()
            duration = end - start
            calls[index] += 1
            raw_self_ns[index] += duration - child.pop()
            if names:
                child[-1] += duration
                key = names[-1] * _KEY + index
                pairs[key] = pairs.get(key, 0) + 1
            if driver:
                if self.transactions < self.full_transactions:
                    self.spans.append((index, start, end, len(names),
                                       self.transactions + 1))
                if not names:
                    self.transactions += 1
                    self.driver_root_ns += duration
            if index in keep and index not in names:
                store = self.durations.get(index)
                if store is None:
                    store = self.durations[index] = array("q")
                store.append(duration)
        del events[:position]

    def _replace(self, owner, attribute, make):
        """Swap ``owner.attribute`` for ``make(original function)``,
        keeping classmethod/staticmethod descriptors what they were."""
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def install(self, owner, attribute, name, **options):
        """Trace ``owner.attribute`` (a method the class itself defines,
        or a module's function) as span ``name``."""
        self._replace(owner, attribute,
                      lambda fn: self.wrap(fn, name, **options))

    def install_function(self, module, attribute, name, **options):
        """Trace a module-level function, also under every other loaded
        ``repro`` module that imported it by name."""
        original = getattr(module, attribute)
        self.install(module, attribute, name, **options)
        traced = getattr(module, attribute)
        for other in list(sys.modules.values()):
            if (other is not module
                    and getattr(other, "__name__", "").startswith("repro.")
                    and getattr(other, attribute, None) is original):
                self._patched.append((other, attribute, original))
                setattr(other, attribute, traced)

    def install_handlers(self, server_class, name):
        """Trace every ``@command`` handler ``server_class`` defines, as
        ``name:<method>``."""
        for attribute, member in list(vars(server_class).items()):
            if getattr(member, "_amoeba_command", None) is not None:
                self.install(server_class, attribute,
                             "%s:%s" % (name, attribute))

    def install_serve(self, station_class, name):
        """Trace the request handler a server registers through
        ``station_class.serve``/``serve_batch``.  ``Nic.serve_batch``
        calls ``serve`` itself; the flag stops a second wrapping."""
        tls = self._tls

        def interpose(register):
            def registering(station, port, handler):
                if getattr(tls, "registering", False):
                    return register(station, port, handler)
                tls.registering = True
                try:
                    return register(station, port, self.wrap(handler, name))
                finally:
                    tls.registering = False
            return registering

        for attribute in ("serve", "serve_batch"):
            self._replace(station_class, attribute, interpose)

    def uninstall(self):
        """Put every replaced attribute back, last replaced first."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- reading --------------------------------------------------------
    # The methods fold first; the columns themselves (``calls``,
    # ``transactions`` ...) are as of the last fold.

    def indexes(self, prefix):
        """Name indexes of the spans whose name starts with ``prefix``."""
        return [i for i, name in enumerate(self.names)
                if name.startswith(prefix)]

    def count(self, prefix):
        self.fold()
        return sum(self.calls[i] for i in self.indexes(prefix))

    def pair_count(self, parent_prefix, child_prefix):
        """Spans under ``child_prefix`` whose direct parent is under
        ``parent_prefix``."""
        self.fold()
        parents = set(self.indexes(parent_prefix))
        kids = set(self.indexes(child_prefix))
        return sum(n for key, n in self.pairs.items()
                   if key // _KEY in parents and key % _KEY in kids)

    def child_count(self, index):
        """Direct child spans recorded under name ``index``."""
        return sum(n for key, n in self.pairs.items()
                   if key // _KEY == index)

    def self_ns(self, prefix, cost=(0.0, 0.0)):
        """Total self time of the spans under ``prefix``, with the
        wrappers' own cost ``(inner ns, outer ns)`` taken out."""
        self.fold()
        return sum(
            corrected_self_ns(self.raw_self_ns[i], self.calls[i],
                              self.child_count(i), cost)
            for i in self.indexes(prefix)
        )

    def span_count(self):
        self.fold()
        return sum(self.calls)

    def aggregates(self):
        """The per-name totals as plain data (what the UDP server process
        sends back over its pipe); see :meth:`merge`."""
        self.fold()
        return {
            "names": list(self.names),
            "calls": list(self.calls),
            "raw_self_ns": list(self.raw_self_ns),
            "weight": list(self.weight),
            "pairs": [[self.names[key // _KEY], self.names[key % _KEY], n]
                      for key, n in self.pairs.items()],
        }

    def merge(self, aggregates, rename=lambda name: name):
        """Add another process's :meth:`aggregates` into this tracer,
        each span name passed through ``rename`` first."""
        remap = [self._name_index(rename(name))
                 for name in aggregates["names"]]
        for column in ("calls", "raw_self_ns", "weight"):
            mine = getattr(self, column)
            for theirs, value in zip(remap, aggregates[column]):
                mine[theirs] += value
        for parent, child, n in aggregates["pairs"]:
            key = (self._index[rename(parent)] * _KEY
                   + self._index[rename(child)])
            self.pairs[key] = self.pairs.get(key, 0) + n

    def dump(self):
        """Everything recorded, as JSON-ready data.  Spans were stored in
        completion order with their depth; a span's parent is the next
        one to complete one level up."""
        self.fold()
        records = []
        waiting = {}  # depth -> span ids still without a parent
        for span_id, (index, start, end, depth, txn) in enumerate(self.spans):
            records.append([span_id, self.names[index], start, end, -1, txn])
            for child in waiting.pop(depth + 1, ()):
                records[child][4] = span_id
            waiting.setdefault(depth, []).append(span_id)
        return {
            "full_transactions": min(self.transactions,
                                     self.full_transactions),
            "transactions": self.transactions,
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent",
                            "transaction"],
            "spans": records,
            "aggregate": {
                name: {
                    "calls": self.calls[i],
                    "raw_self_ns": self.raw_self_ns[i],
                    "child_spans": self.child_count(i),
                }
                for i, name in enumerate(self.names) if self.calls[i]
            },
        }


def self_times(records):
    """Raw self time per span id for ``[id, name, start, end, parent,
    ...]`` records: duration minus the durations of its direct children.
    The offline mirror of what folding accumulates."""
    own = {r[0]: r[3] - r[2] for r in records}
    for r in records:
        if r[4] in own:
            own[r[4]] -= r[3] - r[2]
    return own


def corrected_self_ns(raw_self_ns, calls, children, cost):
    """Raw self time less what the wrappers themselves added: ``inner``
    per span of this name, ``outer`` per direct child span."""
    inner, outer = cost
    return raw_self_ns - calls * inner - children * outer


def _noop():
    return None


def measure_span_cost(calls=20000, repeats=5):
    """Price one wrapper around a no-op: ``(inner ns, outer ns)``.

    A traced no-op is called ``calls`` times under a traced parent.
    ``inner`` is the duration a no-op span reports; ``outer`` is what
    each child adds to the parent's self time beyond the bare loop that
    would have called the no-op directly.  The cheapest of ``repeats``
    is used: the cost is a fixed instruction count and noise only adds.
    """
    best = None
    for _ in range(repeats):
        tracer = Tracer(full_transactions=0)
        child = tracer.wrap(_noop, "cost/child")

        def loop(fn):
            for _ in range(calls):
                fn()

        parent = tracer.wrap(loop, "cost/parent")
        start = _now()
        loop(_noop)
        bare = (_now() - start) / calls
        parent(child)
        tracer.fold()
        inner = tracer.raw_self_ns[tracer._index["cost/child"]] / calls
        outer = max(0.0, tracer.raw_self_ns[tracer._index["cost/parent"]]
                    / calls - bare)
        if best is None or inner + outer < sum(best):
            best = (inner, outer)
    return best
