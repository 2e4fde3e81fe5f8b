"""One measured repetition of a workload, in a fresh interpreter.

Started by ``bench/run.py`` with a JSON spec as its only argument:

    {"t0": <CLOCK_MONOTONIC reading taken just before this process started>,
     "src": <directory holding the braidcensus package>,
     "commands": [[argv...], ...],
     "trace": false | true,
     "required": [<patch points that must fire when tracing>]}

It imports ``braidcensus.cli`` (interpreter start to that import is the
set-up time), calls ``cli.main(argv)`` for each command with stdout
captured, and prints one JSON object describing the repetition on its own
stdout.  An empty command list measures set-up only.

With ``"trace": true`` public functions are wrapped where the program looks
them up at call time, and the spans and counters go into that JSON object.
"""

import json
import sys
import time


class Tracer:
    """Spans around calls into each layer, and counters on hot methods.

    A span is ``[name, parent index, start, end]``; the parent is the span
    that was open when this one started, or -1.  Spans stay in memory until
    the repetition ends.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.fired = set()
        self.accepted = {}
        self.counters = []

    def span(self, point, name, fn, count_accepted=False):
        spans, stack, fired, clock = self.spans, self.stack, self.fired, time.perf_counter
        accepted = self.accepted
        if count_accepted:
            accepted[name] = 0

        def wrapper(*args, **kwargs):
            fired.add(point)
            record = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if count_accepted and result is not None:
                accepted[name] += 1
            return result

        return wrapper

    def counter(self, point, name, fn):
        """Count calls without timing them: for methods too hot to time."""
        import itertools

        calls = itertools.count()
        tick = calls.__next__
        self.counters.append((point, name, calls))

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Patch every call site the benchmark traces and return the wrapped
        ``cli.main``.  The package ``__init__`` rebinds
        ``braidcensus.census`` to the function, so modules are fetched
        through importlib."""
        import importlib

        mod = importlib.import_module
        cli = mod("braidcensus.cli")
        census = mod("braidcensus.census")
        cohomology = mod("braidcensus.cohomology")
        commutator = mod("braidcensus.commutator")
        P = mod("braidcensus.perm").Permutation

        cli.census = self.span("cli.census", "census.census", cli.census)
        census.from_sigma1_alpha = self.span(
            "census.from_sigma1_alpha",
            "homs.from_sigma1_alpha",
            census.from_sigma1_alpha,
            count_accepted=True,
        )
        census.centralizer_generators = self.counter(
            "census.centralizer_generators",
            "perm.centralizer_generators",
            census.centralizer_generators,
        )
        commutator.commutator_census = self.span(
            "commutator.commutator_census",
            "commutator.commutator_census",
            commutator.commutator_census,
        )
        commutator.centralizer_generators = self.counter(
            "commutator.centralizer_generators",
            "perm.centralizer_generators",
            commutator.centralizer_generators,
        )
        cohomology.h1_invariants = self.span(
            "cohomology.h1_invariants",
            "cohomology.h1_invariants",
            cohomology.h1_invariants,
        )
        # _smith_normal_form_cached looks this up in the module globals, so
        # the span sees cache misses only.
        cohomology.smith_normal_form = self.span(
            "cohomology.smith_normal_form",
            "cohomology.smith_normal_form",
            cohomology.smith_normal_form,
        )
        P.__mul__ = self.counter("Permutation.__mul__", "perm.mul", P.__mul__)
        P.__init__ = self.counter("Permutation.__init__", "perm.init", P.__init__)
        return self.span("cli.main", "cli.main", cli.main)

    def report(self, required):
        counts = {}
        fired = set(self.fired)
        for point, name, calls in self.counters:
            n = next(calls)
            counts[name] = counts.get(name, 0) + n
            if n:
                fired.add(point)
        return {
            "spans": self.spans,
            "counts": counts,
            "accepted": self.accepted,
            "unfired": sorted(set(required) - fired),
        }


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from braidcensus import cli

    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spec["t0"]

    import contextlib
    import hashlib
    import io
    import os
    import resource
    import traceback

    src_dir = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src_dir + os.sep):
        sys.exit("braidcensus was imported from %s, not from %s"
                 % (cli.__file__, src_dir))

    tracer = None
    run = cli.main
    if spec["trace"]:
        tracer = Tracer()
        run = tracer.install()

    def cpu_now():
        s = resource.getrusage(resource.RUSAGE_SELF)
        c = resource.getrusage(resource.RUSAGE_CHILDREN)
        return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime

    outputs = []
    wall_s = 0.0
    cpu0 = cpu_now()
    for argv in spec["commands"]:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                status = run(list(argv))
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            status = 1
        wall_s += time.perf_counter() - t0
        outputs.append((argv, status, buf.getvalue()))
    cpu_s = cpu_now() - cpu0

    commands = []
    for argv, status, text in outputs:
        entry = {
            "argv": argv,
            "exit": status,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
        if status == 0 and argv[0].startswith("census"):
            entry["classes"] = len(json.loads(text)["classes"])
        commands.append(entry)

    maxrss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": maxrss_kib / 1024.0,
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "commands": commands,
    }
    if tracer is not None:
        result["trace"] = tracer.report(spec["required"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
