"""One traced CLI process.

    python3 perfbench/tracer.py <trace.json> <readpath arguments...>
    python3 perfbench/tracer.py <trace.json> --kernel-build

The first form imports ``readpath.cli`` (timed as the span ``cli.import``),
wraps every module function that ``cli`` calls through a module alias
(``corpus_mod.load_cache``, ``null_mod.build_null``, ...) plus
``epochs.fit``, runs ``cli.main`` inside the root span ``cli.main`` and
writes the spans and counters as JSON. The second form times the first
``topics.sweep_kernel()`` call, whose ``_build_kernel`` compiles the C
sweep into an empty cache, as the span ``topics.kernel_build``.

Each span records its name, start, end, parent, the process CPU time
across it and the rise in ``ru_maxrss`` across it. The permutation
sampler's public ``sample`` and ``sample_batch`` are counted, not spanned
(the outer call only, since ``sample`` calls ``sample_batch``). Nothing in
the program is changed on disk.
"""

from __future__ import annotations

import functools
import inspect
import json
import re
import resource
import sys
import threading
import time

_ALIAS_IMPORT = re.compile(r"^from \. import (\w+) as (\w+)$", re.M)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def add(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` recorded as a span; ``on_return(bound_args, result)`` may
        return counters to add."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {"name": name, "parent": stack[-1] if stack else None}
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span["rss_kb_before"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            span["cpu_start"] = time.process_time()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["cpu_end"] = time.process_time()
                span["rss_kb_after"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                stack.pop()
            if on_return is not None:
                for key, n in on_return(sig.bind(*args, **kwargs).arguments, result).items():
                    self.add(key, n)
            return result

        return traced

    def count_outer(self, name: str, fn, size):
        """``fn`` counted by ``size(result)``, outermost call per thread only."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if getattr(self._local, "counting", False):
                return fn(*args, **kwargs)
            self._local.counting = True
            try:
                result = fn(*args, **kwargs)
            finally:
                self._local.counting = False
            self.add(name, size(result))
            return result

        return counted

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _ingested_tokens(bound, result) -> dict:
    return {"corpus.tokens": int(result[1].total_tokens)}


def _sweep_work(bound, result) -> dict:
    """Token x topic x sweep updates of a k sweep."""
    corpus, k_list, params = bound["corpus"], bound["k_list"], bound["base_params"]
    return {"topics.token_topic_sweeps": int(corpus.total_tokens) * sum(k_list) * params.iterations}


ON_RETURN = {"corpus.build_corpus": _ingested_tokens, "topics.sweep_k": _sweep_work}


def instrument(tracer: Tracer) -> None:
    import readpath.cli as cli
    from readpath import epochs, nullmodel

    source = inspect.getsource(cli)
    for module_name, alias in _ALIAS_IMPORT.findall(source):
        module = getattr(cli, alias)
        layer = module_name
        for attr in sorted(set(re.findall(rf"\b{alias}\.([A-Za-z]\w*)", source))):
            fn = getattr(module, attr, None)
            if inspect.isfunction(fn):
                name = f"{layer}.{attr}"
                setattr(module, attr, tracer.wrap(name, fn, ON_RETURN.get(name)))
    if not hasattr(epochs.fit, "__wrapped__"):
        epochs.fit = tracer.wrap("epochs.fit", epochs.fit)
    sampler = nullmodel.ConstrainedPermutationSampler
    for method in ("sample", "sample_batch"):
        setattr(sampler, method, tracer.count_outer(
            "nullmodel.permutations_drawn", getattr(sampler, method),
            lambda perms: 1 if perms.ndim == 1 else len(perms)))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        sys.exit(__doc__)
    out, rest = argv[0], argv[1:]
    tracer = Tracer()
    if rest == ["--kernel-build"]:
        from readpath import topics

        topics._build_kernel = tracer.wrap("topics.kernel_build", topics._build_kernel)
        kernel = topics.sweep_kernel()
        tracer.add(f"topics.kernel_{kernel}", 1)
        tracer.dump(out)
        return 0 if kernel == "c" else 1

    import_span = tracer.wrap("cli.import", lambda: __import__("readpath.cli"))
    import_span()
    instrument(tracer)
    import readpath.cli as cli

    code = tracer.wrap("cli.main", cli.main)(rest)
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
