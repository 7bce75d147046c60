"""One CLI command run in-process, with spans at every module boundary.

The tracer wraps the program's public functions from outside: each
module-level binding of a wrapped function, and a few methods on their
classes, are replaced by a wrapper that records a span ``[name, start,
end, parent]`` and, for some boundaries, a count taken from the result.
No file of the program changes.  Spans stay in memory until the command
ends; then the per-name totals go to ``--summary`` (JSON) and the spans
to ``--spans`` (JSON Lines).  With ``--off`` nothing is wrapped and only
the command's wall time is written, for the overhead comparison.

    python3 perfbench/tracer.py --summary s.json [--spans s.jsonl] [--off] -- run --mode layer ...
    python3 perfbench/tracer.py --summary s.json -- modexp --spec spec.json --chain c.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class Tracer:
    """Spans and counts collected by the wrappers, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self._stack = []
        self.counts = Counter()
        self.scripts = set()
        self.validate_ns = []

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if after is not None:
                after(result, args, span)
            return result

        return traced

    def install(self):
        """Wrap the module boundaries of the imported ``utxo110`` package."""
        import utxo110
        from utxo110 import builder, chainio, interp, lang, ledger, model
        from utxo110.builder import CannotBuild

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "utxo110" or n.startswith("utxo110.")]

        def everywhere(original, name, after=None):
            wrapped = self.wrap(name, original, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

        def method(cls, attr, name, after=None):
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), after))

        counts = self.counts

        def on_decode(result, args, span):
            self.scripts.add(bytes(args[0]))

        def on_evaluate(result, args, span):
            counts["cost_units"] += result[1].total_cost

        def on_build_next(result, args, span):
            if isinstance(result, CannotBuild):
                counts["cannot_build." + type(result.reason).__name__] += 1
            else:
                counts["built"] += 1

        def on_validate(result, args, span):
            self.validate_ns.append(span[2] - span[1])

        def on_apply(result, args, span):
            counts["utxo_size_max"] = max(counts["utxo_size_max"], len(args[1]))

        # builder calls validate_transaction itself before apply_transaction
        # validates again; the two call sites get separate span names.
        validate = ledger.validate_transaction
        builder.validate_transaction = self.wrap(
            "ledger.validate_transaction@builder", validate, on_validate)
        ledger.validate_transaction = self.wrap(
            "ledger.validate_transaction", validate, on_validate)

        everywhere(lang.deserialize_script, "lang.deserialize_script", on_decode)
        everywhere(lang.serialize_script, "lang.serialize_script")
        everywhere(lang.script_source, "lang.script_source")
        everywhere(utxo110.parse, "parser.parse")
        everywhere(utxo110.analyze_canonical, "canonical.analyze_canonical")
        everywhere(interp.evaluate, "interp.evaluate", on_evaluate)
        everywhere(interp.compiled, "interp.compiled")
        everywhere(builder.derive_build_rules, "builder.derive_build_rules")
        everywhere(builder.build_next, "builder.build_next", on_build_next)
        everywhere(builder.sweep, "builder.sweep")
        everywhere(ledger.apply_transaction, "ledger.apply_transaction", on_apply)
        everywhere(ledger.verify_chain, "ledger.verify_chain")
        everywhere(chainio.load_chain, "chainio.load_chain")
        everywhere(chainio.dump_chain, "chainio.dump_chain")
        method(model.Output, "content_key", "model.Output.content_key")
        method(model.Transaction, "tx_id", "model.Transaction.tx_id")
        method(ledger.UtxoSet, "lookup", "ledger.UtxoSet.lookup")
        method(ledger.UtxoSet, "items", "ledger.UtxoSet.items")
        method(ledger.UtxoSet, "refs", "ledger.UtxoSet.refs")

    def stats(self) -> dict:
        """name -> [calls, total seconds, self seconds]."""
        covered = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _), child_ns in zip(self.spans, covered):
            entry = out.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_ns
        return {name: [c, total / 1e9, own / 1e9] for name, (c, total, own) in out.items()}

    def write_spans(self, path, trace_id: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"trace": trace_id, "id": i, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "parent": None if parent < 0 else parent}))
                fh.write("\n")


def _entry(command):
    """The callable and root span name for a traced command line."""
    if command[:1] == ["modexp"]:
        import modexp
        return modexp.main, command[1:], "modexp.main"
    from utxo110 import cli
    return cli.main, command, "cli.main"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="traced in-process CLI run")
    ap.add_argument("--summary", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--trace-id", default="trace")
    ap.add_argument("--off", action="store_true", help="time only, no wrappers")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    sys.path.insert(0, str(SRC))
    import utxo110  # noqa: F401  (import cost stays outside the timed call)

    tracer = None
    if not args.off:
        tracer = Tracer()
        tracer.install()
    fn, fn_argv, root = _entry(command)
    if tracer is not None:
        fn = tracer.wrap(root, fn)
    start = time.perf_counter()
    code = fn(fn_argv)
    wall = time.perf_counter() - start

    summary = {"exit": code, "wall_s": wall}
    if tracer is not None:
        summary.update(stats=tracer.stats(), counts=dict(tracer.counts),
                       validate_ms=[ns / 1e6 for ns in tracer.validate_ns],
                       distinct_scripts=len(tracer.scripts),
                       spans=len(tracer.spans))
        if args.spans:
            tracer.write_spans(args.spans, args.trace_id)
    with open(args.summary, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
