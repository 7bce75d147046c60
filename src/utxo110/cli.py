"""Command-line driver.

Subcommands::

    run      build a genesis state and advance the automaton by sweeps
    verify   replay a chain file and report the first failure
    render   draw a verified chain as ASCII or PBM
    analyze  print the builder's generation cases of a script and each
             case's lookups and output rules

Exit codes: 0 success, 1 domain failure (invalid chain, stuck builder,
stdout closed by its reader), 2 usage, parse or file failure.  All output
is deterministic.
"""

from __future__ import annotations

import argparse
import os
import sys

# Only what `verify` needs is imported here; each command imports the
# rest of what it uses, so that `verify` never loads the builder, the
# analyser, the parser, the renderer or the Rule 110 scripts.
from .chainio import ChainFormatError, dump_chain, load_chain
from .lang import Bits, script_source
from .ledger import ChainLog, FirstFailure, TransactionRejected, UtxoSet, \
    apply_transaction, utxo_digest, verify_chain
from .model import ChainParams

TYPE_CHECKING = False  # type checkers read it as True; importing typing costs start-up
if TYPE_CHECKING:
    from .builder import BuildRules

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _params(args) -> ChainParams:
    return ChainParams(
        max_width=args.max_width,
        cost_limit_per_input=args.cost_limit,
        block_budget=args.block_budget,
    )


def _add_limit_flags(sub):
    sub.add_argument("--max-width", type=int, default=ChainParams.max_width,
                     help="bit-string width cap (default %(default)s)")
    sub.add_argument("--cost-limit", type=int, default=ChainParams.cost_limit_per_input,
                     help="evaluation budget per input script (default %(default)s)")
    sub.add_argument("--block-budget", type=int, default=ChainParams.block_budget,
                     help="total cost budget per block (default %(default)s)")


def _render_overwrites_chain(args) -> bool:
    """Report and return whether --render names the --chain file, through
    the same path, a symlink or a hard link."""
    if args.render is None:
        return False
    try:
        same = os.path.samefile(args.chain, args.render)
    except OSError:  # one of them does not exist yet
        same = os.path.realpath(args.chain) == os.path.realpath(args.render)
    if same:
        print("error: --render names the --chain file", file=sys.stderr)
    return same


def cmd_run(args) -> int:
    from .builder import sweep
    from .rule110 import genesis_grid, genesis_layer

    if _render_overwrites_chain(args):
        return EXIT_USAGE
    params = _params(args)
    try:
        bits = Bits.from_text(args.initial)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.steps < 0:
        print("error: --steps must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
    if not 1 <= len(bits) <= params.max_width:
        print(f"error: initial width {len(bits)} outside [1, {params.max_width}]",
              file=sys.stderr)
        return EXIT_USAGE

    if args.mode == "layer":
        genesis = genesis_layer(bits, params)
    else:
        genesis = genesis_grid(bits, params)
    utxo = UtxoSet()
    log = ChainLog(params.block_budget)
    try:
        apply_transaction(genesis, utxo, log, params)
    except TransactionRejected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    created = _create_outputs({"chain": args.chain, "render": args.render})
    if created is None:
        return EXIT_USAGE
    seed_failures: dict = {}
    for step in range(args.steps):
        built = sweep(utxo, log, params, seed_failures)
        error = None
        if not built:
            error = f"no transaction could be built at step {step + 1}"
        elif args.mode == "layer" and len(built) != 1:
            error = f"layer step {step + 1} built {len(built)} transactions"
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            for path in created:
                os.remove(path)
            return EXIT_DOMAIN

    transactions = log.transactions
    try:
        dump_chain(transactions, args.chain)
    except OSError as exc:
        print(f"error: cannot write chain: {exc}", file=sys.stderr)
        for path in created:
            os.remove(path)
        return EXIT_USAGE
    print(f"transactions: {len(transactions)}")
    print(f"blocks: {log.blocks}")
    print(f"total cost: {log.total_cost}")
    print(f"utxo size: {len(utxo)}")
    print(f"utxo digest: {utxo_digest(utxo).hex()}")
    if args.render is not None:
        from .render import render_chain
        if not _write_render(args.render, render_chain(transactions, args.format)):
            return EXIT_USAGE
        print(f"render written to {args.render}")
    return EXIT_OK


def _create_outputs(paths: dict):
    """Open each output path for appending, which creates a missing file
    and leaves an existing one as it is, so that a path that cannot be
    written fails before any sweep runs.  Returns the paths created, or
    None (having removed them again) if one cannot be opened."""
    created = []
    for what, path in paths.items():
        if path is None:
            continue
        existed = os.path.lexists(path)
        try:
            with open(path, "a", encoding="utf-8"):
                pass
        except OSError as exc:
            print(f"error: cannot write {what}: {exc}", file=sys.stderr)
            for done in created:
                os.remove(done)
            return None
        if not existed:
            created.append(path)
    return created


def _write_render(path, text) -> bool:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write render: {exc}", file=sys.stderr)
        return False
    return True


def _load_records(path):
    try:
        return load_chain(path)
    except OSError as exc:
        print(f"error: cannot read chain: {exc}", file=sys.stderr)
        return None
    except ChainFormatError as exc:
        print(f"error: cannot parse chain: {exc}", file=sys.stderr)
        return None


def cmd_verify(args) -> int:
    records = _load_records(args.chain)
    if records is None:
        return EXIT_USAGE
    params = _params(args)
    result = verify_chain([r.tx for r in records], params,
                          stored_ids=[r.stored_id for r in records])
    if isinstance(result, FirstFailure):
        print(f"verification failed at {result}")
        return EXIT_DOMAIN
    print(f"ok: {result.transactions} transactions, total cost {result.total_cost}")
    print(f"blocks: {result.blocks}")
    print(f"utxo size: {result.utxo_size}")
    print(f"utxo digest: {result.utxo_digest.hex()}")
    return EXIT_OK


def cmd_render(args) -> int:
    from .render import render_chain

    if _render_overwrites_chain(args):
        return EXIT_USAGE
    records = _load_records(args.chain)
    if records is None:
        return EXIT_USAGE
    params = _params(args)
    result = verify_chain([r.tx for r in records], params,
                          stored_ids=[r.stored_id for r in records])
    if isinstance(result, FirstFailure):
        print(f"error: chain does not verify: {result}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        text = render_chain([r.tx for r in records], args.format)
    except (ChainFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.render is None:
        sys.stdout.write(text)
    elif not _write_render(args.render, text):
        return EXIT_USAGE
    return EXIT_OK


def _print_cases(rules: BuildRules) -> None:
    from .builder import CopyOf

    print(f"generation cases: {len(rules.cases)}")
    for num, case in enumerate(rules.cases, start=1):
        print(f"case {num}: {case.input_count} input(s), "
              f"{len(case.outputs)} output(s)")
        for check in case.seed_checks:
            print(f"  seed: {script_source(check.expr)}")
        for k, per_input in enumerate(case.lookups, start=1):
            keys = ", ".join(f"{field} = {script_source(rule.expr)}"
                             for field, rule in per_input)
            print(f"  in[{k}] <- lookup({keys})")
        for i, made in enumerate(case.outputs):
            if isinstance(made, CopyOf):
                args = "".join(f", {name} <- {script_source(rule.expr)}"
                               for name, rule in made.overrides)
                print(f"  out[{i}] <- copy(out[{made.source}]{args})")
            else:
                for field, rule in made.fields + (("script", made.script),):
                    print(f"  out[{i}].{field} <- {script_source(rule.expr)}")


def cmd_analyze(args) -> int:
    from .builder import NotBuildable, derive_build_rules
    from .parser import ParseError, parse

    try:
        with open(args.script, "r", encoding="utf-8") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read script: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        script = parse(source)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    rules = derive_build_rules(script)
    if isinstance(rules, NotBuildable):
        print(str(rules))
    else:
        _print_cases(rules)
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="utxo110",
        description="UTXO ledger simulator running Rule 110 in guarding scripts")
    subs = top.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="build a chain by sweeping the builder")
    run.add_argument("--mode", choices=("layer", "grid"), required=True)
    run.add_argument("--initial", required=True,
                     help="initial bits, e.g. 0001 or ...#")
    run.add_argument("--steps", type=int, default=0)
    run.add_argument("--chain", required=True, help="chain file to write")
    run.add_argument("--render", help="optional render file")
    run.add_argument("--format", choices=("ascii", "pbm"), default="ascii")
    _add_limit_flags(run)
    run.set_defaults(func=cmd_run)

    verify = subs.add_parser("verify", help="replay and check a chain file")
    verify.add_argument("--chain", required=True)
    _add_limit_flags(verify)
    verify.set_defaults(func=cmd_verify)

    render = subs.add_parser("render", help="draw a verified chain")
    render.add_argument("--chain", required=True)
    render.add_argument("--render", help="output file (default stdout)")
    render.add_argument("--format", choices=("ascii", "pbm"), default="ascii")
    _add_limit_flags(render)
    render.set_defaults(func=cmd_render)

    analyze = subs.add_parser("analyze", help="generation cases of a script file")
    analyze.add_argument("--script", required=True, help="script source file")
    analyze.set_defaults(func=cmd_analyze)

    return top


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    for name in ("max_width", "cost_limit", "block_budget"):
        if getattr(args, name, 1) < 1:  # analyze has no limit flags
            flag = "--" + name.replace("_", "-")
            print(f"error: {flag} must be at least 1", file=sys.stderr)
            return EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so the flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
