"""Benchmark of ``utxo110 run`` and ``utxo110 verify``.

    python3 perfbench/run.py --workload layer-w256 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` every operation is the real CLI in its own
child process, one at a time (a closed loop with one client): the
benchmark times each child and reads its peak RSS from ``wait4``.  With
``--trace 1`` each command instead runs in-process under ``tracer.py``,
once with spans at every module boundary and once without, and the
per-module metrics come from the spans.

Every operation's output is checked: exit status, no traceback, rows
against an independent Rule 110 stepper (``oracle.py``), identical chain
bytes on every repeat, and ``verify`` reporting the transaction count
and total cost that the writer printed.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Work files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_CYCLES = 5      # setup + write + verify cycles per run, even past --seconds
CHILD_TIMEOUT_S = 150

LAYER_WIDTH, LAYER_STEPS = 256, 100
GRID_WIDTH, GRID_ROWS = 4, 12
MODEXP_TXS, MODEXP_BITS = 10, 4000


@dataclass
class Workload:
    name: str
    mode: str            # "layer", "grid" or "modexp"
    write: list          # argv of the command that writes the chain
    setup: list          # argv of the genesis-only command timed as setup_s
    chain: Path
    initial: str = ""    # first automaton row, for the row oracle
    steps: int = 0
    spec: list = field(default_factory=list)  # modexp operands and results
    prepare: list = field(default_factory=list)  # writes what setup reads


def _cli(*args) -> list:
    return [sys.executable, "-m", "utxo110", *map(str, args)]


def make_workload(name: str, seed: int, work: Path) -> Workload:
    """Inputs drawn from ``seed``; the amount of work does not depend on it."""
    rng = random.Random(f"{name}/{seed}")
    chain = work / "chain.jsonl"
    if name == "layer-w256":
        initial = "".join(rng.choice("01") for _ in range(LAYER_WIDTH))
        mode, steps = "layer", LAYER_STEPS
    elif name == "grid-r12":
        # tx count and cost depend on the row width only, not on its bits
        initial = "".join(rng.choice("01") for _ in range(GRID_WIDTH))
        mode, steps = "grid", GRID_ROWS
    else:
        return _modexp_workload(name, rng, work, chain)
    return Workload(
        name, mode, chain=chain, initial=initial, steps=steps,
        write=_cli("run", "--mode", mode, "--initial", initial,
                   "--steps", steps, "--chain", chain),
        setup=_cli("run", "--mode", mode, "--initial", initial,
                   "--steps", 0, "--chain", work / "genesis.jsonl"))


def _modexp_workload(name, rng, work, chain) -> Workload:
    spec = []
    top = 1 << (MODEXP_BITS - 1)
    for _ in range(MODEXP_TXS):
        modulus = rng.getrandbits(MODEXP_BITS) | top | 1
        exponent = rng.getrandbits(MODEXP_BITS) | top
        base = rng.randrange(2, modulus)
        spec.append({"E": exponent, "M": modulus, "b": base,
                     "r": pow(base, exponent, modulus),
                     "nonce": rng.getrandbits(64)})
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    writer = [sys.executable, str(BENCH / "modexp.py"), "--spec", str(spec_path)]
    genesis = work / "genesis.jsonl"
    return Workload(
        name, "modexp", chain=chain, spec=spec,
        write=writer + ["--chain", str(chain)],
        setup=_cli("verify", "--chain", genesis),
        prepare=writer + ["--chain", str(genesis), "--genesis-only"])


WORKLOADS = ("layer-w256", "grid-r12", "modexp-adversarial")


# ---------------------------------------------------------------------------
# Child processes

def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("RULE110_MAX_WIDTH", None)
    return env


@dataclass
class Op:
    kind: str
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str
    problem: str = ""
    verdict: tuple | None = None  # what ``verify`` reported, when it ran


def run_child(kind: str, argv: list, work: Path) -> Op:
    """Run one child to completion; wall time and peak RSS from ``wait4``."""
    out_path, err_path = work / f"{kind}.out", work / f"{kind}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    # reaped here, not by Popen, so tell it the status
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    op = Op(kind, wall, usage.ru_maxrss / 1024,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"))
    if code != 0:
        op.problem = f"exit status {code}"
    elif "Traceback" in op.stderr:
        op.problem = "traceback on stderr"
    return op


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Output checks

class Checker:
    """Checks each operation; the first written chain becomes the reference."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.digest = None
        self.summary = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.ops = []  # (kind, wall seconds, peak RSS MB) of every child

    def record(self, op: Op) -> Op:
        self.attempted += 1
        self.ops.append((op.kind, op.wall_s, op.rss_mb))
        if op.problem:
            self.failed += 1
            self.problems.append(f"{op.kind}: {op.problem}")
        return op

    def genesis(self, op: Op) -> Op:
        """A command that wrote a genesis-only chain."""
        if not op.problem and oracle.run_summary(op.stdout) != (1, 0):
            op.problem = f"genesis writer printed {op.stdout!r}"
        return self.record(op)

    def setup(self, op: Op) -> Op:
        if self.wl.mode != "modexp":
            return self.genesis(op)
        if not op.problem and oracle.verify_verdict(op.stdout) != ("VerifyOk", 1, 0):
            op.problem = "genesis chain did not verify"
        return self.record(op)

    def written(self, op: Op, chain: Path) -> Op:
        if not op.problem:
            op.problem = self._written(op, chain)
        return self.record(op)

    def _written(self, op: Op, chain: Path) -> str:
        summary = oracle.run_summary(op.stdout)
        if summary is None:
            return f"no summary in {op.stdout!r}"
        digest = sha256(chain)
        if self.digest is None:
            problem = self.check_chain(chain, summary)
            if problem:
                return problem
            self.digest, self.summary = digest, summary
            return ""
        if digest != self.digest:
            return "chain bytes differ from the first run"
        if summary != self.summary:
            return f"summary {summary} differs from the first run {self.summary}"
        return ""

    def check_chain(self, chain: Path, summary) -> str:
        """Compare the chain's contents with what an independent oracle predicts."""
        wl = self.wl
        try:
            records = oracle.read_records(chain)
            if wl.mode == "layer":
                rows = oracle.chain_layer_rows(records)
                expected = oracle.cyclic_rows(wl.initial, wl.steps)
            elif wl.mode == "grid":
                rows = oracle.chain_grid_rows(records)
                expected = oracle.grid_rows(wl.initial, wl.steps)
            else:
                rows = [out["payload"]["r"]["v"]
                        for rec in records[1:] for out in rec["outputs"]]
                expected = [e["r"] for e in wl.spec]
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable chain: {type(exc).__name__}: {exc}"
        if rows != expected:
            return "chain rows differ from the oracle"
        if summary[0] != len(records):
            return f"writer printed {summary[0]} transactions, chain has {len(records)}"
        return ""

    def verified(self, op: Op) -> Op:
        op.verdict = oracle.verify_verdict(op.stdout)
        expected = None if self.summary is None else ("VerifyOk", *self.summary)
        if op.problem or op.verdict != expected:
            op.problem = f"verdict {op.verdict}, expected {expected}" \
                + (f" ({op.problem})" if op.problem else "")
        return self.record(op)


# ---------------------------------------------------------------------------
# Untraced runs: end-to-end metrics

def untraced(wl: Workload, seconds: float, work: Path, check: Checker) -> dict:
    if wl.prepare:
        check.genesis(run_child("genesis", wl.prepare, work))
    run_child("warmup", wl.setup, work)  # fills the bytecode cache

    # The host's speed drifts over seconds, so every cycle runs all three
    # commands and each metric's samples spread over the whole run.
    setups, writes, verifies = [], [], []
    start = time.perf_counter()
    cycle_s = 0.0
    while len(writes) < MIN_CYCLES or time.perf_counter() - start + cycle_s <= seconds:
        t0 = time.perf_counter()
        setups.append(check.setup(run_child("setup", wl.setup, work)))
        writes.append(check.written(run_child("run", wl.write, work), wl.chain))
        verifies.append(check.verified(
            run_child("verify", _cli("verify", "--chain", wl.chain), work)))
        cycle_s = time.perf_counter() - t0

    txs, cost = check.summary or (1, 1)
    run_s = upper(op.wall_s for op in writes)
    verify_s = upper(op.wall_s for op in verifies)
    return {
        "setup_s": (upper(op.wall_s for op in setups), "s"),
        "run_s": (run_s, "s"),
        "run_tx_per_s": (txs / run_s, "1/s"),
        "verify_s": (verify_s, "s"),
        "verify_tx_per_s": (txs / verify_s, "1/s"),
        "verify_us_per_cost": (verify_s / max(cost, 1) * 1e6, "us"),
        "chain_bytes_per_tx": (wl.chain.stat().st_size / txs, "B"),
        "run_peak_rss_mb": (statistics.median(op.rss_mb for op in writes), "MB"),
        "verify_peak_rss_mb": (statistics.median(op.rss_mb for op in verifies), "MB"),
    }


def upper(walls) -> float:
    """90th percentile of a run's wall times.

    The host alternates between a contended speed, its usual one, and
    faster spells of varying length.  The share of fast spells in a run
    moves the median by up to a third from run to run; the 90th
    percentile stays at the contended speed.
    """
    return statistics.quantiles(walls, n=10, method="inclusive")[-1]


# ---------------------------------------------------------------------------
# Traced runs: per-module metrics

MODULES = ("cli", "chainio", "lang", "parser", "canonical", "builder",
           "ledger", "interp", "model")
CANNOT_BUILD = ("LookupMiss", "LookupAmbiguous", "ConsistencyCheckFailed",
                "NoProgress", "NotBuildable")


def _in_process(wl: Workload, phase: str, argv: list, work: Path, traced: bool):
    """Run one command under tracer.py; returns (Op, summary dict or None)."""
    tag = f"{phase}-{'on' if traced else 'off'}"
    summary_path = work / f"{tag}.json"
    if argv[1:3] == ["-m", "utxo110"]:
        command = argv[3:]
    else:
        command = ["modexp"] + argv[2:]
    if not traced:  # the untraced copy writes its own chain, compared below
        command = [str(work / "chain-off.jsonl") if a == str(wl.chain) else a
                   for a in command]
    head = [sys.executable, str(BENCH / "tracer.py"), "--summary", str(summary_path)]
    if traced:
        head += ["--spans", str(work / f"spans-{phase}.jsonl"),
                 "--trace-id", f"{wl.name}/{phase}"]
    else:
        head += ["--off"]
    op = run_child(tag, head + ["--"] + command, work)
    if op.problem:
        return op, None
    return op, json.loads(summary_path.read_text(encoding="utf-8"))


def traced(wl: Workload, seconds: float, work: Path, check: Checker) -> dict:
    if wl.prepare:
        check.genesis(run_child("genesis", wl.prepare, work))
    verify = _cli("verify", "--chain", wl.chain)
    passes = []
    start = time.perf_counter()
    pass_s = 0.0
    while not passes or time.perf_counter() - start + pass_s <= seconds:
        t0 = time.perf_counter()
        result = {}
        for phase, argv in (("run", wl.write), ("verify", verify)):
            for on in (True, False):
                op, summary = _in_process(wl, phase, argv, work, on)
                if phase == "run" and on:
                    check.written(op, wl.chain)
                elif phase == "run":
                    if not op.problem and sha256(work / "chain-off.jsonl") != check.digest:
                        op.problem = "untraced chain differs from the traced one"
                    check.record(op)
                else:
                    check.verified(op)
                result[(phase, on)] = summary
        if any(s is None for s in result.values()):
            break
        passes.append(result)
        pass_s = time.perf_counter() - t0
    if not passes:
        return {}
    return per_module_metrics(passes)


def per_module_metrics(passes) -> dict:
    """Counts from the first pass; times are medians over passes."""

    def stat(p, name, col, phases=("run", "verify")):
        return sum(p[(ph, True)]["stats"].get(name, [0, 0, 0])[col] for ph in phases)

    def med(fn):
        return statistics.median(fn(p) for p in passes)

    def count(p, key, phases=("run", "verify")):
        return sum(p[(ph, True)]["counts"].get(key, 0) for ph in phases)

    def calls(name, phases=("run", "verify")):
        return stat(first, name, 0, phases)

    first = passes[0]
    validate = ("ledger.validate_transaction", "ledger.validate_transaction@builder")
    scans = ("ledger.UtxoSet.items", "ledger.UtxoSet.refs")
    decoded = calls("lang.deserialize_script", ("verify",))
    distinct = first[("verify", True)]["distinct_scripts"]
    cost = count(first, "cost_units")
    eval_s = med(lambda p: stat(p, "interp.evaluate", 2))
    validate_ms = sorted(first[("run", True)]["validate_ms"]
                         + first[("verify", True)]["validate_ms"])
    build_next = calls("builder.build_next")
    applied = calls("ledger.apply_transaction", ("run",))

    def overhead(p):
        return sum(p[(ph, True)]["wall_s"] - p[(ph, False)]["wall_s"]
                   for ph in ("run", "verify"))

    def plain(p):
        return sum(p[(ph, False)]["wall_s"] for ph in ("run", "verify"))

    m = {
        "lang.decode_calls": (calls("lang.deserialize_script"), "count"),
        "lang.decode_s": (med(lambda p: stat(p, "lang.deserialize_script", 2)), "s"),
        "lang.distinct_script_ratio": (distinct / decoded if decoded else 0.0, "ratio"),
        "lang.serialize_s": (med(lambda p: stat(p, "lang.serialize_script", 2)), "s"),
        "lang.source_s": (med(lambda p: stat(p, "lang.script_source", 2)), "s"),
        "interp.evaluate_calls": (calls("interp.evaluate"), "count"),
        "interp.eval_s": (eval_s, "s"),
        "interp.compile_s": (med(lambda p: stat(p, "interp.compiled", 1)), "s"),
        "interp.cost_units": (cost, "units"),
        "interp.eval_us_per_cost": (eval_s / cost * 1e6 if cost else 0.0, "us"),
        "model.tx_id_calls": (calls("model.Transaction.tx_id"), "count"),
        "model.tx_id_s": (med(lambda p: stat(p, "model.Transaction.tx_id", 2)), "s"),
        "model.content_key_calls": (calls("model.Output.content_key"), "count"),
        "model.content_key_s": (med(lambda p: stat(p, "model.Output.content_key", 2)), "s"),
        "ledger.validate_calls": (sum(calls(n) for n in validate), "count"),
        "ledger.validate_s": (med(lambda p: sum(stat(p, n, 2) for n in validate)), "s"),
        "ledger.validate_ms.p50": (_quantile(validate_ms, 0.50), "ms"),
        "ledger.validate_ms.p99": (_quantile(validate_ms, 0.99), "ms"),
        "ledger.validations_per_tx": (
            sum(calls(n, ("run",)) for n in validate) / applied if applied else 0.0,
            "ratio"),
        "ledger.utxo_lookup_calls": (calls("ledger.UtxoSet.lookup"), "count"),
        "ledger.utxo_lookup_s": (med(lambda p: stat(p, "ledger.UtxoSet.lookup", 2)), "s"),
        "ledger.utxo_scan_s": (med(lambda p: sum(stat(p, n, 2) for n in scans)), "s"),
        "ledger.utxo_size_max": (
            max(first[(ph, True)]["counts"].get("utxo_size_max", 0)
                for ph in ("run", "verify")), "count"),
        "builder.sweep_calls": (calls("builder.sweep"), "count"),
        "builder.build_next_calls": (build_next, "count"),
        "builder.build_next_s": (med(lambda p: stat(p, "builder.build_next", 2)), "s"),
        "builder.yield": (count(first, "built") / build_next if build_next else 0.0,
                          "ratio"),
    }
    for cls in CANNOT_BUILD:
        m[f"builder.cannot_build.{cls}"] = (count(first, f"cannot_build.{cls}"), "count")
    m.update({
        "builder.derive_rules_s": (
            med(lambda p: stat(p, "builder.derive_build_rules", 1)), "s"),
        "chainio.load_s": (med(lambda p: stat(p, "chainio.load_chain", 2)), "s"),
        "chainio.dump_s": (med(lambda p: stat(p, "chainio.dump_chain", 2)), "s"),
        "parser.parse_s": (med(lambda p: stat(p, "parser.parse", 1)), "s"),
        "canonical.analyze_s": (
            med(lambda p: stat(p, "canonical.analyze_canonical", 1)), "s"),
    })
    for module in MODULES:
        m[f"{module}.self_s"] = (med(lambda p: _module_self(p, module)), "s")
    m.update({
        "trace.spans": (sum(first[(ph, True)]["spans"] for ph in ("run", "verify")),
                        "count"),
        "trace.overhead_s": (med(overhead), "s"),
        "trace.overhead_ratio": (med(lambda p: overhead(p) / plain(p)), "ratio"),
    })
    return m


def _module_self(p, module: str) -> float:
    prefix = module + "."
    return sum(entry[2] for ph in ("run", "verify")
               for name, entry in p[(ph, True)]["stats"].items()
               if name.startswith(prefix))


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile of sorted ``values`` (0 when empty)."""
    if not values:
        return 0.0
    return values[min(len(values) - 1, int(q * len(values)))]


# ---------------------------------------------------------------------------

def stamp(args) -> dict:
    def git(*cmd):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            res = subprocess.run(["git", "--no-optional-locks", *cmd], cwd=ROOT,
                                 env=env, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark of utxo110 run/verify")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "utxo110" / "cli.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2

    info = stamp(args)
    print("stamp: " + json.dumps(info))
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = make_workload(args.workload, args.seed, work)
    check = Checker(wl)
    measure = traced if args.trace else untraced
    metrics = measure(wl, args.seconds, work, check)

    for problem in check.problems:
        print(f"FAILED {problem}")
    print(f"failed_ops_ratio {check.failed / max(check.attempted, 1)} "
          f"({check.failed} of {check.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": check.failed == 0 and bool(metrics),
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{work.name}.json").write_text(
        json.dumps({"stamp": info, "problems": check.problems, "ops": check.ops,
                    **result}, indent=1),
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
