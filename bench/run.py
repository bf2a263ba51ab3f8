"""Benchmark of pinkey's run path on seeded scenario sets.

Run from the repository root:

    python3 bench/run.py --workload group-flood --seed 1 --seconds 30 --trace 0

Set-up imports the package from ``src/``, generates the workload's
scenarios from the seed and writes them as scenario files.  A pass then
does, for every scenario in a fixed order, what ``pinkey run
--emit-transcript`` does: ``load_scenario``, ``run_scenario`` (key
generation, protocol, self-check, secrecy audit), ``RunReport.to_text``
and ``Transcript.to_text``.  Passes repeat, single-threaded and one
scenario after another, until ``--seconds`` have gone by (and at least
``MIN_PASSES`` times).  The first pass's outputs are checked against the
benchmark's own computations (``checks.py``); every later pass must
reproduce them byte for byte.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` each layer's public functions are
wrapped (``tracing.py``) and it holds the per-layer metrics instead.

Every reported time is scaled to a host of fixed speed (``HostSpeed``),
and a scenario's time is the median of its passes.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3


class HostSpeed:
    """Times on a host whose speed drifts, in seconds of a host of fixed speed.

    On a shared host a core's speed drifts with other tenants' load, by up
    to 1.8x over minutes; no number of samples within one run averages
    that out.  So every measured call is bracketed by two runs of a fixed
    reference task of the benchmark's own, built from ``checks.py``, and
    its time is reported as its ratio to the mean of the two, times
    ``NOMINAL_S``: about the task's fastest time on the 2-core x86-64 host
    that the figures in README.md come from.  The task has an
    interpreter-bound half (a partition enumeration and a GF(2)
    elimination of small rows, like the partition bound) and a
    memory-bound half (a GF(2) elimination of unit and two-bit rows over a
    6k-label basis indexed through a dict, the shape of replay and audit).
    It is not part of the package, so a change to the package cannot move
    it.
    """

    NOMINAL_S = 0.010

    def __init__(self) -> None:
        rng = random.Random(0)
        self._budgets = {(i, j): rng.randint(1, 20) for i in range(7) for j in range(i + 1, 7)}
        self._rows = [rng.getrandbits(400) for _ in range(300)]
        self._labels = [f"K{i}-{i + 1}:{t}" for i in range(60) for t in range(100)]
        self._known = rng.sample(self._labels, 3000)
        self._picks = [rng.sample(self._labels, 2) for _ in range(2000)]
        self.reference_s: list[float] = []

    def _reference(self) -> float:
        start = time.perf_counter()
        checks.partition_bound(7, self._budgets)
        checks.gf2_rank(self._rows)
        index = {label: k for k, label in enumerate(self._labels)}
        checks.gf2_rank([1 << index[a] for a in self._known]
                        + [(1 << index[a]) | (1 << index[b]) for a, b in self._picks])
        elapsed = time.perf_counter() - start
        self.reference_s.append(elapsed)
        return elapsed

    def measure(self, fn):
        """Call ``fn``; give its result, seconds taken, and the factor to nominal."""
        before = self._reference()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        factor = 2 * self.NOMINAL_S / (before + self._reference())
        return result, elapsed, factor


def import_package():
    """Import ``pinkey.cli`` afresh from ``src/``, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "pinkey" or n.startswith("pinkey.")]:
        del sys.modules[name]
    cli = importlib.import_module("pinkey.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"pinkey was imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload: str, seed: int, directory: Path):
    cli = import_package()
    cases = workloads.generate(workload, seed)
    paths = []
    for k, case in enumerate(cases):
        path = directory / f"{k:02d}-{case.name}.txt"
        path.write_text(case.to_text(), encoding="utf-8")
        paths.append(str(path))
    return cli, cases, paths


def capture(report_text: str, transcript_text: str, result) -> checks.Output:
    key_forms = tuple(tuple(sorted(form.labels)) for form in result.key_forms)
    labels = {label for form in key_forms for label in form}
    labels.update(label for msg in result.transcript for form in msg.forms for label in form.labels)
    realized = result.basis.realized()
    return checks.Output(
        report_text=report_text,
        transcript_text=transcript_text,
        key_forms=key_forms,
        key_bits=tuple(result.key),
        pads=tuple(tuple(msg.pads) for msg in result.transcript),
        values={label: realized[label] for label in labels if label in realized},
    )


def run_once(cli, path: str):
    """What ``pinkey run --emit-transcript`` does for one scenario file."""
    report, result = cli.run_scenario(cli.load_scenario(path))
    return report.to_text(), result.transcript.to_text(), result


def run_pass(cli, paths, first: bool, tracer: tracing.Tracer | None, speed: HostSpeed):
    """One pass over the scenarios, timing each; failed scenarios give None.

    Returns per-scenario seconds as measured, the same scaled to the
    nominal host, per-scenario products and, when traced, per-scenario
    layer totals (scaled).  On the first pass a product is the run's
    Output and basis size; later passes give the digest of the report and
    transcript text, to be compared with the first pass.
    """
    raw, times, produced, layers = [], [], [], []
    for path in paths:
        # Start each scenario with no garbage of the one before, so that
        # where a collection falls does not depend on the order of scenarios.
        gc.collect()
        if tracer:
            tracer.reset()
        try:
            (report_text, transcript_text, result), elapsed, factor = speed.measure(
                lambda: run_once(cli, path))
        except Exception as exc:  # a failing scenario is counted, not fatal
            print(f"error: {path}: {type(exc).__name__}: {exc}", file=sys.stderr)
            for column in (raw, times, produced, layers):
                column.append(None)
            continue
        raw.append(elapsed)
        times.append(elapsed * factor)
        if tracer:
            layers.append({name: value * factor if name in tracing.TIMED else value
                           for name, value in tracer.metrics().items()})
        else:
            layers.append(None)
        if first:
            produced.append((capture(report_text, transcript_text, result), len(result.basis)))
        else:
            produced.append(hashlib.sha256((report_text + transcript_text).encode()).digest())
        del result
    return raw, times, produced, layers


def typical(samples) -> float:
    """Sum over scenarios of each scenario's median sample.

    ``samples`` holds one list per pass, of one value per scenario.
    """
    per_scenario = zip(*samples)
    return sum(statistics.median(s for s in column if s is not None) for column in per_scenario
               if any(s is not None for s in column))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pinkey").is_dir():
        print(f"error: no package source at {SRC / 'pinkey'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tracer = tracing.Tracer() if args.trace else None
    speed = HostSpeed()
    setup_times, passes = [], []
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as scratch:
        # Set-up is repeated before every pass, so that its median spans
        # the run like the passes do.
        began = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - began < args.seconds:
            gc.collect()
            (cli, cases, paths), elapsed, factor = speed.measure(
                lambda: set_up(args.workload, args.seed, Path(scratch)))
            setup_times.append(elapsed * factor)
            if tracer:
                tracer.install()
            passes.append(run_pass(cli, paths, not passes, tracer, speed))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    first = passes[0][2]
    failed = 0
    wrong = 0
    digest = hashlib.sha256()
    for k, (case, produced) in enumerate(zip(cases, first)):
        problems = ["the run raised"] if produced is None else checks.check(case, produced[0])
        if produced is not None:
            out = produced[0]
            digest.update(f"{case.name}\n{out.transcript_text}".encode())
            expected = hashlib.sha256((out.report_text + out.transcript_text).encode()).digest()
            reruns = [p[2][k] for p in passes[1:]]
            if any(r != expected for r in reruns):
                problems.append(f"{sum(r != expected for r in reruns)} reruns differ from the first run")
        for problem in problems[:5]:
            print(f"check failed: {case.name}: {problem}", file=sys.stderr)
        if problems:
            failed += len(passes)
            wrong += produced is not None

    wall_s = typical(p[1] for p in passes)
    print(f"workload {args.workload} seed {args.seed}: {len(cases)} scenarios x {len(passes)} passes")
    print(f"transcripts_sha256 {digest.hexdigest()}")
    print(f"reference task median {statistics.median(speed.reference_s):.6f} s (nominal {speed.NOMINAL_S} s)")
    print(f"{'traced ' if tracer else ''}wall_s {wall_s} (as measured: {typical(p[0] for p in passes)})")
    outs = [p[0] if p else None for p in first]
    reports = [checks.parse_report(o.report_text) if o else {} for o in outs]
    key_bits = sum(int(r.get("key_length", 0)) for r in reports)
    if tracer:
        metrics = {}
        for name in tracing.TIMED.keys() | tracing.COUNTED.keys():
            value = typical([None if s is None else s[name] for s in p[3]] for p in passes)
            if name in tracing.TIMED:
                metrics[name] = {"value": value, "unit": "s"}
            else:  # a call count, the same in every pass
                metrics[name] = {"value": round(value), "unit": "count"}
        counts = {
            "model.source_bits": sum(p[1] for p in first if p),
            "protocols.messages": sum(int(r.get("messages", 0)) for r in reports),
            "protocols.public_bits": sum(int(r.get("public_bits", 0)) for r in reports),
            "protocols.unused_pad_bits": sum(
                checks.unused_pad_bits(case, o) for case, o in zip(cases, outs) if o),
            "protocols.gap_bits": sum(int(r["bound_floor"]) - int(r["key_length"])
                                      for r in reports if r.get("bound_floor", "-") != "-"),
            "secrecy.rank_joint": sum(int(r.get("rank_joint", 0)) for r in reports),
        }
        metrics.update({name: {"value": value, "unit": "count" if name == "protocols.messages" else "bits"}
                        for name, value in counts.items()})
        metrics = dict(sorted(metrics.items()))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "key_bits": {"value": key_bits, "unit": "bits"},
            "key_bits_per_s": {"value": key_bits / wall_s, "unit": "bits/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    print(json.dumps({"correct": wrong == 0, "attempted": len(cases) * len(passes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
