"""The graphsynth benchmark: one command, three workloads.

    python3 benchmarks/run.py --workload cold-zipf --seed 1 --seconds 27 --trace 0

Run it from the root of a checkout. It generates a seeded corpus, sets the
workload up ``SETUP_REPEATS`` times (``setup_s`` is the median), then
repeats the workload's op (a ``run_pipeline`` call in a fresh process, see
``op.py``) for ``--seconds``. The last stdout line is one JSON object with
``correct``, ``attempted`` and ``failed`` (ops) and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``. The lines before it show every value with its
unit and the samples behind it. ``run_s``, ``cpu_s`` and ``records_per_s``
(records an op wrote per second of it) are medians over the run's ops,
which one op that hits a busy moment of the host does not move. With
``--trace 1`` every other op is traced; per-layer values are medians over
the traced ops, and ``trace.overhead_s`` is their median ``run_s`` minus
the untraced one.

Reference speed: a shared host runs the same pure-Python op up to twice as
fast at one minute as at the next, and a run's median does not average
that out. So each op process also times a fixed piece of reference work
(``op.reference_s``) just before and after the op, and the op's CPU
seconds are given at the speed at which that work takes ``REFERENCE_S``:
CPU seconds x ``REFERENCE_S`` / reference seconds. That is ``cpu_s``;
``run_s`` is the op's wall time with its CPU seconds replaced by those,
so time spent waiting (on the stub, in ``remote-generate``) stays as
measured; ``records_per_s`` divides by ``run_s``. ``setup_s`` takes the
priming op the same way. The times as measured are printed too
(``wall_s``, ``cpu_wall_s``, ``records_per_wall_s``); per-layer span
times are as measured.

Digest gate: at the default seed every pinned artifact must match
``pins.json``; at any other seed every op must reproduce, byte for byte,
the artifacts of the first run of the same inputs. A mismatch fails the op
and makes ``correct`` false. Regenerate the pins after an intended change
of output with ``--write-pins`` (default seed).

The benchmark's own tests: ``python3 -m pytest -q benchmarks/selftest.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import corpus_gen

BENCH = Path(__file__).resolve().parent
PINS = BENCH / "pins.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
MIN_OPS = 3
DEADLINE_S = 165.0  # every run, set-up included, ends well within 180 s
OP_TIMEOUT_S = 120.0
# The speed that op times are given at: the speed at which op.py's
# reference work takes this long. Intel Xeon, 2 vCPU, Python
# 3.11 runs it in 0.08 to 0.2 s, depending on what else the host runs.
REFERENCE_S = 0.1

# Every stage artifact except run_manifest.json (timings) and the
# embedding cache (its format is due to change).
PINNED = (
    "chunks.jsonl", "entities.jsonl", "graph.jsonl", "paths.jsonl", "hop_decision.json",
    "subsets.jsonl", "synth.jsonl", "synth_manifest.json",
    "report_raw.csv", "report_subsets.csv", "report_synth.csv",
    "hist_raw.svg", "hist_subsets.svg", "comparison.json",
)


@dataclass(frozen=True)
class Workload:
    name: str
    docs: int
    vocab: int
    rebuild: tuple[str, ...]  # artifacts an op deletes; empty: fresh workdir
    remote: bool = False
    shape: str = ""


# Sizes keep a full pass of the benchmark (4 + 22 runs per workload, set-up
# included) within an hour on 2 vCPUs. Every corpus has 20 sentences (10
# chunks) and 10 vocabulary names per document, and Zipf exponent 1.1.
SENTENCES = 20
ZIPF_S = 1.1
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "cold-zipf", docs=40, vocab=400, rebuild=(),
            shape="A user's first run. 40 docs x 20 sentences give 400 chunks at "
                  "max_chars 300; Zipf 1.1 over 400 names makes head entities whose "
                  "candidate pools span most of the corpus, so traversal dominates "
                  "(about 55% of the op; similarity scoring is counted there) and "
                  "balance comes second (about 35%).",
        ),
        Workload(
            "rebuild-balance", docs=40, vocab=400, rebuild=PINNED[5:],
            shape="The iterate-after-a-change loop on the cold-zipf corpus: sample is "
                  "skipped, so balance (about 85% of the op), the runner's re-hashing "
                  "and repeated artifact loads dominate. Traversal is bypassed.",
        ),
        Workload(
            "remote-generate", docs=16, vocab=160, rebuild=PINNED[6:], remote=True,
            shape="The paid remote-LLM run: about 1,000 chat calls to a local stub "
                  "(5 ms service time, 2% of prompts malformed, 5 prompts with a "
                  "first-attempt 503) over 2 keep-alive connections with concurrency "
                  "2. Synthesis (about 95% of the op) dominates; traversal and balance "
                  "are skipped.",
        ),
    )
}
CONCURRENCY = 2  # generation.concurrency of remote-generate: one per vCPU


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(workdir: Path) -> dict[str, str]:
    return {name: sha256(workdir / name) for name in PINNED if (workdir / name).exists()}


def mismatches(found: dict[str, str], reference: dict[str, str]) -> list[str]:
    """Pinned artifacts that differ from the reference or are missing."""
    return [name for name in PINNED if name in reference and found.get(name) != reference[name]]


def child_env(src: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    env["PYTHONPATH"] = str(src)
    # Every op lays out its dicts and sets the same way, so ops of one input do equal work.
    env["PYTHONHASHSEED"] = "0"
    env["NO_PROXY"] = "127.0.0.1,localhost"
    return env


class Stub:
    """The stub chat server (stub_server.py) in a process of its own."""

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub_server.py")],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        line: list[str] = []
        reader = threading.Thread(target=lambda: line.append(self.proc.stdout.readline()))
        reader.start()
        reader.join(timeout=30)
        if not line or not line[0].startswith("PORT "):
            self.stop()
            raise RuntimeError("stub server did not start")
        self.port = int(line[0].split()[1])

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.port}/v1/chat/completions"

    def _call(self, method: str, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request(method, path, body=b"" if method == "POST" else None)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def reset(self) -> None:
        self._call("POST", "/reset")

    def calls(self) -> int:
        return self._call("GET", "/stats")["calls"]

    def fix_transients(self) -> None:
        fixed = self._call("POST", "/fix-transients")
        if fixed["transient"] != fixed["wanted"]:
            raise RuntimeError("too few distinct prompts for the transient schedule")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def write_config(path: Path, corpus: Path, workdir: Path, endpoint: str | None) -> None:
    generation = {"backend": "mock"}
    if endpoint:
        generation = {"backend": "remote", "endpoint": endpoint, "model": "stub",
                      "concurrency": CONCURRENCY}
    config = {
        "input": str(corpus),
        "workdir": str(workdir),
        "seed": 0,
        "chunking": {"max_chars": 300},
        "generation": generation,
    }
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")  # JSON is YAML


@dataclass
class OpResult:
    ran: bool  # run_pipeline returned
    wall_s: float = 0.0  # as measured
    cpu_s: float = 0.0  # as measured
    peak_rss_mb: float = 0.0
    scale: float = 1.0  # REFERENCE_S over the reference work's time around the op
    attempted: int = 0  # records requested
    kept: int = 0  # records written with status ok
    llm_calls: int = 0
    mismatched: list[str] = field(default_factory=list)
    layers: dict | None = None
    missing: list[str] = field(default_factory=list)  # patch points gone (traced ops)
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.ran and not self.mismatched

    @property
    def run_s(self) -> float:
        """Wall time with the op's own CPU seconds taken at the reference speed."""
        return max(self.wall_s - self.cpu_s, 0.0) + self.cpu_ref_s

    @property
    def cpu_ref_s(self) -> float:
        return self.cpu_s * self.scale


class Bench:
    def __init__(self, workload: Workload, seed: int, root: Path, started: float):
        self.w = workload
        self.seed = seed
        self.src = root / "src"
        self.env = child_env(self.src)
        self.base = root / ".bench_run" / f"{workload.name}-{seed}-{os.getpid()}"
        self.started = started
        self.stub: Stub | None = None
        self.reference: dict[str, str] | None = None
        if seed == DEFAULT_SEED and PINS.exists():
            self.reference = json.loads(PINS.read_text(encoding="utf-8")).get(workload.name)
        self.setup_times: list[float] = []
        self.setup_mismatches = 0
        self.expected_records = 0
        self.workdir: Path | None = None
        self.config: Path | None = None

    # --- processes -------------------------------------------------------------

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def run_op(self, config: Path, workdir: Path, trace: bool) -> OpResult:
        result_path = workdir.parent / f"{workdir.name}.result.json"
        cmd = [sys.executable, str(BENCH / "op.py"), str(config), str(result_path)]
        if trace:
            cmd.append("--trace")
        if self.stub:
            self.stub.reset()
        try:
            subprocess.run(cmd, env=self.env, timeout=max(1.0, min(OP_TIMEOUT_S, self.remaining())),
                           stdout=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return OpResult(False, error="op timed out", attempted=self.expected_records)
        if not result_path.exists():
            return OpResult(False, error="op wrote no result", attempted=self.expected_records)
        raw = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
        if not raw["ok"]:
            return OpResult(False, error=raw.get("error", ""), attempted=self.expected_records)
        res = OpResult(True, raw["wall_s"], raw["cpu_s"], raw["peak_rss_mb"],
                       scale=REFERENCE_S / raw["ref_s"],
                       layers=raw.get("layers"), missing=raw.get("missing", []))
        manifest = json.loads((workdir / "synth_manifest.json").read_text(encoding="utf-8"))
        res.attempted = manifest["records"]
        self.expected_records = self.expected_records or res.attempted
        res.kept = manifest["records"] - manifest["rejected"]
        res.llm_calls = self.stub.calls() if self.stub else mock_calls(workdir / "synth.jsonl")
        found = digests(workdir)
        if self.reference is None:
            self.reference = found
        res.mismatched = mismatches(found, self.reference)
        if res.mismatched:
            res.error = "artifacts differ from the reference: " + ", ".join(res.mismatched)
        return res

    # --- set-up ----------------------------------------------------------------

    def setup_once(self, index: int) -> None:
        w = self.w
        d = self.base / f"setup{index}"
        d.mkdir(parents=True)
        if self.stub:
            self.stub.stop()
            self.stub = None
        t0 = time.perf_counter()
        corpus = corpus_gen.generate_corpus(
            self.seed, docs=w.docs, sentences=SENTENCES, vocab=w.vocab, zipf_s=ZIPF_S
        )
        corpus_gen.write_corpus(d / "corpus.jsonl", corpus)
        # A fresh interpreter importing the package: work moved to import time shows here.
        subprocess.run([sys.executable, "-c", "import graphsynth.cli"], env=self.env, check=True,
                       timeout=60)
        if w.remote:
            self.stub = Stub(self.env)
        config = d / "config.yaml"
        write_config(config, d / "corpus.jsonl", d / "out", self.stub.endpoint if self.stub else None)
        primed = self.run_op(config, d / "out", trace=False) if w.rebuild else None
        if self.stub:
            self.stub.fix_transients()
        setup_s = time.perf_counter() - t0
        if primed is not None and primed.ran:
            setup_s += primed.run_s - primed.wall_s  # the priming op at the reference speed
        self.setup_times.append(setup_s)
        if primed is not None:
            if primed.mismatched:
                print(f"set-up {index}: {primed.error}", file=sys.stderr)
                self.setup_mismatches += len(primed.mismatched)
            elif not primed.ran:
                raise RuntimeError(f"priming run failed: {primed.error}")
        self.workdir, self.config = d / "out", config

    def setup(self) -> None:
        for i in range(SETUP_REPEATS):
            self.setup_once(i)

    # --- ops -------------------------------------------------------------------

    def prepare_op(self, index: int) -> tuple[Path, Path]:
        if self.w.rebuild:
            for name in self.w.rebuild:
                (self.workdir / name).unlink(missing_ok=True)
            return self.config, self.workdir
        d = self.config.parent
        workdir = d / f"op{index}"
        shutil.rmtree(workdir, ignore_errors=True)
        config = d / f"op{index}.yaml"
        write_config(config, d / "corpus.jsonl", workdir, None)
        return config, workdir

    def finish_op(self, config: Path, workdir: Path) -> None:
        if not self.w.rebuild:
            shutil.rmtree(workdir, ignore_errors=True)
            config.unlink()

    def measure(self, seconds: float, trace: bool) -> list[tuple[bool, OpResult]]:
        """Ops for ``seconds``; with ``trace`` every other op is traced.

        Once ``min_ops`` ops are done, no op starts that would, at the median
        pace so far, end after ``seconds``: a run lasts ``seconds`` whatever
        the op's size, rather than up to one op longer.
        """
        results: list[tuple[bool, OpResult]] = []
        paces: list[float] = []
        t0 = time.perf_counter()
        min_ops = max(MIN_OPS, 4 if trace else 0)
        while True:
            traced = trace and len(results) % 2 == 1
            started = time.perf_counter()
            config, workdir = self.prepare_op(len(results))
            res = self.run_op(config, workdir, traced)
            self.finish_op(config, workdir)
            if not res.ok:
                print(f"op {len(results)} failed: {res.error}", file=sys.stderr)
            results.append((traced, res))
            now = time.perf_counter()
            paces.append(now - started)
            ending = now - t0 + statistics.median(paces)
            if (ending > seconds and len(results) >= min_ops) or self.remaining() < 0:
                return results

    def close(self) -> None:
        if self.stub:
            self.stub.stop()
            self.stub = None
        shutil.rmtree(self.base, ignore_errors=True)
        try:
            self.base.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def mock_calls(synth: Path) -> int:
    """Chat calls implied by the records: one per attempt, retries included."""
    calls = 0
    with open(synth, encoding="utf-8") as f:
        for line in f:
            rec = json.loads(line)
            calls += rec["retries"] + (1 if rec["status"] == "ok" else 0)
    return calls


def end_to_end(bench: Bench, ops: list[OpResult]) -> tuple[dict, dict]:
    good = [r for r in ops if r.ran]
    attempted = sum(r.attempted for r in ops)
    kept = sum(r.kept for r in good)
    values = {
        "setup_s": statistics.median(bench.setup_times),
        "run_s": statistics.median(r.run_s for r in good),
        "records_per_s": statistics.median(r.kept / r.run_s for r in good),
        "cpu_s": statistics.median(r.cpu_ref_s for r in good),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in good),
        "kept_share": kept / attempted if attempted else 0.0,
        "llm_calls_per_record": sum(r.llm_calls for r in good) / kept if kept else 0.0,
    }
    detail = {
        "ops": len(ops),
        "ops_completed": len(good),
        "setup_s_samples": " ".join(f"{x:.3f}" for x in bench.setup_times),
        "run_s_samples": " ".join(f"{r.run_s:.3f}" for r in good),
        "wall_s_samples": " ".join(f"{r.wall_s:.3f}" for r in good),
        "wall_s": statistics.median(r.wall_s for r in good),
        "records_per_wall_s": statistics.median(r.kept / r.wall_s for r in good),
        "cpu_wall_s": statistics.median(r.cpu_s for r in good),
        "failed_share": 1.0 - values["kept_share"],
        "records_attempted_per_op": statistics.median(r.attempted for r in ops),
        "llm_calls_per_op": statistics.median(r.llm_calls for r in good),
    }
    return values, detail


def per_layer(names: list[str], traced: list[OpResult], plain: list[OpResult]) -> dict:
    values: dict[str, float | None] = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = (statistics.median(r.run_s for r in traced)
                            - statistics.median(r.run_s for r in plain))
            continue
        samples = [r.layers.get(name) for r in traced]
        values[name] = None if any(v is None for v in samples) else statistics.median(samples)
    return values


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", action="store_true",
                    help="store this run's artifact digests as the default-seed pins")
    args = ap.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "graphsynth" / "__init__.py").is_file() or not spec_path.is_file():
        print("run from the root of a graphsynth checkout (src/graphsynth and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    if args.write_pins and args.seed != DEFAULT_SEED:
        print("--write-pins needs the default seed", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    bench = Bench(WORKLOADS[args.workload], args.seed, root, started)
    if args.write_pins:
        bench.reference = None
    try:
        bench.setup()
        results = bench.measure(args.seconds, bool(args.trace))
    finally:
        bench.close()
    ops = [r for _, r in results]
    traced_ops = [r for traced, r in results if traced and r.ran]
    plain_ops = [r for traced, r in results if not traced and r.ran]
    if not plain_ops or (args.trace and not traced_ops):
        print("too few ops completed", file=sys.stderr)
        return 1
    if args.write_pins:
        pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
        pins[args.workload] = bench.reference
        PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    values, detail = end_to_end(bench, [r for traced, r in results if not traced])
    detail["artifact_mismatches"] = bench.setup_mismatches + sum(len(r.mismatched) for r in ops)
    if args.trace:
        detail["ops_traced"] = len(traced_ops)
        detail["missing_patch_points"] = " ".join(sorted({m for r in traced_ops for m in r.missing}))
        values = per_layer([m["name"] for m in metric_specs], traced_ops, plain_ops)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    failed = sum(1 for r in ops if not r.ok)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{WORKLOADS[args.workload].shape}")
    for name, value in detail.items():
        print(f"  {name:<28} {value}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and detail["artifact_mismatches"] == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
