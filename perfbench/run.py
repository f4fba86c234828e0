"""Benchmark of the index build, warm serving and incremental refresh.

Usage, from the repository root::

    python3 perfbench/run.py --workload build|serve|refresh --seed N \\
        --seconds S --trace 0|1

Workloads (all input comes from ``--seed``; see ``perfbench/inputs.py``):

- ``build``: cold ``build_index`` of a seeded pages corpus into a fresh
  directory, repeated for the window; the write path. ``BENCHMARK.json``
  leaves it out: on a shared 4-CPU host its figures spread more from run
  to run than the bounds allow at the run length the time limit leaves
  for three workloads. ``refresh`` still reaches every build layer.
- ``serve``: a closed loop of 2 clients, each a user bound to its own
  ``SearchSession`` actor, replaying every keystroke prefix of its seeded
  queries; the warm read path.
- ``refresh``: ``update_index`` generations (half replacements, half new
  pages), each followed by cold one-shot searches of the multi-segment
  index; the update path beside cold reads.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` timing wrappers are installed around the engine's
layers and it carries the per-layer metrics instead. The line before it
records the host context (CPUs, Ray CPU budget, host probe), sample
counts and any failed checks. The exit code is 0 only when every check
of the engine's outputs passed.

Everything the run writes stays under ``.bench_build/perfbench`` in the
repository. The curation pipelines ``bench.py`` times are out of scope.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Ray's unix socket paths live under its temp dir and must fit in 107
# bytes; the session directory and socket name take up to 62 of them.
_RAY_SOCKET_TAIL = 62
_OBJECT_STORE_BYTES = 512 * 1024 * 1024


def load_spec(root: str) -> dict:
    """Metric names and units, from ``BENCHMARK.json``."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def _ray_init(build_dir: str, cpus: int, hook: str | None) -> None:
    import ray

    kw = {}
    temp = os.path.join(build_dir, "ray")
    if len(temp) + _RAY_SOCKET_TAIL <= 107:
        os.makedirs(temp, exist_ok=True)
        kw["_temp_dir"] = temp
    if hook:
        kw["runtime_env"] = {"worker_process_setup_hook": hook}
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=_OBJECT_STORE_BYTES, **kw)
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def _overhead(results_dir: str, workload: str, seed: int, code: str,
              out, trace: bool) -> None:
    """Tracing overhead, as ``trace.overhead_pct``: the traced run's query
    p50 against the untraced run of the same workload, seed, engine and
    benchmark code when one was made here, else the calibrated cost of the
    spans the traced queries recorded as a share of their time."""
    path = os.path.join(results_dir, f"{workload}-{seed}-{code}.json")
    if not trace:
        os.makedirs(results_dir, exist_ok=True)
        with open(path, "w") as f:
            json.dump(out.e2e, f)
        return
    if os.path.exists(path):
        with open(path) as f:
            base = json.load(f)["query_p50_ms"]
        pct = 100.0 * (out.e2e["query_p50_ms"] / base - 1.0)
        how = "traced vs untraced query_p50_ms, same seed"
    else:
        pct = out.context.pop("span_cost_pct")
        how = "calibrated span cost / traced query time"
    out.context.pop("span_cost_pct", None)
    out.layers["trace.overhead_pct"] = pct
    out.context["tracing_overhead"] = {"pct": pct, "how": how}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["build", "serve", "refresh"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not os.path.isdir(os.path.join(ROOT, "markdown_query_ray")):
        print(f"perfbench: no markdown_query_ray package under {ROOT}",
              file=sys.stderr)
        return 2
    spec = load_spec(ROOT)
    # Ray workers put the driver's working directory on their path: run
    # from the root so they import this checkout's engine and perfbench
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    # the worker setup hook imports perfbench before the job's paths apply
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.environ["MDQ_RAY_CACHE_DIR"] = os.path.join(build_dir, "native")

    from perfbench import host, workloads

    cpus = len(os.sched_getaffinity(0))
    work = os.path.join(build_dir, "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    trace = bool(args.trace)

    def probe() -> dict:
        p = host.host_probe(ROOT)
        return {"nproc": cpus, "ray_cpus": cpus,
                "host.cpu_rate": p["cpu_rate"],
                "host.mem_stream_rate": p["mem_stream_rate"]}

    ctx = workloads.Ctx(root=ROOT, work=work,
                        cache=os.path.join(build_dir, "inputs"),
                        seed=args.seed, seconds=args.seconds, trace=trace,
                        cpus=cpus, probe=probe)
    hook = "perfbench.tracing.install_worker" \
        if trace and args.workload == "serve" else None
    t0 = time.perf_counter()
    import ray

    try:
        _ray_init(build_dir, cpus, hook)
        out = workloads.WORKLOADS[args.workload](ctx)
    finally:
        pids = host.descendants()
        if ray.is_initialized():
            ray.shutdown()
        host.wait_ended(pids)
        shutil.rmtree(work, ignore_errors=True)

    code = workloads.code_version(ROOT)
    _overhead(os.path.join(build_dir, "results"), args.workload, args.seed,
              code, out, trace)
    if trace:
        for name in ("host.cpu_rate", "host.mem_stream_rate"):
            out.layers[name] = out.context["host"][name]
        out.context["traced_e2e"] = out.e2e
    kind, values = ("per_layer", out.layers) if trace \
        else ("end_to_end", out.e2e)
    if set(values) != set(spec[kind]):
        raise RuntimeError(f"{kind} metrics do not match BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(spec[kind]))}")
    metrics = {k: {"value": values[k], "unit": u}
               for k, u in spec[kind].items()}
    out.context.update({
        "workload": args.workload, "seed": args.seed,
        "engine": code, "wall_s": time.perf_counter() - t0,
        "failed_ratio": out.failed / max(1, out.attempted),
        "failures": out.failures})
    print(json.dumps({"context": out.context}))
    print(json.dumps({"correct": out.failed == 0,
                      "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
