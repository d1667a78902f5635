"""Fixed-corpus benchmark of the pitkit CLI.

    python3 pitbench/run.py --workload depth4-pit --seed 1 --seconds 15 --trace 0

Run from the root of a pitkit checkout.  The corpus for the workload is
generated from --seed and written under .pitbench/; then one caller runs
every instance through pitkit.cli.main(argv) in this process (a closed loop,
stdout captured, interpreter start-up not timed), round after round over the
whole corpus until --seconds have passed.  A round is never cut short.
Between instances, a machine-speed probe (speed.py) is timed, and the
set-up is repeated at even steps of the run.  Every output of the first
round is checked afterwards, outside the timed region, against the
reference (reference.py), every pit report goes through `pitkit verify`, and
later rounds must reproduce the first byte for byte.

--trace 0 prints the end-to-end metrics, with times in reference seconds
(speed.py); --trace 1 runs one round with every public pitkit function
wrapped (layers.py) and prints the per-layer metrics, in measured seconds.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import speed  # noqa: E402

WORK = ".pitbench"
# set-ups per run: one before the timed loop, the rest spread over it, so
# that setup_s samples the machine over the whole run
SETUP_REPEATS = 9

# times `from pitkit import cli` in a fresh interpreter, start-up excluded
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "from pitkit import cli; print(time.perf_counter() - t0)"
)


def import_pitkit():
    """Import pitkit from the checkout's src/ and nowhere else."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "pitkit", "cli.py")):
        sys.exit("pitbench: no pitkit sources under %s; run from a checkout root" % src)
    sys.path.insert(0, src)
    from pitkit import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit("pitbench: imported pitkit from %s, not from %s" % (cli.__file__, src))
    return cli


def import_seconds(src):
    """Seconds a fresh interpreter takes to import pitkit.cli from src."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def set_up(workload, seed, scale, directory):
    """One set-up: import pitkit in a fresh interpreter, then generate the
    corpus and write it to directory.  Returns (instances, seconds)."""
    shutil.rmtree(directory, ignore_errors=True)
    imp = import_seconds(os.path.abspath("src"))
    t0 = time.perf_counter()
    insts = corpus.WORKLOADS[workload](seed, scale)
    corpus.write(insts, directory)
    return insts, imp + time.perf_counter() - t0


def completed(inst, outs):
    """Did every call answer with a report?  pit answers 0 (zero) or 1
    (nonzero); verify answers 0, or 4 with a report that says it rejected
    (the checker flags that); every other command answers 0.  Anything
    else, such as 2 (inconclusive) or the CLI's error path (3 or 4, nothing
    on stdout), is a failed operation."""
    ok = {"pit": (0, 1), "verify": (0, 4)}
    return all(rc in ok.get(argv[0], (0,)) and out
               for argv, (rc, out) in zip(inst["calls"], outs))


def run_instance(cli, inst):
    """Run one instance's calls; returns (seconds, [(exit code, stdout)])."""
    spent = 0.0
    outs = []
    for argv in inst["calls"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            rc = cli.main(list(argv))
            spent += time.perf_counter() - t0
        outs.append((rc, buf.getvalue()))
        report = inst["meta"].get("report")
        if report and argv[0] != "verify":
            with open(report, "w") as fh:
                fh.write(buf.getvalue())
    return spent, outs


def verify_report(cli, inst, report):
    """`pitkit verify` on a pit report; returns (exit code, stdout).  On a
    zero report verify repeats the whole enumeration."""
    path = inst["id"] + ".out.json"
    with open(path, "w") as fh:
        fh.write(report)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["verify", path, "--against", inst["calls"][0][1]])
    return rc, buf.getvalue()


def run(workload, seed, seconds, trace, scale=1.0):
    """Run one workload; returns (the result object that run.py prints,
    the detail that goes to the results file)."""
    cli = import_pitkit()
    directory = os.path.abspath(os.path.join(WORK, "run-%s-%d-%d" % (workload, seed, os.getpid())))
    spare = directory + "-setup"
    probe = speed.Probe()
    insts, setup_s = set_up(workload, seed, scale, directory)
    setups = [setup_s]
    tracer = None
    if trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    home = os.getcwd()
    os.chdir(directory)
    try:
        times = {inst["id"]: [] for inst in insts}
        first = {}
        attempted = failed = 0
        mismatched = []
        round_s = []
        start = time.perf_counter()
        while True:
            t_round = time.perf_counter()
            for inst in insts:
                probe.maybe()
                if (len(setups) < SETUP_REPEATS
                        and time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS):
                    with contextlib.chdir(home):
                        setups.append(set_up(workload, seed, scale, spare)[1])
                attempted += 1
                t_start = time.perf_counter()
                try:
                    dt, outs = run_instance(cli, inst)
                except Exception:  # a crash is a failed operation; keep going
                    failed += 1
                    print("pitbench: %s raised:" % inst["id"], file=sys.stderr)
                    traceback.print_exc()
                    continue
                if inst["id"] not in first:
                    first[inst["id"]] = outs
                elif outs != first[inst["id"]]:
                    mismatched.append(inst["id"])
                if not completed(inst, outs):
                    # failed: its time stays out of the metrics
                    failed += 1
                    if len(round_s) == 0:
                        print("pitbench: %s failed with exit codes %s" % (
                            inst["id"], [rc for rc, _ in outs]), file=sys.stderr)
                    continue
                times[inst["id"]].append((t_start, dt))
            round_s.append(time.perf_counter() - t_round)
            if trace or time.perf_counter() - start >= seconds:
                break
        with contextlib.chdir(home):
            while len(setups) < SETUP_REPEATS:
                setups.append(set_up(workload, seed, scale, spare)[1])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            metrics = tracer.metrics()

        # imported only now, so that sympy stays out of peak_rss_mb
        import check
        import reference

        problems = {}
        t_check = time.perf_counter()
        for inst in insts:
            outs = first.get(inst["id"])
            if outs is None or not completed(inst, outs):
                continue  # counted in `failed`
            if inst["calls"][0][0] == "pit":
                outs = outs + [verify_report(cli, inst, outs[0][1])]
            probs = check.check(inst, outs, reference.expected(inst))
            if probs:
                problems[inst["id"]] = probs
        check_s = time.perf_counter() - t_check
        for iid in sorted(set(mismatched)):
            problems.setdefault(iid, []).append("output differs between rounds")
    finally:
        os.chdir(home)
    shutil.rmtree(directory, ignore_errors=True)
    shutil.rmtree(spare, ignore_errors=True)
    for iid, probs in sorted(problems.items()):
        print("pitbench: %s: %s" % (iid, "; ".join(probs)), file=sys.stderr)

    if not trace:
        # every time is in reference seconds (speed.py); each instance's time
        # is its median across rounds, which keeps a round that a noisy
        # neighbour slowed from moving the corpus figures
        per = [statistics.median(dt * probe.scale(t) for t, dt in v)
               for v in times.values() if v]

        metrics = {
            "instances_per_s": (len(per) / sum(per), "1/s"),
            "verdict_p50_s": (statistics.median(per), "s"),
            "verdict_p90_s": (statistics.quantiles(per, n=10, method="inclusive")[8], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    detail = {
        "workload": workload,
        "seed": seed,
        "instances": len(insts),
        "rounds": len(round_s),
        "round_s": round_s,
        "check_s": check_s,
        "setups": setups,
        "probes": list(zip(probe.starts, probe.samples)),
        "times": times,
        "problems": problems,
    }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description="Fixed-corpus benchmark of the pitkit CLI.")
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, detail = run(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(WORK, "results", name), "w") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
