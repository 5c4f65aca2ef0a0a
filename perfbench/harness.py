"""Child processes, their resource use, and per-operation bookkeeping.

Nothing here imports f2orbits, so run.py can refuse to start cleanly
when the package is missing.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans as spanlib

BENCH = Path(__file__).resolve().parent
OP_TIMEOUT_S = 170.0
REF_PROBE_S = 1.5e-3  # one probe loop on the reference CPU; sets the "_ref" time scale
NICE = 19  # children's niceness: the probe thread, at 0, preempts them


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _probe_loop() -> None:
    x = 0
    for i in range(20000):
        x = (x * 31 + i) & 0xFFFF


class SpeedProbe(threading.Thread):
    """Times a fixed pure-Python loop on a child's CPUs while the child runs.

    A shared host's CPUs change speed within seconds; dividing a child's
    times by the probe's slowdown measured over the same interval gives
    times at the reference speed.  The probe takes BURST samples on each
    CPU before the child starts and after it ends, and one every 50 ms
    while it runs, on its CPUs in turn.  The child runs at the lowest
    priority, so a waking probe takes its CPU at once and reads the CPU's
    speed, not how busy the child keeps it.
    """

    BURST = 3

    def __init__(self, cpus: list[int]) -> None:
        super().__init__(daemon=True)
        self.cpus = cpus
        self.samples: list[float] = []
        self.ready = threading.Event()
        self.done = threading.Event()

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})
        t0 = time.perf_counter()
        _probe_loop()
        self.samples.append(time.perf_counter() - t0)

    def _burst(self) -> None:
        for cpu in self.cpus:
            for _ in range(self.BURST):
                self._sample(cpu)

    def run(self) -> None:
        self._burst()
        self.ready.set()
        for i in itertools.count():
            if self.done.wait(0.05):
                break
            self._sample(self.cpus[i % len(self.cpus)])
        self._burst()


@dataclass
class Child:
    rc: int
    wall: float
    cpu: float
    rss_kib: int
    log: str
    samples: list[float]

    @property
    def slowdown(self) -> float:
        """Median probe time over the reference one."""
        return statistics.median(self.samples) / REF_PROBE_S


@dataclass
class Op:
    """One timed operation: a child process and what its outputs showed."""

    wall: float
    cpu: float
    rss_kib: int
    slowdown: float
    states: int
    attempted: int
    failures: dict[int, list[str]] = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    result: dict = field(default_factory=dict)
    json_bytes: int = 0

    def fail(self, unit: int, message: str) -> None:
        """Record why unit (a census, a graph) of this operation failed."""
        self.failures.setdefault(unit, []).append(message)


class Run:
    """Scratch paths, the child environment and the parent's spans for one run."""

    def __init__(self, root: Path, work: Path, args) -> None:
        self.root = root
        self.work = work
        self.args = args
        self.workers = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(work))
        self.tracer = spanlib.tracer(args.trace)
        with open(BENCH / "reference.json") as fh:
            self.references = json.load(fh)
        self._serial = 0

    def path(self, stem: str) -> Path:
        self._serial += 1
        return self.work / f"{self._serial:03d}-{stem}"

    def child(self, argv: list[str], pin: bool = False) -> Child:
        """Run argv to completion, at the lowest priority, with a speed probe beside it.

        CPU time and peak RSS come from wait4, so they cover the child and
        every pool worker it reaped.  pin keeps a single-threaded child and
        the probe on one CPU.
        """
        log = self.path("child.log")
        cpus = sorted(os.sched_getaffinity(0))[:1 if pin else None]

        def lowest_priority() -> None:
            os.nice(NICE)
            os.sched_setaffinity(0, cpus)

        probe = SpeedProbe(cpus)
        probe.start()
        probe.ready.wait()
        with open(log, "w") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT, preexec_fn=lowest_priority)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                probe.done.set()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            probe.join()
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss, log.read_text(), probe.samples)

    def worker(self, mode: str, *extra: str, trace: bool = False,
               pin: bool = False) -> tuple[Child, dict]:
        """Run perfbench/work.py: the child plus the result it wrote."""
        result = self.path(f"{mode}.json")
        argv = [sys.executable, str(BENCH / "work.py"), mode, "--result", str(result), *extra]
        if trace:
            argv.append("--trace")
        child = self.child(argv, pin)
        data = json.loads(result.read_text()) if child.rc == 0 and result.exists() else {}
        return child, data
