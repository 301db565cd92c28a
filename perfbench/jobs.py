"""The benchmark's workloads: job lists, pinned answers and the answer check.

Each job is one `dowlingnest` command line.  Its answer is pinned in
`pins.json`: the count for a `count` job, the sha256 of the whole stdout for
a `lattice` or `series` job.  A `count` job's stdout also carries the route's
own elapsed time, so only its final `count N` line is compared.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

INSTANCE_FILES = {
    "z2": "z2.json",
    "z3": "z3.json",
    "z4": "z4.json",
    "z4_plane": "z4_plane.json",
    "klein4": "klein4.json",
    "s3": "s3.json",
    "chains8": "z2x4_chains.json",
}

# Route metric each kind of job is summed into.
ROUTES = {
    ("count", "lattice"): "nested_route_s",
    ("count", "forest"): "forest_route_s",
    ("count", "egf"): "series_route_s",
    ("lattice", None): "lattice_s",
    ("series", None): "series_emit_s",
}


@dataclass(frozen=True)
class Job:
    command: str
    instance: str
    n: int
    method: str | None = None

    @property
    def name(self):
        method = f" --method {self.method}" if self.method else ""
        return f"{self.command}{method} {self.instance} n={self.n}"

    @property
    def route(self):
        return ROUTES[(self.command, self.method)]

    def argv(self, instances_dir):
        argv = [
            self.command,
            "--input",
            str(Path(instances_dir) / INSTANCE_FILES[self.instance]),
            "--n",
            str(self.n),
        ]
        if self.method:
            argv += ["--method", self.method]
        return argv


def _jobs(command, method, pairs):
    return [Job(command, name, n, method) for name, n in pairs]


@dataclass(frozen=True)
class Workload:
    name: str
    route: str  # the route metric reported as `route_s` on this workload
    sensitivity: float  # to outside load, relative to the kernel of `speed.py`
    jobs: tuple

    def instances(self):
        """Distinct (instance, n) pairs, in first-use order."""
        return tuple(dict.fromkeys((j.instance, j.n) for j in self.jobs))


_SUBSPACE_HOSTS = [
    ("z2", 4), ("z3", 3), ("z4", 3), ("klein4", 3), ("z4_plane", 3), ("s3", 2),
]

WORKLOADS = {
    w.name: w
    for w in (
        # About 95% of the time is in `arrangement` and `linalg`: nested
        # backtracking, meets, block reconstruction and lattice closure.  The
        # forest and series jobs are cross-checks of a few milliseconds.
        Workload(
            "subspace",
            "nested_route_s",
            0.88,
            tuple(
                _jobs("count", "lattice", _SUBSPACE_HOSTS)
                + _jobs("count", "forest", _SUBSPACE_HOSTS)
                + _jobs("count", "egf", _SUBSPACE_HOSTS[:5])
                + _jobs(
                    "lattice",
                    None,
                    [("z2", 4), ("z3", 3), ("klein4", 2), ("z4_plane", 2), ("s3", 2)],
                )
            ),
        ),
        # About 99% of the time is in `forests`; no nested enumeration runs and
        # `linalg` is bypassed.  Highest peak memory of the three.
        Workload(
            "forest-deep",
            "forest_route_s",
            0.51,
            tuple(
                _jobs("count", "forest", [("z2", 5), ("s3", 3), ("klein4", 3), ("z3", 4)])
                + _jobs("count", "egf", [("z2", 5), ("klein4", 3), ("z3", 4)])
            ),
        ),
        # Nearly all of the time is in `series`, used two ways: one coefficient
        # extracted for a count, and the full multi-variable series printed.
        Workload(
            "series-deep",
            "series_route_s",
            0.64,
            tuple(
                _jobs("count", "egf", [("chains8", 8), ("klein4", 10), ("z2", 12)])
                + _jobs("series", None, [("chains8", 5)])
            ),
        ),
    )
}


def check(job, pins, code, stdout):
    """None if the job's output matches its pinned answer, else the reason."""
    if code != 0:
        return f"exit code {code}"
    if job.command == "count":
        pin = pins["counts"].get(f"{job.instance} n={job.n}", {}).get("count")
        lines = stdout.splitlines()
        got = lines[-1] if lines else ""
        if got != f"count {pin}":
            return f"printed {got!r}, pinned count {pin}"
        return None
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    pin = pins["digests"].get(job.name)
    if digest != pin:
        return f"stdout sha256 {digest}, pinned {pin}"
    return None
