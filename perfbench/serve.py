"""The ``serve_mixed`` workload: a fresh server per repetition, driven by a
closed loop of keep-alive connections.

The client is the benchmark's own minimal HTTP/1.1 client, so a change to
the repository's client code cannot move the measurement.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import workloads

HERE = Path(__file__).resolve().parent
BANNER = re.compile(rb"serving on http://([0-9.]+):(\d+)")
#: One worker and the default 2 ms batching window.
SERVER_OPTIONS = ["--host", "127.0.0.1", "--port", "0", "--workers", "1",
                  "--window-ms", "2"]
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
REQUEST_TIMEOUT = 30.0
#: Completed requests per stage of a stream (see ``_drive``).
STAGE_REQUESTS = 50


class Server:
    """One server process: started, measured, and always stopped."""

    def __init__(self, env: Dict[str, str], cwd: Path, trace: bool) -> None:
        if trace:
            command = [sys.executable, str(HERE / "serve_launcher.py")]
        else:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        self._command = command + SERVER_OPTIONS
        self._env = env
        self._cwd = cwd
        self.process: Optional[subprocess.Popen[bytes]] = None
        self.setup_s = 0.0
        self.address: Tuple[str, int] = ("", 0)
        self.output = b""

    def __enter__(self) -> "Server":
        started = time.monotonic()
        self.process = subprocess.Popen(
            self._command, cwd=self._cwd, env=self._env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        try:
            line = self._read_banner()
        except BaseException:
            self._kill()
            raise
        self.setup_s = time.monotonic() - started
        match = BANNER.search(line)
        if match is None:
            self._kill()
            raise RuntimeError(f"unexpected server banner {line!r}")
        self.address = (match.group(1).decode(), int(match.group(2)))
        return self

    def _read_banner(self) -> bytes:
        assert self.process is not None and self.process.stdout is not None
        ready, _, _ = select.select([self.process.stdout], [], [],
                                    START_TIMEOUT)
        if not ready:
            raise RuntimeError("server did not print its banner in time")
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("server exited before printing its banner: "
                               + self.process.stderr.read().decode()[-2000:])
        return line

    def peak_rss_mb(self) -> float:
        assert self.process is not None
        return workloads.vm_hwm_mb(str(self.process.pid))

    def __exit__(self, *exc_info: Any) -> None:
        assert self.process is not None
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.output, _ = self.process.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self._kill()
            raise RuntimeError("server did not drain after SIGTERM")

    def _kill(self) -> None:
        assert self.process is not None
        self.process.kill()
        self.process.communicate()

    def trace_report(self) -> Dict[str, Any]:
        """The launcher's closing JSON line (traced servers only)."""
        lines = self.output.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


async def _exchange(reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter, method: str, path: str,
                    body: bytes = b"") -> Tuple[int, bytes]:
    writer.write(f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                 f"Content-Type: application/json\r\n"
                 f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1")
                 + body)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    return status, await reader.readexactly(length)


async def _get_stats(host: str, port: int) -> Dict[str, Any]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        _, body = await _exchange(reader, writer, "GET", "/stats")
    finally:
        writer.close()
        await writer.wait_closed()
    return json.loads(body)


async def _drive(address: Tuple[str, int], bodies: List[bytes],
                 sample: List[int]) -> Dict[str, Any]:
    host, port = address
    before = await _get_stats(host, port)
    count = len(bodies)
    latencies: List[Optional[float]] = [None] * count
    statuses: List[int] = [0] * count
    kept: Dict[int, bytes] = {}
    completed: List[float] = []
    wanted = set(sample)
    indices = iter(range(count))

    async def connection() -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for index in indices:
                started = time.perf_counter()
                status, body = await asyncio.wait_for(
                    _exchange(reader, writer, "POST", "/solve", bodies[index]),
                    REQUEST_TIMEOUT)
                completed.append(time.perf_counter())
                latencies[index] = completed[-1] - started
                statuses[index] = status
                if index in wanted:
                    kept[index] = body
        finally:
            writer.close()
            await writer.wait_closed()

    started = time.perf_counter()
    outcomes = await asyncio.gather(
        *[connection() for _ in range(workloads.SERVE_CONNECTIONS)],
        return_exceptions=True)
    ended = time.perf_counter()
    after = await _get_stats(host, port)
    # Stages: the stream cut after every STAGE_REQUESTS-th completed request;
    # they sum to the elapsed time.
    points = [started, *completed[STAGE_REQUESTS - 1:-1:STAGE_REQUESTS], ended]
    errors = [repr(outcome) for outcome in outcomes
              if isinstance(outcome, BaseException)]
    return {"elapsed": ended - started,
            "stages": [end - begin for begin, end in zip(points, points[1:])],
            "latencies": latencies, "statuses": statuses,
            "bodies": kept, "errors": errors,
            "scheduler": {key: after["scheduler"][key]
                          - before["scheduler"].get(key, 0)
                          for key in ("requests", "coalesced", "batches",
                                      "batched_requests")}}


def expected_series(payloads: List[Dict[str, Any]],
                    sample: List[int]) -> Dict[int, Dict[str, Any]]:
    """Direct ``solve_rate_equilibria`` results for the sampled requests."""
    from repro.simulation.batch import solve_rate_equilibria
    from repro.workloads.populations import paper_population

    populations: Dict[Tuple[int, int], Any] = {}
    expected = {}
    for index in sample:
        spec = payloads[index]["population"]
        key = (spec["count"], spec["seed"])
        if key not in populations:
            populations[key] = paper_population(count=key[0], seed=key[1])
        solved = solve_rate_equilibria(populations[key],
                                       payloads[index]["nus"])
        expected[index] = {
            "aggregate_rates": solved.aggregate_rates.tolist(),
            "utilizations": solved.utilizations.tolist(),
            "consumer_surpluses": solved.consumer_surpluses().tolist(),
        }
    return expected


def run_stream(server: Server, bodies: List[bytes], sample: List[int],
               expected: Dict[int, Dict[str, Any]]) -> Dict[str, Any]:
    """Send the whole stream once; returns timings and failed requests."""
    driven = asyncio.run(_drive(server.address, bodies, sample))
    failed = set()
    for index, (status, latency) in enumerate(zip(driven["statuses"],
                                                  driven["latencies"])):
        if status != 200 or latency is None:
            failed.add(index)
    mismatches = []
    for index in sample:
        body = driven["bodies"].get(index)
        served = json.loads(body)["series"] if body is not None else None
        if served != expected[index]:
            failed.add(index)
            mismatches.append(index)
    driven["failed"] = len(failed)
    driven["mismatches"] = mismatches
    driven["latencies"] = [value for value in driven["latencies"]
                           if value is not None]
    return driven


def layer_metrics(report: Dict[str, Any],
                  latencies: List[float]) -> Dict[str, float]:
    """Per-request service-layer metrics of one traced stream.

    ``scheduler.window_wait_ms`` is each request's scheduler span minus the
    engine span of the batch it waited on: the last engine solve that ended
    before the request's span did (the solver pool has one thread, so
    engine spans never overlap).  ``server.io_ms`` is what is left of the
    client-observed latency after parse, scheduler and serialize time.
    """
    trace = report["trace"]
    requests = max(1, len(latencies))
    engine = sorted(trace["intervals"].get("scheduler.engine", []),
                    key=lambda span: span[1])
    engine_ends = [end for _, end in engine]
    solves = trace["intervals"].get("scheduler.solve", [])
    waits = []
    for start, end in solves:
        position = bisect.bisect_right(engine_ends, end) - 1
        duration = 0.0
        if position >= 0:
            duration = engine[position][1] - engine[position][0]
        waits.append(max(0.0, (end - start) - duration))
    solve_total = sum(end - start for start, end in solves)
    total = trace["total_s"]
    parse_total = total.get("protocol.parse", 0.0)
    serialize_total = total.get("protocol.serialize", 0.0)
    mean_latency = sum(latencies) / requests
    server_side = (parse_total + solve_total + serialize_total) / requests
    responses = max(1.0, trace["counts"].get("protocol.responses", 0.0))
    return {
        "protocol.parse_s": trace["self_s"].get("protocol.parse", 0.0),
        "protocol.serialize_s": trace["self_s"].get("protocol.serialize", 0.0),
        "protocol.response_bytes":
            trace["counts"].get("protocol.response_bytes", 0.0) / responses,
        "scheduler.solve_s": solve_total,
        "scheduler.engine_s": sum(end - start for start, end in engine),
        "scheduler.window_wait_ms": 1000.0 * sum(waits) / max(1, len(waits)),
        "server.io_ms": 1000.0 * (mean_latency - server_side),
    }
