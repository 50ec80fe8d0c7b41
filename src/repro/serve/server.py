"""The job service front end: asyncio unix-socket server + recovery.

``repro serve`` runs one :class:`JobServer` per work directory.  Clients
connect to a unix socket and speak newline-delimited JSON — one request
object in, one response object out per line, connections may be held open
for many requests (``wait`` blocks server-side until the job is
terminal).  The supervisor runs as a background task calling
:meth:`Supervisor.poll` on a short timer; the asyncio loop only shuttles
requests, so a wedged client can never stall supervision.

Crash tolerance is the whole point: on startup the server replays the
work directory's journal (``repro.serve.journal.recover``), kills any
worker processes the previous incarnation orphaned, and re-queues every
non-terminal job — interrupted jobs resume from their last periodic
snapshot or re-run (and store-hit if their simulation actually finished).  Kill
the server at any instant and restart it: no submitted job is lost, none
runs twice.

Wire protocol (all objects carry ``"op"`` in requests, ``"ok"`` in
responses)::

    {"op": "submit", "job": {...}}        -> {"ok": true, "id": "j-000001",
                                              "state": "pending"|"rejected", ...}
    {"op": "status"}                      -> {"ok": true, "status": {...}}
    {"op": "status", "id": "j-000001"}    -> {"ok": true, "job": {...}}
    {"op": "result", "id": "j-000001"}    -> {"ok": true, "job": {...},
                                              "result": {...}|null}
    {"op": "wait", "id": "j-000001"}      -> blocks; then as "result"
    {"op": "ping"}                        -> {"ok": true, "pid": ...}
    {"op": "shutdown"}                    -> {"ok": true}; server drains and exits

The server also maintains an atomically-replaced ``serve-status.json`` in
the work directory (same temp-file + ``os.replace`` discipline as
heartbeat snapshots) so ``repro top --serve DIR`` can render the service
without speaking the socket protocol.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from dataclasses import fields
from typing import Optional

from repro.serve.journal import Journal, recover
from repro.serve.policy import ServePolicy
from repro.serve.queue import Job, JobQueue
from repro.serve.supervisor import Supervisor

#: serve-status.json schema tag (repro top refuses unknown schemas).
SERVE_STATUS_SCHEMA = 1

#: Default supervision cadence (seconds between Supervisor.poll calls).
POLL_INTERVAL_S = 0.05

#: Status-file refresh cadence (seconds).
STATUS_INTERVAL_S = 1.0


def journal_path(workdir: str) -> str:
    return os.path.join(workdir, "journal.jsonl")


def socket_path(workdir: str) -> str:
    return os.path.join(workdir, "serve.sock")


def status_path(workdir: str) -> str:
    return os.path.join(workdir, "serve-status.json")


class JobServer:
    """One job service instance bound to a work directory."""

    def __init__(
        self,
        workdir: str,
        policy: Optional[ServePolicy] = None,
        socket: Optional[str] = None,
        log=print,
    ):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.policy = policy or ServePolicy()
        self.socket = socket or socket_path(workdir)
        self.log = log
        self.journal = Journal(journal_path(workdir))
        self.recovery: Optional[dict] = None
        self.supervisor: Optional[Supervisor] = None
        #: Created inside run() so it binds to the running event loop.
        self._stopping: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # Startup / recovery
    # ------------------------------------------------------------------
    def build_supervisor(self) -> Supervisor:
        """Replay the journal and construct the supervisor (sync; also
        used directly by tests that drive poll() by hand)."""
        if os.path.exists(self.journal.path):
            queue, report = recover(self.journal)
            self.recovery = report
            if report["jobs"]:
                self.log(
                    f"serve: recovered {report['jobs']} job(s) from journal "
                    f"(pending {report['pending']}, running {report['running']}, "
                    f"terminal {report['terminal']}"
                    + (f", killed orphans {report['killed']}" if report["killed"] else "")
                    + (", torn tail skipped" if report.get("torn_tail") else "")
                    + ")"
                )
        else:
            queue = JobQueue()
            self.recovery = None
        self.supervisor = Supervisor(
            queue,
            self.journal,
            self.policy,
            self.workdir,
            log=lambda message: self.log(f"serve: {message}"),
        )
        return self.supervisor

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    async def _handle_request(self, request: dict) -> dict:
        supervisor = self.supervisor
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pid": os.getpid()}
        if op == "submit":
            data = request.get("job") or {}
            # Unlike journal replay, a live submit must not drop a field it
            # does not know: a misspelled option would silently run a
            # different experiment.
            unknown = sorted(set(data) - {f.name for f in fields(Job)})
            if unknown:
                return {
                    "ok": False,
                    "error": f"bad job: unknown field(s) {unknown}",
                }
            try:
                job = Job.from_dict(data)
                # A malformed fault spec fails here, before it is journaled.
                job.key()
            except (TypeError, ValueError) as exc:
                return {"ok": False, "error": f"bad job: {exc}"}
            record = supervisor.submit(job)
            response = {"ok": True, "id": record.id, "state": record.state}
            if record.state == "rejected":
                response["reason"] = record.message
            return response
        if op == "status":
            jid = request.get("id")
            if jid is None:
                return {"ok": True, "status": supervisor.status()}
            record = supervisor.queue.records.get(jid)
            if record is None:
                return {"ok": False, "error": f"unknown job {jid}"}
            return {"ok": True, "job": record.public()}
        if op in ("result", "wait"):
            jid = request.get("id")
            record = supervisor.queue.records.get(jid)
            if record is None:
                return {"ok": False, "error": f"unknown job {jid}"}
            if op == "wait":
                while not record.terminal:
                    await asyncio.sleep(POLL_INTERVAL_S)
            return {
                "ok": True,
                "job": record.public(),
                "result": record.result if record.state == "done" else None,
            }
        if op == "shutdown":
            if self._stopping is not None:
                self._stopping.set()
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    async def _serve_client(self, reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("request must be an object")
                except ValueError as exc:
                    response = {"ok": False, "error": f"bad request: {exc}"}
                else:
                    response = await self._handle_request(request)
                writer.write((json.dumps(response) + "\n").encode("utf-8"))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Server shutdown (asyncio.run cancels the handlers still
            # reading) ends the connection.  The handler returns rather
            # than re-raising: asyncio's stream done-callback calls
            # task.exception(), which on a cancelled task logs a traceback.
            pass
        finally:
            writer.close()

    # ------------------------------------------------------------------
    # Background tasks
    # ------------------------------------------------------------------
    async def _supervise(self) -> None:
        while not self._stopping.is_set():
            self.supervisor.poll()
            await asyncio.sleep(POLL_INTERVAL_S)

    def write_status_file(self) -> None:
        """Atomic serve-status.json for ``repro top --serve``."""
        payload = {
            "schema": SERVE_STATUS_SCHEMA,
            "pid": os.getpid(),
            "updated_at": time.time(),
            "workdir": self.workdir,
            "socket": self.socket,
            **self.supervisor.status(),
        }
        path = status_path(self.workdir)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, default=str)
        os.replace(tmp, path)

    async def _publish_status(self) -> None:
        while not self._stopping.is_set():
            self.write_status_file()
            await asyncio.sleep(STATUS_INTERVAL_S)

    def _drop_listener(self) -> None:
        """In a forked worker: release the inherited listening socket.

        A worker that outlives a SIGKILLed server would otherwise keep the
        dead server's socket listening: clients connect, nobody answers,
        and the next server's orphan kill resets their connections.  The
        fd is pointed at /dev/null rather than closed so its number cannot
        be reused behind the socket object's back.
        """
        if self._server is None:
            return
        devnull = os.open(os.devnull, os.O_RDONLY)
        for sock in self._server.sockets:
            os.dup2(devnull, sock.fileno())
        os.close(devnull)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    async def run(self) -> None:
        self._stopping = asyncio.Event()
        self.build_supervisor()
        # A socket file left by a killed predecessor would fail the bind.
        try:
            os.unlink(self.socket)
        except OSError:
            pass
        self._server = await asyncio.start_unix_server(
            self._serve_client, path=self.socket
        )
        os.register_at_fork(after_in_child=self._drop_listener)
        self.log(f"serve: listening on {self.socket} (pid {os.getpid()})")
        tasks = [
            asyncio.ensure_future(self._supervise()),
            asyncio.ensure_future(self._publish_status()),
        ]
        try:
            await self._stopping.wait()
        finally:
            for task in tasks:
                task.cancel()
            self._server.close()
            await self._server.wait_closed()
            self.supervisor.shutdown()
            self.write_status_file()
            try:
                os.unlink(self.socket)
            except OSError:
                pass
            self.log("serve: stopped")


def run_server(
    workdir: str,
    policy: Optional[ServePolicy] = None,
    socket: Optional[str] = None,
) -> int:
    """The ``repro serve`` entry point; returns a process exit code."""
    server = JobServer(workdir, policy=policy, socket=socket)
    try:
        asyncio.run(server.run())
    except KeyboardInterrupt:
        # Workers die with us (daemon processes); the journal has every
        # in-flight job, so the next incarnation recovers them.
        pass
    return 0
