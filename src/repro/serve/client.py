"""Client side of the serve protocol, plus the blocking local path.

:func:`submit_and_wait` is the one call sites use: given a spec and an
optional server URL it either round-trips through a running serve
instance (``--server http://...``) or executes the spec in-process via
the same :func:`~repro.serve.runner.execute_spec` body the server's
workers run.  Either way the caller gets the same result dict — which is
exactly the property the bit-identity tests assert on the positions
digest.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

from repro.serve.runner import execute_spec
from repro.spec import SimulationSpec


class RpcError(RuntimeError):
    """A JSON-RPC error response (carries the protocol error code)."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class ServeClient:
    """Tiny JSON-RPC 2.0 client over urllib (stdlib only)."""

    def __init__(self, url: str, timeout: float = 120.0):
        self.url = url.rstrip("/") or url
        self.timeout = timeout
        self._next_id = 0

    def call(self, method: str, **params):
        self._next_id += 1
        payload = json.dumps(
            {"jsonrpc": "2.0", "id": self._next_id, "method": method, "params": params}
        ).encode()
        req = urllib.request.Request(
            self.url,
            data=payload,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                body = json.loads(resp.read())
        except urllib.error.URLError as err:
            raise ConnectionError(
                f"cannot reach serve instance at {self.url}: {err.reason}"
            ) from None
        if "error" in body:
            raise RpcError(body["error"]["code"], body["error"]["message"])
        return body["result"]

    # -- convenience wrappers --------------------------------------------------

    def submit(self, spec: SimulationSpec) -> str:
        return self.call("submit", spec=spec.to_dict())["job_id"]

    def status(self, job_id: str) -> dict:
        return self.call("status", job_id=job_id)

    def result(self, job_id: str, timeout: float = 60.0) -> dict:
        return self.call("result", job_id=job_id, timeout=timeout)

    def cancel(self, job_id: str) -> bool:
        return self.call("cancel", job_id=job_id)["cancelled"]

    def stats(self) -> dict:
        return self.call("stats")

    def ping(self) -> bool:
        return bool(self.call("ping").get("ok"))


def run_local(spec: SimulationSpec, cache=None) -> dict:
    """Execute a spec in-process (the blocking CLI path)."""
    return execute_spec(spec, cache=cache)


def submit_and_wait(
    spec: SimulationSpec,
    server: str | None = None,
    timeout: float = 600.0,
    cache=None,
) -> dict:
    """One spec in, one result dict out — locally or via a serve instance.

    With ``server=None`` the spec runs in this process; otherwise it is
    submitted over JSON-RPC and this call blocks until the job finishes.
    Both paths run :func:`~repro.serve.runner.execute_spec`, so results
    (including the positions digest) are identical by construction.
    """
    if server is None:
        return run_local(spec, cache=cache)
    client = ServeClient(server, timeout=timeout)
    job_id = client.submit(spec)
    return client.result(job_id, timeout=timeout)
