"""``urllib``-based client for the co-scheduling HTTP service.

The wire format is plain JSON (see ``docs/SERVICE.md``); this client only
adds the encode/decode plumbing and a poll loop::

    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:8831")
    status = client.solve(problem, solver="hill",
                          budget={"wall_time": 2.0})
    print(status["objective"], status["disposition"])

Errors come back as :class:`ServiceError` with the server's structured
body attached (``err.payload["reason"]`` for admission rejections).
Standard library only.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Optional

from ..core.problem import CoSchedulingProblem
from .codec import problem_to_dict

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A non-2xx response; ``payload`` is the server's JSON error body."""

    def __init__(self, status: int, payload: dict):
        detail = payload.get("detail") or payload.get("error") or "?"
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.payload = payload


class ServiceClient:
    """Minimal blocking client for one service endpoint.

    Parameters
    ----------
    base_url:
        e.g. ``"http://127.0.0.1:8831"`` (no trailing slash needed).
    timeout:
        Socket timeout per HTTP call, seconds.
    """

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------ #

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None) -> dict:
        url = self.base_url + path
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(url, data=data, headers=headers,
                                     method=method)
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                body = json.loads(exc.read().decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                body = {"error": "http_error", "detail": str(exc)}
            raise ServiceError(exc.code, body) from exc

    # ------------------------------------------------------------------ #

    def submit(
        self,
        problem: CoSchedulingProblem,
        solver: Optional[str] = None,
        budget: Optional[dict] = None,
        priority: int = 1,
        refine: bool = False,
        wait: float = 0.0,
    ) -> dict:
        """``POST /solve``; returns the ticket status document."""
        return self._post("/solve", {"problem": problem}, solver, budget,
                          priority, refine, wait)

    def delta(
        self,
        base_problem: CoSchedulingProblem,
        problem: CoSchedulingProblem,
        solver: Optional[str] = None,
        budget: Optional[dict] = None,
        priority: int = 1,
        refine: bool = False,
        wait: float = 0.0,
    ) -> dict:
        """``POST /delta`` — incremental re-solve of ``problem`` against
        the stored schedule of ``base_problem``; returns the ticket
        status document (with ``base_fingerprint`` / ``base_hit``)."""
        return self._post(
            "/delta", {"base_problem": base_problem, "problem": problem},
            solver, budget, priority, refine, wait)

    def _post(self, path: str, problems: dict, solver: Optional[str],
              budget: Optional[dict], priority: int, refine: bool,
              wait: float) -> dict:
        """POST the request document: each of ``problems`` (wire key →
        problem) encoded, plus the request fields."""
        payload = {key: problem_to_dict(p) for key, p in problems.items()}
        payload.update(priority=priority, refine=refine, wait=wait)
        if solver is not None:
            payload["solver"] = solver
        if budget is not None:
            payload["budget"] = budget
        return self._request("POST", path, payload)

    def status(self, ticket_id: str) -> dict:
        """``GET /status/<id>``."""
        return self._request("GET", f"/status/{ticket_id}")

    def metrics(self) -> dict:
        """``GET /metrics``."""
        return self._request("GET", "/metrics")

    def solve(
        self,
        problem: CoSchedulingProblem,
        solver: Optional[str] = None,
        budget: Optional[dict] = None,
        priority: int = 1,
        refine: bool = False,
        poll: float = 0.05,
        timeout: float = 60.0,
    ) -> dict:
        """Submit and block until the ticket resolves (or ``timeout``).

        Returns the final status document; raises :class:`ServiceError`
        on rejection and ``TimeoutError`` if the deadline passes first.
        """
        status = self.submit(problem, solver=solver, budget=budget,
                             priority=priority, refine=refine, wait=poll)
        deadline = time.monotonic() + timeout
        while status["state"] not in ("done", "failed"):
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"ticket {status['id']} still {status['state']!r} "
                    f"after {timeout}s"
                )
            time.sleep(poll)
            status = self.status(status["id"])
        return status
