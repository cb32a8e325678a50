#!/usr/bin/env python3
"""The memoizing co-scheduling service end to end, in one process.

Starts the HTTP service on an ephemeral port (the same thing
``cosched serve`` runs), then plays a small request stream against it:

* distinct problems — each one costs a real solver run;
* duplicate problems — answered from the solution store (cache hit) or
  attached to an in-flight solve (coalescing), with zero extra solver
  work either way;
* a refine request — served by re-solving with the cached schedule as a
  warm-start incumbent.

Finishes by printing ``GET /metrics``: request counters, cache-hit and
coalesce rates, queue depths, and the merged solver perf counters.

Run:  python examples/service_client.py
"""

from repro.service import ServiceClient, SolveService, start_http_server
from repro.workloads.synthetic import random_serial_instance


def main() -> None:
    service = SolveService(workers=2, default_solver="hill")
    server = start_http_server(service)  # port 0 -> ephemeral
    client = ServiceClient(server.url)
    print(f"service up on {server.url}\n")

    try:
        distinct = [random_serial_instance(8, seed=s) for s in (1, 2, 3)]

        print("three distinct problems (each needs a solver run):")
        for i, problem in enumerate(distinct, start=1):
            status = client.solve(problem)
            print(f"  problem {i}: objective {status['objective']:.4f} "
                  f"({status['disposition']}, "
                  f"solved by {status['solved_by']})")

        print("\nthe same three again (no solver runs this time):")
        for i, seed in enumerate((1, 2, 3), start=1):
            repeat = random_serial_instance(8, seed=seed)
            status = client.solve(repeat)
            print(f"  problem {i}: objective {status['objective']:.4f} "
                  f"({status['disposition']})")

        print("\nrefine: re-solve problem 1 warm-started from the cache:")
        refined = client.solve(random_serial_instance(8, seed=1),
                               solver="hill", refine=True)
        print(f"  objective {refined['objective']:.4f} "
              f"({refined['disposition']}, "
              f"warm start: {refined['warm_started']})")

        metrics = client.metrics()
        req = metrics["requests"]
        print("\n/metrics:")
        print(f"  submitted {req['submitted']}, solver runs {req['solves']}, "
              f"cache hits {req['cache_hits']}, "
              f"coalesced {req['coalesced']}, "
              f"warm starts {req['warm_starts']}")
        print(f"  cache hit rate {metrics['rates']['cache_hit_rate']:.0%}, "
              f"store size {metrics['store']['size']}")
    finally:
        server.shutdown()
        service.stop()
    print("\nservice stopped cleanly")


if __name__ == "__main__":
    main()
