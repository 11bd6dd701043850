"""CI smoke: refresh a serving snapshot shard with a real delta mid-burst.

Exercises the live-graph swap path end to end on a temporary copy of
SNAPSHOT: a first request cold-loads the shard, DELTA is appended to the
copy, a burst of requests is put in flight, and the shard is refreshed
(``begin_refresh`` on a thread, then an atomic ``swap``) while the burst
drains.  A request after the swap then answers from the new generation.
Three checks:

* every envelope of the burst equals the pre-swap answer — tickets
  admitted before the swap finish against the retired generation;
* the post-swap answer equals ``evaluate`` on a fresh load of the copy;
* the post-swap answer differs from the pre-swap one, so the first two
  checks cannot pass on an unchanged graph.

With ``--workers N`` the same scenario runs on the multi-process tier
(``pool="process"``): worker processes load the shard by path, and each
must answer from the generation the request was admitted against.

Usage::

    PYTHONPATH=src python -m repro.cli compact examples/service/smoke.edges swap.rgsnap
    PYTHONPATH=src python examples/service/swap_refresh.py swap.rgsnap examples/service/smoke.delta
    PYTHONPATH=src python examples/service/swap_refresh.py swap.rgsnap examples/service/smoke.delta --workers 2
"""

import argparse
import asyncio
import os
import shutil
import tempfile

from repro.engine.engine import evaluate
from repro.graphdb.delta import EdgeDelta, load_delta_file
from repro.graphdb.io import load_database
from repro.graphdb.storage import append_delta
from repro.service import DatabaseRegistry, QueryRequest, QueryService, QuerySpec

SPEC = QuerySpec(edges=(("x", "(a|b)*c", "y"),), output_variables=("x", "y"))


def answer(result):
    assert result.ok, result.error
    return [tuple(row) for row in result.tuples]


async def serve(path: str, delta: EdgeDelta, workers: int):
    """Serve before, across and after the refresh; return what was seen."""
    registry = DatabaseRegistry()
    registry.register_lazy("smoke", path)
    if workers:
        service = QueryService(registry, concurrency=workers, pool="process")
    else:
        service = QueryService(registry)
    async with service:
        before = answer(await service.submit(QueryRequest("smoke", SPEC)))
        await asyncio.to_thread(append_delta, path, delta)
        in_flight = [
            asyncio.create_task(service.submit(QueryRequest("smoke", SPEC)))
            for _ in range(8)
        ]
        entry = await service.refresh("smoke")
        burst = [answer(result) for result in await asyncio.gather(*in_flight)]
        after = answer(await service.submit(QueryRequest("smoke", SPEC)))
    return before, burst, after, entry, service.stats()


def smoke(path: str, delta: str, workers: int) -> None:
    delta_edges = load_delta_file(delta)
    before, burst, after, entry, stats = asyncio.run(serve(path, delta_edges, workers))
    assert all(answers == before for answers in burst), (
        "an in-flight request did not answer from the retired generation"
    )
    direct = evaluate(SPEC.to_query(), load_database(path))
    assert after == sorted(direct.tuples, key=repr), (
        f"post-swap answer {after} is not the refreshed graph's"
    )
    assert after != before, "the delta did not change the answer"
    registry_stats = stats["registry"]
    assert registry_stats["swaps"] == 1 and registry_stats["refreshes"] == 1
    assert registry_stats["retired"] == 1, registry_stats
    if workers:
        pool = stats["workers"]
        assert not pool["broken"] and pool["deaths"] == 0, pool
    tier = f"{workers} process worker(s)" if workers else "in-process tier"
    print(
        f"swap smoke ok ({tier}): {len(before)} -> {len(after)} tuples, "
        f"generation {entry.generation} serving version {entry.version}, "
        f"{len(burst)} in-flight request(s) answered from the retired one"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("snapshot", help="the .rgsnap shard (copied, never modified)")
    parser.add_argument("delta", help="a delta file that changes the answer")
    parser.add_argument("--workers", type=int, default=0, help="process-tier workers")
    arguments = parser.parse_args()
    with tempfile.TemporaryDirectory() as directory:
        copy = os.path.join(directory, os.path.basename(arguments.snapshot))
        shutil.copyfile(arguments.snapshot, copy)
        smoke(copy, arguments.delta, arguments.workers)


if __name__ == "__main__":
    main()
