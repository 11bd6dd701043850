"""Graph databases: directed, edge-labelled multigraphs (Section 2.2)."""

from repro.graphdb.database import GraphDatabase, Edge
from repro.graphdb.paths import (
    CsrAdjacency,
    reachable_pairs,
    reachable_from,
    reachable_to,
    evaluate_rpq,
    find_path_word,
    db_nfa_between,
    csr_kernel_disabled,
    csr_kernel_enabled,
)
from repro.graphdb.cache import (
    DatabaseAutomatonView,
    LazyRelation,
    ReachabilityIndex,
    SynchronisationProduct,
    SynchronisationProductCache,
    cache_capacity,
    cache_stats,
    invalidate_cache,
    preload_csr,
    reachability_index,
    set_cache_capacity,
)
from repro.graphdb.storage import (
    SnapshotDatabase,
    dump_snapshot_bytes,
    load_snapshot,
    load_snapshot_bytes,
    save_snapshot,
)

__all__ = [
    "GraphDatabase",
    "Edge",
    "CsrAdjacency",
    "reachable_pairs",
    "reachable_from",
    "reachable_to",
    "evaluate_rpq",
    "find_path_word",
    "db_nfa_between",
    "csr_kernel_disabled",
    "csr_kernel_enabled",
    "DatabaseAutomatonView",
    "LazyRelation",
    "ReachabilityIndex",
    "SynchronisationProduct",
    "SynchronisationProductCache",
    "cache_capacity",
    "cache_stats",
    "invalidate_cache",
    "preload_csr",
    "reachability_index",
    "set_cache_capacity",
    "SnapshotDatabase",
    "dump_snapshot_bytes",
    "load_snapshot",
    "load_snapshot_bytes",
    "save_snapshot",
]
