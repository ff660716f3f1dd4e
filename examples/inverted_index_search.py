#!/usr/bin/env python3
"""Inverted index over a document directory, with query lookups.

Builds the classic MapReduce artefact (word -> posting list) from a
directory of documents on the simulated PFS, then answers conjunctive
queries against the distributed index.

Run:  python examples/inverted_index_search.py
"""

from repro.apps.inverted_index import inverted_index_plan
from repro.cluster import Cluster
from repro.core import MimirConfig
from repro.mpi import COMET

DOCS = {
    "library/moby.txt":
        b"call me ishmael some years ago never mind how long precisely",
    "library/pride.txt":
        b"it is a truth universally acknowledged that a single man",
    "library/tale.txt":
        b"it was the best of times it was the worst of times",
    "library/kafka.txt":
        b"as gregor samsa awoke one morning from uneasy dreams",
    "library/joyce.txt":
        b"stately plump buck mulligan came from the stairhead",
    "library/woolf.txt":
        b"mrs dalloway said she would buy the flowers herself",
}

QUERIES = [[b"it", b"was"], [b"the"], [b"from"], [b"whale"]]


def main():
    cluster = Cluster(COMET, nprocs=6, memory_limit=None)
    for path, text in DOCS.items():
        cluster.pfs.store(path, text)

    config = MimirConfig(page_size="8K", comm_buffer_size="8K")
    result = cluster.run(
        lambda env: inverted_index_plan(env, "library/", config,
                                        compress=True))

    # Each rank owns a slice of the index; merge for querying.
    index = {}
    documents = result.returns[0].documents
    for part in result.returns:
        index.update(part.index)

    nwords = len(index)
    npostings = sum(len(p) for p in index.values())
    print(f"indexed {len(DOCS)} documents: {nwords} distinct words, "
          f"{npostings} postings, {result.elapsed:.4f} virtual s\n")

    for terms in QUERIES:
        postings = [set(index.get(t, [])) for t in terms]
        hits = sorted(set.intersection(*postings)) if postings else []
        names = [documents[d].rsplit("/", 1)[-1] for d in hits]
        query = b" AND ".join(terms).decode()
        print(f"  {query:<12} -> {', '.join(names) if names else '(none)'}")


if __name__ == "__main__":
    main()
