"""Shared size thresholds that flip operators between plan shapes.

Single definition on purpose (the SAMPLE_A/SAMPLE_M precedent in
``hashing.py``): three operators — ``build.compute_doc_weights``,
``analysis.tfidf_keywords``, ``analysis.lm_score`` — switch from the
vocabulary BROADCAST plan to the bucketed TERM JOIN past
``df_broadcast_cap``, and they must flip at the same size or the
engine's plan choice becomes operator-dependent for no reason.
``cc_driver_edge_cap`` plays the same role for ``dedup.dedup_clusters``
(driver union-find vs distributed large-star/small-star contraction).
"""

from __future__ import annotations

import os

__all__ = ["df_broadcast_cap", "cc_driver_edge_cap", "cand_broadcast_cap"]

_DEFAULT_CAP = 2_000_000
_DEFAULT_CC_CAP = 5_000_000
_DEFAULT_CAND_CAP = 2_000_000


def df_broadcast_cap(explicit: int | None = None) -> int:
    """Vocabulary-row cap for driver-side dictionary broadcasts:
    ``explicit`` if given, else ``$GRAFT_DF_BROADCAST_CAP``, else 2M."""
    if explicit is not None:
        return explicit
    return int(os.environ.get("GRAFT_DF_BROADCAST_CAP", str(_DEFAULT_CAP)))


def cand_broadcast_cap(explicit: int | None = None) -> int:
    """Candidate-id cap for the MinHash verify paths' driver-side id
    set + broadcast gram/signature lookup: ``explicit`` if given, else
    ``$GRAFT_CAND_BROADCAST_CAP``, else 2M.  Past it the fetch flips to
    Dataset hash joins (dedup._attach_gram_blobs) — a dup-heavy corpus
    makes candidates O(docs) and the broadcast a driver OOM."""
    if explicit is not None:
        return explicit
    return int(os.environ.get("GRAFT_CAND_BROADCAST_CAP", str(_DEFAULT_CAND_CAP)))


def cc_driver_edge_cap(explicit: int | None = None) -> int:
    """Edge-count cap for the driver-side union-find in
    ``dedup_clusters``: ``explicit`` if given, else
    ``$GRAFT_CC_DRIVER_EDGE_CAP``, else 5M (a few hundred MB of dict
    state — past that the distributed star-contraction steps win)."""
    if explicit is not None:
        return explicit
    return int(os.environ.get("GRAFT_CC_DRIVER_EDGE_CAP", str(_DEFAULT_CC_CAP)))
