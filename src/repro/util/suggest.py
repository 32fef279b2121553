"""Shared did-you-mean support for the name lookups.

Memory backends (:mod:`repro.memsys.registry`), workload names
(:mod:`repro.workloads.registry`) and the benchmark profile table
answer unknown-name lookups with close-match suggestions.
The matching policy lives here once so every "unknown X" error reads
the same and tunes the same.
"""

from __future__ import annotations

import difflib
from typing import Iterable, List, Sequence

#: difflib cutoff shared by every lookup: generous enough to catch
#: transpositions and missing separators, strict enough not to suggest
#: unrelated names.
CUTOFF = 0.5
MAX_SUGGESTIONS = 3


def close_matches(name: str, known: Iterable[str],
                  n: int = MAX_SUGGESTIONS,
                  cutoff: float = CUTOFF) -> List[str]:
    """Close matches for ``name`` among ``known``, case-insensitively.

    Returned names keep their canonical spelling (``gemsfdtd`` suggests
    ``GemsFDTD``), ordered best match first.
    """
    known = list(known)
    folded = {k.lower(): k for k in reversed(known)}
    hits = difflib.get_close_matches(name.lower(), list(folded),
                                     n=n, cutoff=cutoff)
    return [folded[hit] for hit in hits]


def did_you_mean(suggestions: Sequence[str]) -> str:
    """``"; did you mean 'a' or 'b'?"`` — empty when nothing is close."""
    if not suggestions:
        return ""
    return f"; did you mean {' or '.join(map(repr, suggestions))}?"
