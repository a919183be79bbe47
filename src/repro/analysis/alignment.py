"""Trace differential analysis (paper §IV-B, Algorithm 1).

Aligns two API-call traces — the natural run and a resource-mutated run — on
the calling-context triple ``<API-name, Caller-PC, static params>`` and
returns the unaligned difference sets Δm (mutated-only) and Δn (natural-only).

Three alignment strategies are provided:

* :func:`align_linear` — the paper's Algorithm 1: linear scan for the first
  anchor where the traces re-converge; everything before it on each side is
  the difference set.
* :func:`align_lcs` — Zeller-style alignment as a longest-common-subsequence
  diff over context keys (the paper adopts the alignment idea from Zeller's
  cause-effect-chain work); more precise when traces interleave.
* :func:`align_myers` — the same LCS-maximal alignment computed with a
  hash-anchored Myers O(ND) greedy diff: context keys are interned to ints,
  the common prefix/suffix (the overwhelming bulk of a mutated-vs-natural
  pair) is stripped in linear time, and only the divergent middle pays the
  diff cost, proportional to the edit distance D instead of ``n*m``.

Impact analysis and vaccine verification align with Myers.  Algorithm 1
and LCS stay as plain functions: LCS is the reference the property tests
check Myers against, and the alignment-granularity ablation bench diffs
with it.  Note LCS-maximal alignments are not unique: when a delta can be
attributed to either side, ``align_myers`` and ``align_lcs`` may pick
different (equally maximal) difference sets, but they always agree on
``is_identical`` and on the number of aligned pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

from ..tracing.events import ApiCallEvent


@dataclass
class AlignmentResult:
    """Unaligned events from each trace."""

    delta_mutated: List[ApiCallEvent] = field(default_factory=list)
    delta_natural: List[ApiCallEvent] = field(default_factory=list)
    aligned_pairs: int = 0

    @property
    def is_identical(self) -> bool:
        return not self.delta_mutated and not self.delta_natural


def _keys(events: Sequence[ApiCallEvent]) -> List[Tuple]:
    return [e.context_key() for e in events]


def align_linear(
    mutated: Sequence[ApiCallEvent], natural: Sequence[ApiCallEvent]
) -> AlignmentResult:
    """Paper Algorithm 1: find the first anchor call of the mutated trace that
    aligns into the natural trace; the prefixes before the anchor form the
    difference sets, and the remainder is aligned greedily."""
    result = AlignmentResult()
    nat_keys = _keys(natural)

    anchor_m = anchor_n = None
    for i, event in enumerate(mutated):
        key = event.context_key()
        try:
            anchor_n = nat_keys.index(key)
            anchor_m = i
            break
        except ValueError:
            result.delta_mutated.append(event)
    if anchor_m is None:
        # No alignment point at all: the whole traces differ (lines 8-10).
        result.delta_natural = list(natural)
        return result

    result.delta_natural = list(natural[:anchor_n])
    # Greedy pairwise walk from the anchor.
    i, j = anchor_m, anchor_n
    while i < len(mutated) and j < len(natural):
        if mutated[i].context_key() == natural[j].context_key():
            result.aligned_pairs += 1
            i += 1
            j += 1
        else:
            # Skip the shorter lookahead to re-synchronize.
            next_m = _find(nat_keys, mutated[i].context_key(), j)
            if next_m is None:
                result.delta_mutated.append(mutated[i])
                i += 1
            else:
                result.delta_natural.extend(natural[j:next_m])
                j = next_m
    result.delta_mutated.extend(mutated[i:])
    result.delta_natural.extend(natural[j:])
    return result


def _find(keys: List[Tuple], key: Tuple, start: int):
    try:
        return keys.index(key, start)
    except ValueError:
        return None


def align_lcs(
    mutated: Sequence[ApiCallEvent], natural: Sequence[ApiCallEvent]
) -> AlignmentResult:
    """LCS alignment over context keys (Zeller-style program alignment)."""
    a, b = _keys(mutated), _keys(natural)
    n, m = len(a), len(b)
    # Standard O(n*m) LCS table; traces are API-level so sizes are modest.
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row, nxt = table[i], table[i + 1]
        for j in range(m - 1, -1, -1):
            if a[i] == b[j]:
                row[j] = nxt[j + 1] + 1
            else:
                row[j] = nxt[j] if nxt[j] >= row[j + 1] else row[j + 1]
    result = AlignmentResult()
    i = j = 0
    while i < n and j < m:
        if a[i] == b[j]:
            result.aligned_pairs += 1
            i += 1
            j += 1
        elif table[i + 1][j] >= table[i][j + 1]:
            result.delta_mutated.append(mutated[i])
            i += 1
        else:
            result.delta_natural.append(natural[j])
            j += 1
    result.delta_mutated.extend(mutated[i:])
    result.delta_natural.extend(natural[j:])
    return result


def align_myers(
    mutated: Sequence[ApiCallEvent], natural: Sequence[ApiCallEvent]
) -> AlignmentResult:
    """LCS-maximal alignment via a Myers O(ND) greedy diff over interned
    context keys.

    Mutated traces share almost their entire prefix (and usually suffix)
    with the natural trace, so the expected cost is ~O(n + m + D^2) with a
    tiny D — versus the unconditional O(n*m) table of :func:`align_lcs`.
    The ``AlignmentResult`` contract is preserved exactly: every event lands
    in the aligned set or in exactly one difference set, and
    ``aligned_pairs`` equals the LCS length.
    """
    # Intern keys to small ints: tuple equality (str cmp per element) is the
    # hot operation of any diff; int equality is one pointer compare.
    ids: dict = {}
    a = [ids.setdefault(e.context_key(), len(ids)) for e in mutated]
    b = [ids.setdefault(e.context_key(), len(ids)) for e in natural]
    n, m = len(a), len(b)

    result = AlignmentResult()

    # Anchor on the common prefix and suffix in linear time.
    pre = 0
    while pre < n and pre < m and a[pre] == b[pre]:
        pre += 1
    suf = 0
    while suf < n - pre and suf < m - pre and a[n - 1 - suf] == b[m - 1 - suf]:
        suf += 1

    result.aligned_pairs = pre + suf
    mid_a, mid_b = a[pre:n - suf], b[pre:m - suf]
    if mid_a or mid_b:
        for op, index in _myers_script(mid_a, mid_b):
            if op == 0:  # match
                result.aligned_pairs += 1
            elif op == 1:  # only in mutated
                result.delta_mutated.append(mutated[pre + index])
            else:  # only in natural
                result.delta_natural.append(natural[pre + index])
    return result


def _myers_script(a: List[int], b: List[int]):
    """Greedy Myers diff (An O(ND) Difference Algorithm, 1986).

    Yields ``(op, index)`` in forward order: op 0 = match (index into
    ``a``), 1 = delete from ``a``, 2 = insert from ``b`` (index into ``b``).
    ``history[d]`` snapshots the furthest-x frontier *entering* round d —
    exactly the values round d's decisions read (k±1 have opposite parity,
    so they were last written in round d-1) — which is what the backtrack
    replays.
    """
    n, m = len(a), len(b)
    v = {1: 0}
    history: List[dict] = []
    d_final = None
    for d in range(n + m + 1):
        history.append(dict(v))
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and v[k - 1] < v[k + 1]):
                x = v[k + 1]
            else:
                x = v[k - 1] + 1
            y = x - k
            while x < n and y < m and a[x] == b[y]:
                x += 1
                y += 1
            v[k] = x
            if x >= n and y >= m:
                d_final = d
                break
        if d_final is not None:
            break

    # Backtrack from (n, m) through the per-round frontiers.
    script: List[Tuple[int, int]] = []
    x, y = n, m
    for d in range(d_final, 0, -1):
        frontier = history[d]
        k = x - y
        if k == -d or (k != d and frontier[k - 1] < frontier[k + 1]):
            prev_k = k + 1
        else:
            prev_k = k - 1
        prev_x = frontier[prev_k]
        prev_y = prev_x - prev_k
        while x > prev_x and y > prev_y:  # snake: matched diagonal run
            x -= 1
            y -= 1
            script.append((0, x))
        if x == prev_x:
            script.append((2, prev_y))  # vertical move: insert b[prev_y]
        else:
            script.append((1, prev_x))  # horizontal move: delete a[prev_x]
        x, y = prev_x, prev_y
    while x > 0 and y > 0:  # d == 0: leading matched run
        x -= 1
        y -= 1
        script.append((0, x))
    script.reverse()
    return script


#: Signature shared by all aligners.
Aligner = Callable[[Sequence[ApiCallEvent], Sequence[ApiCallEvent]], AlignmentResult]
