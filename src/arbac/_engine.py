"""Level-synchronous breadth-first search over bit-packed role sets.

A state is one row of ``W = ceil(roles / 64)`` uint64 words, bit ``i``
standing for role ``i`` of the (already sliced) policy. Each BFS level
is expanded at once in numpy. Per frontier chunk of about ``CELLS``
(state, action) pairs, every action is tested on every state as one
boolean broadcast, ``nonzero`` lists the enabled pairs, and the children
are the parents with the action's target bit flipped. Sorting the
children's keys keeps the first occurrence of each child, and
``searchsorted`` into the sorted keys of all visited states drops the
visited ones.

An action passes when ``(words & test) == need`` holds on every word.
For flat policies the words are the state itself. With a hierarchy they
are the state followed by its authorized set (the state plus the
downward closure of every senior role it holds), so one test can look
at both: the target bit in the state, the precondition in the
authorized set.

Ordering lemma: the result (verdict, states popped, witness) equals that
of the FIFO search that pops one state at a time, tests it against the
goal, and enqueues its unvisited children in action order. That queue
holds the states level by level, and level d+1 in the order of first
occurrence in the (parent, action) enumeration of level d. ``nonzero``
over a frontier kept in queue order lists the children in exactly that
order, row-major, so the first occurrence kept here is the one the FIFO
search enqueued, with the same parent and action. The goal test and the
``max_states`` cap then only need a state's position in the queue, and
``max_depth`` only its level. A chunk that yields an unvisited goal
state ends the level early: every state queued before that goal state
comes from this chunk or an earlier one.

A state's sort key is its one word, or for wider states its raw bytes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# broadcast cells (frontier states x actions) tested per chunk
CELLS = 1 << 20


class SearchResult(NamedTuple):
    found: bool
    action_ids: list[int] | None  # action positions along the witness path
    popped: int
    truncated: bool


class Program(NamedTuple):
    """A compiled policy: per-action tests on the state (and authorized)
    words, the bit each action flips, the goal, and the closure of every
    senior role (None for flat policies)."""

    init: np.ndarray  # (W,) initial state
    test: np.ndarray  # (W, A), or (2W, A) with a hierarchy: one row per word
    need: np.ndarray  # same shape as test
    flip: np.ndarray  # (A, W) target bit of each action
    goal: np.ndarray  # (W,) roles whose authorization implies the target
    seniors: tuple | None = None  # (word, shift) of the K roles with juniors
    closure: np.ndarray | None = None  # (K, W) downward closures of those roles


def set_bits(shape: tuple[int, ...], positions) -> np.ndarray:
    """uint64 words of ``shape``, zero but for the given bit positions;
    position p is bit p % 64 of word p // 64, counted in C order."""
    out = np.zeros(shape, np.uint64)
    at = np.asarray(positions, np.uint64)
    one = np.uint64(1) << (at & np.uint64(63))
    np.bitwise_or.at(out.reshape(-1), at >> np.uint64(6), one)
    return out


def _tested_words(program: Program, states: np.ndarray) -> np.ndarray:
    if program.closure is None:
        return states
    word, shift = program.seniors
    held = ((states[:, word] >> shift) & 1).astype(np.bool_)
    below = np.where(held[:, :, None], program.closure, 0)
    return np.concatenate((states, states | np.bitwise_or.reduce(below, axis=1)), axis=1)


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in sorted order, each with the position of its
    first occurrence."""
    if not len(keys):
        return np.zeros(0, np.intp), keys
    order = keys.argsort()
    ordered = keys[order]
    starts = np.concatenate(([True], ordered[1:] != ordered[:-1])).nonzero()[0]
    return np.minimum.reduceat(order, starts), ordered[starts]


def _expand(program: Program, frontier: np.ndarray, visited: np.ndarray, key):
    """The unvisited children of ``frontier``, each once: their sorted
    keys, the broadcast cell (parent * A + action) of each one's first
    occurrence, and whether one of them meets the goal."""
    test, need = program.test, program.need
    n_act = max(1, test.shape[1])
    rows = max(1, CELLS // n_act)
    parts = []
    for lo in range(0, len(frontier), rows):
        chunk = frontier[lo : lo + rows]
        words = _tested_words(program, chunk)
        ok = (words[:, :1] & test[0]) == need[0]
        for w in range(1, len(test)):
            ok &= (words[:, w : w + 1] & test[w]) == need[w]
        cells = ok.ravel().nonzero()[0]
        parent, action = np.divmod(cells, n_act)
        children = chunk[parent] ^ program.flip[action]
        first, keys = _distinct(children.view(key).ravel())
        at = np.minimum(visited.searchsorted(keys), len(visited) - 1)
        fresh = visited[at] != keys
        first = first[fresh]
        parts.append((keys[fresh], cells[first] + lo * n_act))
        hit = bool((children[first] & program.goal).any())
        if hit:
            break  # the rest of the level queues behind this goal state
    if len(parts) == 1:
        return (*parts[0], hit)
    keys, cells = (np.concatenate(p) for p in zip(*parts))
    # a key seen in several chunks keeps its earliest chunk's occurrence
    first, keys = _distinct(keys)
    return keys, cells[first], hit


def _trace(found: int, cells: list[np.ndarray], n_act: int) -> list[int]:
    """The actions from the initial state to queue position ``found``;
    ``cells`` holds parent * A + action for every queue position."""
    cell = np.concatenate(cells)
    ids: list[int] = []
    while found:
        found, action = divmod(int(cell[found]), n_act)
        ids.append(action)
    ids.reverse()
    return ids


def search(
    program: Program, max_states: int | None, max_depth: int | None
) -> SearchResult:
    W = len(program.init)
    # states sort as one uint64 word, or wider as raw bytes
    key = np.uint64 if W == 1 else np.dtype((np.void, 8 * W))
    n_act = max(1, len(program.flip))
    frontier = program.init[None, :]
    visited = frontier.view(key).ravel()  # sorted
    hit = bool((program.init & program.goal).any())
    cells_seen = [np.zeros(1, np.intp)]  # parent * A + action per queue position
    offset = 0  # queue position of frontier[0]
    depth = 0
    while True:
        n = len(frontier)
        popped = n if max_states is None else min(n, max_states - offset)
        if hit:
            hits = np.flatnonzero((frontier[:popped] & program.goal).any(axis=1))
            if len(hits):
                found = offset + int(hits[0])
                witness = _trace(found, cells_seen, n_act)
                return SearchResult(True, witness, found + 1, False)
        if popped < n:
            return SearchResult(False, None, max_states, True)
        keys, cells, hit = _expand(program, frontier, visited, key)
        if depth == max_depth or not len(keys):
            return SearchResult(False, None, offset + n, bool(len(keys)))
        # a stable sort of two sorted runs is one linear merge
        visited = np.sort(np.concatenate((visited, keys)), kind="stable")
        fifo = cells.argsort()
        cells_seen.append(cells[fifo] + offset * n_act)
        frontier = keys[fifo].view(np.uint64).reshape(-1, W)
        offset += n
        depth += 1
