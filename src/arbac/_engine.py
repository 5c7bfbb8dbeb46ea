"""Level-synchronous breadth-first search over bit-packed role sets.

A state is one row of ``W = ceil(roles / 64)`` uint64 words, bit ``i``
standing for role ``i`` of the (already sliced) policy. Each BFS level
is expanded at once in numpy. Per frontier chunk of about ``CELLS``
(state, action) pairs, the actions each state enables form one boolean
matrix, ``nonzero`` lists the enabled pairs, and the children are the
parents with the action's target bit flipped. Sorting the children's
keys keeps the first occurrence of each child, and ``searchsorted``
into the sorted keys of all visited states drops the visited ones.

An action passes when ``(words & test) == need`` holds on every word.
For flat policies the words are the state itself. With a hierarchy they
are the state followed by its authorized set (the state plus the
downward closure of every senior role it holds), so one test can look
at both: the target bit in the state, the precondition in the
authorized set.

Byte lemma: ``&`` and ``==`` act bit by bit, so that test holds on
every word exactly when it holds on every byte of the words. The enable
table therefore holds, for each byte position some action tests, 256
rows: row ``v`` is the bitset of the actions whose test on that byte
passes for the value ``v``. Bytes no action tests pass every action. A
state's enabled actions are the AND of the rows its tested bytes pick,
P lookups of ``ceil(A / 64)`` words instead of A word tests per tested
word. Building the table takes 256 P A cells, more than a whole small
search costs, so a search builds it once, at the first level whose
broadcast would fill a chunk (``n * A >= CELLS``), and tests the levels
before it by broadcast.

Ordering lemma: the result (verdict, states popped, witness) equals that
of the FIFO search that pops one state at a time, tests it against the
goal, and enqueues its unvisited children in action order. That queue
holds the states level by level, and level d+1 in the order of first
occurrence in the (parent, action) enumeration of level d. ``nonzero``
over a frontier kept in queue order lists the children in exactly that
order, row-major, so the first occurrence kept here is the one the FIFO
search enqueued, with the same parent and action, and selecting the
kept ones from that list by a mask keeps them in queue order. The goal
test and the ``max_states`` cap then only need a state's position in
the queue, and ``max_depth`` only its level. A chunk that yields an
unvisited goal state ends the level early: every state queued before
that goal state comes from this chunk or an earlier one.

A state's sort key is its one word, or for wider states its words
stored big-endian and compared as raw bytes, whose ``memcmp`` order is
the words' lexicographic order (word 0 first).

Rank-fold lemma: on every level, word ``w`` of every state lies below
``2 ** highs[w]`` (a state holds only initial and flipped bits).
``(key << h) | word`` orders as the pair (key, word) when the word lies
below ``2 ** h``, and a dense rank (the count of distinct smaller
values, below ``2 ** s`` in a list shorter than that) orders as the
value it replaces. Folding the words in, word 0 first, and ranking the
key or the word where they would not fit beside ``s`` position bits
therefore gives uint64 keys in the states' order, and the words
``(key << s) | position`` sort by state, then by position: in one sort
of them, the first word of each run of equal states holds that state's
first occurrence.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# (state, action) cells per frontier chunk: states x actions
CELLS = 1 << 20


class SearchResult(NamedTuple):
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


class EnableTable(NamedTuple):
    """The actions that each value of each tested byte allows."""

    at: np.ndarray  # (P,) byte positions some action tests, in the words' bytes
    rows: np.ndarray  # (P, 256, ceil(A / 64)) uint64 bitsets of actions


def _enable_table(program: Program) -> EnableTable:
    # actions padded to whole words: a zero test and need pass every
    # value, and _enabled unpacks only the first A bits
    pad = ((0, 0), (0, -program.test.shape[1] % 64))
    test = np.ascontiguousarray(np.pad(program.test, pad).T).view(np.uint8).T  # (bytes, A)
    need = np.ascontiguousarray(np.pad(program.need, pad).T).view(np.uint8).T
    at = np.flatnonzero(test.any(axis=1))
    test, need = test[at], need[at]  # (P, A), rows contiguous
    value = np.arange(256, dtype=np.uint8)[:, None]
    rows = np.empty((len(at), 256, test.shape[1] // 64), np.uint64)
    for p in range(len(at)):  # one (256, A) bool block at a time
        ok = (value & test[p]) == need[p]
        rows[p] = np.packbits(ok, axis=1, bitorder="little").view(np.uint64)
    return EnableTable(at, rows)


def _enabled(program: Program, words: np.ndarray, table: EnableTable | None) -> np.ndarray:
    """(len(words), A) bool: the actions the tested ``words`` allow,
    looked up in ``table`` or, without one, tested by broadcast."""
    test, need = program.test, program.need
    if table is None:
        ok = (words[:, :1] & test[0]) == need[0]
        for w in range(1, len(test)):
            ok &= (words[:, w : w + 1] & test[w]) == need[w]
        return ok
    # every action tests its target bit, so at least one byte is tested
    values = words.view(np.uint8)[:, table.at]
    bits = table.rows[0][values[:, 0]]
    for p in range(1, len(table.at)):
        bits &= table.rows[p][values[:, p]]
    # nonzero runs faster on a bool array than on a uint8 one
    ok = np.unpackbits(bits.view(np.uint8), axis=1, count=test.shape[1], bitorder="little")
    return ok.view(np.bool_)


def _keys(states: np.ndarray) -> np.ndarray:
    """The sort keys of (n, W) ``states``: the one word, or wider the
    big-endian words viewed as one raw byte string."""
    width = states.shape[1]
    if width == 1:
        return states.ravel()
    return states.astype(">u8").view((np.void, 8 * width)).ravel()


def _rank(column: np.ndarray, out: np.ndarray) -> int:
    """Write the dense rank of each value of the uint64 ``column`` to
    ``out``, which may be ``column``; return the top rank's bit length."""
    order = column.argsort()
    ordered = column[order]
    starts = ordered[1:] != ordered[:-1]
    ordered[:1] = 0
    np.cumsum(starts, dtype=np.uint64, out=ordered[1:])
    out[order] = ordered
    return int(ordered[-1]).bit_length()


def _distinct(states: np.ndarray, highs: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The position of each distinct row of ``states`` at its first
    occurrence, and the distinct rows' keys in sorted order. Word ``w``
    of every row lies below ``2 ** highs[w]``, so the rows fold into
    packed keys (see the rank-fold lemma)."""
    n = len(states)
    if n < 2:  # nothing to fold apart
        return np.arange(n, dtype=np.intp), _keys(states)
    shift = (n - 1).bit_length()
    acc, bits = states[:, 0].copy(), highs[0]
    for w in range(1, len(highs)):
        word, high = states[:, w], highs[w]
        if bits + high + shift > 64:
            bits = _rank(acc, acc)
        if bits + high > 64:
            word = np.empty_like(acc)
            high = _rank(states[:, w], word)
        acc <<= high
        acc |= word
        bits += high
    if bits + shift > 64:
        bits = _rank(acc, acc)
    # each folded key packed with its position: equal states sort by position
    acc <<= shift
    acc |= np.arange(n, dtype=np.uint64)
    acc.sort()
    # a word starts a run of equal states where its folded key differs from
    # the one before: where the two words' xor reaches bit ``shift``
    starts = np.empty(n, np.bool_)
    starts[0] = True
    np.greater_equal(acc[1:] ^ acc[:-1], 1 << shift, out=starts[1:])
    first = (acc[starts] & ((1 << shift) - 1)).astype(np.intp)
    return first, _keys(states.take(first, axis=0))


def _queued(first: np.ndarray, size: int) -> np.ndarray:
    """Mask of ``size`` entries that is True at the positions ``first``:
    selecting with it keeps them in their original order."""
    mask = np.zeros(size, np.bool_)
    mask[first] = True
    return mask


def _expand(program: Program, frontier: np.ndarray, visited: np.ndarray, n_act: int,
            highs: list[int], table: EnableTable | None):
    """The unvisited children of ``frontier``, each once and in queue
    order, with the broadcast cell (parent * A + action) of each one's
    first occurrence; their keys in sorted order; and whether one of
    them meets the goal."""
    rows = max(1, CELLS // n_act)
    parts = []
    for lo in range(0, len(frontier), rows):
        chunk = frontier[lo : lo + rows]
        ok = _enabled(program, _tested_words(program, chunk), table)
        cells = ok.ravel().nonzero()[0]
        parent, action = np.divmod(cells, n_act)
        children = chunk.take(parent, axis=0) ^ program.flip.take(action, axis=0)
        first, keys = _distinct(children, highs)
        at = np.minimum(visited.searchsorted(keys), len(visited) - 1)
        fresh = visited[at] != keys
        queued = _queued(first[fresh], len(cells))
        children = children[queued]
        parts.append((children, cells[queued] + lo * n_act))
        hit = bool((children & program.goal).any())
        if hit:
            break  # the rest of the level queues behind this goal state
    if len(parts) == 1:
        return (*parts[0], keys[fresh], hit)
    children, cells = (np.concatenate(p) for p in zip(*parts))
    # a child found in several chunks keeps its earliest chunk's occurrence
    first, keys = _distinct(children, highs)
    queued = _queued(first, len(cells))
    return children[queued], cells[queued], keys, hit


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
    n_act = max(1, len(program.flip))
    # a state holds only initial and flipped bits
    held = program.init | np.bitwise_or.reduce(program.flip, axis=0)
    highs = [int(word).bit_length() for word in held]
    table = None  # built when a level first fills a chunk
    frontier = program.init[None, :]
    visited = _keys(frontier)  # sorted
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
                return SearchResult(witness, found + 1, False)
        if popped < n:
            return SearchResult(None, max_states, True)
        if table is None and n * n_act >= CELLS:
            table = _enable_table(program)
        frontier, cells, keys, hit = _expand(program, frontier, visited, n_act, highs, table)
        if depth == max_depth or not len(keys):
            return SearchResult(None, offset + n, bool(len(keys)))
        # a stable sort of two sorted runs is one linear merge
        visited = np.sort(np.concatenate((visited, keys)), kind="stable")
        cells_seen.append(cells + offset * n_act)
        offset += n
        depth += 1
