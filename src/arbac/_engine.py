"""Level-synchronous breadth-first search over bit-packed role sets.

A state is one row of ``W = ceil(roles / 64)`` uint64 words, bit ``i``
standing for role ``i`` of the (already sliced) policy. Each BFS level
is expanded at once in numpy. Per frontier chunk of about ``CELLS``
(state, action) pairs, ``nonzero`` lists the enabled pairs (the cells,
state * A + action), and the children are the parents with the
action's target bit flipped. Sorting the children's
keys keeps the first occurrence of each child, and ``searchsorted``
into the sorted keys of visited states drops the visited ones (but for
a free state's children, which the undo lemma below shows unvisited).

``levels`` yields the FIFO queue one ``Level`` at a time (its states,
cells, free flags, goal hit and ``Work``), and ``search`` reads its
result off them: the goal test, ``max_states``, ``max_depth``, the
witness path, and a ``MemoryError``, which drops the level being built.
Each chunk counts its cells and lookups with one ``list.append``, so
the worker's chunk counts even when ``_level`` drops it.

An action passes when ``(words & test) == need`` holds on every tested
word: the state's role bits, then one authorization bit per role that
another role grants, set when that role or one granting it is held, so
exactly when it is authorized. A precondition literal tests the role's
authorization bit, or its role bit if it has none (no other role grants
it); the target test reads the role bit. A flat policy has no
authorization bits: its tested words are the state itself.

Byte lemma: ``&`` and ``==`` act bit by bit, so that test holds on
every word exactly when it holds on every byte of the words. The enable
table therefore holds, for each byte position some action tests, 256
rows: row ``v`` is the bitset of the actions whose test on that byte
passes for the value ``v`` (the bits past A stay clear). Bytes no
action tests pass every action. A state's enabled
actions are the AND of the rows its tested bytes pick, P lookups of
``ceil(A / 64)`` words instead of A word tests per tested word; only
the nonzero words are unpacked into cells. Building the table takes
256 P A cells, more than a whole small search costs, so a search builds
it once, at the first level whose broadcast would fill a chunk
(``n * A >= CELLS``), and tests the levels before it by broadcast.

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
that goal state comes from this chunk or an earlier one. So does a
chunk after which the level already queues more states than the cap
leaves to pop: those are the level's queue prefix, and the next round
sees the level overflow the cap. Exactly as many would not do, as the
cut level would then pass for a whole one. The summed sizes of the
chunks bound the level's distinct count from above; the exact count
takes a merge of the chunks so far, made only when that bound exceeds
the cap and has doubled since the last merge, so a level merges a
logarithmic number of times, not once per chunk.

Chunk lemma: expanding a chunk reads only the frontier, its cells and
flags, the visited keys, the program, the enable table, ``keep``,
``bars`` and ``highs``, none of which changes during a level, so the
chunks of a level are independent work.
Taking their results in chunk order lists the children exactly as one
pass over the frontier would, so the ordering lemma holds however the
chunks are expanded. With two CPUs, one worker thread expands every
other chunk of a level while this thread expands the one before it. It
holds one chunk at a time, and ``_expand`` waits for it before
returning. Memory rule: every thread has its own malloc arena, which
keeps what the thread freed. So there is one worker for the life of the
process, started the first time a level spans two chunks, and its
results are copied into this thread's arrays: its arena then holds no
more than one chunk's scratch memory.

Distance lemma: every action flips exactly one bit, an assign needing
its target absent and a revoke needing it held. So a state first queued
at level k differs from ``init`` in at most k bits, a count with the
parity of k. The visited keys are kept in two sorted arrays, one per
level parity, and the children of level d are looked up only in the
array of parity d + 1. This changes which keys are searched, never
which children are kept. An action moves its bit away from ``init``
when it assigns a role not held initially or revokes one that was, that
is when its target test needs ``init``'s bit.

Sleep lemma: an action's effect is the tested bits that flipping its
target can change (its role bit and the authorization bits the target
sets), and its test is the tested bits its test rows read. Actions a
and b depend on each other when one's effect meets the other's test;
two actions on one role always do. Let state q be first queued by
action b from parent p, and let a < b be independent of b and enabled
at q. Then a is enabled at p, so p ^ flip[a], generated at (p, a) before
(p, b), is queued before q or visited. And b is enabled at p ^ flip[a],
so the cell (p ^ flip[a], b) generates q ^ flip[a] before (q, a) does.
So no cell (q, a) of that kind is the first occurrence of its child,
and dropping all of them leaves the queue and its cells as they are. From
the level that builds the enable table on, each state's enabled bitset
is ANDed with ``keep[b]``: the actions a >= b, or dependent on b, where
b is the action of the state's cell (every action for the initial
state). Earlier levels drop nothing, which the lemma allows, as it
holds for any subset of the cells it drops.

Undo lemma: call an action back when it moves its bit toward ``init``,
and let U hold the bits some back action flips. G[b] holds b's own bit
and every bit x that can be restored to its initial value while b, or a
sibling of b, stays enabled. Restoring x clears only bits of its effect
(as in the sleep lemma) if x starts absent, and sets only such bits if
it starts held; so b stays enabled when x's effect misses the bits b
needs held, or those it needs clear, respectively. A sibling of b is an
action with b's flip and test rows whose need row is b's with x's bit at
its initial value; when x grants no other role and no other role grants
it, restoring x changes only that bit, so the sibling stays enabled. The
initial state is free, and a state q first queued by (p, b) is free when
p is free and every bit of U in which q differs from ``init`` lies in
G[b]. Claim: if q is free at level d and x is such a bit, then q with x
restored is reachable in d - 1 steps. If x is b's bit, that state is p.
Otherwise p differs from ``init`` in x, so by induction p with x
restored is reachable in d - 2 steps, where x in G[b] lets b or its
sibling take it to q with x restored. A back action enabled at q
restores a bit of U in which q differs from ``init``, so its child was
queued at an earlier level, all of which are whole: a free state
takes only its away actions (``keep``'s second half). Only cells with
visited children are dropped, so the queue, its cells and its flags
stay those of the FIFO search. A free state at level d differs from
``init`` in d bits (were the step that queued it back, the claim for
its free parent would reach it in d - 2 steps), so its children, d + 1
bits from ``init``, are farther than any visited state: they are not
looked up.
``bars[b]`` holds U less G[b]. The level that builds the enable table
flags its states by checking each along its path of first-queuing cells
(``_free``); after it, a queued child of a free parent is free when
``child ^ init`` misses ``bars[b]``. Earlier levels flag no state free
and drop nothing, which the lemma allows, and small searches never pay
for G.

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

import os
import threading
from typing import NamedTuple

import numpy as np

# (state, action) cells per frontier chunk: states x actions
CELLS = 1 << 20

# whether a worker thread expands every other chunk of a level: on one
# CPU it gains no time and adds a malloc arena, about 6 MiB of peak RSS
PAIRED = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
) >= 2

# the worker's executor, made when a level first spans two chunks: one
# thread for the life of the process, so one malloc arena
_workers: list = []
_worker_lock = threading.Lock()
if hasattr(os, "register_at_fork"):  # a forked child has no worker thread
    os.register_at_fork(after_in_child=_workers.clear)


class SearchResult(NamedTuple):
    action_ids: list[int] | None  # action positions along the witness path
    popped: int
    truncated: bool


class Work(NamedTuple):
    """What expanding the level before took."""

    cells: int  # (state, action) cells its chunks generated
    looked_up: int  # children its chunks looked up among the visited keys
    chunks: int  # chunks expanded, a worker's dropped one included
    merges: int  # merges of the chunks' results


class Level(NamedTuple):
    """One level of the FIFO search's queue (see ``levels``)."""

    states: np.ndarray  # (n, W) in queue order
    cells: np.ndarray  # (n,) parent queue position * A + action that first queued each, or 0
    free: np.ndarray  # (n,) the undo lemma's flags, as expanding the level reads them
    hit: bool  # whether a state meets the goal: the level ends at its chunk
    work: Work


class Program(NamedTuple):
    """A compiled policy: per-action tests on the tested words, the bit
    each action flips, the goal, and the authorization bits each role
    sets when held."""

    init: np.ndarray  # (W,) initial state
    test: np.ndarray  # (T, A): one row per tested word, T >= W
    need: np.ndarray  # same shape as test
    flip: np.ndarray  # (A, W) target bit of each action
    goal: np.ndarray  # (W,) roles whose holding authorizes the target
    grantors: tuple  # (word, shift) in the state of the K roles that set some
    closure: np.ndarray  # (K, T) authorization bits each sets; K = 0 when flat


def set_bits(shape: tuple[int, ...], positions) -> np.ndarray:
    """uint64 words of ``shape``, zero but for the given bit positions;
    position p is bit p % 64 of word p // 64, counted in C order."""
    out = np.zeros(shape, np.uint64)
    at = np.asarray(positions, np.uint64)
    one = np.uint64(1) << (at & np.uint64(63))
    np.bitwise_or.at(out.reshape(-1), at >> np.uint64(6), one)
    return out


def _tested_words(program: Program, states: np.ndarray) -> np.ndarray:
    if not len(program.closure):
        return states
    word, shift = program.grantors
    held = ((states[:, word] >> shift) & 1).astype(np.bool_)
    words = np.bitwise_or.reduce(np.where(held[:, :, None], program.closure, 0), axis=1)
    words[:, : states.shape[1]] |= states
    return words


class EnableTable(NamedTuple):
    """The actions that each value of each tested byte allows."""

    at: np.ndarray  # (P,) byte positions some action tests, in the words' bytes
    rows: np.ndarray  # (P, 256, ceil(A / 64)) uint64 bitsets of actions


def _enable_table(program: Program) -> EnableTable:
    n_act = program.test.shape[1]
    test = np.ascontiguousarray(program.test.T).view(np.uint8).T  # (bytes, A)
    need = np.ascontiguousarray(program.need.T).view(np.uint8).T
    at = np.flatnonzero(test.any(axis=1))
    test, need = test[at], need[at]  # (P, A), rows contiguous
    value = np.arange(256, dtype=np.uint8)[:, None]
    rows = np.zeros((len(at), 256, -(-n_act // 64)), np.uint64)  # the bits past A stay clear
    for p in range(len(at)):  # one (256, A) bool block at a time
        ok = (value & test[p]) == need[p]
        rows[p].view(np.uint8)[:, : -(-n_act // 8)] = np.packbits(ok, axis=1, bitorder="little")
    return EnableTable(at, rows)


def _positions(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row and the position (bit p % 64 of word p // 64) of every set
    bit of the (n, T) uint64 ``rows``, in row order."""
    octets = rows.astype("<u8", copy=False).view(np.uint8)
    row, byte = np.nonzero(octets)
    bits = np.unpackbits(octets[row, byte][:, None], axis=1, bitorder="little")
    at, bit = np.nonzero(bits)
    return row[at], byte[at] * 8 + bit


def _keep(program: Program) -> np.ndarray:
    """(A, ceil(A / 64)) uint64 bitsets: row b holds the actions that a
    state first queued by action b may take without the sleep lemma
    dropping them, every a >= b and every a dependent on b. Row 0, which
    the initial state's cell 0 picks, holds every action."""
    n_act, n_bits = len(program.flip), 64 * len(program.test)
    width = -(-n_act // 64)
    # each action's effect: its role bit, and the authorization bits that
    # its target sets when held (its grantor's closure row)
    effect = np.zeros((n_act, len(program.test)), np.uint64)
    effect[:, : program.flip.shape[1]] = program.flip
    word, shift = program.grantors
    grantor = np.full(n_bits, -1)
    grantor[word * 64 + shift.astype(np.intp)] = np.arange(len(word))
    grantor = grantor[_positions(program.flip)[1]]  # one bit per action
    effect[grantor >= 0] |= program.closure[grantor[grantor >= 0]]
    # per tested bit, the actions whose effect holds it and those whose
    # test does, as runs of actions and as bitsets
    pairs = _positions(effect), _positions(np.ascontiguousarray(program.test.T))
    del effect
    runs = [_by_bit(actions, bits, n_bits) for actions, bits in pairs]
    sets = [set_bits((n_bits, width), bits * 64 * width + actions) for actions, bits in pairs]
    del pairs
    keep = np.zeros((n_act, width), np.uint64)
    ones = ~np.uint64(0)
    from_bit = ones << np.arange(64, dtype=np.uint64)
    for w in range(width):  # every a >= b, for 64 rows b at a time
        block = keep[64 * w : 64 * w + 64]
        block[:, w] = from_bit[: len(block)]
        block[:, w + 1 :] = ones
    # a bit in one action's effect and another's test makes them dependent
    for bit in np.flatnonzero(sets[0].any(axis=1) & sets[1].any(axis=1)):
        for (actions, at), dependent in zip(runs, sets[::-1]):
            keep[actions[at[bit] : at[bit + 1]]] |= dependent[bit]
    return keep


def _doubled(keep: np.ndarray, away: np.ndarray) -> np.ndarray:
    """``keep`` over a copy of its rows ANDed with the ``away`` actions."""
    return np.concatenate((keep, keep & set_bits(keep.shape[1:], np.flatnonzero(away))))


def _by_bit(actions: np.ndarray, bits: np.ndarray, n_bits: int):
    """``actions`` sorted by their ``bits``, and the n_bits + 1 offsets of the bits' runs."""
    order = np.argsort(bits, kind="stable")
    return actions[order], np.concatenate(([0], np.bincount(bits, minlength=n_bits).cumsum()))


def _undo(program: Program) -> np.ndarray:
    """(A, W) uint64: row b is the undo lemma's G[b], b's own bit and
    every bit x that can be restored to its initial value while b, or a
    sibling of b, stays enabled."""
    n_act, width = program.flip.shape
    test, need = program.test.T, program.need.T  # (A, T)
    # the role bits b needs away from their initial value: for a role that
    # sets no authorization bit, its whole effect meets b's test there
    bad = np.ascontiguousarray(test[:, :width] & (need[:, :width] ^ program.init))
    word, shift = program.grantors
    at = word * 64 + shift.astype(np.intp)
    if len(at):
        # a grantor's effect also holds its closure row: restoring it
        # clears those bits if it starts absent, so b must need none held,
        # and sets them if it starts held, so b must need none clear
        k, bit = _positions(program.closure)
        starts_held = ((program.init[word[k]] >> shift[k]) & 1).astype(np.bool_)
        for held, needs in ((False, need), (True, test & ~need)):
            # per tested bit, the grantors with that initial value holding it
            pick = starts_held == held
            holders = set_bits((64 * len(program.test), width),
                               bit[pick] * 64 * width + at[k[pick]])
            b, bit_b = _positions(np.ascontiguousarray(needs))
            if len(b):
                starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
                bad[b[starts]] |= np.bitwise_or.reduceat(holders[bit_b], starts, axis=0)
    undo = ~bad | program.flip
    # a sibling has b's flip and test rows and b's need row with x's bit at
    # its initial value; x sets no authorization bit and has none
    b, x = _positions(bad & ~set_bits((width,), at) & ~program.flip)
    if len(b):
        rows = np.ascontiguousarray(np.hstack((program.flip, test, need)))
        sibling = rows[b]
        sibling[np.arange(len(b)), width + len(program.test) + x // 64] ^= (
            np.uint64(1) << (x % 64).astype(np.uint64)
        )
        found = ~_absent(np.sort(_keys(rows)), _keys(sibling))
        undo |= set_bits(undo.shape, b[found] * 64 * width + x[found])
    return undo


def _enabled(program: Program, words: np.ndarray, table: EnableTable | None,
             keep: np.ndarray | None = None) -> np.ndarray:
    """The cells (row * A + action) of the actions the tested ``words``
    allow, in row-major order, looked up in ``table`` or, without one,
    tested by broadcast. With a table, ``keep`` holds one bitset per row
    of actions to keep (see the sleep and undo lemmas)."""
    test, need = program.test, program.need
    if table is None:
        ok = (words[:, :1] & test[0]) == need[0]
        for w in range(1, len(test)):
            ok &= (words[:, w : w + 1] & test[w]) == need[w]
        return ok.ravel().nonzero()[0]
    # every action tests its target bit, so at least one byte is tested
    values = words.view(np.uint8)[:, table.at]
    bits = table.rows[0].take(values[:, 0], axis=0)
    for p in range(1, len(table.at)):
        bits &= table.rows[p].take(values[:, p], axis=0)
    if keep is not None:
        bits &= keep
    # unpack only the nonzero words: word i of the flat bits starts at
    # cell 64 i, less the pad bits of the rows before it
    width = bits.shape[1]
    bits = bits.ravel()
    at = bits.nonzero()[0]
    base = at * 64 - at // width * (64 * width - test.shape[1])
    # nonzero runs faster on a bool array than on a uint8 one
    ones = np.unpackbits(bits.take(at).view(np.uint8), bitorder="little").view(np.bool_)
    hit = ones.nonzero()[0]
    return base.take(hit >> 6) + (hit & 63)


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
        # a word too wide even beside a ranked key is ranked first (n < 2**32)
        if bits + high + shift > 64 and high > shift and high + 2 * shift > 64:
            word = np.empty_like(acc)
            high = _rank(states[:, w], word)
        if bits + high + shift > 64:
            bits = _rank(acc, acc)
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


def _expand(program: Program, frontier: np.ndarray, free: np.ndarray, came: np.ndarray,
            known: np.ndarray, n_act: int, highs: list[int], table: EnableTable | None,
            keep: np.ndarray | None, bars: np.ndarray | None, room: int | None, offset: int):
    """The level that ``frontier``, at queue position ``offset``, queues,
    and its keys in sorted order. The children of ``free`` states are not
    looked up (see the undo lemma), the others only in ``known``, the
    sorted keys of the visited levels of their parity (see the distance
    lemma). Chunks stop at a goal state, or once more than ``room``
    (None: no cap) states are queued. The actions of the frontier's cells
    ``came`` pick its rows of ``keep``, a free state's in ``_doubled``'s
    second half; without ``keep`` and ``bars`` no state is free."""
    rows = max(1, CELLS // n_act)
    done = []  # per chunk expanded: its cells and its lookups

    def expand(lo: int):
        chunk, free_rows = frontier[lo : lo + rows], free[lo : lo + rows]
        after = None
        if keep is not None:
            after = keep.take(came[lo : lo + rows] % n_act + free_rows * n_act, axis=0)
        cells = _enabled(program, _tested_words(program, chunk), table, after)
        del after  # CELLS / 8 bytes, freed before the children are built
        parent, action = np.divmod(cells, n_act)
        children = chunk.take(parent, axis=0) ^ program.flip.take(action, axis=0)
        # a free parent's child is farther from init than any visited state
        far = free_rows.take(parent)
        del parent, action  # the chunk's scratch, freed before the sort
        first, keys = _distinct(children, highs)
        fresh = far[first]
        look = ~fresh
        fresh[look] = _absent(known, keys[look])
        done.append((len(cells), int(np.count_nonzero(look))))
        queued = _queued(first[fresh], len(cells))
        children, cells, free_children = children[queued], cells[queued], far[queued]
        if bars is not None:  # free: a free parent, and child ^ init misses bars[b]
            apart = (children ^ program.init) & bars.take(cells % n_act, axis=0)
            free_children &= ~apart.any(axis=1)
        return children, cells + (offset + lo) * n_act, free_children, keys[fresh]

    starts = range(0, len(frontier), rows)
    chunks = _in_pairs(expand, starts) if len(starts) > 1 and PAIRED else map(expand, starts)
    states, cells, free, keys, hit, merges = _level(chunks, program.goal, highs, room)
    return Level(states, cells, free, hit, Work(*map(sum, zip(*done)), len(done), merges)), keys


def _worker():
    """The executor of the one worker thread, made on first use."""
    with _worker_lock:
        if not _workers:
            from concurrent.futures import ThreadPoolExecutor

            _workers.append(ThreadPoolExecutor(1))
        return _workers[0]


def _in_pairs(expand, starts: range):
    """``map(expand, starts)``, the worker expanding each odd chunk
    while this thread expands the even one before it. Both are done
    before either is yielded, and the worker's arrays are copied into
    this thread's."""
    for i in range(0, len(starts), 2):
        theirs = _worker().submit(expand, starts[i + 1]) if i + 1 < len(starts) else None
        try:
            ours = expand(starts[i])
        finally:  # even if this thread failed, the worker's chunk ends here
            if theirs is not None:
                theirs = [a.copy() for a in theirs.result()]  # re-raises its error
        yield ours
        if theirs is not None:
            yield theirs


def _level(chunks, goal: np.ndarray, highs: list[int], room: int | None):
    """The level that the expanded ``chunks``, taken in order, queue: its
    children, cells and free flags, their sorted keys, whether one meets
    the goal (see ``_expand``) and the merges it took."""
    parts, count, merged, merges = [], 0, (), 0
    for *columns, keys in chunks:
        parts.append(columns)
        hit = bool((columns[0] & goal).any())
        if hit:
            break  # the rest of the level queues behind this goal state
        # at least the level's distinct states: a child found by two chunks
        # since the last merge counts twice
        count += int(_absent(merged, keys).sum()) if len(merged) else len(keys)
        if room is None or count <= room:
            continue
        if len(parts) > 1 and count >= 2 * len(merged):
            # the exact count, merged once each time the level doubles
            *columns, keys = _merge(parts, highs)
            parts, count, merged, merges = [columns], len(keys), keys, merges + 1
        if len(parts) == 1 and count > room:
            break  # the queue prefix the cap pops is complete
    if len(parts) > 1:
        *columns, keys = _merge(parts, highs)
        merges += 1
    return (*columns, keys, hit, merges)


def _absent(known: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which of ``keys`` the sorted ``known`` lacks."""
    if not len(known):
        return np.ones(len(keys), np.bool_)
    at = np.minimum(known.searchsorted(keys), len(known) - 1)
    return known[at] != keys


def _merge(parts: list, highs: list[int]):
    """The children, cells and free flags of the chunk results
    ``parts``, which it empties, and the children's sorted keys: a child
    found in several chunks keeps its earliest chunk's occurrence."""
    columns = [np.concatenate(column) for column in zip(*parts)]
    parts.clear()  # free the chunks before the sort
    first, keys = _distinct(columns[0], highs)
    queued = _queued(first, len(columns[0]))
    return (*(column[queued] for column in columns), keys)


def _free(program: Program, frontier: np.ndarray, cell: np.ndarray, bars: np.ndarray,
          n_act: int) -> np.ndarray:
    """The undo lemma's free flags of ``frontier``, the last level that
    ``cell`` (parent * A + action per queue position) holds, checked
    along each state's path back to the initial state."""
    at = np.arange(len(cell) - len(frontier), len(cell))
    apart = frontier ^ program.init  # where each path's state differs from init
    free = np.ones(len(frontier), np.bool_)
    while at.any():  # every state of one level reaches position 0 at once
        at, action = np.divmod(cell[at], n_act)
        free &= ~(apart & bars[action]).any(axis=1)
        apart ^= program.flip[action]
    return free


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


def levels(program: Program, max_states: int | None):
    """The FIFO search's queue level by level, up to one that is empty,
    meets the goal, or holds more states than ``max_states`` (None: no
    cap) leaves to pop; each with the free flags its expansion reads."""
    n_act = max(1, len(program.flip))
    # a state holds only initial and flipped bits
    held = program.init | np.bitwise_or.reduce(program.flip, axis=0)
    highs = [int(word).bit_length() for word in held]
    table = keep = bars = None  # built when a level first fills a chunk
    init = program.init[None, :]
    level = Level(init, np.zeros(1, np.intp), np.zeros(1, np.bool_),
                  bool((program.init & program.goal).any()), Work(0, 0, 0, 0))
    # the sorted keys of the visited levels of the level's parity, then the other's
    visited, keys = [_keys(init[:0])] * 2, _keys(init)
    cells, offset = [], 0  # parent * A + action per queue position; the level's position
    while True:
        n = len(level.states)
        room = None if max_states is None else max_states - offset - n
        last = level.hit or not n or room is not None and room < 0
        cells.append(level.cells)
        if table is None and n * n_act >= CELLS and not last:
            # the actions that move their bit away from init (distance lemma)
            away = ~((program.need[: len(program.init)].T ^ program.init)
                     & program.flip).any(axis=1)
            table, keep = _enable_table(program), _doubled(_keep(program), away)
            # the bits some back action flips that G[b] lacks
            bars = np.bitwise_or.reduce(program.flip[~away], axis=0) & ~_undo(program)
            level = level._replace(free=_free(program, level.states, np.concatenate(cells), bars,
                                              n_act))
        yield level
        if last:
            return
        # after the yield, the level before let go: a stable sort of two
        # sorted runs is one linear merge, in place
        visited[0] = np.concatenate((visited[0], keys))
        visited[0].sort(kind="stable")
        level, keys = _expand(program, level.states, level.free, level.cells, visited[1], n_act,
                              highs, table, keep, bars, room, offset)
        visited.reverse()
        offset += n


def search(program: Program, max_states: int | None, max_depth: int | None) -> SearchResult:
    """``levels`` read as a result; a ``MemoryError`` drops the level being built."""
    n_act = max(1, len(program.flip))
    cells, offset = [], 0  # parent * A + action per queue position; the level's position
    try:
        for depth, level in enumerate(levels(program, max_states)):
            n = len(level.states)
            if not n or max_depth is not None and depth > max_depth:
                return SearchResult(None, offset, n > 0)
            popped = n if max_states is None else min(n, max_states - offset)
            cells.append(level.cells)
            if level.hit:
                hits = np.flatnonzero((level.states[:popped] & program.goal).any(axis=1))
                if len(hits):
                    found = offset + int(hits[0])
                    return SearchResult(_trace(found, cells, n_act), found + 1, False)
            if popped < n:
                return SearchResult(None, max_states, True)
            offset += n
    except MemoryError:
        return SearchResult(None, offset, True)
