"""Static-model diffing between two app versions.

``diff_ewtg`` reads both window graphs directly and pairs their elements in
one pass: windows first, then widgets inside paired windows, then
transitions.  Each kind gets an exact pass (matched) and a greedy assignment
of correspondence candidates scored by string similarity (replaced), which
is the exact Levenshtein ratio computed with a bit-parallel edit distance.
``pair_distances`` is the one edit-distance kernel: inside a window pair it
packs the resource ids of all unpaired base widgets side by side, one lane
each, into a block, holds one copy of the block per unpaired updated widget
in one integer, and runs one integer update per character step for all of
them, so one pass yields every (updated, base) distance of the pair.  Every
distance it returns is exact, read where its text ended, and so is every
ratio built from one.  Each widget's xpath token vector is built once per
window pair, and each distinct pair of names, class names or content
descriptions is compared once per diff.  Transitions pair on the same
trigger instead, and the destination decides matched or replaced.
Whatever is left unpaired is deleted (base side) or added (updated side).
Runtime-discovered elements, and transitions that reference them, are
excluded on both sides so that they are never reported as deletions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import zip_longest
from operator import attrgetter, itemgetter
from typing import Optional

from .model import (
    Ewtg,
    EwtgWidget,
    Input,
    Window,
    WindowTransition,
    compact_json,
    require,
    without_gc,
)


# --- string similarity ---------------------------------------------------


def pair_distances(patterns: list[str], texts: list[str]) -> list[list[int]]:
    """The exact edit distance of every (text, pattern) cell, in one pass.

    Myers' algorithm (J. ACM 1999) in Hyyrö's edit-distance form (2001): bit i
    of ``pv``/``mv`` says that cell i of a pattern's DP column is one more/less
    than cell i - 1, so each character of a text updates the whole column
    with a few integer operations.  The patterns sit side by side in a block
    (Hyyrö, Fredriksson and Navarro, ACM JEA 2006), each in its own lane with
    a zero guard bit above it: the carry of ``(eq & pv) + pv`` stops at the
    guard bit, and masking with the lane bits drops what a shift moves into
    it.  One integer holds one copy of the block per text, each copy a whole
    number of bytes wide and text ``s``'s the ``s``-th, so step ``j`` runs
    the update for the ``j``-th character of every text at once: ``eq`` is
    the bytes of each text's character mask, one block each, read as one
    integer, and a text that has ended contributes a block of no matches.  Row 0 of the matrix
    is 0..len(text), so a cell's distance is len(text) plus the vertical
    deltas summed down its lane, read from ``pv``/``mv`` as they stood at
    the step where its text ended; what a block does after that is never
    read.
    """
    peq: dict[str, int] = {}  # character -> its positions in every lane
    lanes: list[int] = []
    bottoms = 0  # the lowest bit of each non-empty lane
    bit = 1  # the next pattern character's position
    for pattern in patterns:
        lanes.append(((1 << len(pattern)) - 1) * bit)
        if pattern:
            bottoms |= bit
        for ch in pattern:
            peq[ch] = peq.get(ch, 0) | bit
            bit <<= 1
        bit <<= 1  # the guard bit
    size = (bit.bit_length() + 6) // 8  # a block in whole bytes
    zero = bytes(size)
    blocks = dict.fromkeys("".join(texts), zero)  # a text character -> its block of matches
    for ch in peq.keys() & blocks.keys():
        blocks[ch] = peq[ch].to_bytes(size, "little")
    blocks[None] = zero  # ``zip_longest``'s fill for a text that has ended
    copies = len(texts)
    mask = int.from_bytes(sum(lanes).to_bytes(size, "little") * copies, "little")
    bottoms = int.from_bytes(bottoms.to_bytes(size, "little") * copies, "little")
    pv, mv = mask, 0
    steps = [(pv, mv)]  # (pv, mv) after each step; ints, so a snapshot is a reference
    block_of, join, from_bytes = blocks.__getitem__, b"".join, int.from_bytes
    for column in zip_longest(*texts):
        eq = from_bytes(join(map(block_of, column)), "little")
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        # row 0 grows by one per column: shift a +1 into each lane's bottom.
        # ``mask ^ x`` stands for ``~x & mask`` on positive ints; it differs
        # only on a guard bit, which the shift moves onto the bottom of the
        # next lane, set by ``bottoms`` anyway, or onto the next guard bit,
        # which ``& mask`` clears.
        ph = (((mv | (mask ^ (xh | pv))) << 1) & mask) | bottoms
        pv = (((pv & xh) << 1) | (mask ^ (xv | ph))) & mask
        mv = ph & xv
        steps.append((pv, mv))
    cells = []
    for s, text in enumerate(texts):
        n = len(text)
        pv, mv = steps[n]
        pv >>= 8 * size * s  # text s's block to the bottom
        mv >>= 8 * size * s
        cells.append([n + (pv & lane).bit_count() - (mv & lane).bit_count() for lane in lanes])
    return cells


def levenshtein_ratio(a: str, b: str) -> float:
    """1 - editDistance / max(len); 1.0 when both strings are empty."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    if a == b:
        return 1.0
    return 1.0 - pair_distances([a], [b])[0][0] / max(len(a), len(b))


def _pair_ratio(ratios: dict[tuple[str, str], float], a: str, b: str) -> float:
    """``levenshtein_ratio(a, b)``, worked out once per pair held in ``ratios``."""
    ratio = ratios.get((a, b))
    if ratio is None:
        ratio = ratios[a, b] = levenshtein_ratio(a, b)
    return ratio


def _xpath_vector(path: str) -> tuple[dict[str, int], float]:
    """The '/'-token count vector of a path, in first-occurrence order, and its
    Euclidean norm."""
    tokens: dict[str, int] = {}
    for t in path.split("/"):
        if t:
            tokens[t] = tokens.get(t, 0) + 1
    return tokens, math.sqrt(sum(v * v for v in tokens.values()))


def _cosine(a: tuple[dict[str, int], float], b: tuple[dict[str, int], float]) -> float:
    """Cosine similarity of two ``_xpath_vector`` results; 1.0 for two empty paths."""
    (ta, norm_a), (tb, norm_b) = a, b
    if not ta and not tb:
        return 1.0
    if not ta or not tb:
        return 0.0
    return sum(ta[t] * tb[t] for t in ta if t in tb) / (norm_a * norm_b)


# --- diff result ---------------------------------------------------------


@dataclass
class DiffResult:
    added_windows: set[str] = field(default_factory=set)
    deleted_windows: set[str] = field(default_factory=set)
    replaced_windows: dict[str, str] = field(default_factory=dict)
    added_widgets: set[str] = field(default_factory=set)
    deleted_widgets: set[str] = field(default_factory=set)
    replaced_widgets: dict[str, str] = field(default_factory=dict)
    added_transitions: set[str] = field(default_factory=set)
    deleted_transitions: set[str] = field(default_factory=set)
    replaced_transitions: dict[str, str] = field(default_factory=dict)
    # 1-to-1 pairing of unchanged elements, base id -> updated id
    matched_windows: dict[str, str] = field(default_factory=dict)
    matched_widgets: dict[str, str] = field(default_factory=dict)
    matched_transitions: dict[str, str] = field(default_factory=dict)

    def window_mapping(self) -> dict[str, str]:
        mapping = dict(self.matched_windows)
        mapping.update(self.replaced_windows)
        return mapping

    def widget_mapping(self) -> dict[str, str]:
        mapping = dict(self.matched_widgets)
        mapping.update(self.replaced_widgets)
        return mapping

    def to_dict(self) -> dict:
        return {
            "addedWindows": sorted(self.added_windows),
            "deletedWindows": sorted(self.deleted_windows),
            "replacedWindows": dict(sorted(self.replaced_windows.items())),
            "addedWidgets": sorted(self.added_widgets),
            "deletedWidgets": sorted(self.deleted_widgets),
            "replacedWidgets": dict(sorted(self.replaced_widgets.items())),
            "addedTransitions": sorted(self.added_transitions),
            "deletedTransitions": sorted(self.deleted_transitions),
            "replacedTransitions": dict(sorted(self.replaced_transitions.items())),
            "matchedWindows": dict(sorted(self.matched_windows.items())),
            "matchedWidgets": dict(sorted(self.matched_widgets.items())),
            "matchedTransitions": dict(sorted(self.matched_transitions.items())),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DiffResult":
        """The diff ``to_dict`` wrote; raises one of ``SHAPE_ERRORS`` unless
        ``d`` holds exactly its keys, each a list of strings or an object
        from string to string as ``to_dict`` writes it."""
        require(dict, d)
        if d.keys() != _DIFF_KEYS:
            wrong = [f"missing key {k!r}" for k in sorted(_DIFF_KEYS - d.keys())]
            wrong += [f"unknown key {k!r}" for k in sorted(d.keys() - _DIFF_KEYS)]
            raise ValueError(", ".join(wrong))

        def ids(key: str) -> set[str]:
            value = d[key]
            require(list, value)
            require(str, *value)
            return set(value)

        def pairs(key: str) -> dict[str, str]:
            value = d[key]
            require(dict, value)
            require(str, *value, *value.values())
            return dict(value)

        return cls(
            added_windows=ids("addedWindows"),
            deleted_windows=ids("deletedWindows"),
            replaced_windows=pairs("replacedWindows"),
            added_widgets=ids("addedWidgets"),
            deleted_widgets=ids("deletedWidgets"),
            replaced_widgets=pairs("replacedWidgets"),
            added_transitions=ids("addedTransitions"),
            deleted_transitions=ids("deletedTransitions"),
            replaced_transitions=pairs("replacedTransitions"),
            matched_windows=pairs("matchedWindows"),
            matched_widgets=pairs("matchedWidgets"),
            matched_transitions=pairs("matchedTransitions"),
        )

    def to_json(self) -> bytes:
        return compact_json(self.to_dict())


#: The keys of a diff document, which ``from_dict`` requires exactly.
_DIFF_KEYS = frozenset(DiffResult().to_dict())


# --- matching ------------------------------------------------------------


def _greedy_assign(candidates: list[tuple[float, int, str, str]]) -> dict[str, str]:
    """1-to-1 assignment, highest score first, ties by insertion (document) order."""
    assignment: dict[str, str] = {}
    taken: set[str] = set()
    # a stable sort on score, highest first, keeps the order among equal scores
    by_order = sorted(candidates, key=itemgetter(1))
    for _score, _order, base_id, upd_id in sorted(by_order, key=itemgetter(0), reverse=True):
        if base_id in assignment or upd_id in taken:
            continue
        assignment[base_id] = upd_id
        taken.add(upd_id)
    return assignment


def _window_corresponds(
    a: Window, b: Window, threshold: float, ratios: dict[tuple[str, str], float]
) -> Optional[float]:
    """Same window type, other attributes similar.  Returns a score or None."""
    if a.kind != b.kind:
        return None
    name_sim = _pair_ratio(ratios, a.name, b.name)
    if name_sim < threshold:
        return None
    class_sim = _pair_ratio(ratios, a.class_name, b.class_name)
    if class_sim < threshold:
        return None
    return (name_sim + class_sim) / 2


def _parents_paired(a: EwtgWidget, b: EwtgWidget, widget_pairs: dict[str, str]) -> bool:
    if a.parent_id is None or b.parent_id is None:
        return a.parent_id is None and b.parent_id is None
    return widget_pairs.get(a.parent_id) == b.parent_id


def _parent_depth_order(widgets: list[EwtgWidget]) -> list[EwtgWidget]:
    """Parents before children so pairing can be checked incrementally: by
    depth, then id.

    A widget's depth is the number of widgets of ``widgets`` on its parent
    chain.  Depth 0 holds the widgets whose parent is not among them, and
    depth d + 1 the children of those at depth d.  The widgets hold no
    parent cycle, which ``load_spec`` and ``Ewtg.from_dict`` reject, so every
    widget has a depth.
    """
    by_id = {w.id: w for w in widgets}
    children: dict[str, list[EwtgWidget]] = {}
    level = []
    for w in widgets:
        if w.parent_id in by_id:
            children.setdefault(w.parent_id, []).append(w)
        else:
            level.append(w)
    levels = []
    while level:
        levels.append(level)
        level = [child for w in level for child in children.get(w.id, ())]
    return [w for level in levels for w in sorted(level, key=_id)]


def _widget_candidates(
    b_widgets: list[EwtgWidget],
    u_widgets: list[EwtgWidget],
    widget_pairs: dict[str, str],
    lev_threshold: float,
    xpath_threshold: float,
    ratios: dict[tuple[str, str], float],
) -> list[tuple[float, int, str, str]]:
    """Correspondence candidates among one window pair's unpaired widgets.

    A pair corresponds with a single allowed exception: parent or class name.
    The resource-id distances come from one ``pair_distances`` pass over the
    window pair: the ids of the base widgets are the patterns and those of
    the updated widgets the texts.  Content descriptions and class names,
    which few distinct strings make up, take their ratios from ``ratios``.
    Candidates keep (base, updated) order.
    """
    rid_distances = pair_distances(
        [bw.resource_id for bw in b_widgets], [uw.resource_id for uw in u_widgets]
    )
    vectors = {p: _xpath_vector(p) for p in {w.xpath for w in (*b_widgets, *u_widgets)}}
    updated = [
        (uw, len(uw.resource_id), uw.content_description, vectors[uw.xpath], uw.class_name, row)
        for uw, row in zip(u_widgets, rid_distances)
    ]
    candidates = []
    for i, bw in enumerate(b_widgets):
        b_len, b_cd, b_class = len(bw.resource_id), bw.content_description, bw.class_name
        b_vector = vectors[bw.xpath]
        for uw, u_len, u_cd, u_vector, u_class, row in updated:
            longer = b_len if b_len > u_len else u_len
            rid_sim = 1.0 - row[i] / longer if longer else 1.0
            if rid_sim < lev_threshold:
                continue
            cd_sim = ratios.get((b_cd, u_cd))
            if cd_sim is None:
                cd_sim = ratios[b_cd, u_cd] = levenshtein_ratio(b_cd, u_cd)
            if cd_sim < lev_threshold:
                continue
            xp_sim = _cosine(b_vector, u_vector)
            if xp_sim < xpath_threshold:
                continue
            class_sim = ratios.get((b_class, u_class))
            if class_sim is None:
                class_sim = ratios[b_class, u_class] = levenshtein_ratio(b_class, u_class)
            if class_sim >= lev_threshold:
                score = (rid_sim + cd_sim + xp_sim + class_sim) / 4
            elif _parents_paired(bw, uw, widget_pairs):
                score = (rid_sim + cd_sim + xp_sim) / 3  # className is the single allowed exception
            else:
                continue  # both the class name and the parent changed
            candidates.append((score, len(candidates), bw.id, uw.id))
    return candidates


_id = attrgetter("id")
_window_key = attrgetter("name", "kind", "class_name")
_widget_key = attrgetter("resource_id", "class_name", "content_description", "xpath")


def _by_key(elements: list, keys) -> dict[tuple, list]:
    """Elements grouped by their ``keys``, each group in the order of ``elements``."""
    groups: dict[tuple, list] = {}
    for element, key in zip(elements, keys):
        group = groups.get(key)
        if group is None:
            groups[key] = [element]
        else:
            group.append(element)
    return groups


def _static_windows(ewtg: Ewtg) -> list[Window]:
    return sorted((w for w in ewtg.windows.values() if not w.runtime_created), key=_id)


def _static_widgets_by_window(ewtg: Ewtg, windows: list[Window]) -> dict[str, list[EwtgWidget]]:
    """The static widgets of each of ``windows``, in id order."""
    by_window: dict[str, list[EwtgWidget]] = {w.id: [] for w in windows}
    for widget in ewtg.widgets.values():
        if not widget.runtime_created:
            group = by_window.get(widget.window_id)
            if group is not None:
                group.append(widget)
    for group in by_window.values():
        group.sort(key=_id)
    return by_window


def _static_transitions(
    ewtg: Ewtg, windows: list[Window]
) -> list[tuple[WindowTransition, Input]]:
    """Transitions between static windows on a static trigger, by source window then id.

    A transition's source window is its input's window.
    """
    window_ids = set(map(_id, windows))
    inputs, widgets = ewtg.inputs, ewtg.widgets
    out = []
    for wt in ewtg.window_transitions.values():
        inp = inputs.get(wt.input_id)
        if inp is None or inp.window_id not in window_ids:
            continue
        if wt.destination_window_id not in window_ids:
            continue
        if inp.widget_id is not None:
            widget = widgets.get(inp.widget_id)
            if widget is None or widget.runtime_created:
                continue
        out.append((inp.window_id, wt.id, wt, inp))
    out.sort()  # (window, id) is unique, so the sort never compares records
    return [(wt, inp) for _, _, wt, inp in out]


@without_gc
def diff_ewtg(
    base: Ewtg,
    updated: Ewtg,
    lev_threshold: float = 0.4,
    xpath_threshold: float = 0.4,
) -> DiffResult:
    """Pair windows, then widgets inside paired windows, then transitions."""
    result = DiffResult()
    ratios: dict[tuple[str, str], float] = {}  # (base text, updated text) -> ratio

    # Windows: exact on all attributes, then correspondence.
    base_windows = _static_windows(base)
    upd_windows = _static_windows(updated)
    upd_by_key = _by_key(upd_windows, map(_window_key, upd_windows))
    matched_windows = result.matched_windows
    for bw, key in zip(base_windows, map(_window_key, base_windows)):
        same_key = upd_by_key.get(key)
        if same_key:
            matched_windows[bw.id] = same_key.pop(0).id
    matched_upd = set(matched_windows.values())
    unmatched_upd = [uw for uw in upd_windows if uw.id not in matched_upd]
    candidates = []
    for bw in base_windows:
        if bw.id in matched_windows:
            continue
        for uw in unmatched_upd:
            score = _window_corresponds(bw, uw, lev_threshold, ratios)
            if score is not None:
                candidates.append((score, len(candidates), bw.id, uw.id))
    result.replaced_windows = _greedy_assign(candidates)
    window_pairs = result.window_mapping()

    # Widgets: matched inside paired windows only, exact pass then correspondence.
    base_by_window = _static_widgets_by_window(base, base_windows)
    upd_by_window = _static_widgets_by_window(updated, upd_windows)
    matched_widgets = result.matched_widgets
    widget_pairs: dict[str, str] = {}
    for base_win_id, upd_win_id in sorted(window_pairs.items()):
        # parent-depth ordering guarantees parents are paired first
        b_widgets = _parent_depth_order(base_by_window[base_win_id])
        u_widgets = upd_by_window[upd_win_id]
        upd_by_key = _by_key(u_widgets, map(_widget_key, u_widgets))
        matched_upd = set()
        for bw, key in zip(b_widgets, map(_widget_key, b_widgets)):
            same_key = upd_by_key.get(key)
            if not same_key:
                continue
            # the parent id its match must have (``_parents_paired``): none,
            # or the pair of its own; False, which no id equals, when unpaired
            parent = bw.parent_id
            parent = None if parent is None else widget_pairs.get(parent, False)
            for i, uw in enumerate(same_key):
                if uw.parent_id == parent:
                    matched_widgets[bw.id] = widget_pairs[bw.id] = uw.id
                    matched_upd.add(uw.id)
                    del same_key[i]
                    break
        candidates = _widget_candidates(
            [bw for bw in b_widgets if bw.id not in matched_widgets],
            [uw for uw in u_widgets if uw.id not in matched_upd],
            widget_pairs,
            lev_threshold,
            xpath_threshold,
            ratios,
        )
        assigned = _greedy_assign(candidates)
        result.replaced_widgets.update(assigned)
        widget_pairs.update(assigned)

    # Transitions: the same trigger (paired source window, action type, and
    # paired widget or none) pairs them; the destination decides whether the
    # pair is matched or replaced.
    base_transitions = _static_transitions(base, base_windows)
    upd_transitions = _static_transitions(updated, upd_windows)
    by_trigger = _by_key(
        upd_transitions,
        [(inp.window_id, inp.action_type, inp.widget_id) for _, inp in upd_transitions],
    )
    for bt, inp in base_transitions:
        src_pair = window_pairs.get(inp.window_id)
        widget_pair = widget_pairs.get(inp.widget_id)
        if src_pair is None or (inp.widget_id is not None and widget_pair is None):
            continue  # an unpaired source window or widget pairs with nothing
        same_trigger = by_trigger.get((src_pair, inp.action_type, widget_pair))
        if not same_trigger:
            continue
        ut, _ = same_trigger.pop(0)
        if window_pairs.get(bt.destination_window_id) == ut.destination_window_id:
            result.matched_transitions[bt.id] = ut.id
        else:
            # same trigger, different destination: behaviour change
            result.replaced_transitions[bt.id] = ut.id

    # Whatever is left unpaired on either side was deleted or added.
    transition_pairs = {**result.matched_transitions, **result.replaced_transitions}
    result.deleted_windows = set(map(_id, base_windows)).difference(window_pairs)
    result.added_windows = set(map(_id, upd_windows)).difference(window_pairs.values())
    result.deleted_widgets = {
        w.id for ws in base_by_window.values() for w in ws
    }.difference(widget_pairs)
    result.added_widgets = {
        w.id for ws in upd_by_window.values() for w in ws
    }.difference(widget_pairs.values())
    result.deleted_transitions = {t.id for t, _ in base_transitions}.difference(transition_pairs)
    result.added_transitions = {t.id for t, _ in upd_transitions}.difference(
        transition_pairs.values()
    )
    return result
