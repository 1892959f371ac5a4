"""Static-model diffing between two app versions.

``diff_ewtg`` reads both window graphs directly and pairs their elements in
one pass: windows first, then widgets inside paired windows, then
transitions.  Each kind gets an exact pass (matched) and a greedy assignment
of correspondence candidates scored by string similarity (replaced), which
is the exact Levenshtein ratio computed with a bit-parallel edit distance.
Inside a window pair the resource ids of all unpaired base widgets are
packed side by side, one lane each, into one integer, so one pass over an
unpaired updated widget's id yields its distance to every one of them; each
widget's xpath token vector is built once, and each distinct pair of names,
class names or content descriptions is compared once per diff.  Transitions
pair on the same trigger instead, and the destination decides matched or
replaced.  Whatever is left unpaired is deleted (base side) or
added (updated side).  Runtime-discovered elements, and transitions that
reference them, are excluded on both sides so that they are never reported
as deletions.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
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


class PackedPatterns:
    """Exact Levenshtein distances from one text to many patterns in one pass.

    Myers' algorithm (J. ACM 1999) in Hyyrö's edit-distance form (2001): bit i
    of ``pv``/``mv`` says that cell i of a pattern's DP column is one more/less
    than cell i - 1, so each character of the text updates the whole column
    with a few integer operations.  The patterns sit side by side in one
    Python int (Hyyrö, Fredriksson and Navarro, ACM JEA 2006), each in its own
    lane with a zero guard bit above it: the carry of ``(eq & pv) + pv`` stops
    at the guard bit, and masking with the lane bits drops what a shift moves
    into it.  Row 0 of the matrix is 0..len(text), so a lane's distance is
    len(text) plus the vertical deltas summed down its column.
    """

    def __init__(self, patterns: list[str]):
        self.peq: dict[str, int] = {}  # character -> its positions in every lane
        self.lanes: list[int] = []
        self.bottoms = 0  # the lowest bit of each non-empty lane
        offset = 0
        for pattern in patterns:
            for i, ch in enumerate(pattern):
                self.peq[ch] = self.peq.get(ch, 0) | (1 << (offset + i))
            self.lanes.append(((1 << len(pattern)) - 1) << offset)
            if pattern:
                self.bottoms |= 1 << offset
            offset += len(pattern) + 1
        self.mask = sum(self.lanes)

    def distances(self, text: str) -> list[int]:
        """The edit distance from ``text`` to each pattern, in pattern order."""
        peq, mask, bottoms = self.peq, self.mask, self.bottoms
        pv, mv = mask, 0
        for ch in text:
            eq = peq.get(ch, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            # row 0 grows by one per column: shift a +1 into each lane's bottom
            ph = (((mv | ~(xh | pv)) << 1) & mask) | bottoms
            pv = (((pv & xh) << 1) | ~(xv | ph)) & mask
            mv = ph & xv
        n = len(text)
        return [n + (pv & lane).bit_count() - (mv & lane).bit_count() for lane in self.lanes]


def _ratio(a: str, b: str, distance: int) -> float:
    """1 - distance / max(len); 1.0 when both strings are empty."""
    longer = max(len(a), len(b))
    return 1.0 - distance / longer if longer else 1.0


def levenshtein_ratio(a: str, b: str) -> float:
    """1 - editDistance / max(len); 1.0 when both strings are empty."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    if a == b:
        return 1.0
    return _ratio(a, b, PackedPatterns([a]).distances(b)[0])


def _pair_ratio(ratios: dict[tuple[str, str], float], a: str, b: str) -> float:
    """``levenshtein_ratio(a, b)``, worked out once per pair held in ``ratios``."""
    ratio = ratios.get((a, b))
    if ratio is None:
        ratio = ratios[a, b] = levenshtein_ratio(a, b)
    return ratio


def _xpath_vector(path: str) -> tuple[Counter, float]:
    """The '/'-token count vector of a path and its Euclidean norm."""
    tokens = Counter(t for t in path.split("/") if t)
    return tokens, math.sqrt(sum(v * v for v in tokens.values()))


def _cosine(a: tuple[Counter, float], b: tuple[Counter, float]) -> float:
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
        def ids(key: str) -> set[str]:
            value = d.get(key, [])
            require(list, value)
            require(str, *value)
            return set(value)

        def pairs(key: str) -> dict[str, str]:
            value = d.get(key, {})
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


# --- matching ------------------------------------------------------------


def _greedy_assign(candidates: list[tuple[float, int, str, str]]) -> dict[str, str]:
    """1-to-1 assignment, highest score first, ties by insertion (document) order."""
    assignment: dict[str, str] = {}
    taken: set[str] = set()
    for _score, _order, base_id, upd_id in sorted(
        candidates, key=lambda c: (-c[0], c[1])
    ):
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
    """Parents before children so pairing can be checked incrementally."""
    by_id = {w.id: w for w in widgets}

    def depth(w: EwtgWidget) -> int:
        d = 0
        seen = set()
        parent = w.parent_id
        while parent in by_id and parent not in seen:
            seen.add(parent)
            d += 1
            parent = by_id[parent].parent_id
        return d

    return sorted(widgets, key=lambda w: (depth(w), w.id))


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
    The resource-id distances come from one packed pass per updated widget
    over the ids of all base widgets; content descriptions and class names,
    which few distinct strings make up, take their ratios from ``ratios``.
    Candidates keep (base, updated) order.
    """
    base_ids = PackedPatterns([bw.resource_id for bw in b_widgets])
    rid_distances = [base_ids.distances(uw.resource_id) for uw in u_widgets]
    vectors = {p: _xpath_vector(p) for p in {w.xpath for w in (*b_widgets, *u_widgets)}}
    candidates = []
    for i, bw in enumerate(b_widgets):
        for uw, distances in zip(u_widgets, rid_distances):
            rid_sim = _ratio(bw.resource_id, uw.resource_id, distances[i])
            if rid_sim < lev_threshold:
                continue
            cd_sim = _pair_ratio(ratios, bw.content_description, uw.content_description)
            if cd_sim < lev_threshold:
                continue
            xp_sim = _cosine(vectors[bw.xpath], vectors[uw.xpath])
            if xp_sim < xpath_threshold:
                continue
            class_sim = _pair_ratio(ratios, bw.class_name, uw.class_name)
            if class_sim >= lev_threshold:
                score = (rid_sim + cd_sim + xp_sim + class_sim) / 4
            elif _parents_paired(bw, uw, widget_pairs):
                score = (rid_sim + cd_sim + xp_sim) / 3  # className is the single allowed exception
            else:
                continue  # both the class name and the parent changed
            candidates.append((score, len(candidates), bw.id, uw.id))
    return candidates


def _window_key(w: Window) -> tuple:
    return (w.name, w.kind, w.class_name)


def _widget_key(w: EwtgWidget) -> tuple:
    return (w.resource_id, w.class_name, w.content_description, w.xpath)


def _by_key(elements: list, key) -> dict[tuple, list]:
    """Elements grouped by ``key``, each group in the order of ``elements``."""
    groups: dict[tuple, list] = {}
    for element in elements:
        groups.setdefault(key(element), []).append(element)
    return groups


def _static_windows(ewtg: Ewtg) -> list[Window]:
    return sorted((w for w in ewtg.windows.values() if not w.runtime_created), key=lambda w: w.id)


def _static_widgets_by_window(ewtg: Ewtg, windows: list[Window]) -> dict[str, list[EwtgWidget]]:
    by_window: dict[str, list[EwtgWidget]] = {w.id: [] for w in windows}
    for widget in sorted(ewtg.widgets.values(), key=lambda w: w.id):
        if not widget.runtime_created and widget.window_id in by_window:
            by_window[widget.window_id].append(widget)
    return by_window


def _static_transitions(
    ewtg: Ewtg, windows: list[Window]
) -> list[tuple[WindowTransition, Input]]:
    """Transitions between static windows on a static trigger, by source window then id.

    A transition's source window is its input's window.
    """
    window_ids = {w.id for w in windows}
    out = []
    for wt in ewtg.window_transitions.values():
        inp = ewtg.inputs.get(wt.input_id)
        if inp is None:
            continue
        if inp.window_id not in window_ids or wt.destination_window_id not in window_ids:
            continue
        if inp.widget_id is not None:
            widget = ewtg.widgets.get(inp.widget_id)
            if widget is None or widget.runtime_created:
                continue
        out.append((wt, inp))
    out.sort(key=lambda t: (t[1].window_id, t[0].id))
    return out


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
    upd_by_key = _by_key(upd_windows, _window_key)
    for bw in base_windows:
        same_key = upd_by_key.get(_window_key(bw))
        if same_key:
            result.matched_windows[bw.id] = same_key.pop(0).id
    matched_upd = set(result.matched_windows.values())
    unmatched_upd = [uw for uw in upd_windows if uw.id not in matched_upd]
    candidates = []
    for bw in base_windows:
        if bw.id in result.matched_windows:
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
    widget_pairs: dict[str, str] = {}
    for base_win_id, upd_win_id in sorted(window_pairs.items()):
        # parent-depth ordering guarantees parents are paired first
        b_widgets = _parent_depth_order(base_by_window[base_win_id])
        upd_by_key = _by_key(upd_by_window[upd_win_id], _widget_key)
        matched_upd = set()
        for bw in b_widgets:
            same_key = upd_by_key.get(_widget_key(bw), ())
            for i, uw in enumerate(same_key):
                if _parents_paired(bw, uw, widget_pairs):
                    result.matched_widgets[bw.id] = uw.id
                    widget_pairs[bw.id] = uw.id
                    matched_upd.add(uw.id)
                    del same_key[i]
                    break
        candidates = _widget_candidates(
            [bw for bw in b_widgets if bw.id not in result.matched_widgets],
            [uw for uw in upd_by_window[upd_win_id] if uw.id not in matched_upd],
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
        upd_transitions, lambda t: (t[1].window_id, t[1].action_type, t[1].widget_id)
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
    base_widgets = {w.id for ws in base_by_window.values() for w in ws}
    upd_widgets = {w.id for ws in upd_by_window.values() for w in ws}
    transition_pairs = {**result.matched_transitions, **result.replaced_transitions}
    result.deleted_windows = {w.id for w in base_windows} - window_pairs.keys()
    result.added_windows = {w.id for w in upd_windows} - set(window_pairs.values())
    result.deleted_widgets = base_widgets - widget_pairs.keys()
    result.added_widgets = upd_widgets - set(widget_pairs.values())
    result.deleted_transitions = {t.id for t, _ in base_transitions} - transition_pairs.keys()
    result.added_transitions = {t.id for t, _ in upd_transitions} - set(
        transition_pairs.values()
    )
    return result
