"""Static diff: similarity metrics, matching passes, classification."""

import hashlib
import json
import math
import random
import sys
from pathlib import Path

import pytest

from uptest.diff import (
    DiffResult,
    _cosine,
    _greedy_assign,
    _parent_depth_order,
    _xpath_vector,
    diff_ewtg,
    levenshtein_ratio,
    pair_distances,
)
from uptest.harness import export_ewtg, load_spec
from uptest.model import (
    ActionType,
    Ewtg,
    EwtgWidget,
    Input,
    Window,
    WindowKind,
    WindowTransition,
)

from uptest import fixture_path

from conftest import diff_is_empty
from random_ewtg import LARGE, random_ewtg_pair


# --- independent oracles --------------------------------------------------


def edit_distance_oracle(a: str, b: str) -> int:
    """Plain full-matrix dynamic program, kept separate from the implementation."""
    rows = len(a) + 1
    cols = len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            sub = d[i - 1][j - 1] + (a[i - 1] != b[j - 1])
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, sub)
    return d[rows - 1][cols - 1]


def ratio_oracle(a: str, b: str) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return 1.0 - edit_distance_oracle(a, b) / max(len(a), len(b))


def test_levenshtein_ratio_frozen_values():
    # values frozen from the dynamic-program oracle above
    assert levenshtein_ratio("kitten", "sitting") == pytest.approx(1.0 - 3 / 7)
    assert levenshtein_ratio("MainActivity", "HomeActivity") == pytest.approx(1.0 - 4 / 12)
    assert levenshtein_ratio("", "") == 1.0
    assert levenshtein_ratio("abc", "") == 0.0
    assert levenshtein_ratio("same", "same") == 1.0


def test_levenshtein_ratio_matches_oracle_on_random_strings():
    # exact equality: the distance is an integer, so the ratio must be bit-identical
    rng = random.Random(42)

    def word(alphabet, low, high):
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(low, high + 1)))

    # lengths up to 80 cross one 64-bit word; two letters give heavy repeats
    for alphabet in ("ab", "abcde", "aé日_"):
        for _ in range(150):
            pairs = [(word(alphabet, 0, 80), word(alphabet, 0, 80))]
            pairs.append((word(alphabet, 0, 3), word(alphabet, 60, 80)))  # very unequal
            for a, b in pairs:
                assert levenshtein_ratio(a, b) == ratio_oracle(a, b), (a, b)
                assert levenshtein_ratio(b, a) == ratio_oracle(b, a), (b, a)


def test_packed_distances_match_oracle_in_every_lane():
    # ``pair_distances`` packs the patterns in lanes, one block per text
    rng = random.Random(11)

    def word(alphabet, low, high):
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(low, high + 1)))

    # up to 25 lanes of up to 80 characters make blocks of many 64-bit
    # words; a repeated pattern gets a lane of its own, and an empty one
    # (the diff packs empty resource ids too) a lane of no bits
    cases = []
    for alphabet in ("ab", "abcde", "aé日_"):
        for _ in range(12):
            patterns = []
            for _ in range(rng.randrange(1, 26)):
                if patterns and rng.random() < 0.2:
                    patterns.append(rng.choice(patterns))
                else:
                    patterns.append(word(alphabet, 1, 80))
            if rng.random() < 0.3:
                patterns[rng.randrange(len(patterns))] = ""
            texts = [word(alphabet, 0, 80) for _ in range(2)]
            cases.append((patterns, texts))
            cases.extend((patterns, [text]) for text in texts)  # a single text
    # many texts of unequal lengths, the empty one among them, against
    # blocks of 1 to 200 bits: a text that ends early is read at its own
    # step while the longer ones run on
    rng = random.Random(12)
    for alphabet in ("ab", "abcde", "aé日_"):
        for _ in range(12):
            patterns = [word(alphabet, 0, 40) for _ in range(rng.randrange(1, 6))]
            texts = [word(alphabet, 0, 60) for _ in range(rng.randrange(2, 12))]
            texts.insert(rng.randrange(len(texts) + 1), "")
            cases.append((patterns, texts))
    cases += [
        ([""], ["", "a", "abc"]),  # an empty pattern: the distance is the text's length
        (["", "ab", ""], ["ba", ""]),
        (["a" * 70], ["a" * 69 + "b", "a"]),  # a lane wider than 64 bits
        (["ab", "abc"], []),  # no text
        ([], ["abc", ""]),  # no pattern
    ]
    for patterns, texts in cases:
        expected = [[edit_distance_oracle(p, t) for p in patterns] for t in texts]
        assert pair_distances(patterns, texts) == expected, (patterns, texts)


def test_parent_depth_order_puts_each_parent_first():
    def widget(wid, parent):
        return EwtgWidget(wid, "w", "View", wid, "", f"/{wid}", parent_id=parent)

    def walked(widgets):
        """Independent restatement: each widget's depth is the number of
        distinct widgets on its parent chain."""
        by_id = {w.id: w for w in widgets}

        def depth(w):
            seen = []
            parent = w.parent_id
            while parent in by_id and parent not in seen:
                seen.append(parent)
                parent = by_id[parent].parent_id
            return len(seen)

        return sorted(widgets, key=lambda w: (depth(w), w.id))

    rng = random.Random(5)
    for _ in range(300):
        ids = [f"x{i}" for i in range(rng.randrange(1, 12))]
        # each parent an earlier id, one outside them, or none: no cycle; the
        # shuffle puts children before their parents too
        widgets = [
            widget(wid, rng.choice([None, "elsewhere", *ids[:i]]))
            for i, wid in enumerate(ids)
        ]
        rng.shuffle(widgets)
        assert _parent_depth_order(widgets) == walked(widgets), widgets


def xpath_similarity(a: str, b: str) -> float:
    return _cosine(_xpath_vector(a), _xpath_vector(b))


def test_xpath_similarity_hand_computed_cosine():
    # token vectors {a:1, b:1} and {a:1, b:1, c:1}: dot 2, norms sqrt(2)*sqrt(3)
    assert xpath_similarity("/a/b", "/a/b/c") == pytest.approx(2 / math.sqrt(6))
    # {x:1, y:2} and {y:1}: dot 2, norms sqrt(5)*1
    assert xpath_similarity("/x/y/y", "/y") == pytest.approx(2 / math.sqrt(5))
    assert xpath_similarity("", "") == 1.0
    assert xpath_similarity("/a", "") == 0.0
    assert xpath_similarity("/a/b", "/a/b") == pytest.approx(1.0)
    assert xpath_similarity("/a", "/b") == 0.0


def greedy_oracle(candidates):
    """Independent restatement: take pairs highest score first, ties by order."""
    chosen = {}
    used = set()
    for score, order, base, upd in sorted(candidates, key=lambda c: (-c[0], c[1])):
        if base not in chosen and upd not in used:
            chosen[base] = upd
            used.add(upd)
    return chosen


def test_greedy_assignment_matches_oracle_on_random_inputs():
    rng = random.Random(7)
    for _ in range(100):
        candidates = []
        order = 0
        for b in range(rng.randrange(1, 5)):
            for u in range(rng.randrange(1, 5)):
                candidates.append(
                    (rng.choice([0.25, 0.5, 0.75, 1.0]), order, f"b{b}", f"u{u}")
                )
                order += 1
        assert _greedy_assign(list(candidates)) == greedy_oracle(candidates)


def test_greedy_assignment_is_one_to_one():
    candidates = [(1.0, 0, "b1", "u1"), (1.0, 1, "b2", "u1"), (0.9, 2, "b2", "u2")]
    assignment = _greedy_assign(candidates)
    assert assignment == {"b1": "u1", "b2": "u2"}


# --- structural matching --------------------------------------------------


def one_window_ewtg(window_name, class_name, widgets, kind=WindowKind.ACTIVITY):
    ewtg = Ewtg(launcher_window_id="w1")
    ewtg.windows["w1"] = Window(
        id="w1", name=window_name, kind=kind, class_name=class_name,
    )
    for wid, rid, cls, xpath in widgets:
        ewtg.widgets[wid] = EwtgWidget(
            id=wid, window_id="w1", class_name=cls, resource_id=rid,
            content_description="", xpath=xpath,
        )
    return ewtg


def test_identical_models_match_exactly():
    widgets = [("wd1", "ok", "Button", "/L/Button")]
    diff = diff_ewtg(
        one_window_ewtg("Main", "com.app.Main", widgets),
        one_window_ewtg("Main", "com.app.Main", widgets),
    )
    assert diff_is_empty(diff)
    assert diff.matched_windows == {"w1": "w1"}
    assert diff.matched_widgets == {"wd1": "wd1"}


def test_window_kind_change_is_never_a_correspondence():
    base = one_window_ewtg("Main", "com.app.Main", [])
    upd = one_window_ewtg("Main", "com.app.Main", [], kind=WindowKind.DIALOG)
    diff = diff_ewtg(base, upd)
    assert diff.deleted_windows == {"w1"}
    assert diff.added_windows == {"w1"}


def test_similar_window_is_replaced_not_deleted():
    base = one_window_ewtg("MainActivity", "com.app.MainActivity", [])
    upd = one_window_ewtg("HomeActivity", "com.app.HomeActivity", [])
    diff = diff_ewtg(base, upd)
    assert diff.replaced_windows == {"w1": "w1"}
    assert not diff.deleted_windows and not diff.added_windows


def test_widget_class_change_is_the_single_allowed_exception():
    base = one_window_ewtg(
        "Main", "com.app.Main", [("wd1", "addNewItem", "Button", "/L/Button")]
    )
    upd = one_window_ewtg(
        "Main", "com.app.Main", [("wd2", "addNewItem", "ImageView", "/L/ImageView")]
    )
    diff = diff_ewtg(base, upd)
    assert diff.replaced_widgets == {"wd1": "wd2"}


def test_dissimilar_widget_is_deleted_and_added():
    base = one_window_ewtg(
        "Main", "com.app.Main", [("wd1", "createdTime", "TextView", "/L/TextView")]
    )
    upd = one_window_ewtg(
        "Main", "com.app.Main", [("wd2", "cancel", "Button", "/Row/Button")]
    )
    diff = diff_ewtg(base, upd)
    assert diff.deleted_widgets == {"wd1"}
    assert diff.added_widgets == {"wd2"}


def two_window_ewtg(dest_of_click):
    ewtg = Ewtg(launcher_window_id="w1")
    for wid, name in (("w1", "Main"), ("w2", "Edit"), ("w3", "Settings")):
        ewtg.windows[wid] = Window(
            id=wid, name=name, kind=WindowKind.ACTIVITY, class_name=f"com.app.{name}",
        )
    ewtg.widgets["wd1"] = EwtgWidget(
        id="wd1", window_id="w1", class_name="Button", resource_id="go",
        content_description="", xpath="/L/Button",
    )
    ewtg.inputs["i1"] = Input(
        id="i1", window_id="w1", widget_id="wd1", action_type=ActionType.CLICK
    )
    ewtg.window_transitions["wt1"] = WindowTransition(
        id="wt1", destination_window_id=dest_of_click, input_id="i1",
    )
    return ewtg


def test_transition_with_changed_destination_is_replaced():
    diff = diff_ewtg(two_window_ewtg("w2"), two_window_ewtg("w3"))
    assert diff.replaced_transitions == {"wt1": "wt1"}
    assert not diff.matched_transitions


def test_transition_with_same_trigger_and_destination_is_matched():
    diff = diff_ewtg(two_window_ewtg("w2"), two_window_ewtg("w2"))
    assert diff.matched_transitions == {"wt1": "wt1"}
    assert diff_is_empty(diff)


def test_transition_of_a_deleted_widget_does_not_pair_with_a_widgetless_one():
    base = two_window_ewtg("w2")
    updated = two_window_ewtg("w2")
    del updated.widgets["wd1"]
    updated.inputs["i1"].widget_id = None  # a Click the spec gives no widget
    diff = diff_ewtg(base, updated)
    assert diff.deleted_widgets == {"wd1"}
    assert not diff.matched_transitions and not diff.replaced_transitions
    assert diff.deleted_transitions == {"wt1"}
    assert diff.added_transitions == {"wt1"}


def with_runtime_elements(ewtg):
    """Add a runtime-created window and widget, and transitions that use them."""
    ewtg.windows["w-rt"] = Window(
        id="w-rt", name="rt", kind=WindowKind.ACTIVITY, class_name="rt",
        runtime_created=True,
    )
    ewtg.widgets["wd-rt"] = EwtgWidget(
        id="wd-rt", window_id="w1", class_name="View", resource_id="rt",
        content_description="", xpath="/rt", runtime_created=True,
    )
    ewtg.inputs["i-rt"] = Input(
        id="i-rt", window_id="w1", widget_id="wd-rt", action_type=ActionType.CLICK
    )
    ewtg.window_transitions["wt-rt"] = WindowTransition(
        id="wt-rt", destination_window_id="w1", input_id="i-rt",
    )
    ewtg.inputs["i-to-rt"] = Input(
        id="i-to-rt", window_id="w1", action_type=ActionType.PRESS_MENU
    )
    ewtg.window_transitions["wt-to-rt"] = WindowTransition(
        id="wt-to-rt", destination_window_id="w-rt", input_id="i-to-rt",
    )
    return ewtg


def test_runtime_created_elements_stay_out_of_the_diff():
    runtime_ids = {"w-rt", "wd-rt", "wt-rt", "wt-to-rt"}

    def main():
        return one_window_ewtg("Main", "com.app.Main", [])

    for base, upd in (
        (with_runtime_elements(main()), main()),
        (main(), with_runtime_elements(main())),
        (with_runtime_elements(main()), with_runtime_elements(main())),
    ):
        diff = diff_ewtg(base, upd)
        assert diff_is_empty(diff)
        assert diff.matched_windows == {"w1": "w1"}
        for value in diff.to_dict().values():
            ids = set(value) | set(value.values() if isinstance(value, dict) else ())
            assert not ids & runtime_ids


def test_diff_result_json_round_trip():
    diff = diff_ewtg(two_window_ewtg("w2"), two_window_ewtg("w3"))
    restored = DiffResult.from_dict(json.loads(diff.to_json()))
    assert restored.to_dict() == diff.to_dict()


def test_self_diff_of_bundled_fixture_versions_is_empty():
    for name in ("diary", "dialog", "news", "deep"):
        spec = load_spec(fixture_path(name))
        for v in spec.versions:
            ewtg = export_ewtg(spec, v.version)
            assert diff_is_empty(diff_ewtg(ewtg, ewtg))


def _content(diff) -> bytes:
    """A diff's content in one fixed layout: indented, with sorted keys."""
    return json.dumps(diff.to_dict(), indent=2, sort_keys=True).encode("utf-8")


#: sha256 of the concatenated ``_content`` of both diffs of 50 random pairs,
#: frozen from the diff before it matched directly on the window graphs, over
#: its ``to_json()`` bytes in the same layout.
RANDOM_PAIRS_DIGEST = "98356edc08de045b2ba09a115eebc4e40f42b189f13e0432a9c3f68f8de7e38e"


def test_diff_of_random_window_graph_pairs_is_unchanged():
    digest = hashlib.sha256()
    classes = {key: 0 for key in DiffResult().to_dict()}
    for seed in range(50):
        base, updated = random_ewtg_pair(seed)
        for a, b in ((base, updated), (updated, base)):
            diff = diff_ewtg(a, b)
            digest.update(_content(diff))
            for key, value in diff.to_dict().items():
                classes[key] += len(value)
    # the pairs reach every class, so the digest covers every kind of outcome
    assert all(classes.values()), classes
    assert digest.hexdigest() == RANDOM_PAIRS_DIGEST


#: sha256 of the concatenated ``_content`` of both diffs of 20 large random
#: pairs, frozen from the diff that scored each pair of widgets on its own,
#: over its ``to_json()`` bytes in the same layout.
LARGE_PAIRS_DIGEST = "c7d98e3c848dc55b4b807647c79723cd8c191289e3ad8841aa10902a0ca1cc1f"


def test_diff_of_large_random_window_graph_pairs_is_unchanged():
    digest = hashlib.sha256()
    widest = empty_ids = lane_bits = replaced = 0
    for seed in range(20):
        base, updated = random_ewtg_pair(seed, LARGE)
        for a, b in ((base, updated), (updated, base)):
            diff = diff_ewtg(a, b)
            digest.update(_content(diff))
            replaced += len(diff.replaced_widgets)
            for window_id in diff.window_mapping():
                widgets = [
                    w for w in a.widgets.values()
                    if w.window_id == window_id and not w.runtime_created
                ]
                unpaired = [w for w in widgets if w.id not in diff.matched_widgets]
                widest = max(widest, len(widgets))
                empty_ids += sum(not w.resource_id for w in unpaired)
                # each id and a guard bit, side by side
                lane_bits = max(lane_bits, sum(len(w.resource_id) + 1 for w in unpaired))
    # windows of 30+ widgets, empty ids among the widgets scored for
    # correspondence, and one window's ids wider than a 64-bit word
    assert widest >= 30 and empty_ids and lane_bits > 64 and replaced, (
        widest, empty_ids, lane_bits, replaced,
    )
    assert digest.hexdigest() == LARGE_PAIRS_DIGEST


#: ``perfbench/appgen.py`` apps diffed version against version: two 60x40
#: apps of five versions at perturbation 0.15, the shape the ``gen-carry``
#: benchmark carries, whose perturbations rename widget ids and windows.
GENERATED_APPS = (1, 2)

#: sha256 of the concatenated ``to_json()`` of the diff of every ordered pair
#: of each generated app's versions, self-pairs included, frozen from the
#: diff that ran one packed pass per unpaired updated widget.
GENERATED_PAIRS_DIGEST = "6a8809c4889e3d7d0f7ab1c101b294d3c2b109230c57a89c7db305b810838549"


def test_diff_of_generated_app_versions_is_unchanged():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import appgen
    finally:
        sys.path.pop(0)
    digest = hashlib.sha256()
    classes = {key: 0 for key in DiffResult().to_dict()}
    for app in GENERATED_APPS:
        spec = load_spec(appgen.generate_app(app, 60, 40, perturbation=0.15, versions=5))
        ewtgs = [export_ewtg(spec, v.version) for v in spec.versions]
        for a in ewtgs:
            for b in ewtgs:
                diff = diff_ewtg(a, b)
                digest.update(diff.to_json())
                for key, value in diff.to_dict().items():
                    classes[key] += len(value)
    # the versions replace, add and delete windows, widgets and transitions
    assert all(classes.values()), classes
    assert digest.hexdigest() == GENERATED_PAIRS_DIGEST
