"""The maps' table-driven cores against the per-block readings they replace.

``compositions._text_parts`` reads each distinct block once per table, and
``bijection._phi_text`` and ``_phi_inv_text`` rewrite only the final block,
once per distinct final block.  The reference functions here are the
readings those cores made before: every block of every text through
``_scan_blocks`` and ``min_valleys``, and the whole path rebuilt by
``_render_blocks``.
"""

import math
from itertools import product

import pytest

import rdyck.bijection
import rdyck.compositions
from rdyck import PathClass, RationalParam, path_to_comp, valley_slope
from rdyck.bijection import _ceil_div, _demand, _min_conversion, _peaks_first, _phi_inv_text, _phi_text
from rdyck.classes import _member_texts
from rdyck.cli import run
from rdyck.compositions import _text_parts
from rdyck.core import DyckPath, _render_blocks, _scan_blocks, min_valleys
from rdyck.verify import first_faults, oracle_generate

# every coprime r, s <= 5
PARAMS = [RationalParam(r, s) for r, s in product(range(1, 6), repeat=2) if math.gcd(r, s) == 1]


def reference_text_parts(q, text):
    blocks = _scan_blocks(text)
    if blocks is None:
        return None
    parts = []
    for peaks, valleys in blocks:
        if peaks:
            demand = min_valleys(q, peaks)
            if valleys < demand:
                return None
            parts.append(peaks + demand)
            valleys -= demand
        parts.extend([1] * valleys)
    return tuple(parts)


def reference_phi_text(q, t, text):
    if not text:
        return "UD" * (t + 1)
    *head, (peaks, valleys) = _scan_blocks(text) or ((0, 0),)
    if valleys and peaks != q.r and valleys < _demand(q, peaks):
        raise RuntimeError(f"unexpected final block {(peaks, valleys)} outside the restricted family")
    h = _min_conversion(q, t, peaks, valleys)
    if q.s == t * q.r + 1 and h != max(0, _ceil_div(peaks * t - valleys + 1, t + 1) - 1):
        raise RuntimeError("conversion count: closed form and minimal search disagree")
    return _render_blocks((*head, (peaks - h, valleys + h + t + 1)))


def reference_phi_inv_text(q, t, text):
    if text == "UD" * (t + 1):
        return ""
    *head, (peaks, valleys) = _scan_blocks(text)
    valleys -= t + 1
    if valleys < _demand(q, peaks):
        peaks, valleys = _peaks_first(q, peaks + valleys)
    return _render_blocks((*head, (peaks, valleys)))


def outcome(core, *args):
    """What ``core`` returns, or the type and text of what it raises."""
    try:
        return core(*args)
    except (RuntimeError, ValueError) as exc:
        return type(exc), str(exc)


def members(q, nmax):
    """The texts of every family's members at semilength <= ``nmax``, each once."""
    texts = {text for n in range(nmax + 1) for path_class in PathClass for text in _member_texts(q, path_class, n)}
    return sorted(texts, key=lambda text: (len(text), text))


@pytest.mark.parametrize("q", PARAMS, ids=str)
def test_cores_match_the_per_block_readings(q):
    # one table per core serves every text, so entries met before, the
    # rejections too, are read back from it
    t = (q.s - 1) // q.r
    blocks, phi_tails, inverse_tails = {}, {}, {}
    rejected = 0
    for text in members(q, 12):
        parts = reference_text_parts(q, text)
        rejected += parts is None
        assert _text_parts(q, text, blocks) == parts, text
        assert outcome(_phi_text, q, t, text, phi_tails) == outcome(reference_phi_text, q, t, text), text
        if len(text) >= 2 * (t + 1):
            expected = outcome(reference_phi_inv_text, q, t, text)
            assert outcome(_phi_inv_text, q, t, text, inverse_tails) == expected, text
    # a quasi member may end short of its demand, which the full part set
    # rejects; more texts are rejected than the table holds rejections
    assert rejected > list(blocks.values()).count(None) > 0


@pytest.mark.parametrize(
    "q,text",
    [(RationalParam(3, 4), "UUUDUDDD"), (RationalParam(1, 1), "UUDUDDUD")],
    ids=["height-three", "short-block"],
)
def test_invalid_text_reads_as_none(capsys, q, text):
    # a path of height three fails the height test; at 1/1 the block (2, 1)
    # is one valley short, whether its reading is new or cached
    blocks = {}
    assert _text_parts(q, text, blocks) is None
    assert _text_parts(q, text, blocks) is None
    assert list(blocks.values()) in ([], [None])
    message = f"path is not a rational-family member for {q}: {text!r}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        path_to_comp(q, DyckPath(text))
    assert run(["map", "path2comp", "--q", str(q), text]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("q", [RationalParam(3, 2), RationalParam(3, 4)], ids=str)
def test_each_distinct_block_is_read_once_per_semilength(monkeypatch, q):
    # verify's map checks hold one table per semilength, so a block's demand
    # and a final block's conversion are computed at most once there, not
    # once per text that holds them
    calls = dict.fromkeys(["min_valleys", "_min_conversion"], 0)

    def count_calls(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    count_calls(rdyck.compositions, "min_valleys")
    count_calls(rdyck.bijection, "_min_conversion")
    nmax = 14
    assert not any(first_faults(q, nmax).values())
    monkeypatch.undo()
    t = (q.s - 1) // q.r
    bijective = valley_slope(q) is not None
    demands = conversions = 0
    for n in range(1, nmax + 1):
        families = oracle_generate(q, n)
        texts = families[PathClass.RATIONAL] + families[PathClass.RESTRICTED]
        demands += len({block for text in texts for block in _scan_blocks(text) if block[0]})
        if bijective and n > t:
            domain = oracle_generate(q, n - t - 1)[PathClass.QUASI]
            conversions += len({(_scan_blocks(text) or ((0, 0),))[-1] for text in domain})
    if not bijective:
        # collision_pair maps its two single-block paths
        conversions += 2
    assert 0 < calls["min_valleys"] <= demands
    assert 0 < calls["_min_conversion"] <= conversions
