"""Fuzz the descriptor loader: a mutated descriptor rebuilds its code or is refused.

Each example takes a valid descriptor of ``[8,4,6]`` over GF(2^8) or F_257,
in its v2 or v1 form, and puts JSON values in place of (or deletes) entries
at its top level and inside ``field``, ``layout``, ``xs`` and ``hashes``.
``code_from_descriptor`` must then either rebuild the original generator or
raise a :class:`PmCodeError`, which the command line reports with exit 2.
"""

import copy
import json
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from pmcode.cli import DESCRIPTOR_V1, code_from_descriptor, descriptor_for, generation_artifacts
from pmcode.construct import build_sparse_systematic
from pmcode.errors import PmCodeError
from pmcode.field import field_of_order

DELETE = object()
PLACES = (None, "field", "layout", "xs", "hashes")  # None: the top level

# Integers stay small, so that a mutated n, k or d builds in milliseconds;
# negative ones are refused before any code is built.  The larger ones are
# a field order, the default GF(2^8) polynomial and a modulus out of range.  Strings are the words a descriptor uses, or drawn
# from a short alphabet, which keeps hypothesis from building its Unicode
# tables (seconds).
INTEGERS = st.integers(-20, 12) | st.sampled_from([256, 257, 0x11D, 1 << 31])
WORDS = st.sampled_from([
    "prime", "binary8", "q", "poly", "sparse", "rbt", "vanilla", "packets", "u32be",
    "pmcode-descriptor-v1", "pmcode-descriptor-v2", "g_sys.txt",
]) | st.text("0123456789abcdefgpqx._", max_size=8)
SCALARS = st.none() | st.booleans() | INTEGERS | st.floats(allow_nan=False, allow_infinity=False) | WORDS
VALUES = SCALARS | st.lists(SCALARS, max_size=3) | st.dictionaries(WORDS, SCALARS, max_size=3)


@cache
def originals() -> tuple:
    """(descriptor, generator) for each field, in the v2 form and in the v1 form."""
    found = []
    for q in (256, 257):
        code = build_sparse_systematic(8, 4, 6, field=field_of_order(q))
        desc = descriptor_for(code, "sparse", generation_artifacts(code))
        v1 = {**{k: v for k, v in desc.items() if k != "layout"}, "format": DESCRIPTOR_V1}
        found += [(desc, code.generator), (v1, code.generator)]
    return tuple(found)


@st.composite
def mutated(draw):
    desc, generator = draw(st.sampled_from(originals()))
    desc = copy.deepcopy(desc)
    for _ in range(draw(st.integers(1, 3))):
        target = desc.get(draw(st.sampled_from(PLACES)), desc)
        if isinstance(target, dict):
            key = draw(st.sampled_from(sorted(target) + ["extra"]))
        elif isinstance(target, list) and target:
            key = draw(st.integers(0, len(target) - 1))
        else:
            continue
        value = draw(VALUES | st.just(DELETE))
        if value is DELETE:
            if isinstance(target, list) or key in target:
                del target[key]
        else:
            target[key] = value
    return json.loads(json.dumps(desc)), generator


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(mutated())
def test_mutated_descriptor_rebuilds_its_code_or_is_refused(case):
    desc, generator = case
    try:
        code = code_from_descriptor(desc)
    except PmCodeError:
        return
    assert code.generator == generator
