"""The hot geometric loops, written once and compiled once per dimensionality.

The hot loops compare one box against many, dimension by dimension: the
read kernel's overlap test (:func:`repro.core.query.intersecting`), the
same test for a whole batch in one traversal
(:func:`repro.core.query.intersecting_many`) and fragment collection
(:func:`repro.core.query.fragments`), the delete's
search for a record's fragments (:func:`repro.core.query.locate`),
Guttman's ChooseLeaf (``RTree._choose_branch``), the SR-Tree's search for
a spanned branch (``SRTree._try_place_spanning``) and Guttman's quadratic
and linear splits (:mod:`repro.core.split`: PickSeeds' pair loop, PickNext
and the growth of the two group covers); the page serializer's slot loops
(:mod:`repro.storage.serializer`) unroll a slot's K lows and K highs the
same way.  Written as ``for d in range(K)``,
the inner loop costs more than the comparisons in it: an iterator per
entry tested.  Each of those loops is therefore one *template* beside the
code that calls it, and :func:`unrolled` compiles it for a given K with
the per-dimension work spelled out as a straight chain of comparisons.
K is a property of the input (``len(rect.lows)``), so every
dimensionality — 1 in ``rules/``, 2 in the paper's workloads, 3 and 4 in
the tests — runs code generated from the same template, and no per-K
variant is written by hand.

A template is the source of one function (after any import it needs).
``<<sep|text>>`` stands for ``text`` once per dimension, with ``{d}``
replaced by the dimension's index, joined by ``sep``::

    << or |lo[{d}] > rhi{d}>>   ->   lo[0] > rhi0 or lo[1] > rhi1   (K = 2)
    <<|rlo{d}, >>= rect.lows    ->   rlo0, rlo1, = rect.lows

The generated source is registered with :mod:`linecache` under a
filename naming the function and K (``<repro.core.kernel intersecting
K=2>``), so profiles and tracebacks show the instantiated lines.
"""

from __future__ import annotations

import functools
import linecache
import re
from typing import Any, Callable

__all__ = ["unrolled"]

_PER_DIMENSION = re.compile(r"<<(.*?)\|(.*?)>>")


@functools.cache
def unrolled(template: str, name: str, k: int) -> Callable[..., Any]:
    """The function ``name`` that ``template`` defines, instantiated for
    ``k`` dimensions (compiled on first use, then cached)."""
    source = _PER_DIMENSION.sub(
        lambda m: m[1].join(m[2].replace("{d}", str(d)) for d in range(k)), template
    )
    filename = f"<repro.core.kernel {name} K={k}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace: dict[str, Any] = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]
