"""Every float tolerance of the package, named once by its purpose.

The paper's results are exact identities: prescribed lengths hold
exactly, and the stable norm agrees with the prescribing norm on the
lattice points of a disc.  Each name below marks one place where the
code lets float rounding stand in for such an identity, or bounds the
rounding an exact comparison would not see.  A name serves one purpose,
given in one line above it; two checks share a name only when they share
that reason at the same value.  Derived tolerances keep their
expressions, so the relations between them read off this file, and
`tests/test_tolerances.py` pins them.

Limits and budgets (class caps, step caps, pool sizes) are not
tolerances and stay with the code they bound.
"""

# -- exact identities checked in floats --------------------------------

#: Relative slack of an identity exact in real arithmetic, checked after rounding.
IDENTITY_RTOL = 1e-9
#: Added before flooring a ratio that is an integer in exact arithmetic.
FLOOR_SLACK = 1e-9
#: Absolute slack of a gauge inequality the convergence report checks.
CONVERGENCE_SLACK = 1e-9

# -- cover search -------------------------------------------------------

#: Relative slack of a length that equals a search or spectrum bound exactly.
SEARCH_RTOL = 1e-12
#: The A* heuristic is deflated by this factor to stay admissible under rounding.
HEUR_DEFLATE = 1e-12
#: Relative tie margin of the cover search's bar; wider than `HEUR_DEFLATE`.
PRUNE_RTOL = 4e-12
#: A length tops its rate-hull gauge by at most the deflation and recompute drift.
GAUGE_SKIP_RTOL = HEUR_DEFLATE + IDENTITY_RTOL
#: Rate-point advances this small are rounding noise of the positions.
ZERO_ADVANCE = 1e-15
#: Hull facets with a smaller cross product are flat; their normal overflows.
DEGENERATE_FACET = 1e-18
#: Rate points equal to this many decimals are one hull point, not two vertices.
RATE_POINT_DIGITS = 12

# -- ties between lengths -----------------------------------------------

#: Relative tolerance at which two analytically computed norm values tie.
LENGTH_TIE_RTOL = 1e-9
#: Lengths closer than this, relative, differ only by float rounding.
ROUNDING_GAP_RTOL = 1e-12
#: Relative tolerance at which two searched spectrum lengths tie; >= `LENGTH_TIE_RTOL`.
GROUP_RTOL = 1e-6
#: Floor of the spectrum's grouping scale, so a zero length groups only with zeros.
TINY_LENGTH = 1e-300
#: Headroom past the count-th norm value, so the enumeration box covers its ties.
BOX_TIE_MARGIN = 1e-6
#: Sharp-norm tie lengths are gauges on the bulged curve, which round off its level.
LEVEL_MATCH_RTOL = 1e-6

# -- norm validation ----------------------------------------------------

#: Arc centers carry square-root rounding, so a junction may look this reflex.
JUNCTION_SLACK = 1e-12
#: Gap below 2 required of ||u + v||; a straight boundary edge gives 0.
CONVEXITY_GAP = 1e-9
#: Sample pairs with a smaller cross product are parallel: no information.
PARALLEL_CUTOFF = CONVEXITY_GAP * 1e-3
