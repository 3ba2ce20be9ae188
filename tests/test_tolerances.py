"""The stated relations between the package's float tolerances."""

from stablenorm.tolerances import (
    BOX_TIE_MARGIN,
    CONVEXITY_GAP,
    GAUGE_SKIP_RTOL,
    GROUP_RTOL,
    HEUR_DEFLATE,
    IDENTITY_RTOL,
    LENGTH_TIE_RTOL,
    PARALLEL_CUTOFF,
    PRUNE_RTOL,
    ROUNDING_GAP_RTOL,
)


def test_stated_relations_hold():
    # the tie margin is strictly wider than the heuristic's deflation,
    # so a tie plateau never survives the cover search's bar
    assert PRUNE_RTOL > HEUR_DEFLATE
    # a spectrum length tops its gauge by the deflation and the
    # exact-recompute drift, no more
    assert GAUGE_SKIP_RTOL == HEUR_DEFLATE + IDENTITY_RTOL
    # the enumeration box reaches past every tie of its last value
    assert BOX_TIE_MARGIN > LENGTH_TIE_RTOL
    # a sample pair called parallel is far flatter than the gap a
    # strictly convex norm must show
    assert PARALLEL_CUTOFF < CONVEXITY_GAP
    # classes tied in the norm stay tied in a spectrum of the same
    # lengths; a spectrum may also join lengths the norm keeps apart
    # (between 1e-9 and 1e-6 apart, relative)
    assert GROUP_RTOL >= LENGTH_TIE_RTOL
    # a rounding gap is far below the default tie tolerance, so gaps the
    # tolerance merges are not all rounding
    assert ROUNDING_GAP_RTOL < LENGTH_TIE_RTOL
