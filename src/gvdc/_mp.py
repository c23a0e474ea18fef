"""mpmath at the 40 significant digits of the numeric audits.

Only the functions that compute in mpmath import from this module, inside
their bodies, so a run that never reaches them does not load mpmath at
all.  Importing it sets the precision before any of them builds an mpf."""

import mpmath

mpmath.mp.dps = 40

log, mpf, nstr, power, sqrt = (mpmath.log, mpmath.mpf, mpmath.nstr,
                               mpmath.power, mpmath.sqrt)
