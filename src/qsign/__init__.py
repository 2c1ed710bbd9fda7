"""qsign: dual-route verification of the periodic sign pattern of the
Fourier coefficients of the tenth-order shifted-product quotient and its
reciprocal.

The coefficients are computed two independent ways -- exact truncated
integer series, and a Kloosterman/Bessel exact formula -- and every
quantitative step of the sign-pattern argument (twisted-sum bounds,
reduction identities, Bessel inequalities, modular transformations, and
the closing threshold inequality) is machine-checked with rigorous error
bounds.

The package re-exports nothing; import from its modules (``qsign.qseries``,
``qsign.exactformula``, ``qsign.verifier``, ...).
"""

__version__ = "0.1.0"
