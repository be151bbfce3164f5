"""holodyn: a numerical laboratory for attracting sets of polynomial
automorphisms of C^2."""

__version__ = "0.1.0"
