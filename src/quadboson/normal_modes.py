"""Empty: a form's normal modes are readings of its transform.

The boson-diagonal representation H = sum_i lambda_i (b'bar_i b'_i + 1/2)
and the coordinate/momentum one H = (1/2) sum_i (T'_i p'_i^2 + V'_i q'_i^2)
are both read off W by :class:`~quadboson.spectral.BogoliubovTransform`
(``extract_b``, ``extract_bbar``, ``extract_q``, ``extract_p`` and
``coordinate_weights``), and a mode's growth label is swapped by
:meth:`~quadboson.spectral.ModePair.flipped`.  The module stays importable
for tools that import every package module by name.
"""
