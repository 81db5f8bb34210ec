"""A package (like ``tests`` and ``tests.net``) so that ``tests/sim`` and
``tests/net`` can each hold a ``test_against_seed.py``: pytest's default
import mode needs unique module names, and a bare basename is not one."""
