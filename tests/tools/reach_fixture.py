"""Functions of every shape the reach probe must name: the code objects
of this module are matched against its AST in ``test_reach.py``."""

import functools


@functools.lru_cache(maxsize=None)
def decorated(x):
    return x + 1


def outer(x):
    def nested(y):
        return y * 2

    return nested(x)


class Shape:
    def method(self):
        return 1

    @property
    def prop(self):
        return 2
