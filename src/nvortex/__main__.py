"""``python -m nvortex``: the same command line as the ``nvortex`` script."""

from .cli import run

run()
