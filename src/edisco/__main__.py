import sys

from .cli import program

sys.exit(program())
