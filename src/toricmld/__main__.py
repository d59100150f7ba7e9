"""`python -m toricmld`: the toricmld command, runnable from a checkout."""
from .cli import main
raise SystemExit(main())
