"""``python -m rangecontrol``: the same command line as the ``rangecontrol`` script."""

from .cli import main

if __name__ == "__main__":
    main()
