from .coverage import ALLOWED, package_dir


def test_every_allowlisted_line_still_occurs_in_the_package():
    """``python -m tests.coverage`` excuses only lines the package holds,
    each with a reason."""
    pkg = package_dir()
    for name, line, reason in ALLOWED:
        text = (pkg / name).read_text().splitlines()
        assert reason and line in {t.strip() for t in text}, (name, line)
