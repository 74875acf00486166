from hypothesis import settings

import _acceptance_log

# The active profile (Hypothesis's "ci" one on CI) plus the blob of every
# falsifying example: the @reproduce_failure line it prints replays a
# failure found elsewhere on any machine.
settings.register_profile("print-blob", settings(), print_blob=True)
settings.load_profile("print-blob")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_log.LINES:
        return
    terminalreporter.section("acceptance checks")
    for line in _acceptance_log.LINES:
        terminalreporter.write_line(line)
