"""Fail unless a Tier-1 junit report fails exactly the two by-design tests.

    python .github/check_tier1.py tier1.xml

The two tests compare against recorded reference values that the program
does not reproduce (see ROADMAP.md, aim 3).  Any other failure or error
fails the check, and so does a pass, a skip or the absence of either of the
two.  Each of the two must fail on an assertion: a failure whose message
does not start with `assert` or `AssertionError` (a KeyError, say) fails the
check too.
"""

import sys
import xml.etree.ElementTree as ET

BY_DESIGN = {
    "tests.test_acceptance::test_six_pushforwards",
    "tests.test_acceptance::test_cli_verify_and_example",
}


def failing_tests(path):
    """{test id: message of its failure or error}."""
    failing = {}
    for case in ET.parse(path).iter("testcase"):
        bad = case.find("failure")
        if bad is None:
            bad = case.find("error")
        if bad is not None:
            name = "%s::%s" % (case.get("classname"), case.get("name"))
            failing[name] = bad.get("message", "")
    return failing


def main(argv):
    if len(argv) != 2:
        print("usage: python .github/check_tier1.py JUNIT_XML", file=sys.stderr)
        return 2
    failing = failing_tests(argv[1])
    for name in sorted(failing.keys() - BY_DESIGN):
        print("unexpected failure: %s" % name)
    for name in sorted(BY_DESIGN - failing.keys()):
        print("by-design failure did not fail: %s" % name)
    not_asserted = sorted(
        name for name in BY_DESIGN & failing.keys()
        if not failing[name].startswith(("assert", "AssertionError"))
    )
    for name in not_asserted:
        print("by-design failure did not fail on its assertion: %s: %s"
              % (name, failing[name]))
    if failing.keys() != BY_DESIGN or not_asserted:
        return 1
    print("failing set is exactly the %d by-design failures" % len(BY_DESIGN))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
